"""Self-tests of the benchmark's tracer and seeding.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

1. Every binding of every traced function is wrapped: no module of the
   package still holds an original after ``Tracer.install``.
2. Traced integrand evaluations equal the sum of ``IntegralResult.evaluations``
   the package's callers received.  A recorder wraps each caller-side
   binding of ``integrate_interval`` / ``integrate_real_line`` on top of the
   tracer; the endpoint-substitution recursion must not be counted twice.
3. Deadline signals that cut verdicts at many points leave the span table
   well formed, and the counts of a later verdict are those it has without
   the interruptions.
4. Two traced runs of every workload with one seed report identical
   machine-independent counts.

Exits 0 when all pass, 1 otherwise.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
WORKLOADS = ("gram", "verify", "completeness", "cli")
sys.path.insert(0, str(ROOT / "src"))


def _modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "ptsusy" or k.startswith("ptsusy.")]


def check_bindings(tracing) -> list[str]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        originals = {id(value) for _, _, value in tracer._patches}
        leftovers = []
        for module in _modules():
            for key, value in vars(module).items():
                if id(value) in originals:
                    leftovers.append(f"{module.__name__}.{key}")
    finally:
        tracer.uninstall()
    return leftovers


def check_evaluations(tracing) -> list[str]:
    import numpy as np
    from ptsusy import coherent, operators, wavefn
    from ptsusy.quadrature import QuadratureConfig
    from ptsusy.spectrum import ModelParams

    params = ModelParams(nu=1.0, beta=2.0)
    received = {tracing.INTERVAL: [0, 0], tracing.REAL_LINE: [0, 0]}

    def recorder(fn, key):
        def record(*args, **kwargs):
            result = fn(*args, **kwargs)
            received[key][0] += 1
            received[key][1] += result.evaluations
            return result

        return record

    tracer = tracing.Tracer()
    tracer.install()
    saved = []
    try:
        for module in (wavefn, operators, coherent):
            for attr, key in (("integrate_interval", tracing.INTERVAL), ("integrate_real_line", tracing.REAL_LINE)):
                if hasattr(module, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, recorder(getattr(module, attr), key))
        cfg = QuadratureConfig(endpoint_substitution=True, abs_tol=1e-9, rel_tol=1e-8)
        tracer.begin_verdict(0)
        funcs = [wavefn.eigenfunction(params, 0, n) for n in range(11)]
        wavefn.gram_matrix(funcs, params.length, cfg)
        tracer.end_verdict(keep=True)
        gram_calls = tracer.counts[f"{tracing.INTERVAL}.calls"]
        gram_evals = tracer.counts[f"{tracing.INTERVAL}.evals"]
        tracer.begin_verdict(1)
        coherent.resolution_kernel(params, 0, np.array([0.01, 0.5, 0.9]))
        coherent.identity_gram_projection(params, 1, 2)
        operators.verify_operator_identities(params, 2, 1)
        tracer.end_verdict(keep=True)
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
        tracer.uninstall()
    print(f"one 11x11 Gram matrix: {gram_calls} integrals, {gram_evals} evaluations")
    failures = []
    for key, (calls, evals) in received.items():
        traced = (tracer.counts[f"{key}.calls"], tracer.counts[f"{key}.evals"])
        print(f"{key}: callers received {calls} results, {evals} evaluations; traced {traced[0]}, {traced[1]}")
        if traced != (calls, evals):
            failures.append(f"{key}: traced {traced} != received {(calls, evals)}")
    return failures


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
        check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    # span totals include the timing-dependent work of verdicts cut by a deadline
    return {
        k: v["value"]
        for k, v in metrics.items()
        if (v["unit"] == "count" and k != "trace.spans") or k.endswith("cache_hit_ratio")
    }


def check_deadlines(tracing) -> list[str]:
    """Cut one verify cell by SIGALRM after 1, 2, ... 40 ms, then run it whole."""
    from run import Deadline, _on_alarm

    from ptsusy import operators
    from ptsusy.spectrum import ModelParams

    params = ModelParams(nu=1.0, beta=2.0)

    def cell(tracer, index):
        tracer.begin_verdict(index)
        operators.verify_operator_identities(params, 2, 1)
        tracer.end_verdict(keep=True)
        return dict(tracer.counts)

    operators.verify_operator_identities(params, 2, 1)  # fill the lru caches first
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    clean, tracer = tracing.Tracer(), tracing.Tracer()
    clean.install()
    try:
        want = cell(clean, 0)
    finally:
        clean.uninstall()
    tracer.install()
    cut = 0
    try:
        for index in range(40):
            tracer.begin_verdict(index)
            try:
                signal.setitimer(signal.ITIMER_REAL, 1e-3 * (index + 1))
                operators.verify_operator_identities(params, 2, 1)
            except Deadline:
                cut += 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            tracer.end_verdict(keep=False)
        got = cell(tracer, 40)
    finally:
        tracer.uninstall()
        signal.signal(signal.SIGALRM, previous)
    rows = tracing.np.frombuffer(tracer.rows, dtype=float).reshape(-1, tracing.ROW)
    failures = []
    if len(tracer.rows) % tracing.ROW:
        failures.append(f"span table holds a partial row ({len(tracer.rows)} values)")
    for i, (name, parent, verdict, start, end) in enumerate(rows):
        p = int(parent)
        if p < 0:
            continue
        if not (p < i and rows[p, tracing.VERDICT] == verdict and rows[p, tracing.START] <= start):
            failures.append(f"span {i} does not nest in its parent {p}")
            break
        if end and rows[p, tracing.END] and end > rows[p, tracing.END]:
            failures.append(f"span {i} ends after its parent {p}")
            break
    print(f"{cut} of 40 verify cells cut by a deadline; {len(rows)} spans checked")
    if got != want:
        failures.append(f"counts of a whole cell after the cut ones differ: {got} != {want}")
    return failures


def main() -> int:
    import tracer as tracing

    failures = []
    leftovers = check_bindings(tracing)
    print(f"bindings left unwrapped after install: {leftovers or 'none'}")
    failures += [f"unwrapped binding {name}" for name in leftovers]
    failures += check_evaluations(tracing)
    failures += check_deadlines(tracing)
    for workload in WORKLOADS:
        first, second = traced_counts(workload, SEED), traced_counts(workload, SEED)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        print(f"{workload}: {len(first)} counts, repeat with seed {SEED} differs in {diff or 'none'}")
        if diff:
            failures.append(f"{workload}: counts differ between runs with one seed: {diff}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
