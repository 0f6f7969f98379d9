"""Benchmark runner for ptsusy: time to a trustworthy verdict, and whether it is true.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {gram,verify,completeness,cli,all}
                             --seed N --seconds S --trace {0,1}

One closed-loop client in one process starts the next verdict only after the
previous one finished; no threads are started.  A workload is a fixed list of
verdicts (a pass, see workloads.py).  An untraced run (--trace 0) makes as
many passes as fit S seconds at the workload's nominal pass time and prints
the end-to-end metrics.  A traced run (--trace 1) makes an untraced pass, a
pass with every layer wrapped by tracer.py and another untraced pass, and
prints the per-layer metrics; the traced pass minus the untraced ones is the
tracing overhead.  Spans are written to .perfbench/ in the checkout.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  LAYERS.md describes the metrics and the timing method.

The program is imported from ./src; without it the runner exits non-zero
before printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("gram", "verify", "completeness", "cli")
SETUP_SAMPLES = 5
# traced verdicts run slower; their deadlines stretch by this factor
TRACE_DEADLINE_FACTOR = 2.0
# no new pass starts after this long, so a run ends well inside 180 s
RUN_GUARD_S = 120.0
REASONS = ("false_fail", "false_pass", "raised", "deadline", "bad_output")
# The speed of the shared 2-core reference machine drifts by up to 1.6x over
# seconds to minutes.  Every timing is therefore scaled to a nominal machine
# speed with a yardstick measured right before and after it: a numpy kernel
# for in-process verdicts, and a fresh interpreter importing numpy for CLI
# processes and set-up.  Neither yardstick runs code of the repository.
KERNEL_NOMINAL_S = 1e-3
PROCESS_NOMINAL_S = 0.2
IMPORT_NOMINAL_S = 0.1
YARDSTICK = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"


class Deadline(BaseException):
    """Raised by SIGALRM when a verdict overruns its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


def kernel_timing() -> float:
    """One timing of a fixed numpy kernel, about 1 ms on the reference machine."""
    import numpy as np

    x = np.linspace(0.1, 3.0, 64)
    start = time.perf_counter()
    acc = 0.0
    for i in range(100):
        acc += float(np.sum(np.sin(x * i) * np.exp(-x)))
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """Median of 5 kernel timings: the in-process yardstick between verdicts."""
    return statistics.median(kernel_timing() for _ in range(5))


def process_seconds() -> tuple[float, float]:
    """Wall time of a fresh interpreter importing numpy, and of the import alone."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", YARDSTICK], capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - start, float(proc.stdout)


class KernelSampler:
    """Times the kernel once on SIGPROF, every 0.05 s of CPU, during a verdict.

    Long verdicts see the machine speed drift while they run; boundary
    yardsticks alone miss that.  In paired runs of one 4 s verdict, scaling
    by the mean of these samples left a third to a quarter of the spread
    that scaling by the boundary yardsticks left.  The handler's own time
    (about 2 %) is kept in ``spent`` and taken out of the verdict's latency.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel_timing())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)


def check_sources() -> Path:
    init = SRC / "ptsusy" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; run from a source checkout")
    return init


def import_package():
    init = check_sources()
    sys.path.insert(0, str(SRC))
    import ptsusy

    if Path(ptsusy.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported ptsusy from {ptsusy.__file__}, not from src/")


# -- CLI processes ------------------------------------------------------------


class CliLauncher:
    """Starts one CLI process per verdict and waits for it with wait4."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.trace_dir: Path | None = None
        self.trace_files: list[Path] = []
        self.maxrss_kb = 0

    def __call__(self, argv):
        from workloads import Invocation

        out, err = self.work / "stdout", self.work / "stderr"
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "ptsusy.cli", *argv]
        else:
            trace_file = self.trace_dir / f"child-{len(self.trace_files):03d}.json"
            self.trace_files.append(trace_file)
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), str(trace_file), *argv]
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        return Invocation(proc.returncode, out.read_bytes(), err.read_bytes(), usage.ru_maxrss)


def make_inputs(name: str, seed: int):
    import workloads

    if name == "gram":
        return workloads.make_gram(seed), None
    if name == "verify":
        return workloads.make_verify(seed), None
    if name == "completeness":
        return workloads.make_completeness(seed), None
    work = WORK / f"cli-{seed}"
    launcher = CliLauncher(work)
    return workloads.make_cli(seed, ROOT, work, launcher), launcher


# -- verdict loop -------------------------------------------------------------


@dataclass
class Record:
    label: tuple
    latency: float  # wall seconds as measured
    ref: float  # yardstick seconds around the verdict
    nominal: float  # yardstick seconds at nominal machine speed
    reason: str | None
    margin: float | None
    names: tuple
    known: bool
    stats: dict = field(default_factory=dict)

    @property
    def scaled(self) -> float:
        """Latency at nominal machine speed; a deadline hit is wall-clock time and stays as is."""
        if self.reason == "deadline":
            return self.latency
        return self.latency * self.nominal / self.ref


def run_pass(inputs, tracer=None, deadline_scale: float = 1.0) -> list[Record]:
    from workloads import Outcome

    in_process = inputs.name != "cli"
    if in_process:
        nominal, yardstick = KERNEL_NOMINAL_S, kernel_seconds
    else:
        nominal, yardstick = PROCESS_NOMINAL_S, lambda: process_seconds()[0]
    sampler = KernelSampler()
    records = []
    ref_before = yardstick()
    for index, verdict in enumerate(inputs.verdicts):
        if tracer is not None:
            tracer.begin_verdict(index)
        result = None
        outcome = None
        start = time.perf_counter()
        try:
            try:
                if in_process:
                    sampler.start()
                signal.setitimer(signal.ITIMER_REAL, verdict.deadline_s * deadline_scale)
                result = verdict.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                sampler.stop()
        except Deadline:
            outcome = Outcome("deadline", names=(f"over {verdict.deadline_s * deadline_scale:g} s",))
        except Exception as exc:  # the verdict failed; record it and go on
            outcome = Outcome("raised", names=(f"{type(exc).__name__}: {exc}",))
        latency = time.perf_counter() - start - sampler.spent
        ref_after = yardstick()
        ref = statistics.fmean([ref_before, ref_after, *sampler.samples])
        ref_before = ref_after
        if tracer is not None:
            tracer.end_verdict(keep=outcome is None or outcome.reason != "deadline")
        if outcome is None:
            outcome = verdict.check(result)
        known = bool(outcome.reason and inputs.known and inputs.known(verdict.label, outcome.reason, outcome.names))
        records.append(
            Record(verdict.label, latency, ref, nominal, outcome.reason, outcome.margin, outcome.names, known, outcome.stats)
        )
    return records


def measure(inputs, seconds: float) -> list[list[Record]]:
    """Run the pass as often as fits ``seconds`` at the workload's nominal pass time.

    The count does not depend on how fast this run goes, so every run of a
    workload pools the same number of verdicts.
    """
    passes = []
    start = time.perf_counter()
    for _ in range(max(1, round(seconds / inputs.pass_seconds))):
        if time.perf_counter() - start >= RUN_GUARD_S:
            break
        passes.append(run_pass(inputs))
    return passes


# -- metrics ------------------------------------------------------------------


def tail_percentile(count: int) -> int:
    """Highest of p99, p95, p90, p75 with at least 10 of ``count`` verdicts beyond it.

    A fixed ladder keeps the percentile the same when the number of passes in
    a run changes by one.  Runs of fewer than 40 verdicts have none and report
    the lowest rung, p75: a higher percentile of so few verdicts is the time
    of one or two of them.
    """
    for percent in (99, 95, 90):
        if count * (100 - percent) >= 1000:
            return percent
    return 75


def nearest_rank(sorted_values, percent: int) -> float:
    k = max(1, math.ceil(percent / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def setup_seconds(workload: str, seed: int) -> float:
    """Median of fresh processes timing import plus input generation, at nominal speed.

    Each sample is scaled by the mean of the yardstick imports before and after it.
    """
    samples = []
    before = process_seconds()[1]
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=ROOT,
            check=True,
        )
        after = process_seconds()[1]
        samples.append(float(proc.stdout.strip().splitlines()[-1]) * IMPORT_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return statistics.median(samples)


def end_to_end(inputs, passes, setup_s: float, peak_rss_kb: int) -> dict:
    records = [r for p in passes for r in p]
    latencies = sorted(r.scaled for r in records)
    wrong = sum(1 for r in records if r.reason)
    margins = [r.margin for r in records if r.margin is not None]
    pct = tail_percentile(len(records))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(r.scaled for r in p) for p in passes), "s"),
        "verdict_p50_s": (statistics.median(latencies), "s"),
        "verdict_tail_s": (nearest_rank(latencies, pct), "s"),
        "ok_share": (1.0 - wrong / len(records), "ratio"),
        "headroom_dec": (statistics.median(margins), "dec"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def _self(self_s: dict, *prefixes) -> float:
    return float(sum(v for k, v in self_s.items() if any(k == p or k.startswith(p + ".") for p in prefixes)))


def _ratio(before: dict, after: dict, name: str) -> float:
    hits = after[name][0] - before[name][0]
    misses = after[name][1] - before[name][1]
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(counts: Counter, self_s: dict, caches: tuple, records, extra: dict) -> dict:
    c = counts.get
    ii, rl = "quadrature.integrate_interval", "quadrature.integrate_real_line"
    kept = [r for r in records if r.reason != "deadline"]
    count, secs = "count", "s"
    metrics = {
        f"{ii}.calls": (c(f"{ii}.calls", 0), count),
        f"{ii}.evals": (c(f"{ii}.evals", 0), count),
        f"{ii}.self_s": (_self(self_s, ii), secs),
        "quadrature.evals_per_integral": (c(f"{ii}.evals", 0) / max(c(f"{ii}.calls", 0), 1), count),
        f"{rl}.calls": (c(f"{rl}.calls", 0), count),
        f"{rl}.evals": (c(f"{rl}.evals", 0), count),
        f"{rl}.self_s": (_self(self_s, rl), secs),
        "quadrature.raised": (c("quadrature.raised", 0), count),
    }
    for span in ("wavefn.EigenFunction.call", "wavefn.EigenFunction.taylor"):
        metrics[f"{span}.calls"] = (c(f"{span}.calls", 0), count)
        metrics[f"{span}.points"] = (c(f"{span}.points", 0), count)
        metrics[f"{span}.self_s"] = (_self(self_s, span), secs)
    before, after = caches
    for name in ("wavefn.eigenfunction", "wavefn.normalization_K", "specfun.jacobi_series_coefficients"):
        metrics[f"{name}.cache_hit_ratio"] = (_ratio(before, after, name), "ratio")
    metrics["jets.mul.calls"] = (c("jets.mul.calls", 0), count)
    metrics["jets.sin_cos.calls"] = (c("jets.sin_cos.calls", 0), count)
    metrics["jets.exp_log.calls"] = (c("jets.exp.calls", 0) + c("jets.log.calls", 0), count)
    metrics["jets.self_s"] = (_self(self_s, "jets"), secs)
    aw = "operators.apply_word"
    for key in ("calls", "points", "order_points"):
        metrics[f"{aw}.{key}"] = (c(f"{aw}.{key}", 0), count)
    metrics[f"{aw}.self_s"] = (_self(self_s, aw), secs)
    metrics["operators.identity_false_fail"] = (sum(r.stats.get("identity_false_fail", 0) for r in kept), count)
    metrics["operators.identities_checked"] = (sum(r.stats.get("identities_checked", 0) for r in kept), count)
    for span in ("specfun.log_gamma", "coherent.resolution_kernel"):
        metrics[f"{span}.calls"] = (c(f"{span}.calls", 0), count)
        metrics[f"{span}.points"] = (c(f"{span}.points", 0), count)
        metrics[f"{span}.self_s"] = (_self(self_s, span), secs)
    metrics["coherent.identity_gram_projection.self_s"] = (_self(self_s, "coherent.identity_gram_projection"), secs)
    metrics["coherent.cs_overlap.calls"] = (c("coherent.cs_overlap.calls", 0), count)
    metrics["coherent.CoherentState.call.points"] = (c("coherent.CoherentState.call.points", 0), count)
    metrics["cli.startup_s"] = (extra.get("cli.startup_s", 0.0), secs)
    for cmd in ("spectrum", "wavefn", "verify", "coherent"):
        metrics[f"cli.cmd_{cmd}.self_s"] = (_self(self_s, f"cli.cmd_{cmd}"), secs)
    metrics["spectrum.calls"] = (sum(v for k, v in counts.items() if k.startswith("spectrum.") and k.endswith(".calls")), count)
    metrics["trace.spans"] = (extra.get("spans", 0), count)
    metrics["trace.overhead_s"] = (extra["overhead_s"], secs)
    metrics["trace.overhead_share"] = (extra["overhead_share"], "ratio")
    return metrics


# -- runs ---------------------------------------------------------------------


def traced_run(name: str, seed: int, inputs, launcher):
    """Untraced pass, traced pass, untraced pass; per-layer metrics of the middle one.

    The first pass runs on cold caches and gives the cache hit ratios (in the
    cli workload the traced child processes report them).  The tracing
    overhead is the traced pass minus the mean of the two untraced passes,
    over the verdicts that finished in all three.
    """
    import tracer as tracing

    WORK.mkdir(exist_ok=True)
    before = tracing.cache_counts()
    first = run_pass(inputs)
    after = tracing.cache_counts()
    extra = {}
    if launcher is None:
        spans_file = WORK / f"spans-{name}-seed{seed}.npz"
        tracer = tracing.Tracer()
        tracer.install()
        try:
            records = run_pass(inputs, tracer, TRACE_DEADLINE_FACTOR)
        finally:
            tracer.uninstall()
        counts, self_s = tracer.counts, dict(tracer.self_s)
        tracer.save(spans_file)
        extra["spans"] = tracer.spans
    else:
        spans_file = launcher.trace_dir = WORK / f"spans-cli-seed{seed}"
        spans_file.mkdir(parents=True, exist_ok=True)
        records = run_pass(inputs, None, TRACE_DEADLINE_FACTOR)
        launcher.trace_dir = None
        counts, self_s = Counter(), Counter()
        before = {k: (0, 0) for k in before}
        after = {k: [0, 0] for k in before}
        startup = 0.0
        for record, path in zip(records, launcher.trace_files):
            if not path.is_file():  # the child was killed at its deadline
                print(f"no trace from {record.label}: {record.reason}")
                continue
            child = json.loads(path.read_text())
            if child["raised"]:
                print(f"{record.label}: cli.main raised {child['raised']}")
            counts.update(child["counts"])
            self_s.update(child["self_s"])
            for k, (hits, misses) in child["caches"].items():
                after[k][0] += hits
                after[k][1] += misses
            # the child's time outside cli.main, less what the tracer cost it
            startup += record.latency - child["main_s"] - child["tracer_s"]
            extra["spans"] = extra.get("spans", 0) + child["spans"]
        extra["cli.startup_s"] = startup
    last = run_pass(inputs)
    done = [(t, a, b) for t, a, b in zip(records, first, last) if "deadline" not in (t.reason, a.reason, b.reason)]
    base = sum(0.5 * (a.scaled + b.scaled) for _, a, b in done)
    extra["overhead_s"] = sum(t.scaled for t, _, _ in done) - base
    extra["overhead_share"] = extra["overhead_s"] / base if base else 0.0
    print(f"spans written to {spans_file.relative_to(ROOT)}")
    return records, per_layer(counts, self_s, (before, after), records, extra)


def describe(inputs, passes, metrics) -> None:
    records = [r for p in passes for r in p]
    for k, p in enumerate(inputs.params):
        print(f"params[{k}]: nu={p.nu!r} beta={p.beta!r} hbar={p.hbar!r} length={p.length!r} mass={p.mass!r}")
    print(f"{len(passes)} pass(es) of {len(inputs.verdicts)} verdicts, {len(records)} verdicts in all")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    if "verdict_tail_s" in metrics:
        pct = tail_percentile(len(records))
        beyond = len(records) - max(1, math.ceil(pct / 100.0 * len(records)))
        print(f"verdict_tail_s is p{pct} of {len(records)} verdicts ({beyond} beyond it)")
    raw_wall = statistics.median(sum(r.latency for r in p) for p in passes)
    raw_p50 = statistics.median(r.latency for r in records)
    ref = statistics.median(r.ref for r in records)
    print(
        f"as measured: wall {raw_wall!r} s, verdict p50 {raw_p50!r} s; yardstick {ref!r} s,"
        f" scaled above to {records[0].nominal!r} s"
    )
    wrong = [r for r in records if r.reason]
    by_reason = Counter(r.reason for r in wrong)
    print(
        f"fail_share = {len(wrong) / len(records)!r} ({len(wrong)} of {len(records)}): "
        + ", ".join(f"{reason} {by_reason.get(reason, 0)}" for reason in REASONS)
    )
    known = sum(1 for r in wrong if r.known)
    print(f"known defects {known}, unexpected {len(wrong) - known}")
    for r in passes[0]:
        if r.reason:
            tag = "known" if r.known else "UNEXPECTED"
            print(f"  {r.reason:<10} {tag:<10} {r.label} {', '.join(r.names)}")


def run_workload(args) -> int:
    check_sources()
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    import_package()
    inputs, launcher = make_inputs(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        records, metrics = traced_run(args.workload, args.seed, inputs, launcher)
        passes = [records]
    else:
        passes = measure(inputs, args.seconds)
        if launcher is None:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = launcher.maxrss_kb
        metrics = end_to_end(inputs, passes, setup_s, rss_kb)
    describe(inputs, passes, metrics)
    records = [r for p in passes for r in p]
    result = {
        "correct": all(r.reason is None or r.known for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r.reason),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        start = time.perf_counter()
        import_package()
        make_inputs(args.workload, args.seed)
        print(repr(time.perf_counter() - start))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
