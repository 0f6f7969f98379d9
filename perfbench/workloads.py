"""The four benchmark workloads: seeded inputs, verdicts and their ground truth.

A workload is a fixed list of verdicts (one "pass").  Each verdict has a
``run`` callable, which is the only part that is timed, and a ``check`` that
compares the result with ground truth the benchmark knows independently of
the verdict the program reports.

Model parameters are drawn from the seed: (nu, beta) jittered around a few
centres, and a gauge (hbar, length, mass) chosen among binary rescalings of
the unit gauge.  A binary rescaling changes every dimensional quantity while
keeping the floating-point path of the computation close to the unit-gauge
one, so seeds vary the inputs but barely the work of a pass.  Index grids
are fixed.

Known defects (``HANG_CELLS``, ``ROUNDOFF_FAILS``) are recorded, not hidden:
every wrong verdict counts in ``failed`` and ``ok_share`` and is listed by
reason.  The register only decides whether a wrong verdict is a new one,
which makes the run's ``correct`` flag false.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GAUGES = ((1.0, 1.0, 0.5), (2.0, 2.0, 1.0), (0.5, 0.5, 0.25))
NU_JITTER = 0.03
BETA_JITTER = 0.06

GRAM_CENTRES = ((0.5, 1.0), (1.0, 2.0), (2.5, 3.0))
GRAM_LEVELS = range(11)
GRAM_SIZE = 11
GRAM_BOUND = 1e-8

VERIFY_CELLS = tuple((n, m, 1.0) for m in range(6) for n in range(7)) + (
    (0, 0, -1.0),
    (2, 1, -1.0),
    (3, 2, -1.0),
    (1, 3, -1.0),
)
# Two draws around DEFAULT of the test suite: which of the hanging cells hang
# depends on the draw, and two draws halve that effect on wall_s.
VERIFY_CENTRES = ((1.0, 2.0), (1.0, 2.0))
# Cells either finish in well under a second or run for minutes (HANG_CELLS).
VERIFY_DEADLINE_S = 1.5
# criterion 11: the sign flip must break these and leave the other two intact
MUST_BREAK = ("ground_state_annihilation", "factorization", "intertwining_single", "intertwining_chain")
MUST_SURVIVE = ("adjoint_consistency", "eigen_residual")

KERNEL_LEVELS = (0, 1, 2)
PROJECTIONS = ((0, 2), (1, 2), (2, 2), (0, 3))
COMPLETENESS_BOUND = 1e-6
NORM_BOUND = 1e-8
# interior grid with points 1e-3 L from each wall
KERNEL_X = (1e-3, 5e-3, 0.02) + tuple(j / 16.0 for j in range(1, 16)) + (0.98, 0.995, 0.999)

# Known defects of verify_operator_identities on this index grid, cell by
# cell.  Jet roundoff makes product_BdagB fail its bound at (2,3), (3,3),
# on some draws at (4,3), at m = 4 from n = 1 and at every cell of m = 5,
# and intertwining_chain at every cell of m = 5.  _norm_sq spends its whole panel budget (minutes) at
# the three HANG_CELLS.  The second name of each pair reports the same check.
HANG_CELLS = {(6, 0), (0, 5), (6, 5)}
_BDAGB_CELLS = {(2, 3), (3, 3), (4, 3)} | {(n, 4) for n in range(1, 7)} | {(n, 5) for n in range(7)}
_CHAIN_CELLS = {(n, 5) for n in range(7)}
ROUNDOFF_FAILS = {
    "product_BdagB": _BDAGB_CELLS,
    "supercharge_anticommutator_block0": _BDAGB_CELLS,
    "intertwining_chain": _CHAIN_CELLS,
    "supercharge_commutator": _CHAIN_CELLS,
}


def _verify_known(label, reason: str, names: tuple) -> bool:
    _, n, m, sign = label
    if sign < 0:
        return False
    if reason == "deadline":
        return (n, m) in HANG_CELLS
    if reason == "false_fail":
        return all((n, m) in ROUNDOFF_FAILS.get(name, ()) for name in names)
    return False


@dataclass
class Outcome:
    reason: str | None  # None when the verdict is right
    margin: float | None = None  # log10(bound / residual), minimum over must-pass checks
    names: tuple = ()  # failing checks
    stats: dict = field(default_factory=dict)


@dataclass
class Verdict:
    label: tuple
    run: object
    check: object
    deadline_s: float


@dataclass
class Inputs:
    name: str
    params: list
    verdicts: list
    pass_seconds: float  # nominal time of one pass; sets the passes per run
    known: object = None  # (label, reason, names) -> bool


def _margin(bound: float, residual: float) -> float:
    if not math.isfinite(residual):
        return -math.inf
    return math.log10(bound / max(residual, 1e-300))


def draw_params(rng, centre):
    from ptsusy.spectrum import ModelParams

    nu0, beta0 = centre
    nu = nu0 + rng.uniform(-NU_JITTER, NU_JITTER)
    beta = max(0.0, beta0 + rng.uniform(-BETA_JITTER, BETA_JITTER))
    hbar, length, mass = GAUGES[int(rng.integers(len(GAUGES)))]
    return ModelParams(nu=nu, beta=beta, hbar=hbar, length=length, mass=mass)


# -- gram ---------------------------------------------------------------------


def make_gram(seed: int) -> Inputs:
    from ptsusy.quadrature import QuadratureConfig
    from ptsusy.wavefn import eigenfunction, gram_matrix

    rng = np.random.default_rng(seed)
    params = [draw_params(rng, c) for c in GRAM_CENTRES]
    # the acceptance configuration of criterion 1
    cfg = QuadratureConfig(endpoint_substitution=True, abs_tol=1e-9, rel_tol=1e-8)
    eye = np.eye(GRAM_SIZE)

    def verdict(k, p, m):
        def run():
            funcs = [eigenfunction(p, m, n) for n in range(GRAM_SIZE)]
            return gram_matrix(funcs, p.length, cfg)

        def check(gram):
            dev = float(np.max(np.abs(gram - eye)))
            ok = dev < GRAM_BOUND
            return Outcome(None if ok else "false_fail", _margin(GRAM_BOUND, dev), () if ok else ("orthonormality",))

        return Verdict((k, m), run, check, 30.0)

    verdicts = [verdict(k, p, m) for k, p in enumerate(params) for m in GRAM_LEVELS]
    return Inputs("gram", params, verdicts, 10.0)


# -- verify -------------------------------------------------------------------


def make_verify(seed: int) -> Inputs:
    from ptsusy.operators import verify_operator_identities

    rng = np.random.default_rng(seed)
    params = [draw_params(rng, c) for c in VERIFY_CENTRES]

    def verdict(k, p, n, m, sign):
        def run():
            return verify_operator_identities(p, n, m, sign=sign)

        def check(results):
            mandatory = {r.name: r for r in results if not r.informational}
            if sign > 0:
                must_pass = list(mandatory)
                false_pass = []
            else:
                must_pass = [k for k in MUST_SURVIVE if k in mandatory]
                false_pass = [k for k in MUST_BREAK if mandatory[k].passed]
            false_fail = [k for k in must_pass if not mandatory[k].passed]
            margin = min(_margin(mandatory[k].threshold, mandatory[k].max_residual) for k in must_pass)
            stats = {"identities_checked": len(mandatory), "identity_false_fail": len(false_fail)}
            if false_fail:
                return Outcome("false_fail", margin, tuple(false_fail), stats)
            if false_pass:
                return Outcome("false_pass", margin, tuple(false_pass), stats)
            return Outcome(None, margin, (), stats)

        return Verdict((k, n, m, sign), run, check, VERIFY_DEADLINE_S)

    verdicts = [verdict(k, p, *cell) for k, p in enumerate(params) for cell in VERIFY_CELLS]
    return Inputs("verify", params, verdicts, 20.0, _verify_known)


# -- completeness ---------------------------------------------------------------


def make_completeness(seed: int) -> Inputs:
    from ptsusy.coherent import identity_gram_projection, resolution_kernel

    rng = np.random.default_rng(seed)
    p = draw_params(rng, (1.0, 2.0))
    xs = np.array(KERNEL_X) * p.length

    def bounded(dev):
        ok = dev < COMPLETENESS_BOUND
        return Outcome(None if ok else "false_fail", _margin(COMPLETENESS_BOUND, dev), () if ok else ("completeness",))

    def kernel(m):
        def run():
            return resolution_kernel(p, m, xs)

        return Verdict(("kernel", m), run, lambda g: bounded(float(np.max(np.abs(g - 1.0)))), 30.0)

    def projection(m, size):
        def run():
            return identity_gram_projection(p, m, size)

        eye = np.eye(size)
        return Verdict(("projection", m, size), run, lambda mat: bounded(float(np.max(np.abs(mat - eye)))), 60.0)

    verdicts = [kernel(m) for m in KERNEL_LEVELS] + [projection(m, s) for m, s in PROJECTIONS]
    return Inputs("completeness", [p], verdicts, 10.0)


# -- cli ----------------------------------------------------------------------


@dataclass
class Invocation:
    """Result of one CLI process: exit code, stdout bytes, peak RSS (KiB)."""

    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def make_cli(seed: int, root: Path, work: Path, launcher) -> Inputs:
    """Each subcommand as its own process; ``launcher(argv) -> Invocation``."""
    rng = np.random.default_rng(seed)
    p = draw_params(rng, (1.0, 2.0))
    L = p.length
    work.mkdir(parents=True, exist_ok=True)
    model_text = "# model parameters drawn from the benchmark seed\n" + "".join(
        f"{k} = {getattr(p, k)!r}\n" for k in ("nu", "beta", "hbar", "length", "mass")
    )
    model = work / "model.cfg"
    model.write_text(model_text)
    states = work / "states.cfg"
    states.write_text(model_text + f"q = {0.3 * L!r}, {0.6 * L!r}\np = -2.0, 1.5\nm = 1\n")
    schemas = root / "src" / "ptsusy" / "schemas"
    schema = {
        "verify": json.loads((schemas / "verify_report.schema.json").read_text()),
        "coherent": json.loads((schemas / "coherent_report.schema.json").read_text()),
    }
    cfg = ["--config", str(model)]
    near_wall = [f"--q={0.015 * L!r}", f"--q={0.5 * L!r}", f"--q={0.97 * L!r}", "--p=-3.0", "--p=2.0"]

    def csv_rows(text):
        return [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]

    # Each content check returns (output is right, accuracy margin or None).
    def spectrum_csv(out):
        rows = csv_rows(out)
        energies = {(int(r[0]), int(r[1])): float(r[2]) for r in rows[1:]}
        shift_law = all(energies[(m + 1, n)] == energies[(m, n + 1)] for m in range(3) for n in range(6))
        header = ["m", "n", "energy", "gap_factor_m", "gap_factor_n"]
        return rows[0] == header and len(energies) == 28 and shift_law, None

    def spectrum_json(out):
        obj = json.loads(out)
        return obj["command"] == "spectrum" and len(obj["rows"]) == 18 and list(obj) == sorted(obj), None

    def norm_ok(norm, rows, want_rows):
        dev = abs(norm - 1.0)
        return rows == want_rows and dev < NORM_BOUND, _margin(NORM_BOUND, dev)

    def wavefn_csv(out):
        return norm_ok(float(out.rstrip().rsplit("# norm: ", 1)[1]), len(csv_rows(out)), 202)

    def wavefn_json(out):
        obj = json.loads(out)
        return norm_ok(obj["norm"], len(obj["rows"]), 101)

    def identity_margin(obj, names):
        by_name = {e["name"]: e for e in obj["identities"]}
        return min(_margin(by_name[k]["threshold"], by_name[k]["max_residual"]) for k in names)

    def verify_report(out):
        import jsonschema

        obj = json.loads(out)
        jsonschema.validate(obj, schema["verify"])
        mandatory = [e["name"] for e in obj["identities"] if not e["informational"]]
        return obj["mandatory_pass"] is True, identity_margin(obj, mandatory)

    def negative_control(out):
        import jsonschema

        obj = json.loads(out)
        jsonschema.validate(obj, schema["verify"])
        by_name = {e["name"]: e for e in obj["identities"]}
        good = (
            obj["mandatory_pass"] is False
            and all(by_name[k]["passed"] is False for k in MUST_BREAK)
            and all(by_name[k]["passed"] is True for k in MUST_SURVIVE)
        )
        return good, identity_margin(obj, MUST_SURVIVE)

    def coherent_report(out):
        import jsonschema

        obj = json.loads(out)
        jsonschema.validate(obj, schema["coherent"])
        tol = obj["tolerances"]
        devs = [(tol["overlap"], r["self_overlap_dev"]) for r in obj["normalization"]]
        devs += [(tol["normalization"], r["norm_quadrature_dev"]) for r in obj["normalization"]]
        devs += [(tol["overlap"], r["quadrature_dev"]) for r in obj["overlaps"]]
        devs.append((tol["resolution"], obj["resolution"]["max_deviation"]))
        return obj["all_pass"] is True, min(_margin(bound, dev) for bound, dev in devs)

    def coherent_csv(out):
        return out.rstrip().endswith("# all_pass: true"), None

    specs = (
        ("spectrum-csv", ["spectrum", *cfg, "--gap-factors", "--m-max", "3", "--n-max", "6"], 0, spectrum_csv),
        ("spectrum-json", ["spectrum", *cfg, "--format", "json"], 0, spectrum_json),
        ("wavefn-csv", ["wavefn", *cfg, "--m", "2", "--n", "3", "--grid", "201"], 0, wavefn_csv),
        ("wavefn-json", ["wavefn", *cfg, "--n", "5", "--format", "json"], 0, wavefn_json),
        ("verify-json", ["verify", *cfg, "--n", "1", "--m", "2", "--format", "json"], 0, verify_report),
        ("verify-corrupt", ["verify", *cfg, "--n", "2", "--m", "1", "--corrupt-w-sign", "--format", "json"], 1, negative_control),
        ("coherent-json", ["coherent", *cfg, *near_wall, "--format", "json"], 0, coherent_report),
        ("coherent-csv", ["coherent", "--config", str(states), "--skip-resolution"], 0, coherent_csv),
    )
    first_output: dict = {}

    def verdict(label, argv, want_code, content_ok):
        def run():
            return launcher(argv)

        def check(inv: Invocation):
            from jsonschema import ValidationError

            if inv.code == want_code:
                reason = None
            elif inv.code == 1 and want_code == 0 and b"Traceback" not in inv.stderr:
                reason = "false_fail"
            elif inv.code == 0 and want_code == 1:
                reason = "false_pass"
            else:
                reason = "raised"
            margin = None
            if reason is None:
                try:
                    good, margin = content_ok(inv.stdout.decode())
                except (ValueError, KeyError, IndexError, ValidationError):
                    good = False
                # a repeated invocation must produce the same bytes
                if not good or first_output.setdefault(label, inv.stdout) != inv.stdout:
                    reason = "bad_output"
            return Outcome(reason, margin, () if reason is None else (label,))

        return Verdict((label,), run, check, 60.0)

    verdicts = [verdict(*spec) for spec in specs]
    return Inputs("cli", [p], verdicts, 4.0)
