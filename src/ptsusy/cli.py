"""Batch command line front end with machine-readable output.

Four subcommands: spectrum (energy tables), wavefn (eigenfunction samples),
verify (operator identity suite, JSON report, exit status contract), and
coherent (overlap tables plus the completeness-kernel report).  Model
parameters come from an optional flat key=value config file overridden by
flags.  Output is CSV (header row, LF endings, shortest round-trip floats)
or a single JSON object with sorted keys, so identical configs produce
byte-identical artifacts.

Each subcommand imports the layers it runs when it runs, so a process loads
only these (``cli``, ``errors`` and ``spectrum`` always):

    spectrum   nothing more; no numpy
    wavefn     numpy, wavefn, operators, specfun, quadrature
    verify     numpy, operators, wavefn, specfun, quadrature
    coherent   numpy, coherent, operators, wavefn, specfun, quadrature

A tolerance named in a config file or a --tol- flag loads ``operators`` for
the names of the mandatory identities.

A ``ptsusy`` process (the console script, or ``python -m ptsusy.cli``) enters
through ``run()``, which runs ``main`` with CPython's cyclic collector off and
freezes every live object before it exits: what a command allocates lives
until exit anyway, so the collections during the imports and the sweep at
shutdown would only traverse it.  ``main`` itself leaves the collector as it
finds it, for tests and library callers.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import asdict, replace

from .errors import PtsusyError
from .spectrum import LevelIndex, ModelParams, energy, gap_factor_M, gap_factor_N

_PARAM_KEYS = ("nu", "beta", "hbar", "length", "mass")
_DEFAULTS = {"nu": 1.0, "beta": 0.0, "hbar": 1.0, "length": 1.0, "mass": 0.5}

# config keys that take a single value; q and p take comma lists
_INT_KEYS = ("m", "n", "m_max", "n_max", "grid_points")
_SCALAR_KEYS = _PARAM_KEYS + _INT_KEYS + ("format", "out")
_ALIASES = {"l": "length", "grid": "grid_points"}
_FORMATS = ("csv", "json")
# a norm or a coherent state's norm quadrature passes strictly within this of 1
# (coherent: the default of --tol-normalization)
NORM_TOLERANCE = 1e-8


class ConfigError(Exception):
    pass


def _tolerance_names(command: str) -> tuple[str, ...]:
    # the tolerances a subcommand reads, by the name of their --tol-<name>
    # flag: verify the thresholds of the mandatory identities, coherent its own
    if command == "verify":
        from .operators import MANDATORY

        return tuple(MANDATORY)
    if command == "coherent":
        return ("normalization", "overlap", "resolution")
    return ()


def _fmt(x: float) -> str:
    # repr gives the shortest decimal that round-trips, at most 17 digits
    return repr(float(x))


def _tolerance(text: str, where: str) -> float:
    # a tolerance is a finite nonnegative number
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{where}: bad float {text!r}")
    if not (math.isfinite(value) and value >= 0.0):
        raise ConfigError(f"{where}: expected a finite nonnegative tolerance, got {text!r}")
    return value


def load_config(path: str) -> dict:
    """Parse a flat key=value file; '#' starts a comment, blank lines skipped."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower().replace("-", "_")
            key = _ALIASES.get(key, key)
            value = value.strip()
            if key in ("q", "p"):
                try:
                    out[key] = [float(v) for v in value.split(",") if v.strip()]
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: field {key}: bad float list {value!r}")
                if not out[key] or not all(map(math.isfinite, out[key])):
                    raise ConfigError(f"{path}:{lineno}: field {key}: expected one or more finite numbers, got {value!r}")
            elif key.startswith("tol_"):
                if not any(key[4:] in _tolerance_names(command) for command in _COMMANDS):
                    raise ConfigError(f"{path}:{lineno}: field {key}: no subcommand reads a tolerance of that name")
                out.setdefault("tol", {})[key[4:]] = _tolerance(value, f"{path}:{lineno}: field {key}")
            elif key == "format" and value not in _FORMATS:
                raise ConfigError(f"{path}:{lineno}: field format: expected csv or json, got {value!r}")
            elif key in ("format", "out"):
                out[key] = value
            elif key in _SCALAR_KEYS:
                try:
                    num = float(value)
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: field {key}: bad float {value!r}")
                if key in _INT_KEYS and not num.is_integer():
                    raise ConfigError(f"{path}:{lineno}: field {key}: expected an integer, got {value!r}")
                out[key] = num
            else:
                raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
    return out


def _extract_tol_flags(argv: list[str]) -> tuple[list[str], dict]:
    """Pull --tol-<name> <value> (or --tol-<name>=<value>) pairs out of argv."""
    clean: list[str] = []
    tols: dict = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--tol-"):
            body = arg[6:]
            if "=" in body:
                name, _, value = body.partition("=")
            else:
                name = body
                i += 1
                if i >= len(argv):
                    raise ConfigError(f"flag {arg} needs a value")
                value = argv[i]
            tols[name.replace("-", "_")] = _tolerance(value, f"flag --tol-{name}")
        else:
            clean.append(arg)
        i += 1
    return clean, tols


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptsusy",
        description="Poschl-Teller SUSY hierarchy: spectra, eigenfunctions, "
        "operator identity verification, coherent states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key=value config file")
        for key in _PARAM_KEYS:
            sp.add_argument(f"--{key}", type=float, default=None)
        sp.add_argument("--format", choices=_FORMATS, default=None)
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("spectrum", help="energy table over hierarchy levels")
    common(sp)
    sp.add_argument("--m-max", type=int, default=None)
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--gap-factors", action="store_true", help="add chain gap factor columns")

    sp = sub.add_parser("wavefn", help="sample a normalized eigenfunction")
    common(sp)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--grid", type=int, default=None, help="sample count including endpoints")

    sp = sub.add_parser("verify", help="run the operator identity suite")
    common(sp)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--grid", type=int, default=None, help="identity grid size, spanning to EDGE_CLAMP L from each wall")
    sp.add_argument(
        "--corrupt-w-sign",
        action="store_true",
        help="negative control: flip the superpotential sign and expect failures",
    )

    sp = sub.add_parser("coherent", help="coherent state overlaps and completeness kernel")
    common(sp)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--q", type=float, action="append", default=None, help="repeatable position label")
    sp.add_argument("--p", type=float, action="append", default=None, help="repeatable momentum label")
    sp.add_argument("--grid", type=int, default=None, help="interior points for the kernel check")
    sp.add_argument("--skip-resolution", action="store_true", help="omit the kernel integral table")

    return parser


def _merge(args: argparse.Namespace, tol_flags: dict) -> dict:
    cfg = dict(_DEFAULTS)
    cfg.update({"format": "csv", "out": None, "tol": {}})
    if args.config:
        file_cfg = load_config(args.config)
        tols = file_cfg.pop("tol", {})
        cfg.update(file_cfg)
        cfg["tol"] = tols
    # a store-true flag is False, never None, on the subcommand that has it
    flags = ("format", "out", "m", "n", "m_max", "n_max", "gap_factors", "corrupt_w_sign", "skip_resolution")
    for key in _PARAM_KEYS + flags:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "grid", None) is not None:
        cfg["grid_points"] = args.grid
    for key in ("q", "p"):
        val = getattr(args, key, None)
        if val is not None:
            bad = [v for v in val if not math.isfinite(v)]
            if bad:
                raise ConfigError(f"flag --{key}: expected a finite number, got {bad[0]!r}")
            cfg[key] = val
    # a config file may serve several subcommands, a flag only the one it is given to
    for name in tol_flags:
        if name not in _tolerance_names(args.command):
            raise ConfigError(f"flag --tol-{name}: {args.command} reads no tolerance of that name")
    cfg["tol"].update(tol_flags)
    return cfg


def _params(cfg: dict) -> ModelParams:
    # ModelParams converts every field to float
    return ModelParams(**{k: cfg[k] for k in _PARAM_KEYS})


def _sanitize(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _cell(value) -> str:
    # the one CSV cell format: None empty, flags lower case, ints and names as is
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, str)):
        return str(value)
    return _fmt(value)


def _write(cfg: dict, report: dict, tables=(), notes=None, trailer=None) -> None:
    """Emit a report as one sorted JSON object, or as CSV.

    The CSV is the '# params:' header, one '# key: k=v ...' line per note,
    then per (title, columns, rows) table an optional '# table:' line, the
    header row and one line per row dict, and last '# trailer: value' with
    the report's value of the trailer key.
    """
    if cfg["format"] == "json":
        text = json.dumps(_sanitize(report), sort_keys=True, indent=2)
    else:
        notes = {"params": report["params"], **(notes or {})}
        lines = [f"# {key}: " + " ".join(f"{k}={_cell(v)}" for k, v in pairs.items()) for key, pairs in notes.items()]
        for title, cols, rows in tables:
            lines += [f"# table: {title}"] if title else []
            lines.append(",".join(cols))
            lines += [",".join(_cell(row[c]) for c in cols) for row in rows]
        if trailer:
            lines.append(f"# {trailer}: {_cell(report[trailer])}")
        text = "\n".join(lines)
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_spectrum(cfg: dict) -> int:
    params = _params(cfg)
    m_max = int(cfg.get("m_max", 2))
    n_max = int(cfg.get("n_max", 5))
    for key, cap in (("m_max", m_max), ("n_max", n_max)):
        if cap < 0:
            raise ConfigError(f"{key} must be nonnegative, got {cap}")
    gap = bool(cfg.get("gap_factors", False))
    rows = []
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            row = {"m": m, "n": n, "energy": energy(params, LevelIndex(m=m, n=n))}
            if gap:
                row["gap_factor_m"] = gap_factor_M(params, n, m)
                row["gap_factor_n"] = gap_factor_N(params, n, m)
            rows.append(row)
    cols = ["m", "n", "energy"] + (["gap_factor_m", "gap_factor_n"] if gap else [])
    _write(cfg, {"command": "spectrum", "params": asdict(params), "rows": rows}, [(None, cols, rows)])
    return 0


def cmd_wavefn(cfg: dict) -> int:
    import numpy as np

    from .quadrature import DEFAULT_CONFIG
    from .wavefn import _gram, eigenfunction

    params = _params(cfg)
    m = int(cfg.get("m", 0))
    n = int(cfg.get("n", 0))
    grid = int(cfg.get("grid_points", 101))
    if grid < 2:
        raise ConfigError("grid_points must be at least 2")
    func = eigenfunction(params, m, n)
    xs = np.linspace(0.0, params.length, grid)
    vals = func(xs)
    eps = 1e-9 * params.length
    norm = _gram([func], eps, params.length - eps, replace(DEFAULT_CONFIG, endpoint_substitution=True))[0, 0].real
    rows = [
        {"x": float(x), "re": float(v.real), "im": float(v.imag), "abs2": float(abs(v) ** 2)}
        for x, v in zip(xs, vals)
    ]
    indices = {"m": m, "n": n}
    report = {"command": "wavefn", "params": asdict(params), "indices": indices, "norm": float(norm), "rows": rows}
    _write(cfg, report, [(None, ("x", "re", "im", "abs2"), rows)], {"indices": indices}, "norm")
    # a state narrower than the grid and the norm quadrature resolve (at
    # beta 1e30 or nu 1e150) integrates to a norm far from 1: reported, not good
    if not abs(norm - 1.0) < NORM_TOLERANCE:
        print(
            f"ptsusy: wavefn: norm {float(norm)!r} of state m {m}, n {n} is not within {NORM_TOLERANCE:g} of 1; "
            "the state is not resolved by the norm quadrature",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_verify(cfg: dict) -> int:
    from .operators import passes, verify_operator_identities

    params = _params(cfg)
    m = int(cfg.get("m", 1))
    n = int(cfg.get("n", 2))
    grid = int(cfg.get("grid_points", 161))
    if grid < 3:
        raise ConfigError("grid_points must be at least 3")
    sign = -1.0 if cfg.get("corrupt_w_sign") else 1.0
    results = verify_operator_identities(params, n, m, grid_size=grid, sign=sign)
    tols = cfg.get("tol", {})
    entries = []
    for res in results:
        tol = tols.get(res.details.get("alias_of", res.name))  # an alias row follows its identity
        # a row whose residual is an error's name stays failed
        if tol is not None and not res.informational and not isinstance(res.max_residual, str):
            res = replace(res, threshold=tol, passed=passes(res.max_residual, tol))
        entries.append(res.to_jsonable())
    mandatory_pass = all(r["passed"] for r in entries if not r["informational"])
    report = {
        "command": "verify",
        "params": asdict(params),
        "indices": {"n": n, "m": m},
        "grid_size": grid,
        "superpotential_sign": sign,
        "identities": entries,
        "mandatory_pass": bool(mandatory_pass),
    }
    table = (None, ("name", "max_residual", "threshold", "passed", "informational"), entries)
    _write(cfg, report, [table], {"indices": {"n": n, "m": m, "sign": sign}}, "mandatory_pass")
    return 0 if mandatory_pass else 1


def cmd_coherent(cfg: dict) -> int:
    import numpy as np

    from .coherent import CoherentState, PhasePoint, cs_overlap, resolution_kernel
    from .operators import passes
    from .wavefn import gram_matrix

    params = _params(cfg)
    m = int(cfg.get("m", 0))
    L = params.length
    qs = cfg.get("q") or [0.25 * L, 0.5 * L, 0.75 * L]
    ps = cfg.get("p") or [-4.0, 0.0, 4.0]
    grid = int(cfg.get("grid_points", 9))
    if grid < 1:
        raise ConfigError("grid_points must be at least 1")
    tols = cfg.get("tol", {})
    tol_norm = tols.get("normalization", NORM_TOLERANCE)
    tol_overlap = tols.get("overlap", 1e-8)
    tol_resolution = tols.get("resolution", 1e-6)

    points = [PhasePoint(q, p) for q in qs for p in ps]
    states = [CoherentState(params, m, pt) for pt in points]
    # one vector integral: its diagonal checks the norms, its upper triangle the overlaps
    gram = gram_matrix(states, L)
    # every closed-form overlap once; the diagonal holds the self overlaps
    pairs = list(zip(*np.triu_indices(len(states))))
    closed = {(i, j): cs_overlap(states[i], states[j]) for i, j in pairs}

    # the suite's pass rule: a deviation equal to its tolerance fails
    norm_rows = []
    all_pass = True
    for i, (pt, quad) in enumerate(zip(points, gram.diagonal().real)):
        self_dev = abs(closed[i, i] - 1.0)
        quad_dev = abs(quad - 1.0)
        ok = passes(self_dev, tol_overlap) and passes(quad_dev, tol_norm)
        all_pass = all_pass and ok
        norm_rows.append(
            {"q": pt.q, "p": pt.p, "self_overlap_dev": float(self_dev), "norm_quadrature_dev": float(quad_dev), "passed": bool(ok)}
        )

    overlap_rows = []
    for i, j in pairs:
        pa, pb = points[i], points[j]
        val = closed[i, j]
        dev = abs(val - gram[i, j])
        ok = passes(dev, tol_overlap)
        all_pass = all_pass and ok
        overlap_rows.append(
            {"q1": pa.q, "p1": pa.p, "q2": pb.q, "p2": pb.p, "re": float(val.real), "im": float(val.imag),
             "abs": float(abs(val)), "quadrature_dev": float(dev), "passed": bool(ok)}
        )

    resolution = None
    if not cfg.get("skip_resolution"):
        xs = np.arange(1, grid + 1) * L / (grid + 1.0)
        if xs.size != grid:  # numpy gives no points past int64, a ValueError past its size limit
            raise ConfigError(f"grid_points {grid} is too large")
        gvals = resolution_kernel(params, m, xs)
        res_rows = []
        for x, g in zip(xs, gvals):
            ok = passes(abs(g - 1.0), tol_resolution)
            all_pass = all_pass and ok
            res_rows.append({"x": float(x), "kernel": float(g), "passed": bool(ok)})
        resolution = {
            "tolerance": tol_resolution,
            "max_deviation": float(np.max(np.abs(gvals - 1.0))),
            "rows": res_rows,
        }

    report = {
        "command": "coherent",
        "params": asdict(params),
        "level": m,
        "tolerances": {"normalization": tol_norm, "overlap": tol_overlap, "resolution": tol_resolution},
        "normalization": norm_rows,
        "overlaps": overlap_rows,
        "all_pass": bool(all_pass),
    }
    tables = [
        ("normalization", ("q", "p", "self_overlap_dev", "norm_quadrature_dev", "passed"), norm_rows),
        ("overlaps", ("q1", "p1", "q2", "p2", "re", "im", "abs", "quadrature_dev", "passed"), overlap_rows),
    ]
    if resolution is not None:
        report["resolution"] = resolution
        rows = [{**row, "tolerance": tol_resolution} for row in resolution["rows"]]
        tables.append(("resolution", ("x", "kernel", "tolerance", "passed"), rows))
    _write(cfg, report, tables, {"level": {"m": m}}, "all_pass")
    return 0 if all_pass else 1


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "wavefn": cmd_wavefn,
    "verify": cmd_verify,
    "coherent": cmd_coherent,
}


def main(argv: list[str] | None = None) -> int:
    """Run the ptsusy command in argv (``sys.argv[1:]`` if None) and return
    its exit status: ``--help`` returns 0, and argparse's usage errors,
    config errors and package errors return 2, each with its message."""
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        raw, tol_flags = _extract_tol_flags(raw)
        try:
            args = _build_parser().parse_args(raw)
        except SystemExit as exc:  # argparse's --help (0) and usage errors (2)
            return exc.code
        cfg = _merge(args, tol_flags)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"ptsusy: config error: {exc}", file=sys.stderr)
        return 2
    except (PtsusyError, OSError, ValueError) as exc:
        print(f"ptsusy: error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry point: ``main`` with the collector off, then exit
    with its status; what is live is frozen before exit, so the sweep at
    shutdown skips it."""
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
