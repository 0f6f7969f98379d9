"""Span tracer that wraps ptsusy's public functions from outside the package.

Nothing inside ``src/`` records spans.  ``Tracer.install`` replaces every
binding of each target, not only the one in the defining module: the name a
``from .x import y`` statement copied into another module, the package
re-export, and module-level dispatch tables such as ``cli._COMMANDS``.  A call
through any route therefore produces exactly one span.

Each span is one row (name, parent, verdict, start, end) of a flat in-memory
array that is written out once, at the end of a run.  A span whose end reads
0 was cut short by a deadline signal.  Self time is a span's
duration minus the time covered by its child spans.  Machine-independent
counts (calls, integrand evaluations, points, jet order x points) are kept
per verdict and committed only when the verdict completes; a verdict cut by
its deadline would otherwise contribute a timing-dependent amount of work.

Recursion guard: ``integrate_interval`` with ``endpoint_substitution`` calls
itself through its module-level name.  That inner span still gets self time,
but its call and evaluation counts are not added again, because the caller
receives the inner ``IntegralResult`` unchanged.  Likewise the core
``integrate_interval`` of ``integrate_real_line`` is counted as part of the
real-line integral that returns it.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

INTERVAL = "quadrature.integrate_interval"
REAL_LINE = "quadrature.integrate_real_line"
# fields of one span row; the integer fields are exact as doubles
ROW = 5
NAME, PARENT, VERDICT, START, END = range(ROW)


def _size_arg(pos: int, key: str):
    def count(args, kwargs, result):
        x = args[pos] if len(args) > pos else kwargs[key]
        return {"points": int(np.size(x))}

    return count


def _word_points(args, kwargs, result):
    word = args[1] if len(args) > 1 else kwargs["word"]
    x = args[3] if len(args) > 3 else kwargs["x"]
    points = int(np.size(x))
    order = sum(2 if kind == "H" else 1 for kind, _ in word)
    return {"points": points, "order_points": order * points}


def _evaluations(args, kwargs, result):
    return {"evals": int(result.evaluations)}


# (span name, module, attribute path, count function or None).  Spans of one
# layer share the name prefix of their module; spectrum spans are counted only.
TARGETS = (
    (INTERVAL, "quadrature", "integrate_interval", _evaluations),
    (REAL_LINE, "quadrature", "integrate_real_line", _evaluations),
    ("wavefn.EigenFunction.call", "wavefn", "EigenFunction.__call__", _size_arg(1, "x")),
    ("wavefn.EigenFunction.taylor", "wavefn", "EigenFunction.taylor", _size_arg(1, "x")),
    ("wavefn.eigenfunction", "wavefn", "eigenfunction", None),
    ("wavefn.gram_matrix", "wavefn", "gram_matrix", None),
    ("specfun.log_gamma", "specfun", "log_gamma", _size_arg(0, "z")),
    ("jets.mul", "jets", "Jet.__mul__", None),
    ("jets.div", "jets", "Jet.__truediv__", None),
    ("jets.sin_cos", "jets", "sin_cos", None),
    ("jets.exp", "jets", "exp", None),
    ("jets.log", "jets", "log", None),
    ("jets.polyval", "jets", "polyval", None),
    ("operators.apply_word", "operators", "apply_word", _word_points),
    ("operators.verify_operator_identities", "operators", "verify_operator_identities", None),
    ("coherent.resolution_kernel", "coherent", "resolution_kernel", _size_arg(2, "x")),
    ("coherent.identity_gram_projection", "coherent", "identity_gram_projection", None),
    ("coherent.cs_overlap", "coherent", "cs_overlap", None),
    ("coherent.CoherentState.call", "coherent", "CoherentState.__call__", _size_arg(1, "x")),
    ("spectrum.energy", "spectrum", "energy", None),
    ("spectrum.gap_factor_M", "spectrum", "gap_factor_M", None),
    ("spectrum.gap_factor_N", "spectrum", "gap_factor_N", None),
    ("cli.main", "cli", "main", None),
    ("cli.cmd_spectrum", "cli", "cmd_spectrum", None),
    ("cli.cmd_wavefn", "cli", "cmd_wavefn", None),
    ("cli.cmd_verify", "cli", "cmd_verify", None),
    ("cli.cmd_coherent", "cli", "cmd_coherent", None),
)


class Tracer:
    """Records spans and per-layer counts for the functions in ``TARGETS``."""

    def __init__(self):
        errors = importlib.import_module("ptsusy.errors")
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows = array.array("d")  # ROW fields per span
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._pending: Counter = Counter()
        self._stack: list[list] = []  # [span index, name, child seconds]
        self._patches: list[tuple] = []  # (module, class or dict; attribute or key; original)
        # the exception types the package defines; a quadrature span that
        # raises one of them counts in quadrature.raised
        self._package_errors = tuple(
            v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
        )
        self.verdict = -1

    # -- verdict bookkeeping -------------------------------------------------

    def begin_verdict(self, index: int) -> None:
        self.verdict = index
        self._pending = Counter()
        self._stack.clear()

    def end_verdict(self, keep: bool) -> None:
        """Commit the verdict's counts, or drop them if it was cut short."""
        if keep:
            self.counts.update(self._pending)
        self._pending = Counter()
        self._stack.clear()
        self.verdict = -1

    @property
    def spans(self) -> int:
        return len(self.rows) // ROW

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, count):
        tracer = self
        nid = self._name_id(name)
        quadrature = name in (INTERVAL, REAL_LINE)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            depth = len(stack)
            parent = stack[-1] if depth else None
            rows = tracer.rows
            row = len(rows)
            frame = [row // ROW, name, 0.0]
            # a recursive or real-line-core interval call is not a new integral
            counted = not (quadrature and parent is not None and parent[1] in (INTERVAL, REAL_LINE))
            start = time.perf_counter()
            # A deadline signal can interrupt any bytecode.  One extend call
            # writes the whole row, and every span cuts the stack back to its
            # own depth on exit, so an interruption leaves neither a partial
            # row nor a stale frame under the caller.
            rows.extend((nid, parent[0] if parent else -1, tracer.verdict, start, 0.0))
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except tracer._package_errors:
                if quadrature and counted:
                    tracer._pending["quadrature.raised"] += 1
                raise
            finally:
                end = time.perf_counter()
                del stack[depth:]
                rows[row + END] = end
                duration = end - start
                tracer.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
            if counted:
                pending = tracer._pending
                pending[name + ".calls"] += 1
                if count is not None:
                    for key, value in count(args, kwargs, result).items():
                        pending[f"{name}.{key}"] += value
            return result

        return traced

    def save(self, path) -> None:
        """Write every span as parallel arrays plus the name table (.npz)."""
        rows = np.frombuffer(self.rows, dtype=float).reshape(-1, ROW)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=rows[:, NAME].astype(np.int32),
            parent=rows[:, PARENT].astype(np.int32),
            verdict=rows[:, VERDICT].astype(np.int32),
            start=rows[:, START].copy(),
            end=rows[:, END].copy(),
        )

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        owners = {m: importlib.import_module(f"ptsusy.{m}") for _, m, _, _ in TARGETS}
        modules = [m for k, m in sorted(sys.modules.items()) if k == "ptsusy" or k.startswith("ptsusy.")]
        for name, module_name, path, count in TARGETS:
            owner = owners[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(name, original, count)
                for key, value in list(cls.__dict__.items()):
                    if value is original:  # covers aliases such as __rmul__ = __mul__
                        self._patches.append((cls, key, value))
                        setattr(cls, key, wrapper)
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):  # dispatch tables such as cli._COMMANDS
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patches.append((value, dkey, dvalue))
                                value[dkey] = wrapper

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._patches.clear()


def cache_counts() -> dict:
    """(hits, misses) of the package's lru caches that the metrics follow."""
    from ptsusy import specfun, wavefn

    caches = {
        "wavefn.eigenfunction": wavefn.eigenfunction,
        "wavefn.normalization_K": wavefn.normalization_K,
        "specfun.jacobi_series_coefficients": specfun.jacobi_series_coefficients,
    }
    out = {}
    for name, fn in caches.items():
        while not hasattr(fn, "cache_info"):  # look through a tracing wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[name] = (info.hits, info.misses)
    return out
