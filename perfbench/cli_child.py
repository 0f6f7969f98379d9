"""Run one ptsusy CLI command under the span tracer.

Usage: python3 perfbench/cli_child.py OUT.json [ptsusy arguments ...]

Writes the in-process wall time of ``cli.main``, the time the tracer cost the
process, the exception ``cli.main`` raised (or null), the per-layer counts,
self times and lru-cache counters to OUT.json and the spans to OUT.npz, then
exits with the command's own exit status.  The report is written also when
``cli.main`` raises.  run.py uses it for the traced pass of the cli workload;
the untraced passes run ``python -m ptsusy.cli``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    out = Path(sys.argv[1])
    from ptsusy import cli

    setup_start = time.perf_counter()
    import tracer as tracing

    tracer = tracing.Tracer()
    before = tracing.cache_counts()
    tracer.install()
    tracer.begin_verdict(0)
    start = time.perf_counter()
    raised = None
    try:
        return cli.main(sys.argv[2:])
    except BaseException as exc:
        raised = type(exc).__name__
        raise
    finally:
        end = time.perf_counter()
        tracer.end_verdict(keep=True)
        tracer.uninstall()
        after = tracing.cache_counts()
        tracer.save(out.with_suffix(".npz"))
        report = {
            "main_s": end - start,
            "tracer_s": (start - setup_start) + (time.perf_counter() - end),
            "raised": raised,
            "counts": dict(tracer.counts),
            "self_s": dict(tracer.self_s),
            "caches": {k: [after[k][0] - before[k][0], after[k][1] - before[k][1]] for k in after},
            "spans": tracer.spans,
        }
        out.write_text(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
