"""Wall-clock benchmark of the repro system: three workloads, one command.

Run from the root of a checkout (the program is imported from ``./src``)::

    python3 wallbench/run.py --workload job-adhoc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice in one process, first untraced and
then with the benchmark's wrappers installed (also in the server child),
and reports the per-layer table plus the tracing overhead.  Every run
checks the program's results against stdlib ``sqlite3`` outside the timed
window.  The last line of standard output is one JSON object; the lines
before it are the same figures for people.  See ``wallbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("job-adhoc", "served-mix", "durable-churn")


def _measure(workload: str, seed: int, seconds: float, scratch: Path,
             spans_out: str | None = None):
    if workload == "job-adhoc":
        import job_adhoc
        return job_adhoc.run(seed, seconds)
    if workload == "served-mix":
        import served_mix
        return served_mix.run(seed, seconds, ROOT, spans_out)
    import durable_churn
    return durable_churn.run(seed, seconds, str(scratch))


def _traced_layers(workload: str, seed: int, seconds: float, scratch: Path):
    """Untraced run, then traced run; returns (traced measurement, layer table)."""
    from layers import per_layer
    from tracer import Tracer, install

    untraced = _measure(workload, seed, seconds, scratch / "untraced")
    tracer = install(Tracer())
    child_spans = str(scratch / "server-spans.json")
    traced = _measure(workload, seed, seconds, scratch / "traced", child_spans)
    spans, counters = list(tracer.spans), list(tracer.counters)
    if os.path.exists(child_spans):
        # Span ids restart in every process; keep the child's disjoint.
        offset = 1 << 40
        child, child_counters = Tracer.load(child_spans)
        spans += [(sid + offset, name, start, end, parent + offset if parent else 0,
                   op, counts) for sid, name, start, end, parent, op, counts in child]
        counters += child_counters
    in_ops = [span for span in tracer.spans if span[5] >= 0]
    metrics, missing = per_layer(workload, traced, untraced, spans, counters, in_ops)
    if missing:
        traced.mismatches.append(f"traced run never reached: {', '.join(missing)}")
    return traced, metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="wallbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"wallbench: no program sources at {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # SIGTERM unwinds like SIGINT, so every clean-up below runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    base = ROOT / ".wallbench"
    scratch = base / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    # Anything the program puts in the temp dir stays inside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)
    try:
        from layers import END_TO_END, PER_LAYER, end_to_end, report_lines

        if args.trace:
            measurement, values = _traced_layers(args.workload, args.seed, args.seconds,
                                                 scratch)
            names = PER_LAYER
        else:
            measurement = _measure(args.workload, args.seed, args.seconds, scratch)
            values, names = end_to_end(args.workload, measurement), END_TO_END
        print(f"wallbench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        for line in report_lines(args.workload, measurement):
            print("  " + line)
        if args.trace:
            for name, unit in PER_LAYER:
                print(f"  {name:34s} {values[name]:14.4f} {unit}")
        for error in measurement.errors:
            print(f"  FAILED {error}")
        for problem in measurement.mismatches:
            print(f"  MISMATCH {problem}")
        correct = not measurement.mismatches
        print(json.dumps({
            "correct": correct,
            "attempted": measurement.attempted,
            "failed": measurement.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
