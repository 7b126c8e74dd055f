"""One benchmark sample: a fresh interpreter runs each op of a workload once.

    PYTHONPATH=src python3 perfbench/sample.py --workload quadruple --seed 1 \
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn> \
        --spans perfbench/out/spans.jsonl [--setup-only]

Prints one JSON object: when set-up ended (on the system-wide monotonic
clock, so the parent can subtract its spawn time), each op's wall time,
normalised time (see speed.py), fingerprint and problems, the run time, the
peak resident memory and, with ``--trace 1``, the per-layer metrics.  The
spans of a traced sample are written to ``--spans`` as JSON lines.  With
``--setup-only`` it stops once the inputs are built and prints only when
set-up ended and a reference time (see speed.py) measured just after.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import speed

SRC = Path(__file__).resolve().parent.parent / "src"


def run_ops(ops):
    """Run each op once, with the reference kernel (see speed.py) run before
    the first op, after each op and every ``speed.INTERVAL_S`` during an op;
    an op that raises is recorded with the error as its problem, so one
    failure does not hide the others.

    Returns the op results and the reference time measured before the
    first op.  An op's ``s`` is its wall time less the reference runs inside
    it; its normalised time ``norm_s`` scales ``s`` by the mean of the
    reference times from just before it to just after it.
    """
    results = []
    meter = speed.Meter()
    first_reference = meter.measure()
    meter.start()
    try:
        for name, op in ops:
            before = len(meter.times) - 1
            t0 = speed.clock()
            try:
                fingerprint, problems = op()
            except Exception as exc:  # any error of the code under test fails the op
                fingerprint, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            wall = speed.clock() - t0
            meter.measure()
            around = meter.times[before:]
            results.append({
                "name": name,
                "s": wall,
                "norm_s": wall * speed.REFERENCE_S * len(around) / sum(around),
                "fingerprint": fingerprint,
                "problems": problems,
            })
    finally:
        meter.stop()
    return results, first_reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the inputs are built and report only the set-up")
    args = parser.parse_args()

    import multising
    from multising import poly

    if not Path(multising.__file__).resolve().is_relative_to(SRC):
        print(f"multising imported from {multising.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.build(args.workload, args.seed)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "first_reference_s": speed.reference()}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    results, first_reference = run_ops(ops)
    wall_s = sum(r["s"] for r in results)
    run_s = sum(r["norm_s"] for r in results)
    out = {
        "ready_at": ready_at,
        "first_reference_s": first_reference,
        "wall_run_s": wall_s,
        "run_s": run_s,
        "top_op_s": next(r["norm_s"] for r in results if r["name"] == workloads.TOP_OP[args.workload]),
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "coefficients": poly.Rat.__name__,
    }
    if tracer is not None:
        # Layer times are scaled like the ops that contain them.
        scale = run_s / wall_s
        out["layers"] = {
            name: value * scale if name.endswith(("_s", ".s")) else value
            for name, value in tracer.layer_metrics().items()
        }
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        with args.spans.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span[:4]) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
