"""Benchmark of the multising exact calculus.

    python3 perfbench/run.py --workload quadruple --seed 1 --seconds 40 --trace 0

Runs fresh-interpreter samples of one workload (see workloads.py) one at a
time, a closed loop with one client and no extra threads, for ``--seconds``.
Every sample of a run uses the run's seed, so every sample computes the same
thing.

Every reported time is normalised by the machine's current speed (see
speed.py): it is the wall time scaled by a fixed reference kernel's time
measured just before and just after it.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (spawn to
inputs built), ``run_s`` (all ops), ``top_op_s`` (the workload's largest op)
and ``peak_rss_mb``, each the median over the samples.  With ``--trace 1``
it alternates untraced and traced samples and reports the per-layer metrics
of the traced ones, plus ``trace.overhead_s``, the difference of the two
kinds' ``run_s``.

An op fails when it raises, when its report is not ok, when an oracle or a
recorded digest disagrees, or when its result differs between samples of the
run.  The last stdout line is the JSON result; the exit code is 1 if any op
failed, and 2, with no result printed, if a sample could not run at all.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SAMPLES = 3
# Set-up-only samples run before each untraced sample: set-up is short and
# noisy, so setup_s is the median of many more set-ups than there are runs.
SETUPS_PER_SAMPLE = 6
SAMPLE_TIMEOUT_S = 150


@functools.cache
def _spec() -> dict:
    """BENCHMARK.json, which names every workload and metric.

    A per-layer metric whose name ends in "_s" or ".s" is a time, reported
    like the end-to-end times; every other one is a count that must repeat
    exactly.
    """
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in _spec()[kind]}


class SampleError(RuntimeError):
    """A sample process failed to produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # Fixed string hashing keeps set iteration, and so the layer counts,
    # identical from sample to sample.
    env["PYTHONHASHSEED"] = "0"
    return env


def _check_call(cmd, env) -> str:
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=SAMPLE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SampleError(f"{cmd[1]} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def _warm_up(env) -> None:
    """Import everything once so that byte-code compilation is not timed."""
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads, tracing"
    _check_call([sys.executable, "-c", code], env)


def _sample(args, traced: bool, env, setup_only: bool = False) -> dict:
    spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    reference = speed.reference()
    spawned_at = time.monotonic()
    stdout = _check_call([
        sys.executable, str(HERE / "sample.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(int(traced)),
        "--spawned-at", repr(spawned_at), "--spans", str(spans),
        *(["--setup-only"] if setup_only else []),
    ], env)
    try:
        result = json.loads(stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as err:
        raise SampleError(f"sample printed no result: {err}") from err
    result["wall_setup_s"] = result["ready_at"] - spawned_at
    result["setup_s"] = result["wall_setup_s"] * speed.REFERENCE_S / (
        (reference + result["first_reference_s"]) / 2
    )
    return result


def _collect(args, env):
    """Samples until the next one would end after ``--seconds``, but at
    least MIN_SAMPLES of each kind; with ``--trace 0`` also the set-up
    times of the set-up-only samples."""
    samples = {False: [], True: []}
    durations = {False: [], True: []}
    setups = []
    deadline = time.monotonic() + args.seconds
    while True:
        traced = args.trace == 1 and len(samples[True]) < len(samples[False])
        started = time.monotonic()
        if not args.trace:
            for _ in range(SETUPS_PER_SAMPLE):
                setups.append(_sample(args, False, env, setup_only=True)["setup_s"])
        samples[traced].append(_sample(args, traced, env))
        durations[traced].append(time.monotonic() - started)
        enough = all(len(samples[kind]) >= MIN_SAMPLES for kind in {False, args.trace == 1})
        following = args.trace == 1 and len(samples[True]) < len(samples[False])
        next_end = time.monotonic() + statistics.mean(durations[following] or durations[traced])
        if enough and next_end > deadline:
            return samples[False], samples[True], setups


def _typical(values) -> float:
    """Median of a run's samples."""
    return statistics.median(values)


def _failures(samples):
    """Attempted and failed op counts; results that differ between samples
    of the run (same seed, traced or not) fail too."""
    attempted = failed = 0
    first = {}
    for sample in samples:
        for op in sample["ops"]:
            attempted += 1
            reference = first.setdefault(op["name"], op["fingerprint"])
            problems = list(op["problems"])
            if op["fingerprint"] != reference:
                problems.append("result differs from the run's first sample")
            if problems:
                failed += 1
                print(f"FAILED {op['name']}: {'; '.join(problems)}", file=sys.stderr)
    return attempted, failed


def _sample_values(samples, setups) -> dict:
    """Each end-to-end metric's value in every sample, and the raw wall
    times; setup_s has the set-up-only samples' values too."""
    names = [*_units("end_to_end"), "wall_setup_s", "wall_run_s"]
    values = {name: [s[name] for s in samples] for name in names}
    values["setup_s"] += setups
    return values


def _end_to_end(values) -> dict:
    return {
        name: {"value": _typical(values[name]), "unit": unit}
        for name, unit in _units("end_to_end").items()
    }


def _per_layer(untraced, traced) -> dict:
    out = {}
    for name, unit in _units("per_layer").items():
        if name == "trace.overhead_s":
            value = _typical([s["run_s"] for s in traced]) - _typical([s["run_s"] for s in untraced])
        elif name.endswith(("_s", ".s")):
            value = _typical([s["layers"][name] for s in traced])
        else:
            seen = {s["layers"][name] for s in traced}
            if len(seen) > 1:
                print(f"WARNING {name} differs between traced samples: {sorted(seen)}", file=sys.stderr)
            value = traced[0]["layers"][name]
        out[name] = {"value": value, "unit": unit}
    return out


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in _spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = _env()
    try:
        _warm_up(env)
        untraced, traced, setups = _collect(args, env)
    except (SampleError, subprocess.TimeoutExpired, OSError) as err:
        print(f"benchmark could not run: {err}", file=sys.stderr)
        return 2

    samples = untraced + traced
    attempted, failed = _failures(samples)
    values = _sample_values(untraced, setups)
    metrics = _per_layer(untraced, traced) if args.trace else _end_to_end(values)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "samples": len(untraced), "traced_samples": len(traced), "setup_only_samples": len(setups),
        "python": platform.python_version(), "coefficients": samples[0]["coefficients"],
        "nproc": len(os.sched_getaffinity(0)), "commit": _git_commit(),
    }
    print("meta " + json.dumps(meta))
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name, unit in _units("end_to_end").items():
            print(f"{name:34s} min {min(values[name]):.6g}, max {max(values[name]):.6g} {unit} "
                  f"over {len(values[name])} samples")
        for name in ("wall_setup_s", "wall_run_s"):
            print(f"{name:34s} median {statistics.median(values[name]):.6g} s, not normalised")
    print(f"{'ops_failed':34s} {failed} count")
    print(f"{'ops_attempted':34s} {attempted} count")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with (OUT / "results.jsonl").open("a") as fh:
        fh.write(json.dumps({"meta": meta, **result, "per_sample": values}) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
