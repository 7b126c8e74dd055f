"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks that a wrong oracle value fails its op, that traced samples with one
seed repeat their layer counts exactly, and that tracing leaves every op's
result unchanged.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import run

sys.path.insert(0, str(run.ROOT / "src"))

import sample  # noqa: E402  (imports multising from the checkout)
import workloads  # noqa: E402

SEED = 7


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_wrong_oracle_fails_its_op() -> None:
    wrong_a0 = {**workloads.A0_PARTITIONS_4, (2, 2): 4}
    expected = workloads.load_expected()
    expected["quadruple-1"] = dict(expected["quadruple-1"], formula="0" * 64)
    cheap = ("a0-partitions-4", "quadruple-1", "quadruple-2")
    ops = [op for op in workloads.build("quadruple", SEED, expected, wrong_a0) if op[0] in cheap]
    results, _ = sample.run_ops(ops)
    attempted, failed = run._failures([{"ops": results}])
    failing = sorted(r["name"] for r in results if r["problems"])
    _check(attempted == 3, f"expected 3 ops attempted, got {attempted}")
    _check(failed == 2, f"expected 2 failed ops, got {failed}: {failing}")
    _check(failing == ["a0-partitions-4", "quadruple-1"], f"wrong ops failed: {failing}")


def test_traced_counts_repeat_and_results_unchanged() -> None:
    env = run._env()
    run._warm_up(env)
    for workload in ("quadruple", "divisibility", "schubert"):
        args = SimpleNamespace(workload=workload, seed=SEED)
        plain = run._sample(args, False, env)
        first = run._sample(args, True, env)
        second = run._sample(args, True, env)
        for name in ("poly.mul.calls", "poly.mul.term_pairs", "grassmann.class_mul.calls"):
            a, b = first["layers"][name], second["layers"][name]
            _check(a == b, f"{workload}: {name} differs between traced runs ({a} vs {b})")
        fingerprints = [{op["name"]: op["fingerprint"] for op in s["ops"]} for s in (plain, first, second)]
        _check(fingerprints[0] == fingerprints[1] == fingerprints[2],
               f"{workload}: tracing changed an op result")
        _check(run._failures([plain, first, second])[1] == 0, f"{workload}: an op failed")
        uses_poly = workload != "schubert"
        _check((first["layers"]["poly.mul.calls"] > 0) == uses_poly,
               f"{workload}: poly.mul.calls is {first['layers']['poly.mul.calls']}")
        _check((first["layers"]["grassmann.class_mul.calls"] > 0) != uses_poly,
               f"{workload}: grassmann.class_mul.calls is {first['layers']['grassmann.class_mul.calls']}")


def main() -> int:
    for test in (test_wrong_oracle_fails_its_op, test_traced_counts_repeat_and_results_unchanged):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
