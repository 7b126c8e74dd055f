"""The benchmark's recorded digests, checked by the test suite.

perfbench/workloads.py is executed from its source text, without importing
it as a module, so no byte code or other file is written next to it.  A
change that moves a suite report or a quadruple formula away from the
digests in perfbench/expected.json then fails here, before the benchmark
ever runs.
"""

import types
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads() -> types.ModuleType:
    module = types.ModuleType("workloads")
    module.__file__ = str(WORKLOADS_PATH)
    exec(compile(WORKLOADS_PATH.read_text(), str(WORKLOADS_PATH), "exec"), module.__dict__)
    return module


workloads = _load_workloads()
EXPECTED = workloads.load_expected()


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_quadruple_fingerprint_matches_recorded(ell):
    fingerprint, report = workloads.quadruple_fingerprint(ell)
    assert report.ok
    assert fingerprint == EXPECTED[f"quadruple-{ell}"]


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_divisibility_fingerprint_matches_recorded(ell):
    fingerprint, report = workloads.divisibility_fingerprint(ell)
    assert report.ok
    assert fingerprint == EXPECTED[f"divisibility-{ell}"]


def test_blowup_fingerprint_matches_recorded():
    fingerprint, report = workloads.blowup_fingerprint()
    assert report.ok
    assert fingerprint == EXPECTED["blowup"]
