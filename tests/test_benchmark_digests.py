"""The benchmark's recorded digests, checked by the test suite.

perfbench/workloads.py is executed from its source text, without importing
it as a module, so no byte code or other file is written next to it.  A
change that moves a suite report or a quadruple formula away from the
digests in perfbench/expected.json then fails here, before the benchmark
ever runs.  The schubert workload has no recorded digests of its own, so its
fingerprints are kept in schubert_fingerprints.json next to this file, and a
library name that the benchmark's tracer patches must still exist.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PATH = ROOT / "perfbench" / "workloads.py"
SCHUBERT_FINGERPRINTS = json.loads(Path(__file__).with_name("schubert_fingerprints.json").read_text())


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


@pytest.mark.parametrize("seed", [1, 2])
def test_schubert_fingerprints_match_recorded(seed):
    recorded = SCHUBERT_FINGERPRINTS[str(seed)]
    ops = workloads.build("schubert", seed)
    assert sorted(name for name, _ in ops) == sorted(recorded)
    for name, op in ops:
        fingerprint, problems = op()
        assert problems == [], name
        assert fingerprint == recorded[name], name


def test_tracer_installs_on_every_traced_name():
    # a fresh interpreter, so the patches stay out of this process; -B keeps
    # byte code out of perfbench/
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    # layer_metrics reads grassmann._mul_basis.cache_info(), so it must stay an lru_cache
    code = "import tracing; t = tracing.Tracer(); t.install(); t.layer_metrics()"
    done = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
