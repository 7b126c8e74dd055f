"""The test configuration itself: pytest's warning filters."""

import importlib.util
import subprocess
import sys

import pytest


def test_hypothesis_reports_a_failing_example_under_the_warning_filters(request):
    # a failing property makes hypothesis import its patch writer, which
    # imports libcst; under the configured filters that import must not raise,
    # or pytest ends in INTERNALERROR before it prints the example
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("libcst is not installed, so hypothesis writes no patch")
    flags = [arg for spec in request.config.getini("filterwarnings") for arg in ("-W", spec)]
    assert flags[:2] == ["-W", "error"]
    run = subprocess.run([sys.executable, *flags, "-c", "import hypothesis.extra._patching"],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
