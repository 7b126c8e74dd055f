"""Write expected.json: digests of the suites' reports and formulas.

The digests pin the outputs byte for byte, so an op whose report or LaTeX
rendering changes is counted as failed.  Re-record only when an output is
meant to change:

    PYTHONPATH=src python3 perfbench/record_expected.py
"""

import json

import workloads


def main() -> None:
    expected = {}
    for ell in workloads.ELLS:
        expected[f"quadruple-{ell}"] = workloads.quadruple_fingerprint(ell)[0]
        expected[f"divisibility-{ell}"] = workloads.divisibility_fingerprint(ell)[0]
    expected["blowup"] = workloads.blowup_fingerprint()[0]
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
