"""The benchmark's workloads: seeded lists of ops with their correctness checks.

An op is one suite call at one ell, or one Schubert-calculus check.  Calling
an op returns ``(fingerprint, problems)``: the fingerprint is a JSON value
that identifies what the op computed, and ``problems`` lists every oracle or
digest mismatch, so an empty list means the op's output is correct.

Every oracle here is independent of the code under test: classical counts
and dual partitions computed by this file, algebraic identities, and digests
of the suites' reports recorded in ``expected.json``.  Only the default sign
orientation and orientation-independent identities are used, so calibrating
the orientations cannot break a check.

The library is reached only through module attributes (``germs.verify_...``),
never through names imported into this file, so the tracer's patches see
every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from multising import germs, grassmann, multipoint, poly

Op = Callable[[], Tuple[object, List[str]]]

WORKLOADS = ("quadruple", "divisibility", "schubert")

# The op whose wall time is reported as top_op_s.
TOP_OP = {
    "quadruple": "quadruple-5",
    "divisibility": "divisibility-5",
    "schubert": "duality-13",
}

ELLS = (1, 2, 3, 4, 5)
SCHUBERT_NS = tuple(range(6, 14))
PROJECTION_NS = (7, 8, 9)
TRIPLES_PER_RING = 6

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# expand_n of four ordinary points, keyed by block sizes: the number of set
# partitions of four points of each shape.
A0_PARTITIONS_4 = {(4,): 1, (1, 3): 4, (1, 1, 2): 6, (2, 2): 3, (1, 1, 1, 1): 1}

_IDENTITY_KEYS = ("name", "holds", "residual", "detail")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report) -> str:
    """Digest of a Report's identity fields; any other key is ignored."""
    full = report.to_json_dict()
    identity = {
        "suite": full["suite"],
        "ell": full["ell"],
        "ok": full["ok"],
        "checks": [{k: c[k] for k in _IDENTITY_KEYS} for c in full["checks"]],
    }
    return _sha(json.dumps(identity, sort_keys=True, separators=(",", ":")))


def quadruple_fingerprint(ell: int) -> Tuple[dict, object]:
    report = germs.verify_quadruple(ell)
    formula = multipoint.emit_quadruple_formula(ell).to_latex()
    return {"report": report_digest(report), "formula": _sha(formula)}, report


def divisibility_fingerprint(ell: int) -> Tuple[dict, object]:
    report = germs.verify_divisibility_suite(ell)
    return {"report": report_digest(report)}, report


def blowup_fingerprint() -> Tuple[dict, object]:
    report = germs.blowup_control_report()
    return {"report": report_digest(report)}, report


def load_expected() -> Dict[str, dict]:
    return json.loads(EXPECTED_PATH.read_text())


def _suite_op(name: str, run: Callable[[], Tuple[dict, object]], expected) -> Op:
    def op():
        fingerprint, report = run()
        problems = []
        if not report.ok:
            failing = [c.name for c in report.checks if not c.holds]
            problems.append(f"report not ok: {failing}")
        if fingerprint != expected[name]:
            problems.append(f"digest {fingerprint} != recorded {expected[name]}")
        return fingerprint, problems

    return op


def _blowup_op(expected) -> Op:
    suite = _suite_op("blowup", blowup_fingerprint, expected)

    def op():
        fingerprint, problems = suite()
        try:
            germs.n1(germs.germ_blowup())
            problems.append("blow-up Euler quotient was accepted")
        except poly.NonExactDivision:
            pass
        return fingerprint, problems

    return op


def _a0_partitions_op(oracle: Dict[tuple, int]) -> Op:
    def op():
        got = multipoint.a0_partition_coefficients(4)
        fingerprint = sorted((list(k), str(v)) for k, v in got.items())
        problems = [] if got == oracle else [f"{got} != {oracle}"]
        return fingerprint, problems

    return op


# -- Schubert calculus on Gr(3, n) --------------------------------------------


def box_partitions(rows: int, cols: int) -> List[tuple]:
    """Partitions with at most three rows inside the box, listed independently
    of the library's enumeration."""
    if rows != 3:
        raise ValueError("only three-row boxes are benchmarked")
    out = []
    for a in range(cols + 1):
        for b in range(a + 1):
            for c in range(b + 1):
                out.append(tuple(p for p in (a, b, c) if p))
    return out


def complement(lam: tuple, rows: int, cols: int) -> tuple:
    padded = tuple(lam) + (0,) * (rows - len(lam))
    return tuple(p for p in (cols - q for q in reversed(padded)) if p)


def standard_tableaux_of_box(rows: int, cols: int) -> int:
    """Hook-length count of standard tableaux of the rows x cols rectangle."""
    hooks = 1
    for i in range(rows):
        for j in range(cols):
            hooks *= (rows - 1 - i) + (cols - 1 - j) + 1
    return math.factorial(rows * cols) // hooks


def _sigma1_op(n: int) -> Op:
    def op():
        ring = grassmann.GrassRing(3, n)
        top = grassmann.integrate(grassmann.schur(ring, (1,)) ** ring.dim)
        want = standard_tableaux_of_box(3, n - 3)
        problems = [] if top == want else [f"sigma1^dim = {top}, hook count {want}"]
        return str(top), problems

    return op


def _duality_op(n: int) -> Op:
    def op():
        ring = grassmann.GrassRing(3, n)
        cols = n - 3
        parts = box_partitions(3, cols)
        problems = []
        values = []
        for lam in parts:
            dual = complement(lam, 3, cols)
            x = grassmann.schur(ring, lam)
            for mu in parts:
                if sum(lam) + sum(mu) != ring.dim:
                    continue
                value = grassmann.integrate(x * grassmann.schur(ring, mu))
                values.append(str(value))
                if value != (1 if mu == dual else 0):
                    problems.append(f"<s{lam}, s{mu}> = {value}")
        return _sha(",".join(values)), problems

    return op


def _algebra_op(n: int, triples: List[Tuple[tuple, tuple, tuple]]) -> Op:
    def op():
        ring = grassmann.GrassRing(3, n)
        problems = []
        values = []
        for triple in triples:
            x, y, z = (grassmann.schur(ring, lam) for lam in triple)
            xy = x * y
            left = xy * z
            if left != x * (y * z):
                problems.append(f"associativity fails on {triple}")
            if xy != y * x:
                problems.append(f"commutativity fails on {triple[:2]}")
            values.append(repr(left))
        return _sha("|".join(values)), problems

    return op


def _projection_op(n: int, ys: List[tuple]) -> Op:
    """Projection formula and base-linearity of reduce on P(S) over Gr(3, n).

    For each base class s_mu and each kappa monomial x = k1^a k2^b with
    deg x + |mu| = dim P(S), push_*(x * s_mu) must equal push_*(x) * s_mu,
    and reduce(x * s_mu) must equal reduce(x) * s_mu.
    """

    def op():
        ring = grassmann.GrassRing(3, n)
        top = ring.dim + 2
        most = top - min(sum(mu) for mu in ys)
        k1, k2 = grassmann.kappa_chern(ring)
        unit = grassmann.FiberClass.lift(grassmann.schur(ring, ()))
        k1_pows = [unit]
        for _ in range(most):
            k1_pows.append(k1_pows[-1] * k1)
        k2_pows = [unit]
        for _ in range(most // 2):
            k2_pows.append(k2_pows[-1] * k2)
        orientation = grassmann.TAUTOLOGICAL_LINE
        problems = []
        values = []
        for mu in ys:
            y = grassmann.schur(ring, mu)
            lifted = grassmann.FiberClass.lift(y)
            rest = top - sum(mu)
            for b in range(rest // 2 + 1):
                x = k1_pows[rest - 2 * b] * k2_pows[b]
                xy = x * lifted
                left = grassmann.pushforward_P_S(xy)
                if left != grassmann.pushforward_P_S(x) * y:
                    problems.append(f"projection formula fails for s{mu}, b={b}")
                if xy.reduce(orientation) != x.reduce(orientation) * lifted:
                    problems.append(f"reduce is not base-linear for s{mu}, b={b}")
                values.append(str(grassmann.integrate(left)))
        return _sha(",".join(values)), problems

    return op


def _schubert_rings(rng: random.Random) -> List[List[Tuple[str, Op]]]:
    """The ops of each ring, duality first.

    The order inside a ring is fixed because the ops share the ring's cold
    Schur product table: the duality sweep always fills it from empty.
    """
    rings = []
    for n in SCHUBERT_NS:
        cols = n - 3
        parts = box_partitions(3, cols)
        # Fixed degrees keep the work of a ring the same for every seed.
        degree = 3 * cols // 4
        of_degree = [lam for lam in parts if sum(lam) == degree]
        triples = [
            tuple(rng.choice(of_degree) for _ in range(3))
            for _ in range(TRIPLES_PER_RING)
        ]
        ops = [
            (f"duality-{n}", _duality_op(n)),
            (f"sigma1-{n}", _sigma1_op(n)),
            (f"algebra-{n}", _algebra_op(n, triples)),
        ]
        if n in PROJECTION_NS:
            ys = [
                rng.choice([lam for lam in parts if sum(lam) == d])
                for d in range(2 * cols, 3 * cols + 1)
            ]
            ops.append((f"projection-{n}", _projection_op(n, ys)))
        rings.append(ops)
    return rings


def build(workload: str, seed: int, expected=None, a0_oracle=None) -> List[Tuple[str, Op]]:
    """The workload's ops in the order the seed chooses.

    ``schubert`` shuffles whole rings; the other workloads shuffle single
    ops.  ``expected`` and ``a0_oracle`` default to the recorded digests and
    the classical partition counts; tests pass wrong values to see them caught.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    if workload == "schubert":
        groups = _schubert_rings(rng)
    else:
        if expected is None:
            expected = load_expected()
        if workload == "quadruple":
            ops = [
                (f"quadruple-{ell}", _suite_op(
                    f"quadruple-{ell}", lambda ell=ell: quadruple_fingerprint(ell), expected
                ))
                for ell in ELLS
            ]
            ops.append(("a0-partitions-4", _a0_partitions_op(a0_oracle or A0_PARTITIONS_4)))
        else:
            ops = [
                (f"divisibility-{ell}", _suite_op(
                    f"divisibility-{ell}", lambda ell=ell: divisibility_fingerprint(ell), expected
                ))
                for ell in ELLS
            ]
            ops.append(("blowup", _blowup_op(expected)))
        groups = [[op] for op in ops]
    rng.shuffle(groups)
    return [op for group in groups for op in group]
