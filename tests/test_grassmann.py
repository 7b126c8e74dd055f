"""Schur-basis Grassmannian cohomology against a brute-force polynomial oracle."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multising import grassmann
from multising.grassmann import (
    DUAL_LINE,
    ORIENTATIONS,
    SIGNED_PUSH,
    TAUTOLOGICAL_LINE,
    FiberClass,
    GrassClass,
    GrassRing,
    RingMismatch,
    _mul_basis,
    chern_Q,
    chern_S,
    class_from_json,
    class_mul,
    integrate,
    kappa_chern,
    pushforward_P_S,
    schur,
)
from multising.poly import PolyError, rat, rat_str

R24 = GrassRing(2, 4)
R36 = GrassRing(3, 6)
R37 = GrassRing(3, 7)


# -- brute-force oracle: bialternant quotients in three variables --------------------

_X = sympy.symbols("x1 x2 x3")
_VAND = sympy.Poly(
    (_X[0] - _X[1]) * (_X[0] - _X[2]) * (_X[1] - _X[2]), *_X, domain="QQ"
)
_SCHUR_CACHE = {}


def _schur_poly(lam):
    lam = tuple(lam)
    if lam in _SCHUR_CACHE:
        return _SCHUR_CACHE[lam]
    padded = list(lam) + [0] * (3 - len(lam))
    num = sympy.Integer(0)
    for sigma in itertools.permutations(range(3)):
        sign = sympy.Integer(1)
        for a in range(3):
            for b in range(a + 1, 3):
                if sigma[a] > sigma[b]:
                    sign = -sign
        term = sign
        for i in range(3):
            term *= _X[sigma[i]] ** (padded[i] + 2 - i)
        num += term
    quotient, remainder = sympy.div(sympy.Poly(num, *_X, domain="QQ"), _VAND)
    assert remainder.is_zero
    _SCHUR_CACHE[lam] = quotient
    return quotient


def _oracle_mul(lam, mu, cols):
    """Expand s_lam * s_mu in the Schur basis of the three-variable ring."""
    p = _schur_poly(lam) * _schur_poly(mu)
    out = {}
    while not p.is_zero:
        exps = max(p.monoms())
        assert list(exps) == sorted(exps, reverse=True)
        c = p.coeff_monomial(exps)
        nu = tuple(e for e in exps if e)
        out[nu] = c
        p = p - c * _schur_poly(nu)
    return {nu: c for nu, c in out.items() if not nu or nu[0] <= cols}


# -- reference product: Jacobi-Trudi expansion into iterated Pieri steps ---------------


@functools.cache
def _pieri(lam, strip, rows, cols):
    """Partitions in the box obtained from lam by adding a horizontal strip."""
    padded = list(lam) + [0] * (rows - len(lam))
    results = []

    # interlacing: nu_i >= lam_i and nu_{i+1} <= lam_i keeps the strip horizontal
    def place(i, remaining, bound, acc):
        if i == rows:
            if remaining == 0:
                results.append(tuple(p for p in acc if p))
            return
        old = padded[i]
        for new in range(old, min(cols, bound, old + remaining) + 1):
            acc.append(new)
            place(i + 1, remaining - (new - old), old, acc)
            acc.pop()

    place(0, strip, cols, [])
    return tuple(results)


def _jacobi_trudi_mul(k, n, lam, mu):
    """s_lam * s_mu as det(h_{mu_i - i + j}) applied to s_lam by Pieri steps.

    Boxed terms are dropped as soon as they appear, which is safe because
    containment only grows along a Pieri chain.
    """
    acc = {}
    m = len(mu)
    for sigma in itertools.permutations(range(m)):
        sign = (-1) ** sum(sigma[i] > sigma[j] for i in range(m) for j in range(i + 1, m))
        strips = [mu[i] - i + sigma[i] for i in range(m)]
        if any(s < 0 for s in strips):
            continue
        frontier = {lam: sign}
        for strip in strips:
            grown = {}
            for base, mult in frontier.items():
                for nu in _pieri(base, strip, k, n - k):
                    grown[nu] = grown.get(nu, 0) + mult
            frontier = grown
        for nu, mult in frontier.items():
            acc[nu] = acc.get(nu, 0) + mult
    return {nu: c for nu, c in acc.items() if c}


# -- ring and class normalization ------------------------------------------------------


def test_ring_invariants():
    with pytest.raises(PolyError):
        GrassRing(0, 4)
    with pytest.raises(PolyError):
        GrassRing(4, 4)
    assert R37.dim == 12
    assert R37.box == (4, 4, 4)
    for k in (3.0, True, "3"):
        with pytest.raises(PolyError):
            GrassRing(k, 6)


def test_partition_normalization():
    x = GrassClass(R24, {(2, 1, 0): 5})
    assert x.coeffs == {(2, 1): rat(5)}
    assert GrassClass(R24, {(3,): 1}).is_zero()  # part exceeds n-k
    assert GrassClass(R24, {(1, 1, 1): 1}).is_zero()  # too many rows
    assert GrassClass(R24, {(1,): 0}).is_zero()
    with pytest.raises(PolyError):
        GrassClass(R24, {(1, 2): 1})
    assert schur(R37, [2, 1, 0]) == schur(R37, (2, 1))


def test_coefficient_views_are_read_only():
    x = rat(1, 2) * schur(R36, (1,))
    with pytest.raises(TypeError):
        schur(R36, (1,)).coeffs[(2,)] = 1
    with pytest.raises(TypeError):
        FiberClass.lift(x).coeffs[1] = x
    assert x.coeffs == {(1,): rat(1, 2)} and x.nums == {(1,): 1} and x.den == 2


def test_schur_classes_are_shared_and_immutable():
    x = schur(R37, (2, 1))
    assert schur(R37, (2, 1)) is x
    assert schur(R37, [2, 1, 0]) is x  # non-canonical input finds the same instance
    with pytest.raises(AttributeError):
        x.nums = {}
    with pytest.raises(AttributeError):
        x.den = 2


def test_arithmetic_leaves_the_shared_basis_class_unchanged():
    # every result must be a new dict: sharing makes an in-place change of nums visible
    s1 = schur(R37, (1,))
    lifted = FiberClass.lift(s1)
    xi = FiberClass.xi(R37)
    results = [
        s1 + s1, s1 + 0, 0 + s1, s1 - s1, s1 - 2, 2 - s1, -s1, s1 * 1, 1 * s1,
        s1 * rat(1, 2), s1 * 0, s1 * s1, s1 * schur(R37, ()), class_mul(s1, s1),
        s1 ** 0, s1 ** 1, s1 ** 3, s1.homogeneous_part(1), s1.homogeneous_part(2),
        lifted, lifted + s1, lifted * s1, s1 * lifted, (xi ** 4 * s1).reduce(DUAL_LINE),
        pushforward_P_S(xi ** 2 * s1, DUAL_LINE), pushforward_P_S(lifted * xi ** 3, DUAL_LINE),
    ]
    assert all(r.nums is not s1.nums for r in results)
    assert s1.nums == {(1,): 1} and s1.den == 1
    assert s1 is schur(R37, (1,))


def test_dual_partition():
    assert R24.dual(()) == (2, 2)
    assert R24.dual((2, 1)) == (1,)
    assert R37.dual((4, 2, 1)) == (3, 2)
    for lam in [(1.5,), (True,), ("1",), (1, 2), (-1,), (4,), (1, 1, 1, 1)]:
        with pytest.raises(PolyError):
            R36.dual(lam)


def test_scalar_classes_hash_like_their_value():
    for value in (3, rat(1, 2), 0):
        assert GrassClass(R36, {(): value}) == value
        assert hash(GrassClass(R36, {(): value})) == hash(value)
    with pytest.raises(PolyError):
        GrassClass(R36, {(1,): 0.1})


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatch):
        class_mul(schur(R24, (1,)), schur(R36, (1,)))
    with pytest.raises(RingMismatch):
        schur(R24, (1,)) + schur(R36, (1,))


def test_equal_rings_built_apart_still_combine():
    # the identity check on rings only short-cuts the equality test
    other = GrassRing(3, 6)
    assert other is not R36 and other == R36
    x, y = schur(R36, (1,)), schur(other, (1,))
    assert x is not y and x == y and hash(x) == hash(y)
    assert class_mul(x, y) == x * x == y * x
    assert x + y == 2 * x and FiberClass.lift(y) * x == FiberClass.lift(x * x)


# -- products ---------------------------------------------------------------------------


def test_unit_and_small_products():
    s1 = schur(R24, (1,))
    assert schur(R24, ()) * s1 == s1
    assert s1 * s1 == schur(R24, (2,)) + schur(R24, (1, 1))
    tiny = GrassRing(1, 2)
    assert (schur(tiny, (1,)) * schur(tiny, (1,))).is_zero()


def test_integrate_sigma1_fourth():
    assert integrate(schur(R24, (1,)) ** 4) == 2


def test_integrate_grading():
    assert integrate(schur(R24, (2, 2))) == 1
    assert integrate(schur(R24, (2, 1))) == 0
    assert integrate(GrassClass(R24, {})) == 0


def test_products_match_oracle_through_degree_six():
    basis = [lam for lam in R37.partitions() if sum(lam) <= 6]
    assert len(basis) == 20
    for lam, mu in itertools.combinations_with_replacement(basis, 2):
        got = class_mul(schur(R37, lam), schur(R37, mu))
        want = _oracle_mul(lam, mu, R37.cols)
        assert set(got.coeffs) == set(want), (lam, mu)
        for nu, c in want.items():
            assert sympy.Rational(str(got.coeffs[nu])) == c, (lam, mu, nu)


@pytest.mark.parametrize(
    "k, n",
    [(3, 6), (3, 7), (3, 8), (3, 9), (2, 6), (4, 8), (1, 5), (4, 9), (2, 9), (5, 8), (6, 9)],
)
def test_lr_product_matches_jacobi_trudi(k, n):
    # both orders: for partitions of equal size the argument order picks the content
    basis = list(GrassRing(k, n).partitions())
    for lam, mu in itertools.combinations_with_replacement(basis, 2):
        want = _jacobi_trudi_mul(k, n, lam, mu)
        assert dict(_mul_basis.__wrapped__(k, n, lam, mu)) == want, (lam, mu)
        assert dict(_mul_basis.__wrapped__(k, n, mu, lam)) == want, (mu, lam)


@pytest.mark.parametrize("k, n", [(4, 8), (6, 9)])
def test_product_keys_are_the_canonical_box_partitions(k, n):
    # the kernel places strips in one mutable shape list: every key it hands
    # out must be the ring's own partition tuple, even for operands built
    # apart, and no call may leave state behind for the next
    canon = grassmann._box_partitions(k, n - k)
    basis = [tuple(list(lam)) for lam in GrassRing(k, n).partitions()]
    for lam, mu in itertools.product(basis, repeat=2):
        terms = _mul_basis.__wrapped__(k, n, lam, mu)
        assert all(nu is canon[nu] for nu, _ in terms), (lam, mu)
        assert _mul_basis.__wrapped__(k, n, lam, mu) == terms, (lam, mu)
        assert _mul_basis(k, n, lam, mu) == _mul_basis(k, n, lam, mu) == terms, (lam, mu)


_R313_BASIS = sorted(GrassRing(3, 13).partitions())


@settings(max_examples=100)
@given(st.sampled_from(_R313_BASIS), st.sampled_from(_R313_BASIS))
def test_lr_product_matches_jacobi_trudi_on_gr_3_13(lam, mu):
    assert dict(_mul_basis.__wrapped__(3, 13, lam, mu)) == _jacobi_trudi_mul(3, 13, lam, mu)


def test_complementary_products_on_gr_3_13_match_jacobi_trudi():
    # every top-degree pair: most vanish by the box criterion, the rest are
    # dual pairs, which must still come out of the strip enumeration as s_box
    ring = GrassRing(3, 13)
    pairs = [(lam, mu) for lam, mu in itertools.combinations_with_replacement(_R313_BASIS, 2)
             if sum(lam) + sum(mu) == ring.dim]
    assert len(pairs) == 1907
    for lam, mu in pairs:
        got = dict(_mul_basis.__wrapped__(3, 13, lam, mu))
        assert got == _jacobi_trudi_mul(3, 13, lam, mu), (lam, mu)
        assert got == ({ring.box: 1} if mu == ring.dual(lam) else {}), (lam, mu)


def test_products_vanishing_in_the_box():
    # (3) + (1,1,1) overflows the 3 x 3 box, in degree 6 below the top degree 9
    assert _mul_basis.__wrapped__(3, 6, (3,), (1, 1, 1)) == ()
    assert (schur(R36, (3,)) * schur(R36, (1, 1, 1))).is_zero()
    # a complementary pair still integrates to 1
    lam = (3, 1)
    assert integrate(schur(R36, lam) * schur(R36, R36.dual(lam))) == 1
    assert _mul_basis.__wrapped__(3, 6, lam, R36.dual(lam)) == (((3, 3, 3), 1),)


_COEFFS = st.one_of(
    st.sampled_from([rat(1, 2), rat(-2, 3), rat(5, 6)]),
    st.builds(rat, st.integers(-12, 12), st.integers(1, 12)),
)


def _classes(ring, most=5):
    return st.dictionaries(st.sampled_from(sorted(ring.partitions())), _COEFFS, max_size=most).map(
        lambda coeffs: GrassClass(ring, coeffs)
    )


@settings(max_examples=80)
@given(st.sampled_from([R24, R36]).flatmap(lambda ring: st.tuples(_classes(ring), _classes(ring))))
@example((schur(R24, (1,)), rat(1, 3) * schur(R24, (2,)) - rat(1, 3) * schur(R24, (1, 1))))
def test_class_mul_matches_fraction_double_loop(pair):
    x, y = pair
    want = {}
    for lam, a in x.coeffs.items():
        for mu, b in y.coeffs.items():
            for nu, mult in _mul_basis(x.ring.k, x.ring.n, lam, mu):
                want[nu] = want.get(nu, Fraction(0)) + a * b * mult
    got = class_mul(x, y)
    assert got.coeffs == {nu: c for nu, c in want.items() if c}
    assert all(type(c) is Fraction for c in got.coeffs.values())


def test_products_keep_eq_hash_contract():
    half = rat(1, 2)
    cases = [
        (GrassClass(R36, {(): half}), GrassClass(R36, {(): 4}), 2),
        (GrassClass(R36, {(): half}), GrassClass(R36, {(): -2}), -1),
        (schur(R36, (1,)), schur(R36, (3, 3, 3)), 0),  # leaves the box
        (half * schur(R36, (1,)), rat(2, 3) * schur(R36, (2, 1)), None),
    ]
    for x, y, scalar in cases:
        product = class_mul(x, y)
        checked = GrassClass(R36, {lam: rat_str(c) for lam, c in product.coeffs.items()})
        assert product == checked and hash(product) == hash(checked)
        assert len({product, checked}) == 1
        if scalar is not None:
            assert product == scalar and hash(product) == hash(scalar)


def test_vanishing_products_share_one_zero_class_per_ring():
    s1 = schur(R24, (1,))
    zeros = [
        schur(R36, (3,)) * schur(R36, (1, 1, 1)),  # leaves the 3 x 3 box
        class_mul(schur(R36, (3,)), schur(R36, (1, 1, 1))),
        schur(R36, (2, 2)) * schur(R36, (2, 2)),
        schur(R36, (3,)) * GrassClass(R36, {}),
    ]
    assert all(z is zeros[0] for z in zeros)
    assert zeros[0].is_zero() and zeros[0] == 0 and zeros[0].ring is R36
    # s1 * (s2 - s11) cancels on Gr(2,4): s1 * s2 = s21 = s1 * s11 there
    cancelled = s1 * (schur(R24, (2,)) - schur(R24, (1, 1)))
    assert cancelled.is_zero() and cancelled is s1 * GrassClass(R24, {})
    assert cancelled is not zeros[0]
    other = schur(R37, (4,)) * schur(R37, (1, 1, 1))
    assert other.is_zero() and other.ring is R37 and other is not zeros[0]


def test_transposed_products_share_one_cache_entry():
    ring = GrassRing(5, 12)  # no other test multiplies on Gr(5,12)
    x, y = schur(ring, (3, 1)), schur(ring, (2, 2, 1))
    before = _mul_basis.cache_info().currsize
    assert x * y == y * x
    assert _mul_basis.cache_info().currsize == before + 1


def test_grass_class_products_route_through_class_mul(monkeypatch):
    # the benchmark's tracer times products by patching grassmann.class_mul
    calls = []
    inner = grassmann.class_mul

    def counting(x, y):
        calls.append((x, y))
        return inner(x, y)

    monkeypatch.setattr(grassmann, "class_mul", counting)
    x, y = schur(R36, (2,)), schur(R36, (1, 1))
    assert x * y == inner(x, y)
    assert calls == [(x, y)]


def test_cancelling_sums_keep_eq_hash_contract():
    s1 = schur(R36, (1,))
    for zero in (s1 + (-s1), s1 - s1, 0 * s1, s1 * rat(0), (s1 + 2) - s1 - 2):
        assert zero.coeffs == {} and zero.is_zero()
        assert zero == 0 and hash(zero) == hash(0)
    two = (s1 + 2) - s1
    assert two.coeffs == {(): 2} and two == 2 and hash(two) == hash(2)


def test_bools_are_not_scalar_classes():
    unit = schur(R36, ())
    assert unit != True  # noqa: E712 -- the comparison under test
    with pytest.raises(PolyError):
        GrassClass(R36, {(): True})


@settings(max_examples=60)
@given(st.lists(st.sampled_from(sorted(R24.partitions())), min_size=0, max_size=3),
       st.lists(st.sampled_from(sorted(R24.partitions())), min_size=0, max_size=3),
       st.lists(st.sampled_from(sorted(R24.partitions())), min_size=0, max_size=3))
def test_ring_axioms(lams, mus, nus):
    x = sum((schur(R24, lam) for lam in lams), GrassClass(R24, {}))
    y = sum((schur(R24, mu) for mu in mus), GrassClass(R24, {}))
    z = sum((schur(R24, nu) for nu in nus), GrassClass(R24, {}))
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


# -- the FiberClass algebra against a naive reference -----------------------------------
# A reference is a dict {power of xi: GrassClass} built with the public
# constructors; its sums add coefficients and its products call class_mul
# pair by pair.


def _ref_sum(ring, *refs):
    coeffs = {}
    for ref in refs:
        for w, g in ref.items():
            part = coeffs.setdefault(w, {})
            for lam, c in g.coeffs.items():
                part[lam] = part.get(lam, 0) + c
    return {w: GrassClass(ring, part) for w, part in coeffs.items()}


def _ref_neg(ring, ref):
    return {w: GrassClass(ring, {lam: -c for lam, c in g.coeffs.items()}) for w, g in ref.items()}


def _ref_mul(ring, a, b):
    return _ref_sum(ring, *({v + w: class_mul(g, h)} for v, g in a.items() for w, h in b.items()))


def _operands(ring):
    """A scalar, a GrassClass or a FiberClass, each with its reference."""
    scalar = _COEFFS.map(lambda c: (c, {0: GrassClass(ring, {(): c})}))
    base = _classes(ring, 2).map(lambda g: (g, {0: g}))
    return st.one_of(scalar, base, _fibers(ring))


def _fibers(ring):
    parts = st.dictionaries(st.integers(0, 3), _classes(ring, 2), max_size=3)
    return parts.map(lambda parts: (FiberClass(ring, parts), parts))


def _assert_matches(got, ref):
    assert isinstance(got, FiberClass)
    # the invariants internal results rely on: nonzero numerators over one
    # positive denominator in lowest terms, and the zero class over 1
    assert all(got.nums.values()) and got.den > 0
    assert math.gcd(got.den, *got.nums.values()) == 1
    assert got.nums or got.den == 1
    assert all(g.coeffs and all(g.coeffs.values()) for g in got.coeffs.values())
    want = {w: g.coeffs for w, g in ref.items() if not g.is_zero()}
    assert {w: g.coeffs for w, g in got.coeffs.items()} == want


_RATIONAL_PARTS = {0: rat(1, 2) * schur(R24, (1,)), 2: rat(-2, 3) * schur(R24, (2, 1))}


@settings(max_examples=40)
@given(st.sampled_from([R24, R37]).flatmap(
    lambda ring: st.tuples(st.just(ring), _fibers(ring), _operands(ring), _operands(ring))))
@example((R24,
          (FiberClass(R24, _RATIONAL_PARTS), _RATIONAL_PARTS),
          (rat(5, 6), {0: GrassClass(R24, {(): rat(5, 6)})}),
          (rat(-2, 3) * schur(R24, (1, 1)), {0: rat(-2, 3) * schur(R24, (1, 1))})))
def test_fiber_algebra_matches_naive_reference(case):
    ring, (x, rx), (y, ry), (z, rz) = case
    xy = _ref_mul(ring, rx, ry)
    for got in (x * y, y * x):
        _assert_matches(got, xy)
    assert hash(x * y) == hash(y * x)
    for got in (x + y, y + x):
        _assert_matches(got, _ref_sum(ring, rx, ry))
    assert hash(x + y) == hash(y + x)
    _assert_matches(x - y, _ref_sum(ring, rx, _ref_neg(ring, ry)))
    _assert_matches(y - x, _ref_sum(ring, ry, _ref_neg(ring, rx)))
    _assert_matches(-x, _ref_neg(ring, rx))
    _assert_matches(x - x, {})
    assert x - x == 0 and hash(x - x) == hash(0)
    xyz = _ref_mul(ring, xy, rz)
    for got in ((x * y) * z, x * (y * z), (z * x) * y):
        _assert_matches(got, xyz)
    distributed = _ref_sum(ring, xy, _ref_mul(ring, rx, rz))
    for got in (x * (y + z), (y + z) * x, x * y + x * z, y * x + z * x):
        _assert_matches(got, distributed)
    assert hash(x * (y + z)) == hash(x * y + x * z)


# -- tautological bundles --------------------------------------------------------------


def test_chern_endpoints():
    assert chern_Q(R37, 0) == schur(R37, ())
    assert chern_S(R37, 0) == schur(R37, ())
    assert chern_Q(R37, 1) == schur(R37, (1,))
    assert chern_S(R37, 2) == schur(R37, (1, 1))
    assert chern_S(R37, 1) + chern_Q(R37, 1) == GrassClass(R37, {})
    with pytest.raises(PolyError):
        chern_S(R37, 4)
    with pytest.raises(PolyError):
        chern_Q(R37, 5)
    with pytest.raises(PolyError):
        chern_Q(R37, -1)


def test_whitney_relation():
    for i in range(1, R37.n):
        total = GrassClass(R37, {})
        for j in range(i + 1):
            if j <= R37.k and i - j <= R37.cols:
                total = total + chern_S(R37, j) * chern_Q(R37, i - j)
        assert total.is_zero(), i


@pytest.mark.parametrize("ring", [R24, R36])
def test_poincare_pairing_exhaustive(ring):
    for lam in ring.partitions():
        for mu in ring.partitions():
            val = integrate(schur(ring, lam) * schur(ring, mu))
            assert val == (1 if mu == ring.dual(lam) else 0), (lam, mu)


# -- the fibration ------------------------------------------------------------------------


def test_pushforward_low_powers():
    xi = FiberClass.xi(R37)
    assert pushforward_P_S(xi ** 0).is_zero()
    assert pushforward_P_S(xi).is_zero()
    assert pushforward_P_S(xi ** 2) == schur(R37, ())
    assert pushforward_P_S(xi ** 3) == chern_Q(R37, 1)
    assert pushforward_P_S(xi ** 3, SIGNED_PUSH) == -chern_Q(R37, 1)


def test_pushforward_projection_formula():
    xi = FiberClass.xi(R37)
    for w in range(5):
        for lam in [(1,), (2, 1), (3, 3)]:
            y = schur(R37, lam)
            lhs = pushforward_P_S(xi ** w * FiberClass.lift(y))
            assert lhs == pushforward_P_S(xi ** w) * y


def test_fiber_class_keeps_raw_powers():
    xi = FiberClass.xi(R37)
    x = xi ** 5 + FiberClass.lift(chern_S(R37, 1)) * xi
    assert x.xi_degree() == 5
    assert x.coefficient(5) == schur(R37, ())
    assert x.coefficient(1) == chern_S(R37, 1)
    assert x.coefficient(3).is_zero()


def test_fiber_coefficient_matches_the_coeffs_view():
    k1, k2 = kappa_chern(R37)
    xi = FiberClass.xi(R37)
    cases = [
        k1 * k2,
        FiberClass(R37, {0: rat(1, 2) * schur(R37, (1,)), 2: rat(1, 3) * schur(R37, (2,))}),
        xi ** 4 - FiberClass.lift(chern_S(R37, 2)) * rat(2, 5),
        FiberClass.lift(rat(3, 4) * schur(R37, (2, 1))),
        FiberClass(R37, {}),
    ]
    for x in cases:
        coeffs = x.coeffs
        for w in range(-1, (x.xi_degree() or 0) + 2):
            got, want = x.coefficient(w), coeffs.get(w) or GrassClass(R37, {})
            assert got == want and (got.nums, got.den) == (want.nums, want.den), (x, w)
            assert got.is_zero() == (w not in coeffs), (x, w)


def test_kappa_chern_shapes():
    k1, k2 = kappa_chern(R37)
    assert k1.coefficient(0) == chern_S(R37, 1)
    assert k1.coefficient(1) == -3 * schur(R37, ())
    assert k2.coefficient(0) == chern_S(R37, 2)
    assert k2.coefficient(1) == -2 * chern_S(R37, 1)
    assert k2.coefficient(2) == 3 * schur(R37, ())
    k1d, k2d = kappa_chern(R37, DUAL_LINE)
    assert k1d.coefficient(1) == 3 * schur(R37, ())
    assert k2d.coefficient(1) == 2 * chern_S(R37, 1)


# -- P(S) over Gr(k, n) for every k -------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("orientation", ["signed-push", "dual-line"])
def test_fibre_euler_characteristic(k, orientation):
    # the fibre is P^{k-1}, whose Euler characteristic is k, and kappa is its
    # tangent bundle: pi_* c_{k-1}(kappa) = k
    orient = ORIENTATIONS[orientation]
    ring = GrassRing(k, k + 2)
    kappa = kappa_chern(ring, orient)
    assert len(kappa) == k - 1
    assert pushforward_P_S(kappa[-1], orient) == k * schur(ring, ())


def _probes(ring):
    xi = FiberClass.xi(ring)
    lams = [lam for lam in ring.partitions() if sum(lam) <= 3]
    return [
        xi ** w * FiberClass.lift(schur(ring, lam))
        for w in range(ring.k, ring.k + 4)
        for lam in lams
    ]


@pytest.mark.parametrize("ring", [GrassRing(1, 4), GrassRing(2, 5), GrassRing(4, 7)],
                         ids=["k1", "k2", "k4"])
def test_reduce_is_pushforward_consistent_for_every_k(ring):
    for orient in (SIGNED_PUSH, DUAL_LINE):
        for x in _probes(ring):
            assert pushforward_P_S(x, orient) == pushforward_P_S(x.reduce(orient), orient)
    taut = TAUTOLOGICAL_LINE
    assert any(
        pushforward_P_S(x, taut) != pushforward_P_S(x.reduce(taut), taut) for x in _probes(ring)
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
def test_top_chern_class_of_quotient_vanishes_for_every_k(k, orientation):
    # c(pi*S/l) = pi*c(S)/(1 + c1(l)) with c1(l) = -zeta; the rank is k - 1,
    # so its degree-k slice must die modulo the relation
    orient = ORIENTATIONS[orientation]
    ring = GrassRing(k, k + 2)
    one = FiberClass.lift(schur(ring, ()))
    c1l = -orient.kappa_xi_sign * FiberClass.xi(ring)
    total_S = sum((FiberClass.lift(chern_S(ring, i)) for i in range(k + 1)), FiberClass(ring, {}))
    inv = sum(((-c1l) ** j for j in range(k + 1)), FiberClass(ring, {}))
    product = total_S * inv
    ck = FiberClass(ring, {w: product.coefficient(w).homogeneous_part(k - w) for w in range(k + 1)})
    assert not ck.is_zero()
    assert ck.reduce(orient).is_zero()


def test_projective_space_is_the_k1_case():
    # Gr(1, n) = P^{n-1}: P(S) is the base itself, kappa has rank 0 and
    # xi = c_1(O(1)) pushes to the hyperplane class
    ring = GrassRing(1, 5)
    assert kappa_chern(ring) == ()
    assert kappa_chern(ring, DUAL_LINE) == ()
    for w in range(ring.dim + 2):
        assert pushforward_P_S(FiberClass.xi(ring) ** w, DUAL_LINE) == schur(ring, (1,)) ** w


@pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
def test_rank_check_c3_of_quotient_vanishes(orientation):
    # c(pi*S/l) = pi*c(S)/(1 + c1(l)); its degree-3 slice must die modulo the
    # cubic relation of the matching orientation
    orient = ORIENTATIONS[orientation]
    xi = FiberClass.xi(R37)
    one = FiberClass.lift(schur(R37, ()))
    c1l = -orient.kappa_xi_sign * xi
    total_S = one + sum(
        (FiberClass.lift(chern_S(R37, i)) for i in (1, 2, 3)),
        FiberClass(R37, {}),
    )
    inv = one - c1l + c1l * c1l - c1l * c1l * c1l
    product = total_S * inv
    c3 = FiberClass(
        R37, {w: product.coefficient(w).homogeneous_part(3 - w) for w in range(4)}
    )
    assert c3.reduce(orient).is_zero()


def _probe_classes():
    xi = FiberClass.xi(R37)
    return [
        xi ** w * FiberClass.lift(schur(R37, lam))
        for w in range(3, 8)
        for lam in [(), (1,), (2, 1), (3, 3, 1)]
    ]


@pytest.mark.parametrize("orientation", ["signed-push", "dual-line"])
def test_pushforward_reduction_consistency(orientation):
    orient = ORIENTATIONS[orientation]
    for x in _probe_classes():
        assert pushforward_P_S(x, orient) == pushforward_P_S(x.reduce(orient), orient)


@pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
def test_reduce_and_pushforward_carry_the_denominator(orientation):
    orient = ORIENTATIONS[orientation]
    third = rat(1, 3)
    for x in _probes(R24) + _probe_classes():
        assert (x * third).reduce(orient) == x.reduce(orient) * third
        assert pushforward_P_S(x * third, orient) == pushforward_P_S(x, orient) * third


def test_tautological_line_is_reduction_inconsistent():
    # the verbatim sign combination contradicts its own cubic relation; it is
    # kept as a raw-power-only recipe and must fail this consistency probe
    orient = TAUTOLOGICAL_LINE
    xi3 = FiberClass.xi(R37) ** 3
    assert pushforward_P_S(xi3, orient) != pushforward_P_S(xi3.reduce(orient), orient)


def test_signed_push_and_dual_line_give_equal_top_integrals():
    # the two conventions differ only by xi -> -xi, so no integral of
    # kappa classes against base classes can tell them apart
    def integrals(orient):
        k1, k2 = kappa_chern(R37, orient)
        out = {}
        for b in range(R37.dim // 2 + 2):
            k2b = k2 ** b
            for a in range(R37.dim + 3 - 2 * b):
                x = k1 ** a * k2b
                for mu in R37.partitions(R37.dim + 2 - a - 2 * b):
                    lifted = x * FiberClass.lift(schur(R37, mu))
                    out[a, b, mu] = integrate(pushforward_P_S(lifted, orient))
        return out

    signed = integrals(SIGNED_PUSH)
    assert len(signed) == 167
    assert signed == integrals(DUAL_LINE)
    assert any(signed.values())


@pytest.mark.parametrize(
    "make",
    [
        lambda: schur(R37, (1,)) ** 2.0,
        lambda: schur(R37, (1,)) ** True,
        lambda: FiberClass.xi(R37) ** 2.0,
        lambda: FiberClass(R37, {1.5: schur(R37, ())}),
        lambda: FiberClass(R37, {True: schur(R37, ())}),
        lambda: FiberClass(R37, {"2": schur(R37, ())}),
        lambda: FiberClass(R37, {1: 3}),
        lambda: chern_S(R37, True),
        lambda: chern_S(R37, 1.0),
        lambda: chern_Q(R37, True),
        lambda: chern_Q(R37, 1.0),
        lambda: schur(R37, (1,)).homogeneous_part(1.0),
        lambda: schur(R37, (1,)).homogeneous_part(True),
        lambda: FiberClass.xi(R37).coefficient(True),
        lambda: FiberClass.xi(R37).coefficient(1.0),
        lambda: R37.partitions(True),
        lambda: schur(R37, (True,)),
        lambda: schur(R37, (1.0,)),
        lambda: schur(R37, ("1",)),
        lambda: schur(R37, (1, 2)),
        lambda: pushforward_P_S(schur(R37, (1,))),
        lambda: integrate(FiberClass.xi(R37)),
        lambda: GrassClass(R37, [((1,), 1)]),
        lambda: FiberClass(R37, [(1, schur(R37, ()))]),
        lambda: FiberClass.xi(R37).reduce("dual-line"),
        lambda: kappa_chern(R37, "dual-line"),
        lambda: pushforward_P_S(FiberClass.xi(R37), "dual-line"),
        lambda: schur("R", (1,)),
        lambda: GrassClass(None, {}),
        lambda: FiberClass(None, {}),
        lambda: FiberClass.xi(None),
        lambda: chern_Q("R", 1),
        lambda: chern_S("R", 1),
        lambda: kappa_chern("R"),
        lambda: class_mul(schur(R37, (1,)), 3),
        lambda: class_mul(FiberClass.xi(R37), schur(R37, (1,))),
        lambda: schur(GrassRing(3, 7), None),
        lambda: GrassClass(GrassRing(3, 7), {5: 1}),
        lambda: schur(R37, (1,)).coefficient(None),
    ],
    ids=["float-power", "bool-power", "fiber-float-power", "float-key", "bool-key",
         "string-key", "scalar-coefficient", "bool-chern-S", "float-chern-S", "bool-chern-Q",
         "float-chern-Q", "float-homogeneous-part", "bool-homogeneous-part", "bool-coefficient",
         "float-coefficient", "bool-partitions", "bool-schur", "float-schur", "string-schur",
         "increasing-schur", "push-grass-class", "integrate-fiber-class", "list-grass-class",
         "list-fiber-class", "string-orientation-reduce", "string-orientation-kappa",
         "string-orientation-push", "string-ring-schur", "no-ring-grass-class",
         "no-ring-fiber-class", "no-ring-xi", "string-ring-chern-Q", "string-ring-chern-S",
         "string-ring-kappa", "class-mul-int", "class-mul-fiber-class", "none-partition-schur",
         "int-partition-key", "none-partition-coefficient"],
)
def test_malformed_powers_and_fiber_parts_raise_poly_error(make):
    with pytest.raises(PolyError):
        make()


def test_powers_equal_repeated_products():
    # GrassClass and FiberClass share poly.power's square-and-multiply loop
    y = schur(R37, (1,)) + 2 * schur(R37, (2, 1))
    x = FiberClass.xi(R37) + FiberClass.lift(chern_S(R37, 1))
    for base, unit in ((y, schur(R37, ())), (x, FiberClass.lift(schur(R37, ())))):
        product = unit
        for n in range(8):
            assert base ** n == product
            product = product * base


# -- serialization ----------------------------------------------------------------------------


def test_json_round_trip():
    x = 2 * schur(R37, (3, 1)) - rat(1, 3) * schur(R37, (4, 4, 4))
    payload = x.to_json_list()
    assert payload == [
        {"partition": [3, 1], "coeff": "2/1"},
        {"partition": [4, 4, 4], "coeff": "-1/3"},
    ]
    assert class_from_json(R37, payload) == x


def test_json_folds_duplicates():
    payload = [
        {"partition": [1], "coeff": "1/2"},
        {"partition": [1, 0], "coeff": "1/2"},
    ]
    assert class_from_json(R24, payload) == schur(R24, (1,))


@pytest.mark.parametrize(
    "payload",
    [
        [{"partition": [1.5], "coeff": "1/1"}],
        [{"partition": ["2"], "coeff": "1/1"}],
        [{"partition": [True], "coeff": "1/1"}],
        [{"partition": 1, "coeff": "1/1"}],
        [{"coeff": "1/1"}],
        [{"partition": [1]}],
        ["s1"],
        5,
        None,
        {"partition": [1], "coeff": "1/1"},
        "s1",
    ],
)
def test_json_rejects_malformed_entries(payload):
    with pytest.raises(PolyError):
        class_from_json(R24, payload)
