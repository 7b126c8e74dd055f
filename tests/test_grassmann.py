"""Schur-basis Grassmannian cohomology against a brute-force polynomial oracle."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multising import grassmann
from multising.grassmann import (
    DUAL_LINE,
    TAUTOLOGICAL_LINE,
    FiberClass,
    GrassClass,
    GrassRing,
    RingMismatch,
    _mul_basis,
    _mul_terms,
    chern_Q,
    chern_S,
    class_from_json,
    class_mul,
    integrate,
    kappa_chern,
    pushforward_P_S,
    schur,
)
from multising.poly import PolyError, cvar, one, rat, rat_str

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
        pushforward_P_S(xi ** 2 * s1), pushforward_P_S(lifted * xi ** 3),
    ]
    assert all(r.nums is not s1.nums for r in results)
    assert s1.nums == {(1,): 1} and s1.den == 1
    assert s1 is schur(R37, (1,))


def test_reflected_subtraction_names_the_operands_in_order():
    # a - b with an operand no class takes must blame (a, b), not (b, a)
    with pytest.raises(TypeError, match="'NoneType' and 'GrassClass'"):
        None - schur(R36, (1,))
    with pytest.raises(TypeError, match="'NoneType' and 'FiberClass'"):
        None - FiberClass.xi(R36)
    assert 2 - schur(R36, (1,)) == -(schur(R36, (1,)) - 2)


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


_SMALL_RINGS = [(k, n) for n in range(2, 9) for k in range(1, min(n, 5))]
_LR_RINGS = [(3, 6), (3, 7), (3, 8), (3, 9), (2, 6), (4, 8), (1, 5), (4, 9), (2, 9), (5, 8), (6, 9)]
_PRODUCT_RINGS = _LR_RINGS + [ring for ring in _SMALL_RINGS if ring not in _LR_RINGS]


def _passes_box_test(k, n, lam, mu):
    """lam_i + mu_(k+1-i) <= n-k for every i, on the padded partitions."""
    pad = lambda p: list(p) + [0] * (k - len(p))
    return all(a + b <= n - k for a, b in zip(pad(lam), reversed(pad(mu))))


def _walkable(k, n, lam, mu):
    """The pairs that the rules leave to the walk: no unit factor, past the
    box test and below the top degree."""
    return (lam and mu and _passes_box_test(k, n, lam, mu)
            and sum(lam) + sum(mu) < k * (n - k))


@pytest.mark.parametrize("k, n", _PRODUCT_RINGS)
def test_lr_product_matches_jacobi_trudi(k, n):
    # the rule step plus the walk, on every ordered pair
    basis = list(GrassRing(k, n).partitions())
    for lam, mu in itertools.combinations_with_replacement(basis, 2):
        want = _jacobi_trudi_mul(k, n, lam, mu)
        assert dict(_mul_terms(k, n, lam, mu)) == want, (lam, mu)
        assert dict(_mul_terms(k, n, mu, lam)) == want, (mu, lam)


@pytest.mark.parametrize("k, n", _PRODUCT_RINGS)
def test_walk_alone_matches_jacobi_trudi_below_top_degree(k, n):
    # both orders: for partitions of equal size the argument order picks the content
    basis = list(GrassRing(k, n).partitions())
    walked = 0
    for lam, mu in itertools.product(basis, repeat=2):
        if _walkable(k, n, lam, mu):
            walked += 1
            got = dict(_mul_basis.__wrapped__(k, n, lam, mu))
            assert got == _jacobi_trudi_mul(k, n, lam, mu), (lam, mu)
    assert walked or k * (n - k) <= 2  # on P^1 and P^2 every product is decided by rule


@pytest.mark.parametrize("k, n", [(4, 8), (6, 9), (1, 5)])
def test_product_keys_are_the_canonical_box_partitions(k, n):
    # the walk places strips in one mutable shape list: every key the rule
    # step or the walk hands out must be the ring's own partition tuple, even
    # for operands built apart, and no call may leave state behind for the next
    canon = grassmann._box_partitions(k, n - k)
    basis = [tuple(list(lam)) for lam in GrassRing(k, n).partitions()]
    for lam, mu in itertools.product(basis, repeat=2):
        terms = _mul_terms(k, n, lam, mu)
        assert all(nu is canon[nu] for nu, _ in terms), (lam, mu)
        assert _mul_terms(k, n, lam, mu) == _mul_terms(k, n, lam, mu) == terms, (lam, mu)
        if _walkable(k, n, lam, mu):
            walked = _mul_basis.__wrapped__(k, n, lam, mu)
            assert all(nu is canon[nu] for nu, _ in walked), (lam, mu)
            assert _mul_basis.__wrapped__(k, n, lam, mu) == walked == terms, (lam, mu)
            assert _mul_basis(k, n, lam, mu) == _mul_basis(k, n, lam, mu) == terms, (lam, mu)


_R313_BASIS = sorted(GrassRing(3, 13).partitions())


@settings(max_examples=100)
@given(st.sampled_from(_R313_BASIS), st.sampled_from(_R313_BASIS))
def test_lr_product_matches_jacobi_trudi_on_gr_3_13(lam, mu):
    assert dict(_mul_terms(3, 13, lam, mu)) == _jacobi_trudi_mul(3, 13, lam, mu)


def test_complementary_products_on_gr_3_13_match_jacobi_trudi():
    # every top-degree pair: most vanish by the box rule, the rest are dual
    # pairs, which the top-degree rule decides as s_box unwalked
    ring = GrassRing(3, 13)
    pairs = [(lam, mu) for lam, mu in itertools.combinations_with_replacement(_R313_BASIS, 2)
             if sum(lam) + sum(mu) == ring.dim]
    assert len(pairs) == 1907
    for lam, mu in pairs:
        got = dict(_mul_terms(3, 13, lam, mu))
        assert got == _jacobi_trudi_mul(3, 13, lam, mu), (lam, mu)
        assert got == ({ring.box: 1} if mu == ring.dual(lam) else {}), (lam, mu)


def test_products_vanishing_in_the_box():
    # (3) + (1,1,1) overflows the 3 x 3 box, in degree 6 below the top degree 9
    assert _mul_terms(3, 6, (3,), (1, 1, 1)) == ()
    assert (schur(R36, (3,)) * schur(R36, (1, 1, 1))).is_zero()
    # a complementary pair still integrates to 1
    lam = (3, 1)
    assert integrate(schur(R36, lam) * schur(R36, R36.dual(lam))) == 1
    assert _mul_terms(3, 6, lam, R36.dual(lam)) == (((3, 3, 3), 1),)


def _top_degree_pairs(ring):
    """Every ordered pair (lam, mu) of box partitions with |lam| + |mu| = dim."""
    basis = list(ring.partitions())
    return [(lam, mu) for lam in basis for mu in basis if sum(lam) + sum(mu) == ring.dim]


@pytest.mark.parametrize("k, n", _SMALL_RINGS)
def test_top_degree_products_are_decided_by_duality(k, n):
    # the top-degree rule against the Pieri-chain oracle, in both orders
    ring = GrassRing(k, n)
    for lam, mu in _top_degree_pairs(ring):
        got = _mul_terms(k, n, lam, mu)
        assert dict(got) == _jacobi_trudi_mul(k, n, lam, mu), (lam, mu)
        assert bool(got) == (mu == ring.dual(lam)), (lam, mu)


# -- independent oracle: Atiyah-Bott localisation on the torus fixed points -------------


def _int_det(rows):
    """Determinant of a small square int matrix by its permutation expansion."""
    m = len(rows)
    total = 0
    for sigma in itertools.permutations(range(m)):
        inversions = sum(sigma[i] > sigma[j] for i in range(m) for j in range(i + 1, m))
        term = (-1) ** inversions
        for i in range(m):
            term *= rows[i][sigma[i]]
        total += term
    return total


def _elementary(weights):
    """e_0 .. e_len of the given ints."""
    e = [1]
    for t in weights:
        e = [a + t * b for a, b in zip(e + [0], [0] + e)]
    return e


class _Localisation:
    """Integrals over Gr(k, n) and P(S) by Atiyah-Bott with torus weights t_1..t_n.

    The fixed points of Gr(k, n) are the k-subsets I; the tangent space at I
    has the weights t_j - t_i (i in I, j in its complement J), and sigma_lam,
    the Giambelli determinant in c_i(Q) = s_(i), restricts to
    det(e_(lam_i + j - i)(t_J)).  The fixed points of P(S) are the pairs
    (I, i) with i in I: the line is the weight-t_i line of S, so
    zeta = c_1(O(1)) = -t_i, and the fibre's tangent weights t_m - t_i
    (m in I - i) are the Chern roots of kappa.  The Euler class at (I, i) is
    the one at I times their product.
    """

    def __init__(self, ring, weights):
        self.e, self.euler, self.fibre_points = [], [], []
        for subset in itertools.combinations(range(ring.n), ring.k):
            rest = [weights[j] for j in range(ring.n) if j not in subset]
            self.e.append(_elementary(rest))
            self.euler.append(math.prod(t - weights[i] for i in subset for t in rest))
            for i in subset:
                roots = [weights[m] - weights[i] for m in subset if m != i]
                self.fibre_points.append((len(self.e) - 1, weights[i], roots))
        self.restrictions = {}

    def _restrict(self, lam):
        """sigma_lam at each fixed point, computed once per partition."""
        if lam not in self.restrictions:
            m = len(lam)
            self.restrictions[lam] = [
                _int_det([[e[lam[i] + j - i] if 0 <= lam[i] + j - i < len(e) else 0
                           for j in range(m)] for i in range(m)])
                for e in self.e
            ]
        return self.restrictions[lam]

    def integral(self, *lams):
        """The integral of the product of sigma_lam over the given partitions."""
        values = zip(*(self._restrict(lam) for lam in lams))
        return sum((Fraction(math.prod(v), euler) for v, euler in zip(values, self.euler)),
                   Fraction(0))

    def fibre_integral(self, sigma, a, mu, kappa=()):
        """The integral over P(S) of xi^a kappa_1^b_1 kappa_2^b_2 ... s_mu, with
        xi = sigma * zeta and (b_1, b_2, ...) = kappa; c(kappa) is read off the
        fixed points' weights, c(kappa) = prod over m in I - i of (1 + t_m - t_i)."""
        base = self._restrict(mu)
        total = Fraction(0)
        for at, t, roots in self.fibre_points:
            c = _elementary(roots)
            kappa_value = math.prod(c[j] ** b for j, b in enumerate(kappa, 1))
            value = (-sigma * t) ** a * base[at] * kappa_value
            total += Fraction(value, self.euler[at] * math.prod(roots))
        return total


def _localisations(ring):
    """Two independent generic weight choices for one ring."""
    draws = random.Random(f"weights-{ring.k}-{ring.n}")
    return [_Localisation(ring, draws.sample(range(-60, 61), ring.n)) for _ in range(2)]


@pytest.mark.parametrize("k, n", _SMALL_RINGS)
def test_top_degree_integrals_match_localisation(k, n):
    ring = GrassRing(k, n)
    first, second = _localisations(ring)
    for lam, mu in _top_degree_pairs(ring):
        want = first.integral(lam, mu)
        assert want == second.integral(lam, mu), (lam, mu)
        assert integrate(schur(ring, lam) * schur(ring, mu)) == want, (lam, mu)


@pytest.mark.parametrize("k, n", _SMALL_RINGS)
def test_top_degree_fibre_integrals_match_localisation(k, n):
    # every top-degree xi^a s_mu on P(S): dual-line's xi = zeta matches the
    # fixed-point sum, and tautological-line's xi = -zeta, the negative
    # control, does not under the same pushforward
    ring = GrassRing(k, n)
    xi = FiberClass.xi(ring)
    cases = [(ring.dim + k - 1 - sum(mu), mu) for mu in ring.partitions()]
    oracles = _localisations(ring)
    wrong = 0
    for a, mu in cases:
        got = integrate(pushforward_P_S(xi ** a * FiberClass.lift(schur(ring, mu))))
        for oracle in oracles:
            assert got == oracle.fibre_integral(DUAL_LINE, a, mu), (a, mu)
        wrong += got != oracles[0].fibre_integral(TAUTOLOGICAL_LINE, a, mu)
    assert wrong > 0


def test_kappa_monomials_on_gr37_match_localisation():
    # all 167 top-degree kappa_1^a kappa_2^b s_mu on P(S) over Gr(3, 7), kappa
    # from kappa_chern; the fixed-point sums read kappa off the weights, so
    # they hold for either sigma, and only dual-line's kappa matches them
    top = R37.dim + R37.k - 1
    cases = [(a, (top - a - sum(mu)) // 2, mu) for mu in R37.partitions()
             for a in range(top - sum(mu) + 1) if (top - a - sum(mu)) % 2 == 0]
    assert len(cases) == 167
    first, second = _localisations(R37)
    wants = [first.fibre_integral(DUAL_LINE, 0, mu, (a, b)) for a, b, mu in cases]
    assert wants == [second.fibre_integral(DUAL_LINE, 0, mu, (a, b)) for a, b, mu in cases]
    for sigma in (DUAL_LINE, TAUTOLOGICAL_LINE):
        k1, k2 = kappa_chern(R37, sigma)
        got = [integrate(pushforward_P_S(k1 ** a * k2 ** b * FiberClass.lift(schur(R37, mu))))
               for a, b, mu in cases]
        wrong = [case for case, value, want in zip(cases, got, wants) if value != want]
        assert (not wrong) == (sigma == DUAL_LINE), (sigma, wrong[:3])


@pytest.mark.parametrize("k, n", _SMALL_RINGS)
def test_sigma1_to_the_dimension_is_the_hook_count(k, n):
    ring = GrassRing(k, n)
    hooks = math.prod(i + j + 1 for i in range(k) for j in range(n - k))
    want = math.factorial(ring.dim) // hooks
    assert integrate(schur(ring, (1,)) ** ring.dim) == want
    for oracle in _localisations(ring):
        assert oracle.integral(*[(1,)] * ring.dim) == want


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
            for nu, mult in _mul_terms(x.ring.k, x.ring.n, lam, mu):
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
    # perfbench's tracer reads _mul_basis.cache_info() as the hit ratio of walks
    ring = GrassRing(5, 12)  # no other test multiplies on Gr(5,12)
    x, y = schur(ring, (3, 1)), schur(ring, (2, 2, 1))
    before = _mul_basis.cache_info()
    assert x * y == y * x
    after = _mul_basis.cache_info()
    assert after.currsize == before.currsize + 1
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)


def test_top_degree_and_unit_products_never_reach_the_walk():
    ring = GrassRing(4, 11)  # no other test multiplies on Gr(4,11)
    before = _mul_basis.cache_info()
    one = schur(ring, ())
    for lam, mu in _top_degree_pairs(ring):
        x, y = schur(ring, lam), schur(ring, mu)
        assert integrate(x * y) == (mu == ring.dual(lam)), (lam, mu)
        assert one * x == x == x * one
    # no lookup at all: neither a hit nor a miss, nor a new entry
    assert _mul_basis.cache_info() == before


def test_only_walkable_pairs_reach_the_walk(monkeypatch):
    # the walk's precondition: no unit factor, past the box test, and below
    # the top degree, where the rule step decides every product itself
    calls = []
    walk = grassmann._mul_basis

    def recording(k, n, lam, mu):
        calls.append((k, n, lam, mu))
        return walk(k, n, lam, mu)

    monkeypatch.setattr(grassmann, "_mul_basis", recording)
    for k, n in [(1, 5), (2, 6), (3, 7)]:
        ring = GrassRing(k, n)
        basis = [schur(ring, lam) for lam in ring.partitions()]
        for x, y in itertools.product(basis, repeat=2):
            x * y
        assert integrate(schur(ring, (1,)) ** ring.dim) > 0
    assert calls and all(_walkable(*call) for call in calls)
    # one canonical order per unordered pair
    assert all(lam >= mu for _, _, lam, mu in calls)


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


def _flip(x):
    """x after the change of variable xi -> -xi."""
    return FiberClass(x.ring, {w: g * (-1) ** w for w, g in x.coeffs.items()})


def _signed_push(x):
    """The pushforward of the calculus written wholly in xi = -zeta."""
    return pushforward_P_S(_flip(x))


# each sign convention: its sigma for reduce and kappa_chern, and its pushforward
CONVENTIONS = {
    "dual-line": (DUAL_LINE, pushforward_P_S),
    "signed-push": (TAUTOLOGICAL_LINE, _signed_push),
    "tautological-line": (TAUTOLOGICAL_LINE, pushforward_P_S),
}


def test_pushforward_low_powers():
    xi = FiberClass.xi(R37)
    assert pushforward_P_S(xi ** 0).is_zero()
    assert pushforward_P_S(xi).is_zero()
    assert pushforward_P_S(xi ** 2) == schur(R37, ())
    assert pushforward_P_S(xi ** 3) == chern_Q(R37, 1)
    assert _signed_push(xi ** 3) == -chern_Q(R37, 1)


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
    sigma, push = CONVENTIONS[orientation]
    ring = GrassRing(k, k + 2)
    kappa = kappa_chern(ring, sigma)
    assert len(kappa) == k - 1
    assert push(kappa[-1]) == k * schur(ring, ())


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
    for sigma, push in (CONVENTIONS["signed-push"], CONVENTIONS["dual-line"]):
        for x in _probes(ring):
            assert push(x) == push(x.reduce(sigma))
    assert any(pushforward_P_S(x) != pushforward_P_S(x.reduce(TAUTOLOGICAL_LINE))
               for x in _probes(ring))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("orientation", sorted(CONVENTIONS))
def test_top_chern_class_of_quotient_vanishes_for_every_k(k, orientation):
    # c(pi*S/l) = pi*c(S)/(1 + c1(l)) with c1(l) = -zeta; the rank is k - 1,
    # so its degree-k slice must die modulo the relation
    sigma, _ = CONVENTIONS[orientation]
    ring = GrassRing(k, k + 2)
    one = FiberClass.lift(schur(ring, ()))
    c1l = -sigma * FiberClass.xi(ring)
    total_S = sum((FiberClass.lift(chern_S(ring, i)) for i in range(k + 1)), FiberClass(ring, {}))
    inv = sum(((-c1l) ** j for j in range(k + 1)), FiberClass(ring, {}))
    product = total_S * inv
    ck = FiberClass(ring, {w: product.coefficient(w).homogeneous_part(k - w) for w in range(k + 1)})
    assert not ck.is_zero()
    assert ck.reduce(sigma).is_zero()


def test_projective_space_is_the_k1_case():
    # Gr(1, n) = P^{n-1}: P(S) is the base itself, kappa has rank 0 and
    # xi = c_1(O(1)) pushes to the hyperplane class
    ring = GrassRing(1, 5)
    assert kappa_chern(ring) == ()
    assert kappa_chern(ring, DUAL_LINE) == ()
    for w in range(ring.dim + 2):
        assert pushforward_P_S(FiberClass.xi(ring) ** w) == schur(ring, (1,)) ** w


@pytest.mark.parametrize("orientation", sorted(CONVENTIONS))
def test_rank_check_c3_of_quotient_vanishes(orientation):
    # c(pi*S/l) = pi*c(S)/(1 + c1(l)); its degree-3 slice must die modulo the
    # cubic relation of the matching orientation
    sigma, _ = CONVENTIONS[orientation]
    xi = FiberClass.xi(R37)
    one = FiberClass.lift(schur(R37, ()))
    c1l = -sigma * xi
    total_S = one + sum(
        (FiberClass.lift(chern_S(R37, i)) for i in (1, 2, 3)),
        FiberClass(R37, {}),
    )
    inv = one - c1l + c1l * c1l - c1l * c1l * c1l
    product = total_S * inv
    c3 = FiberClass(
        R37, {w: product.coefficient(w).homogeneous_part(3 - w) for w in range(4)}
    )
    assert c3.reduce(sigma).is_zero()


def _probe_classes():
    xi = FiberClass.xi(R37)
    return [
        xi ** w * FiberClass.lift(schur(R37, lam))
        for w in range(3, 8)
        for lam in [(), (1,), (2, 1), (3, 3, 1)]
    ]


@pytest.mark.parametrize("orientation", ["signed-push", "dual-line"])
def test_pushforward_reduction_consistency(orientation):
    sigma, push = CONVENTIONS[orientation]
    for x in _probe_classes():
        assert push(x) == push(x.reduce(sigma))


@pytest.mark.parametrize("orientation", sorted(CONVENTIONS))
def test_reduce_and_pushforward_carry_the_denominator(orientation):
    sigma, push = CONVENTIONS[orientation]
    third = rat(1, 3)
    for x in _probes(R24) + _probe_classes():
        assert (x * third).reduce(sigma) == x.reduce(sigma) * third
        assert push(x * third) == push(x) * third


def test_tautological_line_is_reduction_inconsistent():
    # the verbatim sign combination contradicts its own cubic relation; it is
    # kept as a raw-power-only recipe and must fail this consistency probe
    xi3 = FiberClass.xi(R37) ** 3
    assert pushforward_P_S(xi3) != pushforward_P_S(xi3.reduce(TAUTOLOGICAL_LINE))


def test_signed_push_and_dual_line_give_equal_top_integrals():
    # the two conventions differ only by xi -> -xi, so no integral of
    # kappa classes against base classes can tell them apart
    def integrals(sigma, push):
        k1, k2 = kappa_chern(R37, sigma)
        out = {}
        for b in range(R37.dim // 2 + 2):
            k2b = k2 ** b
            for a in range(R37.dim + 3 - 2 * b):
                x = k1 ** a * k2b
                for mu in R37.partitions(R37.dim + 2 - a - 2 * b):
                    lifted = x * FiberClass.lift(schur(R37, mu))
                    out[a, b, mu] = integrate(push(lifted))
        return out

    signed = integrals(*CONVENTIONS["signed-push"])
    assert len(signed) == 167
    assert signed == integrals(*CONVENTIONS["dual-line"])
    assert any(signed.values())


@pytest.mark.parametrize("k, n", [(1, 4), (2, 5), (3, 7), (4, 7)])
def test_sigma_is_the_change_of_variable_xi_to_minus_xi(k, n):
    # sigma = -1 writes kappa and the relation of sigma = +1 in xi = -zeta
    ring = GrassRing(k, n)
    assert kappa_chern(ring, TAUTOLOGICAL_LINE) == tuple(map(_flip, kappa_chern(ring, DUAL_LINE)))
    for x in _probes(ring):
        assert _flip(x.reduce(TAUTOLOGICAL_LINE)) == _flip(x).reduce(DUAL_LINE)


@pytest.mark.parametrize("sigma", [0, 2, True, 1.0, "dual-line"], ids=repr)
def test_sigma_is_the_int_1_or_minus_1(sigma):
    with pytest.raises(PolyError):
        FiberClass.xi(R37).reduce(sigma)
    with pytest.raises(PolyError):
        kappa_chern(R37, sigma)


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
         "string-ring-schur", "no-ring-grass-class",
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


def _right_to_left_power(base, exponent, unit):
    """base ** exponent by squaring the base and multiplying on each 1 bit
    from the bottom: the classic right-to-left order, an oracle for the
    left-to-right loop of poly.power."""
    result = unit
    while exponent:
        if exponent & 1:
            result = result * base
        if exponent > 1:
            base = base * base
        exponent >>= 1
    return result


def _power_cases():
    c1, c2 = cvar(1), cvar(2)
    fiber_unit = FiberClass.lift(schur(R37, ()))
    return [
        (one() + c1 + c2, one()),
        (c1 - rat(1, 2) * c2 * c1, one()),
        (schur(R37, (1,)), schur(R37, ())),
        (schur(R37, (2, 1)), schur(R37, ())),
        (schur(R37, (1,)) - rat(2, 3) * schur(R37, (2, 1)), schur(R37, ())),
        (FiberClass.xi(R37), fiber_unit),
        (kappa_chern(R37, DUAL_LINE)[0], fiber_unit),
        (FiberClass.xi(R37) + rat(1, 3) * FiberClass.lift(chern_S(R37, 1)), fiber_unit),
    ]


@pytest.mark.parametrize("case", range(len(_power_cases())))
def test_power_matches_the_right_to_left_loop(case):
    # GradedPoly, GrassClass and FiberClass share poly.power
    base, unit = _power_cases()[case]
    for e in range(13):
        assert base ** e == _right_to_left_power(base, e, unit), e


def test_huge_power_takes_logarithmically_many_products():
    # repeated products would take a million steps; a few squarings reach the zero class
    assert (schur(R37, (1,)) ** 10 ** 6).is_zero()
    assert (schur(R37, ()) ** 10 ** 6) == 1


@pytest.mark.parametrize("exponent", [True, False, 2.0, -1, "2", None])
@pytest.mark.parametrize("case", [0, 2, 5])
def test_power_rejects_non_int_exponents(case, exponent):
    base, _ = _power_cases()[case]
    with pytest.raises(PolyError):
        base ** exponent


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
        # coefficients that int() or Fraction() would read, but that are not canonical
        *([{"partition": [1], "coeff": c}]
          for c in ("1_000", " 1 / 2 ", "\u0661/\u0662", "3/-4", "+3", "3_0/1_0")),
    ],
)
def test_json_rejects_malformed_entries(payload):
    with pytest.raises(PolyError):
        class_from_json(R24, payload)


# -- small public branches -------------------------------------------------------


def test_schur_outside_the_box_is_the_shared_zero():
    for lam in ((3,), (1, 1, 1), (2, 2, 1)):
        assert schur(R24, lam) is R24._zero
    assert R24._zero.is_zero() and repr(R24._zero) == "0"


def test_class_coefficients_and_homogeneity():
    x = schur(R36, (2, 1)) * 3 - schur(R36, (1, 1, 1)) * rat(1, 2)
    assert x.coefficient((2, 1)) == 3 and x.coefficient([2, 1, 0]) == 3
    assert x.coefficient((1, 1, 1)) == rat(-1, 2)
    assert x.coefficient((3,)) == 0
    assert x.is_homogeneous() and R36._zero.is_homogeneous()
    assert not (x + schur(R36, (1,))).is_homogeneous()
    with pytest.raises(PolyError):
        x.coefficient((1, 2))


def test_classes_on_different_rings_are_unequal():
    assert schur(R24, (1,)) != schur(R36, (1,))
    assert not schur(R24, ()) == schur(R36, ())
    assert FiberClass.xi(R24) != FiberClass.xi(R36)


def test_fiber_class_refuses_foreign_coefficients_and_lifts():
    with pytest.raises(RingMismatch):
        FiberClass(R24, {0: schur(R36, (1,))})
    for value in (3, None, FiberClass.xi(R24)):
        with pytest.raises(PolyError):
            FiberClass.lift(value)
    assert repr(FiberClass(R24, {})) == "0"
    assert repr(FiberClass(R24, {1: R24._zero})) == "0"
