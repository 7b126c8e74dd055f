"""Core polynomial layer: exact arithmetic, grading, series, substitution."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multising.poly import (
    GradedPoly,
    IncompatibleVariables,
    NonExactDivision,
    PolyError,
    Var,
    chern_substitute,
    constant,
    cvar,
    divide_by_linear,
    exact_quotient,
    from_json,
    one,
    one_plus,
    rat,
    rat_str,
    root_var,
    schur2,
    schur3,
    series_quotient,
    sorted_terms,
    substitute,
    to_json,
    to_json_dict,
    to_latex,
    to_text,
    vanishes_under,
    variable,
    zero,
)

ALPHA = root_var("alpha")
BETA = root_var("beta", 1)
C1, C2, C3 = cvar(1), cvar(2), cvar(3)


# -- rationals ----------------------------------------------------------------


def test_rat_normalization():
    assert rat(2, 4) == rat(1, 2)
    assert rat(-2, 4) == rat("-1/2")
    assert rat_str(rat(3, -6)) == "-1/2"
    assert rat_str(rat(0, 7)) == "0/1"
    assert rat_str(rat(5)) == "5/1"


def test_rat_string_with_denominator_rejected():
    with pytest.raises(PolyError):
        rat("1/2", 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: rat("1.5"),
        lambda: rat("1/0"),
        lambda: rat(1, 0),
        lambda: rat(0.1),
        lambda: constant(0.1),
        lambda: GradedPoly((Var("c", 1, 1),), {(1,): 0.1}),
    ],
    ids=["decimal-string", "zero-denominator-string", "zero-denominator",
         "float", "float-constant", "float-term"],
)
def test_malformed_scalars_raise_poly_error(make):
    with pytest.raises(PolyError):
        make()


# -- construction invariants ---------------------------------------------------


def test_zero_coefficients_dropped():
    p = C1 - C1
    assert p.is_zero()
    assert p.terms == {}


def test_variable_table_sorted_and_aligned():
    p = BETA + ALPHA
    assert [v.family for v in p.vars] == ["alpha", "beta"]
    # degree-1 terms in descending lex: alpha before beta
    names = [
        [v.family for v, e in zip(p.vars, exps) if e][0]
        for exps, _ in sorted_terms(p)
    ]
    assert names == ["alpha", "beta"]


def test_conflicting_weights_rejected():
    with pytest.raises(IncompatibleVariables):
        variable("c", 2, weight=2) + variable("c", 2, weight=1)


def test_scalar_comparison():
    assert zero() == 0
    assert one() == 1
    assert constant(rat(3, 4)) == rat(3, 4)
    assert C1 != 0


@pytest.mark.parametrize("value", [3, rat(1, 2), 0])
def test_constant_hashes_like_its_value(value):
    assert constant(value) == value
    assert hash(constant(value)) == hash(value)
    assert hash(constant(value) + C1 - C1) == hash(value)


# -- hypothesis strategies ------------------------------------------------------

VARS = (
    Var("alpha", 0, 1),
    Var("beta", 1, 1),
    Var("c", 1, 1),
    Var("c", 2, 2),
)

coeffs = st.fractions(
    min_value=-9, max_value=9, max_denominator=7
).map(lambda f: rat(f.numerator, f.denominator))

exponent_vectors = st.tuples(*[st.integers(0, 3) for _ in VARS])


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exps = draw(exponent_vectors)
        terms[exps] = draw(coeffs)
    return GradedPoly(VARS, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero() == p
    assert p * one() == p
    assert p - p == zero()
    assert p * zero() == zero()


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_grading_multiplicative(p, q):
    dp, dq = p.weighted_degree(), q.weighted_degree()
    prod = p * q
    if dp is None or dq is None:
        assert prod.is_zero()
    else:
        assert prod.weighted_degree() is None or prod.weighted_degree() <= dp + dq
        if p.is_homogeneous() and q.is_homogeneous() and not prod.is_zero():
            assert prod.is_homogeneous()
            assert prod.weighted_degree() == dp + dq


@settings(max_examples=60, deadline=None)
@given(polys())
def test_homogeneous_decomposition(p):
    if p.is_zero():
        return
    total = zero()
    for d in range(p.weighted_degree() + 1):
        part = p.homogeneous_part(d)
        assert part.is_zero() or (
            part.is_homogeneous() and part.weighted_degree() == d
        )
        total = total + part
    assert total == p


# -- truncation -----------------------------------------------------------------


def test_add_retruncates_to_min():
    p = (one() + C1 + C2).truncate(2)
    q = (one() + C1).truncate(1)
    assert (p + q).trunc == 1
    assert (p + q) == (2 * one() + 2 * C1)


def test_mul_truncates():
    p = (one() + C1).truncate(2)
    prod = p * p
    assert prod.trunc == 2
    assert prod == one() + 2 * C1 + C1 * C1


# -- series ------------------------------------------------------------------


def test_series_quotient_fold_normal_form():
    # total class of the fold germ target/source weight lists
    q = series_quotient(
        [one_plus(2 * ALPHA), one_plus(BETA), one_plus(BETA - ALPHA)],
        [one_plus(ALPHA), one_plus(BETA - ALPHA)],
        2,
    )
    expected = one() + (BETA + ALPHA) + (ALPHA * BETA - ALPHA * ALPHA)
    assert q == expected
    assert q.homogeneous_part(2) == ALPHA * BETA - ALPHA * ALPHA


def test_series_quotient_requires_unit_constant_term():
    with pytest.raises(PolyError):
        series_quotient([ALPHA], [], 3)


linear_forms = st.lists(
    st.tuples(st.sampled_from(["alpha", "beta"]), st.integers(-3, 3)),
    min_size=1,
    max_size=2,
).map(
    lambda pairs: sum(
        (root_var(f, 1 if f == "beta" else 0) * c for f, c in pairs), zero()
    )
)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(linear_forms, max_size=3),
    st.lists(linear_forms, max_size=3),
    st.integers(1, 4),
)
def test_series_quotient_inverse_property(num, den, maxdeg):
    f = series_quotient([one_plus(w) for w in num], [one_plus(w) for w in den], maxdeg)
    g = series_quotient([one_plus(w) for w in den], [one_plus(w) for w in num], maxdeg)
    assert f * g == one().truncate(maxdeg)


# -- substitution ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_substitute_is_ring_morphism(p, q):
    assignment = {
        ("c", 1): ALPHA + BETA,
        ("c", 2): ALPHA * BETA,
        ("alpha", 0): constant(2),
    }
    sub = lambda x: substitute(x, assignment)
    assert sub(p + q) == sub(p) + sub(q)
    assert sub(p * q) == sub(p) * sub(q)


def test_substitute_identity():
    p = C1 * C2 - 3 * ALPHA
    assert substitute(p, {}) == p


def test_substitute_strict_missing_raises():
    with pytest.raises(PolyError):
        substitute(C1 + C2, {("c", 1): one()}, strict=True)


def test_chern_substitute_reads_graded_parts():
    # c evaluated at (1+alpha)(1+beta): c1 -> alpha+beta, c2 -> alpha*beta
    series = one_plus(ALPHA) * one_plus(BETA)
    p = C1 * C1 - 2 * C2
    got = chern_substitute(p, series)
    want = (ALPHA + BETA) ** 2 - 2 * ALPHA * BETA
    assert got == want


def test_vanishes_under_linear_factors():
    p = (BETA - ALPHA) * (BETA - 2 * ALPHA)
    assert vanishes_under(p, [(("beta", 1), ALPHA)])
    assert vanishes_under(p, [(("beta", 1), ALPHA), (("beta", 1), 2 * ALPHA)])
    assert not vanishes_under(p, [(("beta", 1), 3 * ALPHA)])
    assert vanishes_under(zero(), [("alpha", one())])


# -- Schur determinants ------------------------------------------------------------


def test_schur2_examples():
    assert schur2(1, 1) == C1 * C1 - C2
    assert schur2(2, 2) == C2 * C2 - C1 * C3


def test_schur3_examples():
    assert schur3(1, 1, 1) == C1 ** 3 - 2 * C1 * C2 + C3
    assert schur3(2, 1, 0) == schur2(2, 1)
    assert schur3(3, 3, 0) == schur2(3, 3)


def test_schur3_negative_bottom_row_vanishes():
    assert schur3(3, 2, -1).is_zero()
    assert schur3(5, 4, -2).is_zero()


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_schur3_homogeneous(i, j, k):
    s = schur3(i, j, k)
    if not s.is_zero():
        assert s.is_homogeneous()
        assert s.weighted_degree() == i + j + k


# -- exact division -----------------------------------------------------------------


def test_divide_by_linear_exact():
    prod = (BETA - ALPHA) * (BETA - 2 * ALPHA) * (BETA - 3 * ALPHA)
    assert divide_by_linear(prod, BETA - ALPHA) == (BETA - 2 * ALPHA) * (
        BETA - 3 * ALPHA
    )
    assert exact_quotient(prod, [BETA - ALPHA, BETA - 3 * ALPHA]) == BETA - 2 * ALPHA


def test_divide_by_linear_remainder_raises():
    prod = (BETA - ALPHA) * (BETA - 2 * ALPHA)
    with pytest.raises(NonExactDivision):
        divide_by_linear(prod + one(), BETA - ALPHA)
    with pytest.raises(NonExactDivision):
        divide_by_linear(prod, BETA - 3 * ALPHA)


linear_forms = st.lists(
    st.tuples(st.sampled_from(VARS[:3]), coeffs.filter(lambda c: c != 0)),
    min_size=1,
    max_size=3,
    unique_by=lambda vc: vc[0],
).map(lambda pairs: sum((c * variable(v.family, v.index) for v, c in pairs), zero()))


@settings(max_examples=60, deadline=None)
@given(polys(), linear_forms)
def test_divide_by_linear_matches_evaluation(p, form):
    # the quotient of a multiple is the cofactor; otherwise the reported
    # remainder is p evaluated on the hyperplane form = 0
    assert divide_by_linear(p * form, form) == p
    lead = form.compress().vars[0]
    a = form.coefficient({lead: 1})
    image = (variable(lead.family, lead.index) * a - form) * (1 / a)
    remainder = substitute(p, {lead: image})
    if remainder.is_zero():
        assert divide_by_linear(p, form) * form == p
    else:
        with pytest.raises(NonExactDivision) as err:
            divide_by_linear(p, form)
        assert str(err.value) == (
            f"remainder {to_text(remainder)} dividing by {to_text(form)}"
        )


def test_divide_by_linear_rejects_nonlinear():
    with pytest.raises(PolyError):
        divide_by_linear(C2, C2)
    with pytest.raises(PolyError):
        divide_by_linear(C1, zero())


# -- serialization ------------------------------------------------------------------


def test_json_shape():
    p = -6 * (C1 ** 3 + 3 * C1 * C2 + 2 * C3)
    payload = to_json_dict(p)
    assert payload["vars"] == [
        {"family": "c", "index": 1, "weight": 1},
        {"family": "c", "index": 2, "weight": 2},
        {"family": "c", "index": 3, "weight": 3},
    ]
    assert payload["terms"][0] == {"coeff": "-6/1", "exps": [[0, 3]]}
    assert all("/" in t["coeff"] for t in payload["terms"])


@settings(max_examples=40, deadline=None)
@given(polys())
def test_json_round_trip(p):
    assert from_json(to_json(p)) == p


@pytest.mark.parametrize("ref", [2, -1])
def test_json_rejects_out_of_range_ref(ref):
    payload = {
        "vars": [
            {"family": "a", "index": 0, "weight": 1},
            {"family": "b", "index": 0, "weight": 1},
        ],
        "terms": [{"coeff": "1/1", "exps": [[ref, 2]]}],
    }
    with pytest.raises(PolyError):
        from_json(json.dumps(payload))


def test_json_canonical_term_order():
    p = C3 + C1 + C2 * C1
    coeff_degrees = []
    payload = to_json_dict(p)
    weights = {i: v["weight"] for i, v in enumerate(payload["vars"])}
    for term in payload["terms"]:
        coeff_degrees.append(sum(weights[i] * e for i, e in term["exps"]))
    assert coeff_degrees == sorted(coeff_degrees)


# -- rendering ----------------------------------------------------------------------


def test_latex_rendering():
    p = -6 * (C1 ** 3 + 3 * C1 * C2 + 2 * C3)
    assert to_latex(p) == "-6c_1^3 - 18c_1c_2 - 12c_3"
    assert to_latex(zero()) == "0"
    assert to_latex(one()) == "1"
    assert to_latex(schur2(1, 1)) == "c_1^2 - c_2"


def test_text_rendering():
    p = C1 * C2 - constant(rat(1, 2)) * C3
    assert to_text(p) == "c1*c2 - 1/2*c3"
    assert to_text(root_var("alpha") ** 2) == "alpha^2"


def test_rendering_signs_units_and_fractions():
    beta12 = root_var("beta", 12)
    p = -C1 ** 12 + rat(3, 2) * C1 * C2 - C3 + rat(-5, 7) * ALPHA * beta12 + rat(1, 2)
    assert to_text(p) == "1/2 - 5/7*alpha*beta12 + 3/2*c1*c2 - c3 - c1^{12}"
    assert to_latex(p) == r"1/2 - 5/7\alpha\beta_{12} + 3/2c_1c_2 - c_3 - c_1^{12}"
    assert to_text(-one()) == to_latex(-one()) == "-1"
    assert to_text(constant(rat(-1, 3))) == "-1/3"
    assert to_latex(beta12 - ALPHA) == r"-\alpha + \beta_{12}"
    assert to_text(rat(2, 5) * C2) == "2/5*c2"
