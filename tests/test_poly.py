"""Core polynomial layer: exact arithmetic, grading, series, substitution."""

import ast
import itertools
import json
import copy
import os
import pickle
import subprocess
import sys
from functools import reduce
from operator import mul
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multising.germs import CheckResult, Report, germ_blowup
from multising.grassmann import GrassRing
from multising.multipoint import MultiSingularity, SourceExpansion, SourceTerm
from multising.thom import SingularityInfo, singularity_info
from multising.poly import (
    GradedPoly,
    IncompatibleVariables,
    NonExactDivision,
    PolyError,
    Record,
    Var,
    chern_substitute,
    constant,
    cvar,
    divide_by_linear,
    dvar,
    exact_quotient,
    from_json,
    int_product,
    one,
    one_plus,
    rat,
    rat_str,
    root_var,
    schur_det,
    series_inverse,
    series_quotient,
    sorted_terms,
    substitute,
    to_json,
    to_json_dict,
    to_latex,
    to_text,
    variable,
    zero,
)
from multising import poly
from multising.poly import _FIELD

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
    assert rat("0") == 0 and rat("-0/5") == 0 and rat("007/014") == rat(1, 2)


def test_rat_string_with_denominator_rejected():
    with pytest.raises(PolyError):
        rat("1/2", 3)


# strings outside -?[0-9]+(/[0-9]+)?; int() reads most of their parts
_NONCANONICAL_RATIONALS = ["1_000", " 1 / 2 ", "1/ 2", " 3", "3\n", "\u0661/\u0662", "3/-4",
                           "+3", "+3/4", "3/+4", "3_0/1_0", "", "/2", "3/", "-", "--3", "0x10"]


@pytest.mark.parametrize("text", _NONCANONICAL_RATIONALS)
def test_rat_accepts_only_canonical_strings(text):
    with pytest.raises(PolyError):
        rat(text)
    payload = {"vars": _JSON_VARS, "terms": [{"coeff": text, "exps": [[0, 1]]}]}
    with pytest.raises(PolyError):
        from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "make",
    [
        lambda: rat("1.5"),
        lambda: rat("1/0"),
        lambda: rat(1, 0),
        lambda: rat(0.1),
        lambda: constant(0.1),
        lambda: GradedPoly((Var("c", 1, 1),), {(1,): 0.1}),
        lambda: rat(True),
        lambda: rat(1, True),
        lambda: constant(True),
        lambda: C1 * True,
        lambda: substitute(C1, {5: ALPHA}),
        lambda: C1.coefficient({5: 1}),
        lambda: substitute(C1, {("c",): ALPHA}),
        lambda: substitute(C1, {("c", 1, 2): ALPHA}),
        lambda: substitute(C1, {(1, "c"): ALPHA}),
        lambda: substitute(C1, {("c", True): ALPHA}),
        lambda: C1.truncate("2"),
        lambda: C1.truncate(True),
        lambda: C1.homogeneous_part(1.0),
        lambda: substitute(3, {("c", 1): ALPHA}),
        lambda: chern_substitute(C1, 3),
        lambda: series_inverse(3, 2),
        lambda: series_quotient([3], [], 2),
        lambda: series_quotient(5, [], 2),
        lambda: series_quotient([], 5, 2),
        lambda: divide_by_linear(C1, 2),
        lambda: divide_by_linear(3, ALPHA),
        lambda: substitute(C1, [("c", 1)]),
        lambda: substitute(C1, None),
        lambda: exact_quotient(C1, 5),
        lambda: exact_quotient(3, []),
        lambda: cvar(False),
        lambda: cvar(0.0),
        lambda: cvar(-1.5),
        lambda: schur_det(True, False),
        lambda: schur_det("a"),
    ],
    ids=["decimal-string", "zero-denominator-string", "zero-denominator",
         "float", "float-constant", "float-term", "bool", "bool-denominator",
         "bool-constant", "bool-factor", "symbol-int", "coefficient-symbol-int",
         "symbol-1-tuple", "symbol-3-tuple", "symbol-swapped-pair", "symbol-bool-index",
         "truncate-str", "truncate-bool", "homogeneous_part-float", "substitute-int-poly",
         "chern_substitute-int-series", "series_inverse-int", "series_quotient-int-factor",
         "series_quotient-int-numerator-factors", "series_quotient-int-denominator-factors",
         "divide_by_linear-int-form", "divide_by_linear-int-dividend",
         "substitute-list-assignment", "substitute-none-assignment",
         "exact_quotient-int-factors", "exact_quotient-int-dividend",
         "cvar-bool", "cvar-float-zero", "cvar-negative-float", "schur_det-bools",
         "schur_det-str"],
)
def test_malformed_scalars_raise_poly_error(make):
    with pytest.raises(PolyError):
        make()


# -- construction invariants ---------------------------------------------------


@pytest.mark.parametrize(
    "vars_, terms",
    [
        ((Var("x", 0, 1), Var("y", 0, 1)), {(-1, 2): 1}),
        ((Var("x", 0, 1),), {(1.0,): 1}),
        ((Var("x", 0, 1),), {(True,): 1}),
        ((Var("x", 0, 1),), {("1",): 1}),
        ((Var("x", 0, 1), Var("y", 0, 1)), {(1,): 1}),
        ((Var("x", 0, 1), Var("y", 0, 1)), {(1, 0, 0): 1}),
        ((Var("x", 0, 1),), {1: 1}),
        ((Var("x", 0, 1), Var("x", 0, 1)), {(1, 0): 1}),
    ],
    ids=["negative", "float", "bool", "string", "short", "long", "not-a-tuple",
         "repeated-variable"],
)
def test_constructor_rejects_malformed_exponents_and_tables(vars_, terms):
    # packed products are only sound for nonnegative int exponents over a
    # table without repeats; x^-1*y^2 would otherwise multiply into garbage
    with pytest.raises(PolyError):
        GradedPoly(vars_, terms)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Var(1, 0, 1),
        lambda: Var("x", 1.0, 1),
        lambda: Var("x", True, 1),
        lambda: Var("x", 0, 0),
        lambda: Var("x", 0, -1),
        lambda: Var("x", 0, 1.5),
        lambda: Var("x", 0, True),
        lambda: variable("x", 0, weight=0),
        lambda: cvar(1.5),
        lambda: dvar(0),
    ],
    ids=["int-family", "float-index", "bool-index", "zero-weight", "negative-weight",
         "float-weight", "bool-weight", "zero-weight-variable", "float-chern-index",
         "zero-weight-series-symbol"],
)
def test_var_rejects_malformed_fields(make):
    # a weight-0 x made series_inverse(1 + x, 3) return 1 - x + x^2 - x^3, whose
    # product with 1 + x is 1 - x^4; a weight -1 term survived truncate(0)
    with pytest.raises(PolyError):
        make()


def test_bools_are_not_scalars():
    assert one() != True  # noqa: E712 -- the comparison under test
    assert C1 != True  # noqa: E712


def test_constructor_rejects_conflicting_weights_in_one_table():
    with pytest.raises(IncompatibleVariables):
        GradedPoly((Var("x", 0, 1), Var("x", 0, 2)), {(1, 0): 1})


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
    heavy, light = variable("c", 2, weight=2), variable("c", 2, weight=1)
    # each table is merged with others first, so the memoised merges are warm
    assert (heavy + C1) * C3 == C1 * C3 + heavy * C3
    assert (light + ALPHA) * ALPHA == ALPHA**2 + light * ALPHA
    for _ in range(2):  # a failed merge is not cached
        with pytest.raises(IncompatibleVariables):
            heavy + light


def test_variables_one_and_zero_are_shared_values():
    assert variable("d", 3, weight=3) is dvar(3)
    assert root_var("beta", 2) is variable("beta", 2)
    assert one() is one() and zero() is zero()


@pytest.mark.parametrize(
    "make",
    [lambda: cvar(True), lambda: variable("c", True), lambda: variable("c", 1.0)],
    ids=["cvar-true", "variable-true-index", "variable-float-index"],
)
def test_shared_variables_admit_only_int_indices(make):
    # True == 1 and 1.0 == 1 hash alike, so once c_1 is shared each of
    # these would find it without the exact-type guard
    assert cvar(1) is C1
    with pytest.raises(PolyError):
        make()


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


def test_strings_are_not_polynomial_scalars():
    # equality with "3" would break the eq/hash contract, since hash("3") differs
    assert constant(3) != "3"
    assert C1 != "1/2"
    with pytest.raises(PolyError):
        C1 * "2"
    with pytest.raises(PolyError):
        C1 + "2"


# -- value types ---------------------------------------------------------------

# (instance, its repr recorded when the types were dataclasses, a replace()
# change, and what that change gives: an equal instance or the error it raises)
RECORDS = [
    (Var("c", 1, 1), "Var(family='c', index=1, weight=1)", {"weight": 0}, PolyError),
    (germ_blowup(),
     "GermPrototype(name='blowup', ell=0, delta=1, source_weights=(GradedPoly(beta1),), "
     "target_weights=(GradedPoly(alpha + beta1),), n1_scalar=1, n1_factors=())",
     {"ell": -1}, PolyError),
    (CheckResult("q3", False, cvar(1), "odd"),
     "CheckResult(name='q3', holds=False, residual=GradedPoly(c1), detail='odd')",
     {"holds": True}, CheckResult("q3", True, cvar(1), "odd")),
    (Report("quadruple", 1, (CheckResult("q1", True),)),
     "Report(suite='quadruple', ell=1, checks=(CheckResult(name='q1', holds=True, "
     "residual=None, detail=''),))",
     {"ell": 2}, Report("quadruple", 2, (CheckResult("q1", True),))),
    (GrassRing(3, 7), "GrassRing(k=3, n=7)", {"n": 2}, PolyError),
    (MultiSingularity(("A1", "A0", "A0", "A1")), "MultiSingularity(parts=('A1', 'A0', 'A0', 'A1'))",
     {"parts": ("A1", "A2", "A0")}, MultiSingularity(("A1", "A0", "A2"))),
    (SourceTerm(cvar(2), ("A0",)), "SourceTerm(coefficient=GradedPoly(c2), complement=('A0',))",
     {"complement": ()}, SourceTerm(cvar(2), ())),
    (SourceExpansion(MultiSingularity(("A0", "A0")), 1, (SourceTerm(-cvar(1), ()),)),
     "SourceExpansion(multi=MultiSingularity(parts=('A0', 'A0')), ell=1, "
     "terms=(SourceTerm(coefficient=GradedPoly(-c1), complement=()),))",
     {"ell": 2}, SourceExpansion(MultiSingularity(("A0", "A0")), 2, (SourceTerm(-cvar(1), ()),))),
    (singularity_info("A3"),
     "SingularityInfo(name='A3', delta=4, corank=1, slope=3, offset=3, min_ell=0)",
     {"slope": 0}, SingularityInfo("A3", 4, 1, 0, 3, 0)),
]


@pytest.mark.parametrize("index", range(len(RECORDS)),
                         ids=[type(case[0]).__name__ for case in RECORDS])
def test_record_contract(index):
    x, recorded, change, changed = RECORDS[index]
    cls = type(x)
    fields = tuple(getattr(x, name) for name in cls.__match_args__)
    twin = cls(*fields)
    assert repr(x) == repr(twin) == recorded
    assert twin == x and twin is not x
    assert hash(twin) == hash(x) == hash(fields)
    other = RECORDS[index - 1][0]
    assert x != fields and x != other and not x == fields
    assert cls(**dict(zip(cls.__match_args__, fields))) == x
    assert copy.copy(x) == x
    for attempt in (lambda: setattr(x, cls.__match_args__[0], fields[0]),
                    lambda: setattr(x, "extra", 1),
                    lambda: delattr(x, cls.__match_args__[0])):
        with pytest.raises(AttributeError):
            attempt()
    for bad in (lambda: cls(),
                lambda: cls(*fields, extra=1),
                lambda: cls(*fields, fields[0]),
                lambda: cls(*fields, **{cls.__match_args__[0]: fields[0]})):
        with pytest.raises(TypeError):
            bad()
    assert x.replace() == x
    if changed is PolyError:
        with pytest.raises(PolyError):
            x.replace(**change)
    else:
        assert x.replace(**change) == changed != x
    with pytest.raises(TypeError):
        x.replace(extra=1)


def test_record_hash_is_kept_from_first_use():
    class Pair(Record):
        left: object
        right: object

    loose = Pair([1], 2)  # a field that cannot be hashed
    assert loose == Pair([1], 2) and loose.replace(right=3) == Pair([1], 3)
    for _ in range(2):  # a failed hash is not kept
        with pytest.raises(TypeError):
            hash(loose)
    x = Pair(("c", 1), 2)
    assert hash(x) == hash((("c", 1), 2)) == hash(x) == x._hash
    assert hash(x.replace(right=3)) == hash((("c", 1), 3))
    v = Var("c", 2, 2)
    assert hash(v) == hash(("c", 2, 2))
    assert v.__reduce__() == (Var, ("c", 2, 2))
    thawed = pickle.loads(pickle.dumps(v))
    assert thawed == v and hash(thawed) == hash(v)


def test_importing_the_library_skips_dataclasses_and_inspect():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, which a
    # cold start pays for on every call of a command line
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys, multising.poly, multising.thom, multising.germs, multising.grassmann, "
            "multising.multipoint; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_only_poly_imports_its_private_names():
    # the packed format stays inside poly.py: no other module of the package
    # imports a _-prefixed name from it
    private = [
        (path.name, alias.name)
        for path in sorted(Path(poly.__file__).parent.glob("*.py")) if path.name != "poly.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "poly"), (0, "multising.poly"))
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


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


@settings(max_examples=60)
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


@settings(max_examples=60)
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


@settings(max_examples=60)
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


# -- independent oracles for the product and substitution kernels ---------------

# Naive reference arithmetic on plain {exponent tuple: Fraction} dicts over
# VARS, written without any packing, slicing or power caching.


def _wdeg_ref(exps):
    return sum(e * v.weight for e, v in zip(exps, VARS))


def naive_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def naive_substitute(terms, images, width=len(VARS)):
    """images maps a position to the terms of its image, all over width variables."""
    unit = lambda i: {tuple(int(j == i) for j in range(width)): rat(1)}
    out = {}
    for exps, c in terms.items():
        acc = {(0,) * width: c}
        for i, e in enumerate(exps):
            for _ in range(e):
                acc = naive_mul(acc, images.get(i, unit(i)))
        for key, value in acc.items():
            out[key] = out.get(key, 0) + value
    return {e: c for e, c in out.items() if c != 0}


mixed_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12).map(
    lambda f: rat(f.numerator, f.denominator)
)


def term_dicts(max_exp, max_terms=6):
    exps = st.tuples(*[st.integers(0, max_exp) for _ in VARS])
    return st.dictionaries(exps, mixed_coeffs, max_size=max_terms)


@settings(max_examples=100)
@given(term_dicts(12), term_dicts(12))
def test_mul_matches_naive_product(a, b):
    # exponents up to 12 make the packed digits carry if the radix is too small
    prod = GradedPoly(VARS, a) * GradedPoly(VARS, b)
    assert prod.vars == VARS
    assert prod.terms == naive_mul(
        {e: c for e, c in a.items() if c}, {e: c for e, c in b.items() if c}
    )


@settings(max_examples=60)
@given(term_dicts(4), term_dicts(4))
def test_mul_cancels_to_zero_like_naive_product(s, t):
    # (s + t)(s - t) = s^2 - t^2: the cross terms cancel inside the kernel
    p, q = GradedPoly(VARS, s) + GradedPoly(VARS, t), GradedPoly(VARS, s) - GradedPoly(VARS, t)
    prod = p * q
    assert prod.terms == naive_mul(dict(p.terms), dict(q.terms))
    assert prod == GradedPoly(VARS, s) ** 2 - GradedPoly(VARS, t) ** 2


@st.composite
def assignments(draw):
    """Images for a subset of VARS; some contain their own variable."""
    images = {}
    for i in draw(st.sets(st.integers(0, len(VARS) - 1))):
        image = draw(term_dicts(2, max_terms=3))
        if draw(st.booleans()):
            own = tuple(int(j == i) for j in range(len(VARS)))
            image[own] = image.get(own, 0) + draw(mixed_coeffs)
        images[i] = {e: c for e, c in image.items() if c}
    return images


@settings(max_examples=100)
@given(term_dicts(3), assignments())
def test_substitute_matches_naive_substitution(terms, images):
    p = GradedPoly(VARS, terms)
    assignment = {
        (VARS[i].family, VARS[i].index): GradedPoly(VARS, image)
        for i, image in images.items()
    }
    want = GradedPoly(VARS, naive_substitute(dict(p.terms), images))
    assert substitute(p, assignment) == want


def test_substitute_image_containing_its_own_variable():
    # a triangular rewriting d_i -> d_i - e1 d_{i-1}
    d1, d2, e1 = variable("d", 1, 1), variable("d", 2, 2), ALPHA + BETA
    p = d1 ** 3 + 2 * d1 * d2 + d2 ** 2
    got = substitute(p, {("d", 1): d1 - e1, ("d", 2): d2 - e1 * d1})
    want = (d1 - e1) ** 3 + 2 * (d1 - e1) * (d2 - e1 * d1) + (d2 - e1 * d1) ** 2
    assert got == want


# Images may bring variables outside p's table: a new family and a weight-3
# variable sorted after VARS.
WIDE = VARS + (Var("u", 0, 1), Var("w", 3, 3))


@st.composite
def wide_images(draw, max_exp):
    """Zero, constant or general images over WIDE for at most two of VARS,
    each over its own denominator."""
    images = {}
    for i in draw(st.sets(st.integers(0, len(VARS) - 1), max_size=2)):
        kind = draw(st.sampled_from(("zero", "constant", "general")))
        if kind == "zero":
            images[i] = {}
            continue
        exps = (st.just((0,) * len(WIDE)) if kind == "constant"
                else st.tuples(*[st.integers(0, max_exp) for _ in WIDE]))
        numerators = draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool),
                                          min_size=1, max_size=3))
        den = draw(st.integers(1, 12))
        images[i] = {e: rat(n, den) for e, n in numerators.items()}
    return images


@settings(max_examples=100)
@given(term_dicts(10, max_terms=4), wide_images(10))
def test_substitute_with_new_variables_matches_naive_substitution(terms, images):
    # exponents up to 10 in p and in the images make packed digits carry if
    # the radix misses p's own exponent of an unassigned variable or an
    # image's contribution; one denominator per image checks the scaling
    p = GradedPoly(VARS, terms)
    assignment = {
        (VARS[i].family, VARS[i].index): GradedPoly(WIDE, image)
        for i, image in images.items()
    }
    padded = {e + (0,) * (len(WIDE) - len(VARS)): c for e, c in p.terms.items()}
    want = GradedPoly(WIDE, naive_substitute(padded, images, len(WIDE)))
    assert substitute(p, assignment) == want


@settings(max_examples=40)
@given(term_dicts(3, max_terms=3), st.permutations(range(len(VARS))), st.booleans())
def test_substitute_rejects_images_with_conflicting_weights(terms, order, between_images):
    # i and k occur in p; i's image holds unassigned j's (family, index) at
    # another weight, or a variable that k's image holds at another weight
    i, j, k = order[:3]
    for n in (i, k):
        terms[tuple(int(m == n) for m in range(len(VARS)))] = rat(1)
    if between_images:
        assignment = {VARS[i]: variable("u", 0, 1), VARS[k]: variable("u", 0, 2)}
    else:
        assignment = {VARS[i]: variable(VARS[j].family, VARS[j].index, VARS[j].weight + 1)}
    with pytest.raises(IncompatibleVariables):
        substitute(GradedPoly(VARS, terms), assignment)


# The shape of a residue evaluated on a genotype series: many assigned
# variables, each term using at most three of them.  u and v stay unassigned.
SPARSE = tuple(Var("c", i, i) for i in range(1, 9)) + (Var("u", 0, 1), Var("v", 0, 1))


def sparse_exponents(max_exp, max_support):
    """Exponent vectors over SPARSE with at most max_support nonzero entries."""
    support = st.dictionaries(st.integers(0, len(SPARSE) - 1), st.integers(1, max_exp),
                              max_size=max_support)
    return support.map(lambda s: tuple(s.get(i, 0) for i in range(len(SPARSE))))


@st.composite
def sparse_images(draw):
    """Images over SPARSE for every c_i: zero, constant or two sparse terms, each
    over its own denominator."""
    images = {}
    for i in range(8):
        kind = draw(st.sampled_from(("zero", "constant", "general", "general")))
        den = draw(st.integers(1, 12))
        exps = st.just((0,) * len(SPARSE)) if kind == "constant" else sparse_exponents(2, 2)
        numerators = {} if kind == "zero" else draw(
            st.dictionaries(exps, st.integers(-9, 9).filter(bool), min_size=1, max_size=2))
        images[i] = {e: rat(n, den) for e, n in numerators.items()}
    return images


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(sparse_exponents(5, 3), mixed_coeffs, min_size=1, max_size=5),
       sparse_images(), st.one_of(st.none(), st.integers(0, 7)))
def test_sparse_substitution_matches_naive_substitution(terms, images, killed):
    # exponents up to 5 on weights up to 8 push the image powers past the
    # narrowest field; zero and constant images end a term's walk early.  With
    # killed = i, every term is multiplied by c_(i+1), whose image is zero: the
    # kill test of a genotype check, which must return zero() itself
    if killed is not None:
        images[killed] = {}
        terms = {e[:killed] + (e[killed] + 1,) + e[killed + 1:]: c for e, c in terms.items()}
    p = GradedPoly(SPARSE, terms)
    assignment = {
        (SPARSE[i].family, SPARSE[i].index): GradedPoly(SPARSE, image)
        for i, image in images.items()
    }
    want = GradedPoly(SPARSE, naive_substitute(dict(p.terms), images, len(SPARSE)))
    got = substitute(p, assignment)
    assert got == want
    if all(any(e and not images[i] for i, e in enumerate(exps[:8])) for exps in p.terms):
        assert got is zero()  # p itself may be zero


def test_assigning_absent_variables_changes_nothing():
    # c3 sits in p's table without a term of its own; c4 is not in the table
    p = rat(1, 6) * C1 * ALPHA + rat(2, 3) * C2 ** 2 + C3 - C3
    assert C3.vars[0] in p.vars
    got = substitute(p, {("c", 3): rat(1, 7) * BETA + 5, ("c", 4): constant(rat(2, 9))})
    assert got == p
    assert got.den == p.den == 6
    assert got.nums == p.compress().nums


@pytest.mark.parametrize(
    "assignment",
    [
        {"alpha": 1, ("alpha", 0): 2},
        {("alpha", 0): 2, Var("alpha", 0, 1): 2},
        {"gamma": 1, ("gamma", 0): 1},
    ],
    ids=["family-and-pair", "pair-and-var", "absent-variable"],
)
def test_substitute_rejects_two_keys_for_one_variable(assignment):
    # the last key would win silently: alpha^2 + beta1 would become 4 + beta1;
    # two keys are ambiguous even for a variable that p lacks
    with pytest.raises(PolyError, match="twice"):
        substitute(ALPHA ** 2 + BETA, assignment)


def test_substitute_checks_the_weight_of_a_var_key():
    # a Var key names a weight, which must be that of the variable of p it
    # assigns, as in the checking constructor; a key for a variable that p
    # lacks is ignored, whatever its weight
    p = ALPHA ** 2 + BETA
    with pytest.raises(IncompatibleVariables):
        substitute(p, {Var("alpha", 0, 2): 3})
    assert substitute(p, {Var("alpha", 0, 1): 3}) == 9 + BETA
    assert substitute(p, {Var("gamma", 0, 5): 3}) == p


@pytest.mark.parametrize(
    "make, calls",
    [
        (lambda: cvar(15), 1),
        (lambda: sum((cvar(i) for i in range(1, 16)), zero()), 15),
        (lambda: C1 ** 3 * cvar(15) + cvar(15), 4),
    ],
    ids=["c15", "c1+...+c15", "c1^3*c15+c15"],
)
def test_substitution_multiplies_only_the_variables_a_term_uses(monkeypatch, make, calls):
    # one product per trie node (a distinct prefix of a term's factors) and
    # one per power of an image built past the first; an assigned variable
    # that a term lacks costs it no product
    assignment = {("c", i): rat(1, i) * ALPHA ** i + BETA ** i for i in range(1, 16)}
    p = make()
    count = []
    kernel = poly._mul_into
    monkeypatch.setattr(poly, "_mul_into", lambda *args: count.append(1) or kernel(*args))
    got = substitute(p, assignment)
    assert len(count) == calls
    monkeypatch.undo()
    want = zero()
    for exps, c in p.terms.items():
        term = constant(c)
        for v, e in zip(p.vars, exps):
            term = term * assignment[(v.family, v.index)] ** e
        want = want + term
    assert got == want


def test_substitution_drops_the_terms_of_a_zero_image_unmultiplied(monkeypatch):
    # the kill test d_m -> 0 of a genotype check on a multiple of d_m, and the
    # same with a surviving term and a nonzero image that only dropped terms use
    d1, d2, d3 = dvar(1), dvar(2), dvar(3)
    p = d3 * (ALPHA + d1) ** 3 - 2 * d3 ** 2 * d2
    rest = 3 * d2 * ALPHA
    q = p + rest
    count = []
    kernel = poly._mul_into
    monkeypatch.setattr(poly, "_mul_into", lambda *args: count.append(1) or kernel(*args))
    assert substitute(p, {("d", 3): 0}) is zero()
    got = substitute(q, {("d", 3): 0, ("d", 1): BETA})
    assert count == []
    assert got == rest


@settings(max_examples=40)
@given(term_dicts(3), st.dictionaries(st.tuples(*[st.integers(0, 2) for _ in VARS]),
                                      st.integers(-9, 9).filter(bool), max_size=8),
       st.integers(2, 12))
def test_chern_substitute_matches_naive_graded_parts(terms, numerators, den):
    # c1 -> the weight-1 part of the series, c2 -> its weight-2 part; alpha
    # and beta, which p uses as well, pass through the walk unchanged.  The
    # series holds alpha / den, so it is over a multiple of den > 1 and the
    # walk scales each term's numerator to the one output denominator
    p = GradedPoly(VARS, terms)
    numerators[(1, 0, 0, 0)] = 1
    series = GradedPoly(VARS, {e: rat(c, den) for e, c in numerators.items()})
    assert series.den % den == 0
    parts = {
        pos: {e: c for e, c in series.terms.items() if _wdeg_ref(e) == weight}
        for pos, weight in ((2, 1), (3, 2))
    }
    want = GradedPoly(VARS, naive_substitute(dict(p.terms), parts))
    assert chern_substitute(p, series) == want


# -- packed storage past the narrowest field ----------------------------------------

# A polynomial holding PEAK = alpha^(2**_FIELD - 1) and other terms of
# exponents up to NARROW has degree inside the narrowest packed field.  Its
# products and powers, and its image under alpha -> beta^2 + ..., hold an
# exponent past that field, which carries into the next field unless the
# kernel repacks to a wider one first.
NARROW = ((1 << _FIELD) - 1) // _wdeg_ref((1,) * len(VARS))
PEAK = ((1 << _FIELD) - 1,) + (0,) * (len(VARS) - 1)


def narrow_dicts():
    """Term dicts whose top degree just fits the narrowest field."""
    return term_dicts(NARROW, max_terms=3).map(lambda t: {**t, PEAK: rat(1)})


def naive_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


@settings(max_examples=30)
@given(narrow_dicts(), narrow_dicts())
def test_products_past_the_narrowest_field_match_naive_product(a, b):
    a, b = naive_add(a, {}), naive_add(b, {})
    p, q = GradedPoly(VARS, a), GradedPoly(VARS, b)
    prod = p * q
    assert p.weighted_degree() < 1 << _FIELD <= prod.weighted_degree()
    assert prod.terms == naive_mul(a, b)
    assert (p ** 3).terms == naive_mul(naive_mul(a, a), a)
    # sums and comparisons of a narrow and a wide operand
    assert prod + p == GradedPoly(VARS, naive_add(naive_mul(a, b), a))
    assert prod - prod + p == p


@settings(max_examples=20)
@given(narrow_dicts(), term_dicts(1, max_terms=1))
def test_substitution_past_the_narrowest_field_matches_naive_substitution(terms, extra):
    # c1 -> beta^6 + (one term of degree <= 5) sends c1^NARROW to beta^(6*NARROW) + ...
    terms[(0, 0, NARROW, 0)] = rat(1)
    image = naive_add({(0, 6, 0, 0): rat(1)}, extra)
    p = GradedPoly(VARS, terms)
    got = substitute(p, {("c", 1): GradedPoly(VARS, image)})
    assert max(e[1] for e in got.terms) >= 1 << _FIELD
    assert got == GradedPoly(VARS, naive_substitute(dict(p.terms), {2: image}))


@settings(max_examples=60)
@given(term_dicts(3), st.permutations(range(len(WIDE))), st.integers(2, 9), mixed_coeffs)
def test_equal_polynomials_over_other_tables_compare_and_hash_alike(terms, order, k, c):
    # q is p over WIDE (two unused variables), listed in a permuted order, plus
    # a term J of degree past the narrowest field and denominator k, minus J:
    # the sum widens the fields and puts every numerator over a multiple of k
    p = GradedPoly(VARS, terms)
    vars_ = tuple(WIDE[i] for i in order)
    padded = {e + (0, 0): x for e, x in terms.items()}
    junk = tuple((1 << _FIELD) * int(i == len(WIDE) - 1) for i in range(len(WIDE)))
    permute = lambda e: tuple(e[i] for i in order)
    big = GradedPoly(vars_, {permute(junk): rat(1, k)})
    q = GradedPoly(vars_, {permute(e): x for e, x in padded.items()}) + big - big
    assert p == q and q == p
    assert hash(p) == hash(q)
    assert q * k * rat(1, k) == p
    # constants hash like their Fraction, whatever table or width they sit over
    const = constant(c) + big - big
    assert const == c and hash(const) == hash(c)


@settings(max_examples=60)
@given(polys(), narrow_dicts())
def test_terms_round_trip_through_the_checking_constructor(p, wide_terms):
    for poly in (p, p * GradedPoly(VARS, wide_terms)):
        view = poly.terms
        again = GradedPoly(poly.vars, dict(view))
        assert again == poly and again.terms == view
        with pytest.raises(TypeError):
            view[(0,) * len(VARS)] = rat(1)  # a read-only view


# -- truncation -----------------------------------------------------------------


def test_truncate_returns_a_plain_value():
    # polynomials that compare equal give equal products and sums
    p, q = (one() + C1).truncate(1), one() + C1
    assert p == q and hash(p) == hash(q)
    assert p * p == q * q == one() + 2 * C1 + C1 * C1
    assert p + C1 * C1 == q + C1 * C1
    assert (p + C1 * C1).coefficient({("c", 1): 2}) == 1
    assert (one() + C1 + C2).truncate(1) == one() + C1


@pytest.mark.parametrize("exponent", [-1, 1.5, True, False, 2.0, 0.0, "1", None])
def test_coefficient_rejects_bad_exponents(exponent):
    # the checking constructor rejects the same exponents
    p = one() + C1 + C1 * C1
    with pytest.raises(PolyError):
        p.coefficient({("c", 1): exponent})
    with pytest.raises(PolyError):
        GradedPoly((Var("c", 1, 1),), {(exponent,): 1})


def test_coefficient_of_a_monomial_no_term_has_is_zero():
    p = one() + C1 + C1 * C1
    assert p.coefficient({("c", 1): 2}) == 1 and p.coefficient({"c": 0, ("c", 1): 1}) == 1
    assert p.coefficient({}) == p.coefficient({("c", 1): 0}) == 1
    for monomial in ({("c", 1): 3}, {("c", 1): 1 << 70}, {("z", 3): 2}, {("c", 1): 1, "z": 1}):
        assert p.coefficient(monomial) == 0


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


def test_series_inverse_of_geometric_series():
    # 1/(1 - c1 - c2) cut at maxdeg, including the empty cut below degree 0
    for maxdeg in range(-1, 7):
        want = sum(
            ((C1 + C2) ** k for k in range(maxdeg + 1)), zero()
        ).truncate(maxdeg)
        assert series_inverse(one() - C1 - C2, maxdeg) == want


@pytest.mark.parametrize(
    "make",
    [
        lambda: series_quotient([one_plus(C1), 2 + C2], [one_plus(ALPHA)], 3),
        lambda: series_quotient([one_plus(C1)], [one_plus(ALPHA), rat(1, 2) + C2], 3),
        lambda: series_quotient([], [-one() + C3], 0),
        lambda: series_inverse(ALPHA, 2),
        lambda: series_inverse(zero(), 2),
        lambda: series_inverse(rat(3, 2) + rat(1, 2) * C2, 4),
    ],
    ids=["numerator-constant-2", "denominator-constant-1/2",
         "denominator-constant--1", "inverse-no-constant", "inverse-zero", "inverse-constant-3/2"],
)
def test_series_factors_require_unit_constant_term(make):
    with pytest.raises(PolyError):
        make()


def test_series_quotient_requires_unit_constant_term():
    with pytest.raises(PolyError):
        series_quotient([ALPHA], [], 3)


def test_series_inverse_with_rational_coefficients():
    # 1/(1 - x) = sum x^k for x = c2/2, -2 c3/3 and alpha/3 + c2/5
    for maxdeg in range(-1, 9):
        for x in (rat(1, 2) * C2, rat(-2, 3) * C3, rat(1, 3) * ALPHA + rat(1, 5) * C2):
            want = sum((x ** k for k in range(maxdeg + 1)), zero()).truncate(maxdeg)
            assert series_inverse(one() - x, maxdeg) == want
    assert series_inverse(one_plus(rat(1, 2) * C2), 4) == one() - rat(1, 2) * C2 + rat(1, 4) * C2 * C2


weighted_monomials = st.sampled_from([ALPHA, BETA, C2, C3, ALPHA * C2, C1 * C3])
rational_forms = st.lists(
    st.tuples(coeffs, weighted_monomials), min_size=1, max_size=3
).map(lambda pairs: sum((c * m for c, m in pairs), zero()))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(rational_forms, max_size=3),
    st.lists(rational_forms, min_size=1, max_size=3),
    st.integers(-1, 6),
)
def test_series_quotient_defining_identity(num, den, maxdeg):
    # rational coefficients put the denominator over some D != 1, and the
    # weights 2 and 3 leave degrees of the quotient without terms
    numer, denom = [one_plus(w) for w in num], [one_plus(w) for w in den]
    q = series_quotient(numer, denom, maxdeg)
    assert q.weighted_degree() is None or q.weighted_degree() <= maxdeg
    g = reduce(mul, denom)
    assert (q * g).truncate(maxdeg) == reduce(mul, numer, one()).truncate(maxdeg)
    assert (series_inverse(g, maxdeg) * g).truncate(maxdeg) == one().truncate(maxdeg)


linear_forms = st.lists(
    st.tuples(st.sampled_from(["alpha", "beta"]), st.integers(-3, 3)),
    min_size=1,
    max_size=2,
).map(
    lambda pairs: sum(
        (root_var(f, 1 if f == "beta" else 0) * c for f, c in pairs), zero()
    )
)


@settings(max_examples=25)
@given(
    st.lists(linear_forms, max_size=3),
    st.lists(linear_forms, max_size=3),
    st.integers(1, 4),
)
def test_series_quotient_inverse_property(num, den, maxdeg):
    f = series_quotient([one_plus(w) for w in num], [one_plus(w) for w in den], maxdeg)
    g = series_quotient([one_plus(w) for w in den], [one_plus(w) for w in num], maxdeg)
    assert (f * g).truncate(maxdeg) == one()


# -- substitution ----------------------------------------------------------------


@settings(max_examples=40)
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


def test_chern_substitute_reads_graded_parts():
    # c evaluated at (1+alpha)(1+beta): c1 -> alpha+beta, c2 -> alpha*beta
    series = one_plus(ALPHA) * one_plus(BETA)
    p = C1 * C1 - 2 * C2
    got = chern_substitute(p, series)
    want = (ALPHA + BETA) ** 2 - 2 * ALPHA * BETA
    assert got == want


# -- Schur determinants ------------------------------------------------------------


@pytest.mark.parametrize("exponent", [2.0, "2", -1])
def test_pow_rejects_non_int_exponent(exponent):
    with pytest.raises(PolyError):
        variable("x") ** exponent


def test_schur2_examples():
    assert schur_det(1, 1) == C1 * C1 - C2
    assert schur_det(2, 2) == C2 * C2 - C1 * C3


def test_schur3_examples():
    assert schur_det(1, 1, 1) == C1 ** 3 - 2 * C1 * C2 + C3
    assert schur_det(2, 1, 0) == schur_det(2, 1)
    assert schur_det(3, 3, 0) == schur_det(3, 3)


def test_schur3_negative_bottom_row_vanishes():
    assert schur_det(3, 2, -1).is_zero()
    assert schur_det(5, 4, -2).is_zero()


@settings(max_examples=20)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_schur3_homogeneous(i, j, k):
    s = schur_det(i, j, k)
    if not s.is_zero():
        assert s.is_homogeneous()
        assert s.weighted_degree() == i + j + k


def test_schur_det_without_rows_and_with_one_row():
    assert schur_det() == 1
    for i in range(-2, 5):
        assert schur_det(i) == cvar(i)


_C_SYMBOLS = sympy.symbols("c1:12")


def _c_symbol(i):
    return 0 if i < 0 else 1 if i == 0 else _C_SYMBOLS[i - 1]


def _as_sympy(p):
    total = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for v, e in zip(p.vars, exps):
            term *= _C_SYMBOLS[v.index - 1] ** e
        total += term
    return sympy.expand(total)


def test_schur_det_matches_sympy_determinant():
    # rows r, columns s: entry c_{parts[r]+s-r}, with c_0 = 1 and c_{<0} = 0;
    # two and three rows in -2..7 cover the parts s(1+i, 2, 1-i) of the
    # III_{2,2}A_0 residue after its shift
    rows = [itertools.product(range(-2, 8), repeat=n) for n in (2, 3)]
    for parts in itertools.chain(*rows, itertools.product(range(-1, 3), repeat=4)):
        n = len(parts)
        matrix = sympy.Matrix(n, n, lambda r, s: _c_symbol(parts[r] + s - r))
        assert _as_sympy(schur_det(*parts)) == sympy.expand(matrix.det()), parts


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


@settings(max_examples=60)
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


@settings(max_examples=40)
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


_JSON_VARS = [{"family": "c", "index": 1, "weight": 1}, {"family": "c", "index": 2, "weight": 2}]


@pytest.mark.parametrize(
    "text",
    [json.dumps(payload) for payload in [
        [],
        "c1",
        {"terms": []},
        {"vars": _JSON_VARS},
        {"vars": [{"family": "c", "index": 1, "weight": "1"}], "terms": []},
        {"vars": [{"family": "c", "index": 1, "weight": 1.0}], "terms": []},
        {"vars": [{"family": "c", "index": 1}], "terms": []},
        {"vars": _JSON_VARS, "terms": [{"coeff": "1/1", "exps": [[0, -2]]}]},
        {"vars": _JSON_VARS, "terms": [{"coeff": "1/1", "exps": [[0, 1.5]]}]},
        {"vars": _JSON_VARS, "terms": [{"coeff": "1/1", "exps": [[0, 1], [0, 2]]}]},
        {"vars": _JSON_VARS, "terms": [{"coeff": "1/1", "exps": [[1, 1]]},
                                       {"coeff": "2/1", "exps": [[1, 1]]}]},
        {"vars": _JSON_VARS, "terms": [{"coeff": "1/1", "exps": [[0]]}]},
        {"vars": _JSON_VARS, "terms": [{"exps": [[0, 1]]}]},
        {"vars": [{"family": "c", "index": 1, "weight": 0}], "terms": []},
        {"vars": [{"family": "c", "index": 1, "weight": -2}], "terms": []},
        {"vars": _JSON_VARS, "terms": [{"coeff": True, "exps": [[0, 1]]}]},
    ]] + ['{"vars": ', "[" * 100000 + "]" * 100000, None, 3],
    ids=["list", "string", "no-vars", "no-terms", "string-weight", "float-weight",
         "no-weight", "negative-exponent", "float-exponent", "repeated-ref",
         "repeated-monomial", "short-pair", "no-coeff", "zero-weight",
         "negative-weight", "bool-coeff", "unparsable", "too-deep", "none", "int"],
)
def test_json_rejects_malformed_payload(text):
    with pytest.raises(PolyError):
        from_json(text)


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
    assert to_latex(schur_det(1, 1)) == "c_1^2 - c_2"


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


# A Fraction-based reference for to_text, to_latex and to_json_dict: each
# coefficient a Fraction read from the terms view, the canonical order taken
# from the exponent tuples, and the signed sum rendered on the Fractions.

RENDER_VARS = (
    Var("alpha", 0, 1), Var("beta", 12, 1), Var("c", 1, 1), Var("c", 2, 2), Var("d", 3, 3)
)


def _reference_terms(p):
    p = p.compress()

    def order(term):
        exps = term[0]
        return sum(e * v.weight for e, v in zip(exps, p.vars)), [-e for e in exps]

    return p.vars, sorted(p.terms.items(), key=order)


def _reference_render(p, namer, times):
    vars_, order = _reference_terms(p)
    out = []
    for exps, coeff in order:
        factors = []
        for v, e in zip(vars_, exps):
            if e:
                name = namer(v)
                factors.append(name if e == 1 else f"{name}^{e}" if e < 10 else f"{name}^{{{e}}}")
        body = times.join(factors)
        mag = abs(coeff)
        mag_s = "" if mag == 1 and body else str(mag)
        piece = f"{mag_s}{times}{body}" if mag_s and body else mag_s or body
        if out:
            out.append(f" {'-' if coeff < 0 else '+'} {piece}")
        else:
            out.append(f"-{piece}" if coeff < 0 else piece)
    return "".join(out) or "0"


def _reference_json(p):
    vars_, order = _reference_terms(p)
    return {
        "vars": [{"family": v.family, "index": v.index, "weight": v.weight} for v in vars_],
        "terms": [{"coeff": f"{c.numerator}/{c.denominator}",
                   "exps": [[i, e] for i, e in enumerate(exps) if e]} for exps, c in order],
    }


@st.composite
def rendered_polys(draw):
    """Polynomials whose terms are numerators over one den in 1..12, some of
    them multiples of den (terms that reduce to +-1 or an integer while the
    polynomial keeps a den above 1), with exponents up to 12."""
    den = draw(st.integers(1, 12))
    numerator = st.one_of(st.integers(-30, 30), st.sampled_from([-2, -1, 1, 2]).map(den.__mul__))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 12) for _ in RENDER_VARS]), numerator, max_size=6))
    return GradedPoly(RENDER_VARS, {exps: rat(c, den) for exps, c in terms.items()})


@settings(max_examples=150)
@given(rendered_polys())
@example(zero())
@example(one())
@example(-rat(1, 2) * C1 + C1 * C2 - 3 * C3)  # a unit and an integer over den 2
@example(rat(5, 6) - root_var("beta", 12) ** 11 * ALPHA + 2 * C2 ** 10)
def test_rendering_on_int_numerators_matches_the_fraction_reference(p):
    assert to_text(p) == _reference_render(p, poly._var_text, "*")
    assert to_latex(p) == _reference_render(p, poly._var_latex, "")
    assert to_json_dict(p) == _reference_json(p)


def test_rendering_elides_units_that_reduce_over_a_larger_den():
    p = C1 * C2 + rat(1, 2) * C3 - 4 * C1
    assert p.den == 2
    assert to_text(p) == "-4*c1 + c1*c2 + 1/2*c3"
    assert to_latex(p) == "-4c_1 + c_1c_2 + 1/2c_3"
    assert [t["coeff"] for t in to_json_dict(p)["terms"]] == ["-4/1", "1/1", "1/2"]


# -- one-pass products of int factors --------------------------------------------------------


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), max_size=4),
       st.lists(exponent_vectors, min_size=4, max_size=4, unique=True))
def test_int_product_matches_the_product_of_checked_factors(factors, monomials):
    got = int_product(VARS, monomials, factors)
    expected = reduce(mul, (GradedPoly(VARS, dict(zip(monomials, f))) for f in factors), one())
    assert got == expected
    assert got.den == 1 and all(got.nums.values())


def test_int_product_of_nothing_is_one_and_of_a_zero_factor_zero():
    assert int_product(VARS, [], []) == one()
    assert int_product(VARS, [(1, 0, 0, 0)], [[2], [0]]).is_zero()


def test_int_product_sorts_its_table_as_the_checking_constructor_does():
    table = (VARS[3], VARS[0])  # c2 before alpha
    got = int_product(table, [(1, 2), (0, 1)], [[3, -1], [1, 1]])
    assert got.vars == (VARS[0], VARS[3])
    left, right = GradedPoly(table, {(1, 2): 3, (0, 1): -1}), GradedPoly(table, {(1, 2): 1, (0, 1): 1})
    assert got == left * right


@pytest.mark.parametrize("vars_, monomials, factors", [
    ((VARS[0], VARS[0]), [(1, 0)], [[1]]),  # a repeated variable
    ((VARS[0], Var("alpha", 0, 2)), [(1, 0)], [[1]]),  # one variable with two weights
    (VARS, [(1, 0, 0)], [[1]]),  # a monomial of the wrong length
    (VARS, [(1, 0, -1, 0)], [[1]]),  # a negative exponent
    (VARS, [(1, 0, True, 0)], [[1]]),  # a bool exponent
    (VARS, [[1, 0, 0, 0]], [[1]]),  # a monomial that is not a tuple
    (VARS, [(1, 0, 0, 0)], [[1, 2]]),  # a factor of the wrong length
    (VARS, [(1, 0, 0, 0)], [[rat(1, 2)]]),  # a coefficient that is not an int
    (VARS, [(1, 0, 0, 0)], [[True]]),  # a bool coefficient
])
def test_int_product_rejects_malformed_input(vars_, monomials, factors):
    with pytest.raises(PolyError):
        int_product(vars_, monomials, factors)
