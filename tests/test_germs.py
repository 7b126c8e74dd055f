"""Germ prototypes, Euler quotients, and the verification suites."""

import ast
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from multising import germs, poly, thom
from multising.germs import (
    GermPrototype,
    UnsupportedPrototype,
    blowup_control_report,
    chern_total,
    factorization_check,
    germ_A,
    germ_I22,
    germ_III22,
    germ_blowup,
    multiple_point_class,
    n1,
    stable_germ,
    verify_III22A0,
    verify_divisibility,
    verify_divisibility_suite,
    verify_quadruple,
    verify_tpA1,
)
from multising.poly import (
    GradedPoly,
    NonExactDivision,
    PolyError,
    chern_substitute,
    cvar,
    dvar,
    one,
    one_plus,
    rat,
    root_var,
    series_quotient,
    substitute,
    to_json_dict,
    variable,
    zero,
)
from multising.multipoint import (
    MultiSingularity,
    SourceTerm,
    a0_partition_coefficients,
    emit_quadruple_formula,
    expand_m,
)
from multising.thom import (
    a_coeff,
    a_triangle,
    multisingularity_codim,
    residue,
    residue_A0r,
    residue_III22A0,
    singularity_info,
    thom_polynomial,
)

ALPHA = root_var("alpha")
A1_ = root_var("alpha", 1)
A2_ = root_var("alpha", 2)
E1 = variable("e", 1, weight=1)
E2 = variable("e", 2, weight=2)


def _beta(i):
    return root_var("beta", i)


# -- prototypes and Chern classes ----------------------------------------------------


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_chern_total_A1_closed_form(ell):
    maxdeg = ell + 2
    got = chern_total(germ_A(1, ell), maxdeg)
    want = series_quotient(
        [one_plus(2 * ALPHA)] + [one_plus(_beta(i)) for i in range(1, ell + 1)],
        [one_plus(ALPHA)],
        maxdeg,
    )
    assert got == want


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_chern_total_A3_closed_form(ell):
    maxdeg = 3 * ell
    got = chern_total(germ_A(3, ell), maxdeg)
    want = series_quotient(
        [one_plus(4 * ALPHA)] + [one_plus(_beta(i)) for i in range(1, ell + 1)],
        [one_plus(ALPHA)],
        maxdeg,
    )
    assert got == want


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_chern_total_III22_closed_form(ell):
    maxdeg = 2 * ell + 2
    got = chern_total(germ_III22(ell), maxdeg)
    want = series_quotient(
        [one_plus(2 * A1_), one_plus(2 * A2_), one_plus(A1_ + A2_)]
        + [one_plus(_beta(i)) for i in range(1, ell)],
        [one_plus(A1_), one_plus(A2_)],
        maxdeg,
    )
    assert got == want


def test_weight_count_invariant_enforced():
    with pytest.raises(PolyError):
        GermPrototype(
            name="bad",
            ell=2,
            delta=2,
            source_weights=(ALPHA,),
            target_weights=(2 * ALPHA,),
        )


@pytest.mark.parametrize(
    "form, lone",
    [
        (_beta(1), True),
        (_beta(7), True),
        (root_var("beta"), True),
        (_beta(2) + ALPHA - ALPHA, True),  # over a wider table
        (-_beta(1), False),
        (2 * _beta(1), False),
        (rat(1, 2) * _beta(1), False),
        (_beta(1) ** 2, False),
        (_beta(1) + ALPHA, False),
        (_beta(1) + 1, False),
        (ALPHA, False),
        (variable("beta", 1, weight=2), False),
        (variable("gamma", 1), False),
        (one(), False),
        (zero(), False),
    ],
)
def test_is_lone_beta_matches_comparison_with_root_var(form, lone):
    # the packed test agrees with building beta_i and comparing
    used = form.used_vars()
    assert (len(used) == 1 and form == root_var("beta", used[0].index)) == lone
    assert germs._is_lone_beta(form) == lone


def test_stable_germ_factory():
    assert stable_germ("A2", 3).name == "A2"
    assert stable_germ("A5", 1) == germ_A(5, 1)
    assert stable_germ("III22", 1).delta == 3
    for ell in (0, 1, 3):
        assert stable_germ("I22", ell) == germ_I22(ell)
    assert stable_germ("blowup", 0).name == "blowup"
    for name in ("A0", "D4", "A01", ["A1"]):
        with pytest.raises(UnsupportedPrototype):
            stable_germ(name, 1)
    for ell in (5, "x"):
        with pytest.raises(PolyError):
            stable_germ("blowup", ell)


# -- Euler quotients ---------------------------------------------------------------------


@pytest.mark.parametrize("k,scalar", [(1, 2), (2, 3), (3, 4)])
@pytest.mark.parametrize("ell", [1, 2])
def test_n1_A_germs(k, scalar, ell):
    expected = one() * scalar
    for i in range(1, ell + 1):
        expected = expected * _beta(i)
    assert n1(germ_A(k, ell)) == expected


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_n1_III22(ell):
    expected = 4 * (A1_ + A2_)
    for i in range(1, ell):
        expected = expected * _beta(i)
    got = n1(germ_III22(ell))
    assert got == expected
    assert got.is_homogeneous() and got.weighted_degree() == ell


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_n1_I22(ell):
    # n_1 = 4 beta_1 ... beta_ell: dividing out every beta_i leaves exactly 4
    betas = [_beta(i) for i in range(1, ell + 1)]
    assert poly.exact_quotient(n1(germ_I22(ell)), betas) == 4 * one()
    assert germ_I22(ell).n1_factors == tuple(betas)


def test_n1_whitney_umbrella():
    assert n1(germ_A(1, 1)) == 2 * _beta(1)


def test_n1_blowup_fails():
    with pytest.raises(NonExactDivision):
        n1(germ_blowup())


def _copies(weights):
    """Equal forms that are new objects, so no weight matches one of another list by identity."""
    return tuple(GradedPoly(w.vars, dict(w.terms)) for w in weights)


@pytest.mark.parametrize("make", [lambda: germ_A(3, 2), lambda: germ_III22(3)], ids=["A3", "III22"])
def test_a_weight_on_both_sides_is_refused(make):
    # a prototype holds the weights of its normal bundle, so no weight is on
    # both sides, neither as one shared instance nor as an equal copy
    germ = make()
    shared = germ.source_weights[0]
    for twin in (shared, *_copies((shared,))):
        with pytest.raises(PolyError, match="on both sides"):
            germ.replace(source_weights=germ.source_weights + (twin,),
                         target_weights=germ.target_weights + (twin,))


def test_prototypes_list_no_weight_on_both_sides():
    for germ in (germ_A(1, 0), germ_A(3, 4), germ_III22(1), germ_III22(4), germ_I22(0),
                 germ_I22(3), germ_blowup()):
        assert not any(w == v for w in germ.target_weights for v in germ.source_weights)
    assert germ_blowup().source_weights == (_beta(1),)
    assert germ_blowup().target_weights == (ALPHA + _beta(1),)


def test_blowup_control_report():
    report = blowup_control_report()
    assert report.ok
    assert "fails as required" in report.checks[0].detail


def test_blowup_control_fails_when_the_euler_quotient_is_polynomial(monkeypatch):
    monkeypatch.setattr(germs, "germ_blowup", lambda: germ_A(1, 1))
    report = blowup_control_report()
    assert not report.ok
    assert report.checks[0].detail == "Euler quotient unexpectedly polynomial"


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_quadruple(True),
        lambda: verify_quadruple(1.0),
        lambda: verify_divisibility_suite(1.5),
        lambda: verify_tpA1(True),
        lambda: verify_III22A0(1.0),
        lambda: emit_quadruple_formula(True),
        lambda: germ_A(True, 1),
        lambda: germ_A(1, True),
        lambda: germ_III22(2.0),
        lambda: multisingularity_codim(("A0",) * 4, 1.5),
        lambda: residue_A0r(4, 1.5),
        lambda: residue_A0r(4.0, 1),
        lambda: thom_polynomial(2, 1.5),
        lambda: residue("A0^4", "2"),
        lambda: residue("III22A0", True),
        lambda: verify_divisibility(germ_A(2, 2), "2"),
        lambda: multiple_point_class(germ_A(2, 2), "x"),
        lambda: stable_germ(["A1"], 1),
        lambda: factorization_check(1, ("3", 3, 0)),
        lambda: series_quotient([one()], [], 2.5),
        lambda: chern_total(germ_A(2, 2), 2.5),
        lambda: factorization_check(1, (3, 3)),
        lambda: MultiSingularity(("A0", "A1", 5)),
        lambda: singularity_info(["A0"]),
        lambda: a_triangle(1.5),
        lambda: a0_partition_coefficients(1.5),
        lambda: a_coeff(True, 0),
        lambda: a_coeff(-1, 2.5),
        lambda: MultiSingularity(5),
        lambda: verify_divisibility("A1", 2),
        lambda: n1(None),
        lambda: n1("A1"),
        lambda: chern_total(None, 2),
        lambda: multiple_point_class(None, 2),
        lambda: GermPrototype("A1", 0, "q", (ALPHA,), (2 * ALPHA,)),
        lambda: GermPrototype("A1", "1", 2, (ALPHA,), (2 * ALPHA, _beta(1))),
        lambda: GermPrototype("A1", 1.0, 2, (ALPHA,), (2 * ALPHA, _beta(1))),
        lambda: expand_m("A0^4", 1),
        lambda: expand_m(MultiSingularity(("A0",) * 2), 1).coefficient_of(5),
        lambda: multisingularity_codim((), 5),
        lambda: multisingularity_codim((), True),
        lambda: multisingularity_codim("A0A1", 1),
        lambda: GermPrototype(5, 0, 2, (ALPHA,), (2 * ALPHA,)),
        lambda: GermPrototype("A1", 0, 2, [ALPHA], [2 * ALPHA]),
        lambda: GermPrototype("A1", 0, 2, (ALPHA,), (2 * ALPHA, 5)),
        lambda: germ_A(1, 1).replace(n1_scalar=True),
        lambda: germ_A(1, 1).replace(n1_scalar=2.0),
        lambda: germ_A(1, 1).replace(n1_factors=(zero(),)),
        lambda: germ_A(1, 1).replace(n1_factors=(one(),)),
        lambda: germ_A(1, 1).replace(n1_factors=(5,)),
        lambda: germ_A(1, 1).replace(n1_factors=(_beta(1) ** 2,)),
        lambda: germ_A(1, 1).replace(n1_factors=(_beta(1) + 1,)),
        lambda: germ_A(1, 1).replace(n1_factors=[_beta(1)]),
        lambda: GermPrototype("A1", 1, 2, (ALPHA,), (2 * ALPHA ** 2, _beta(1))),
        lambda: GermPrototype("A1", 1, 2, (ALPHA,), (zero(), _beta(1))),
        lambda: GermPrototype("A1", 1, 2, (one(),), (2 * ALPHA, _beta(1))),
        lambda: GermPrototype("A1", 1, 2, (ALPHA,), (2 * ALPHA, _beta(1) + 1)),
        lambda: GermPrototype("A1", 1, 2, (ALPHA,), (2 * ALPHA, cvar(2))),
        lambda: germ_I22(True),
        lambda: germ_I22(2.0),
        lambda: germ_I22(-1),
        lambda: factorization_check(0, (2, 2, 0)),
        lambda: multisingularity_codim(("A0",), None),
        lambda: MultiSingularity(("A0", "A1")).codim(None),
        lambda: SourceTerm(one(), ("A0",)).fn_degree(None),
    ],
    ids=[
        "verify_quadruple-bool", "verify_quadruple-float", "divisibility-float",
        "tpA1-bool", "III22A0-float", "quadruple_formula-bool", "germ_A-bool-k",
        "germ_A-bool-ell", "germ_III22-float", "codim-float", "residue_A0r-float-ell",
        "residue_A0r-float-r", "thom_polynomial-float", "residue-str-ell",
        "residue-bool-ell", "divisibility-str-r", "multiple_point_class-str-r",
        "stable_germ-list-name", "factorization-str-index", "series_quotient-float-maxdeg",
        "chern_total-float-maxdeg", "factorization-pair", "multisingularity-int-part",
        "singularity_info-list-name", "a_triangle-float", "a0_partitions-float",
        "a_coeff-bool", "a_coeff-negative-and-float", "multisingularity-int",
        "divisibility-str-germ", "n1-none", "n1-str", "chern_total-none",
        "multiple_point_class-none", "prototype-str-delta", "prototype-str-ell",
        "prototype-float-ell", "expand_m-str-multi",
        "coefficient_of-int", "codim-empty", "codim-empty-bool-ell", "codim-str",
        "prototype-int-name", "prototype-list-weights", "prototype-int-weight",
        "prototype-bool-scalar", "prototype-float-scalar", "prototype-zero-factor",
        "prototype-constant-factor", "prototype-int-factor", "prototype-quadratic-factor",
        "prototype-inhomogeneous-factor", "prototype-list-factors",
        "prototype-quadratic-weight", "prototype-zero-weight", "prototype-constant-weight",
        "prototype-inhomogeneous-weight", "prototype-weight-2-variable",
        "germ_I22-bool", "germ_I22-float", "germ_I22-negative", "factorization-ell-0",
        "codim-none", "multisingularity-codim-none", "fn_degree-none",
    ],
)
def test_non_int_arguments_raise_poly_error(call):
    with pytest.raises(PolyError):
        call()


# -- multiple point classes ------------------------------------------------------------------


def test_m4_zero_below_multiplicity():
    assert multiple_point_class(germ_A(1, 2), 4).is_zero()
    assert multiple_point_class(germ_A(2, 1), 4).is_zero()
    assert multiple_point_class(germ_III22(2), 4).is_zero()


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_m4_A3_product(ell):
    expected = one()
    for i in range(1, ell + 1):
        b = _beta(i)
        expected = expected * (b - ALPHA) * (b - 2 * ALPHA) * (b - 3 * ALPHA)
    got = multiple_point_class(germ_A(3, ell), 4)
    assert got == expected
    assert got.is_homogeneous() and got.weighted_degree() == 3 * ell


def test_multiple_point_class_at_delta():
    assert multiple_point_class(germ_A(1, 2), 2) == (_beta(1) - ALPHA) * (
        _beta(2) - ALPHA
    )
    with pytest.raises(UnsupportedPrototype):
        multiple_point_class(germ_A(3, 1), 2)  # below delta, undocumented
    with pytest.raises(UnsupportedPrototype):
        multiple_point_class(germ_III22(1), 3)


# -- quadruple point suite ----------------------------------------------------------------------


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_verify_quadruple(ell):
    report = verify_quadruple(ell)
    assert report.ok, report.to_json_dict()
    assert [c.name for c in report.checks] == ["q1", "q2", "q3", "q4"]


def test_verify_quadruple_q3_degenerate_value():
    # for ell=1 the residue does not vanish on the ell=1 III22 germ but is
    # divisible by alpha_1 + alpha_2
    value = chern_substitute(
        residue_A0r(4, 1), chern_total(germ_III22(1), 4)
    )
    e1 = A1_ + A2_
    e2 = A1_ * A2_
    assert value == -48 * e1 ** 3 - 96 * e1 * e2
    assert not value.is_zero()
    assert substitute(value, {("alpha", 2): -A1_}).is_zero()


def test_verify_quadruple_rejects_ell_zero():
    with pytest.raises(PolyError):
        verify_quadruple(0)


# -- divisibility suite ---------------------------------------------------------------------------


def test_whitney_divisibility_difference():
    germ = germ_A(1, 1)
    m2 = multiple_point_class(germ, 2)
    substituted = chern_substitute(residue_A0r(2, 1), chern_total(germ, 1))
    assert m2 - substituted == 2 * _beta(1)  # the difference IS n_1
    report = verify_divisibility(germ, 2)
    assert report.ok


@pytest.mark.parametrize(
    "name,r", [("A1", 2), ("A2", 3), ("A3", 4), ("A1", 4), ("III22", 4)]
)
@pytest.mark.parametrize("ell", [1, 2])
def test_divisibility_battery(name, r, ell):
    report = verify_divisibility(stable_germ(name, ell), r)
    assert report.ok, report.to_json_dict()


def _case_checks(ell):
    """The checks of verify_divisibility on each case of the battery, named
    as the suite names them."""
    return tuple(
        c.replace(name=f"{name}-r{r}-{c.name}")
        for name, r in germs._DIVISIBILITY_CASES
        for c in verify_divisibility(stable_germ(name, ell), r).checks
    )


def test_divisibility_suite_aggregates(monkeypatch):
    # the suite shares each germ's pieces and each killed value among its
    # cases, and reports the per-case checks name for name, with every
    # failing residual of a wrong residue too
    report = verify_divisibility_suite(1)
    assert report.ok
    assert any(c.name.startswith("III22-r4") for c in report.checks)
    for ell in range(1, 7):
        assert verify_divisibility_suite(ell).checks == _case_checks(ell), ell
    _perturbed(monkeypatch, lambda r, ell: cvar((r - 1) * ell))
    for ell in range(1, 7):
        checks = verify_divisibility_suite(ell).checks
        # each of the 5 ell factor checks fails but III22's at ell = 1 (see
        # test_perturbed_divisibility_residuals_match_explicit_roots)
        assert sum(not c.holds for c in checks) == 5 * ell - (ell == 1), ell
        assert checks == _case_checks(ell), ell


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_divisibility_suite_builds_each_germ_once(monkeypatch, ell):
    # one prototype, n_1, genotype and series per distinct germ: A1 serves
    # r = 2 and r = 4 on a series reserved at 3 ell.  One substitution per
    # killing assignment: d_m -> 0 on each genotype, whatever its m roots,
    # and e_1 -> 0 on III22, which has no beta root at ell = 1
    calls = dict.fromkeys(("stable_germ", "n1", "_genotype", "series_quotient", "substitute"), 0)

    def counting(name, fn):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or fn(*args)

    for name in calls:
        monkeypatch.setattr(germs, name, counting(name, getattr(germs, name)))
    assert verify_divisibility_suite(ell).ok
    kills = 6 if ell >= 2 else 5
    assert calls == {"stable_germ": 4, "n1": 4, "_genotype": 4, "series_quotient": 4,
                     "substitute": kills}


# -- the explicit-root oracle -----------------------------------------------------------------
#
# The suites work in the genotype basis Q[alpha, d_1..d_m] or Q[e_1, e_2, d_1..d_m].
# The oracle below works in the explicit beta roots instead: every prototype's
# Chern class is the series in its roots (chern_total), m_r is the product of
# the weight differences beta_i - s alpha, and each n_1 factor is killed by
# solving it for its last variable.  The two paths must agree check by check,
# on the holding flag and on every residual, which the suites report in the
# genotype basis and _in_roots maps back to the oracle's coordinates.


def _explicit_m(k, count):
    total = one()
    for i in range(1, count + 1):
        for s in range(1, k + 1):
            total = total * (_beta(i) - s * ALPHA)
    return total


def _kill(form):
    """{last variable: image} solving the linear form for its last variable."""
    form = form.compress()
    last = form.vars[-1]
    coeff = form.coefficient({(last.family, last.index): 1})
    rest = form - root_var(last.family, last.index) * coeff
    return {(last.family, last.index): -rest * (1 / coeff)}


def _explicit_quadruple(ell, residue):
    maxdeg = 3 * ell

    def on(germ, degree=maxdeg):
        return chern_substitute(residue, chern_total(germ, degree))

    values = [on(germ_A(k, ell - 1)) for k in (1, 2)]
    if ell >= 2:
        values.append(on(germ_III22(ell - 1)))
    else:
        values.append(substitute(on(germ_III22(1), maxdeg + 1), _kill(A1_ + A2_)))
    values.append(on(germ_A(3, ell - 1)) + 36 * ALPHA ** 3 * _explicit_m(3, ell - 1))
    return [(f"q{i}", v.is_zero(), None if v.is_zero() else v) for i, v in enumerate(values, 1)]


def _explicit_divisibility(germ, r, residue):
    k = germ.delta - 1
    m_class = _explicit_m(k, germ.ell) if r == germ.delta else zero()
    substituted = chern_substitute(
        residue * rat(1, math.factorial(r - 1)), chern_total(germ, (r - 1) * germ.ell)
    )
    difference = m_class - substituted
    out = []
    for f in germ.n1_factors:
        value = substitute(difference, _kill(f))
        out.append((value.is_zero(), None if value.is_zero() else value))
    return out


def _elementary(betas):
    """d_j -> e_j(betas) for j = 1..len(betas)."""
    total = math.prod((one_plus(b) for b in betas), start=one())
    return {("d", j): total.homogeneous_part(j) for j in range(1, len(betas) + 1)}


def _in_roots(genotype, factor, residual):
    """A suite residual in the genotype basis mapped back to the oracle's roots.

    An identity row maps through genotype.roots.  A factor row's residual is
    already killed, and e_1, e_2 map to alpha_1 + alpha_2, alpha_1 alpha_2 as
    in a row: for a lone beta_i (d_m -> 0) the d_j become e_j of the other
    m - 1 roots, and for alpha_1 + alpha_2 (e_1 -> 0, where the oracle sets
    alpha_2 -> -alpha_1) e_2 becomes -alpha_1^2.
    """
    if residual is None:
        return None
    if factor is None:
        return genotype.roots(residual)
    images = {("e", 1): A1_ + A2_, ("e", 2): A1_ * A2_}
    images.update(_elementary([b for b in genotype.betas if b != factor]))
    if genotype.killing(factor) == {("e", 1): 0}:
        images[("e", 2)] = -A1_ ** 2
    return substitute(residual, images)


def _summary(checks, equations):
    """(name, holds, residual in roots) of each check against its table row."""
    return [
        (c.name, c.holds, _in_roots(genotype, factor, c.residual))
        for c, (_, genotype, _, factor, _) in zip(checks, equations, strict=True)
    ]


def _factor_summary(germ, report):
    """(holds, residual in roots) of each n_1 factor check of a divisibility report."""
    genotype = germs._genotype(germ)
    return [
        (c.holds, _in_roots(genotype, factor, c.residual))
        for c, factor in zip(report.checks[1:], germ.n1_factors, strict=True)
    ]


def _perturbed(monkeypatch, extra):
    """Make the suites read residue_A0r(r, ell) + extra(r, ell)."""
    exact = germs.residue_A0r
    monkeypatch.setattr(germs, "residue_A0r", lambda r, ell: exact(r, ell) + extra(r, ell))


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_quadruple_matches_explicit_roots(ell):
    report = verify_quadruple(ell)
    got = _summary(report.checks, germs._quadruple_equations(ell))
    assert got == _explicit_quadruple(ell, residue_A0r(4, ell))


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_divisibility_matches_explicit_roots(ell):
    for name, r in (("A1", 2), ("A2", 3), ("A3", 4), ("A1", 4), ("III22", 4)):
        germ = stable_germ(name, ell)
        got = _factor_summary(germ, verify_divisibility(germ, r))
        assert got == _explicit_divisibility(germ, r, residue_A0r(r, ell)), (name, r)


def test_divisibility_refuses_a_mixed_factor_and_kills_alpha_in_alpha_coordinates():
    # beta_1 - alpha mixes beta with alpha and has no killing assignment; a
    # beta-free factor in alpha coordinates is solved for alpha, and the
    # difference -9 alpha beta_1 vanishes under alpha -> 0
    germ = germ_A(2, 1).replace(n1_factors=(ALPHA, _beta(1) - ALPHA))
    with pytest.raises(UnsupportedPrototype):
        verify_divisibility(germ, 3)
    germ = germ.replace(n1_factors=(ALPHA, _beta(1)))
    assert germs._genotype(germ).killing(ALPHA) == {("alpha", 0): 0}
    want = _explicit_divisibility(germ, 3, residue_A0r(3, 1))
    assert want == [(True, None), (True, None)]
    assert _factor_summary(germ, verify_divisibility(germ, 3)) == want


def test_genotype_finds_roots_by_value_as_well_as_identity():
    # a factor equal to a root but not the same object is that root
    germ = germ_A(1, 3)
    genotype, copies = germs._genotype(germ), _copies(germ.n1_factors)
    assert not any(c is b for c in copies for b in genotype.betas)
    assert all(genotype.has_root(c) and genotype.killing(c) == {("d", 3): 0} for c in copies)
    assert not genotype.has_root(_beta(4))
    report = verify_divisibility(germ.replace(n1_factors=copies), 2)
    assert report == verify_divisibility(germ, 2)


PERTURBATIONS = {
    "c1^3l": lambda ell: cvar(1) ** (3 * ell),
    "c3l": lambda ell: cvar(3 * ell),
    "cl*c2l": lambda ell: cvar(ell) * cvar(2 * ell),
    "c2l": lambda ell: cvar(2 * ell),
}


PERTURBED_QUADRUPLES = [
    (kind, ell) for kind in ("c1^3l", "c3l", "cl*c2l") for ell in (1, 2, 4, 6)
] + [("c2l", 1)]


@pytest.mark.parametrize("kind,ell", PERTURBED_QUADRUPLES)
def test_perturbed_quadruple_residue_fails_in_both_paths(monkeypatch, kind, ell):
    extra = PERTURBATIONS[kind](ell)
    explicit = _explicit_quadruple(ell, residue_A0r(4, ell) + extra)
    _perturbed(monkeypatch, lambda r, ell: extra)
    report = verify_quadruple(ell)
    # the ell = 1 q3 passes every odd-weight perturbation: its value is odd in
    # e_1 and vanishes at e_1 = 0
    q3_holds = ell == 1 and kind != "c2l"
    assert [holds for _, holds, _ in explicit] == [False, False, q3_holds, False]
    assert _summary(report.checks, germs._quadruple_equations(ell)) == explicit


@pytest.mark.parametrize("ell", [2, 3])
def test_perturbed_divisibility_residuals_match_explicit_roots(monkeypatch, ell):
    # every factor check fails with a residual in the genotype basis; at ell = 1
    # the III22 class under alpha_2 -> -alpha_1 is even and c_3 vanishes
    extra = lambda r, ell: cvar((r - 1) * ell)  # noqa: E731
    _perturbed(monkeypatch, extra)
    for name, r in (("A1", 2), ("A2", 3), ("A3", 4), ("A1", 4), ("III22", 4)):
        germ = stable_germ(name, ell)
        want = _explicit_divisibility(germ, r, residue_A0r(r, ell) + extra(r, ell))
        assert not any(holds for holds, _ in want), (name, r)
        assert _factor_summary(germ, verify_divisibility(germ, r)) == want, (name, r)


def test_lone_root_check_kills_one_root_only(monkeypatch):
    # on the A1 genotype at ell = 2, c1^2 + c2 is 3 alpha d1 + d1^2 + d2: it
    # vanishes when both roots do but not when one does, so both checks fail;
    # d_2 -> 0 kills either root, and the one residual maps back to each
    # check's own root through the other root
    extra = lambda r, ell: cvar(1) ** 2 + cvar(2)  # noqa: E731
    germ = germ_A(1, 2)
    want = _explicit_divisibility(germ, 2, residue_A0r(2, 2) + extra(2, 2))
    _perturbed(monkeypatch, extra)
    report = verify_divisibility(germ, 2)
    assert [holds for holds, _ in want] == [False, False]
    assert report.checks[1].residual == report.checks[2].residual
    assert _factor_summary(germ, report) == want


def test_suites_read_residue_A0r_through_the_germs_module(monkeypatch):
    calls = []
    exact = germs.residue_A0r

    def counting(r, ell):
        calls.append((r, ell))
        return exact(r, ell)

    monkeypatch.setattr(germs, "residue_A0r", counting)
    assert verify_quadruple(2).ok
    assert verify_divisibility_suite(2).ok
    assert calls == [(4, 2), (2, 2), (3, 2), (4, 2), (4, 2), (4, 2)]


def test_genotype_refuses_weights_that_mix_beta_with_alpha():
    germ = GermPrototype(
        name="A1",
        ell=1,
        delta=2,
        source_weights=(ALPHA,),
        target_weights=(2 * ALPHA, _beta(1) - ALPHA),
    )
    with pytest.raises(UnsupportedPrototype):
        verify_divisibility(germ, 2)
    with pytest.raises(UnsupportedPrototype):
        multiple_point_class(germ, 2)


def test_genotype_refuses_a_source_weight_with_a_beta():
    germ = GermPrototype(
        name="A1",
        ell=1,
        delta=2,
        source_weights=(_beta(1) - ALPHA,),
        target_weights=(2 * ALPHA, _beta(1)),
    )
    with pytest.raises(UnsupportedPrototype, match=r"source weight -alpha \+ beta1 involves a beta"):
        germs._genotype(germ)


def test_genotype_refuses_a_lone_root_twice():
    # the second beta_1 is a different object with the same variable
    germ = GermPrototype("A1", 2, 2, (ALPHA,), (2 * ALPHA, _beta(1), _beta(1) + ALPHA - ALPHA))
    with pytest.raises(UnsupportedPrototype, match="weight beta1 is not a lone beta root"):
        germs._genotype(germ)


# -- beyond the explicit-root frontier ----------------------------------------------------------


def test_quadruple_identities_hold_at_ell_12():
    assert verify_quadruple(12).ok


def test_divisibility_battery_holds_at_ell_10():
    assert verify_divisibility_suite(10).ok


def test_III22A0_and_divisibility_hold_at_ell_8():
    assert verify_III22A0(8).ok
    assert verify_divisibility_suite(8).ok


def _in_genotype_basis(p):
    """p uses only genotype coordinates: alpha, e_1, e_2 and the d_j."""
    return all(
        (v.family, v.index) == ("alpha", 0) or v.family in ("e", "d") for v in p.used_vars()
    )


def test_wrong_residues_fail_without_mapping_back(monkeypatch):
    # a residual mapped back to the roots has exponentially many terms in ell,
    # so a wrong residue must fail in the genotype basis, as fast as a right
    # one passes
    def refuse(genotype, p):
        raise AssertionError("a suite mapped a residual back to the roots")

    monkeypatch.setattr(germs._Genotype, "roots", refuse)
    _perturbed(monkeypatch, lambda r, ell: cvar((r - 1) * ell))
    exact = germs.residue_III22A0
    monkeypatch.setattr(germs, "residue_III22A0", lambda ell: exact(ell) + cvar(ell + 2) ** 2)
    quadruple = verify_quadruple(12)
    assert not any(c.holds for c in quadruple.checks)
    for report in (quadruple, verify_divisibility_suite(9), verify_III22A0(3)):
        failing = [c for c in report.checks if not c.holds]
        assert failing, report.suite
        assert all(_in_genotype_basis(c.residual) for c in failing), report.suite


# -- shared variables and memoised alignment ----------------------------------------------------


def test_shared_values_survive_a_divisibility_pass():
    # _repack hands out a polynomial's own nums when the tables match, so one
    # write in place would corrupt every later user of a shared value
    shared = [one(), zero(), *poly._VARIABLES.values()]
    before = [(p.vars, p.width, dict(p.nums), p.den) for p in shared]
    assert verify_divisibility_suite(3).ok
    assert [(p.vars, p.width, p.nums, p.den) for p in shared] == before
    assert one().nums == {0: 1} and one().den == 1
    assert zero().nums == {} and zero().den == 1


def test_repeated_suites_build_no_variables_and_no_alignments(monkeypatch):
    suites = [lambda: verify_divisibility_suite(3), lambda: verify_quadruple(3)]
    for suite in suites:
        assert suite().ok
    built = []
    check = poly.Var.__post_init__
    monkeypatch.setattr(poly.Var, "__post_init__", lambda v: built.append(v) or check(v))
    caches = (poly._merged_table, poly._moves)
    sizes = [f.cache_info().currsize for f in caches]
    for suite in suites:
        assert suite().ok
    assert built == []
    assert [f.cache_info().currsize for f in caches] == sizes


def test_suites_build_no_checked_polynomial_and_one_root_factor_per_m(monkeypatch):
    # m_r goes through int_product and 1 + d_1 + ... + d_m is built once per
    # m: ell = 1..5 restricts on genotypes of m = 0..5 lone roots
    built = []
    check = poly.GradedPoly.__init__
    monkeypatch.setattr(poly.GradedPoly, "__init__",
                        lambda p, *args: built.append(args) or check(p, *args))
    germs._d_polynomial.cache_clear()
    for ell in range(1, 6):
        assert verify_quadruple(ell).ok
        assert verify_divisibility_suite(ell).ok
    assert built == []
    info = germs._d_polynomial.cache_info()
    assert info.misses == info.currsize == 6 and info.hits > 0
    # every genotype with m lone roots holds the one shared factor
    germs_with_three_roots = (germ_A(1, 3), germ_A(3, 3), germ_III22(4))
    shared = [germs._genotype(g).factors()[0][-1] for g in germs_with_three_roots]
    assert shared[0] is shared[1] is shared[2] is germs._d_polynomial(3)


# -- Thom polynomial of A1 -------------------------------------------------------------------------


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_verify_tpA1(ell):
    assert verify_tpA1(ell).ok


def test_tpA1_explicit_values():
    assert chern_total(germ_A(1, 0), 1).homogeneous_part(1) == ALPHA
    got = chern_total(germ_A(1, 1), 2).homogeneous_part(2)
    assert got == ALPHA * _beta(1) - ALPHA ** 2


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_thom_polynomial_restricts_on_its_prototype_to_euler_class_times_m(k, ell):
    """Tp(A_k) on the A_k genotype is the source Euler class k! alpha^k times
    m_{k+1}; k = 1 is verify_tpA1, k = 2, 3 test the closed A_2 and A_3 series."""
    germ = germ_A(k, ell)
    genotype = germs._genotype(germ)
    got = chern_substitute(thom_polynomial(k, ell), genotype.series(k * (ell + 1)))
    m = germs._multiple_point_genotype(germ, k + 1, genotype.m)
    assert got == math.factorial(k) * ALPHA ** k * m


def _generic_multiple_point_genotype(germ, m):
    """m_delta of an A_k germ as prod_s P(-s alpha), each factor summed term by term."""
    total = one()
    for s in range(1, germ.delta):
        x = -s * ALPHA
        total = total * sum((dvar(j) * x ** (m - j) for j in range(1, m + 1)), x ** m)
    return total


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
def test_multiple_point_genotype_matches_the_generic_construction(k, m):
    germ = germ_A(k, m)
    got = germs._multiple_point_genotype(germ, k + 1, m)
    assert got == _generic_multiple_point_genotype(germ, m)
    assert got.is_homogeneous() and got.weighted_degree() == k * m


def _checked_multiple_point_genotype(germ, m):
    """m_delta of an A_k germ as the product of its factors P(-s alpha), each
    built by the checking constructor from its m + 1 terms."""
    table = tuple(x.vars[0] for x in (ALPHA, *map(dvar, range(1, m + 1))))
    exponents = [(m - j, *(int(i == j) for i in range(1, m + 1))) for j in range(m + 1)]
    factors = (GradedPoly(table, {e: (-s) ** e[0] for e in exponents}) for s in range(1, germ.delta))
    return math.prod(factors, start=one())


@pytest.mark.parametrize("delta", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
def test_packed_multiple_point_genotype_matches_the_checked_factors(delta, m):
    germ = germ_A(delta - 1, m)
    got = germs._multiple_point_genotype(germ, delta, m)
    expected = _checked_multiple_point_genotype(germ, m)
    assert got == expected
    assert to_json_dict(got) == to_json_dict(expected)


# -- A_k prototypes past k = 3 ---------------------------------------------------------------------


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_A_germ_beyond_three_against_closed_forms(k, ell):
    """n_1 is the exact Euler quotient (k+1) prod beta_i, the genotype is
    (1+(k+1) alpha)/(1+alpha) over ell roots, and its series mapped back to
    roots equals the explicit-root Chern class."""
    germ = germ_A(k, ell)
    betas = [_beta(i) for i in range(1, ell + 1)]
    assert n1(germ) == math.prod(betas, start=one() * (k + 1))
    genotype = germs._genotype(germ)
    assert (genotype.numer, genotype.denom, genotype.m) == ([(k + 1) * ALPHA], [ALPHA], ell)
    degree = k * (ell + 1)
    assert chern_total(germ, degree) == genotype.roots(genotype.series(degree))


# -- genotype series -------------------------------------------------------------------------------


def _e_to_roots(p, m):
    """p under e_1 -> alpha_1 + alpha_2, e_2 -> alpha_1 alpha_2, d_j -> e_j(beta_1..beta_m)."""
    images = {("e", 1): A1_ + A2_, ("e", 2): A1_ * A2_}
    images.update(_elementary([_beta(i) for i in range(1, m + 1)]))
    return substitute(p, images)


def _explicit_i22(ell, maxdeg):
    """The I22 class (1+2 alpha_1)(1+2 alpha_2) prod_i (1+beta_i) / ((1+alpha_1)(1+alpha_2))
    over ell explicit roots, truncated at maxdeg."""
    return series_quotient(
        [one_plus(2 * A1_), one_plus(2 * A2_)] + [one_plus(_beta(i)) for i in range(1, ell + 1)],
        [one_plus(A1_), one_plus(A2_)],
        maxdeg,
    )


@pytest.mark.parametrize("ell", [0, 1, 2, 3, 4, 5])
def test_two_alpha_genotypes_in_e_map_to_the_explicit_roots(ell):
    """The III22 genotype is (1+e1)(1+2e1+4e2)/(1+e1+e2) over ell-1 roots and
    the I22 genotype (1+2e1+4e2)/(1+e1+e2) over ell roots; mapped back to
    the roots, their series are the explicit-root Chern classes.  III22
    starts at ell = 1, I22 at ell = 0."""
    maxdeg = 2 * ell + 4
    i22 = germs._genotype(germ_I22(ell))
    assert (i22.numer, i22.denom, i22.m) == ([2 * E1 + 4 * E2], [E1 + E2], ell)
    assert _e_to_roots(i22.series(maxdeg), ell) == _explicit_i22(ell, maxdeg)
    genotypes = [i22]
    if ell >= 1:
        iii22 = germs._genotype(germ_III22(ell))
        assert (iii22.numer, iii22.denom, iii22.m) == (
            [(1 + E1) * (1 + 2 * E1 + 4 * E2) - 1], [E1 + E2], ell - 1
        )
        assert _e_to_roots(iii22.series(maxdeg), ell - 1) == chern_total(germ_III22(ell), maxdeg)
        genotypes.append(iii22)
    for genotype in genotypes:
        assert genotype.roots(genotype.series(maxdeg)) == _e_to_roots(
            genotype.series(maxdeg), genotype.m
        )


@pytest.mark.parametrize("target", [
    (2 * A1_, A1_ + A2_),  # (1+2 alpha_1)(1+alpha_1+alpha_2) is not symmetric
    (2 * ALPHA, A1_ + A2_),  # a third alpha root
])
def test_genotype_refuses_a_two_alpha_part_that_is_not_symmetric(target):
    germ = GermPrototype(
        name="III22", ell=0, delta=3, source_weights=(A1_, A2_), target_weights=target
    )
    with pytest.raises(UnsupportedPrototype):
        germs._genotype(germ)


def test_two_alpha_genotype_kills_alpha_1_plus_alpha_2_by_e1_zero():
    genotype = germs._genotype(germ_III22(2))
    for form in (A1_ + A2_, -3 * A1_ - 3 * A2_):
        assert genotype.killing(form) == {("e", 1): 0}
    for form in (A1_, A1_ - A2_, _beta(1) - A1_, _beta(2)):
        with pytest.raises(UnsupportedPrototype):
            genotype.killing(form)
    assert genotype.killing(_beta(1)) == {("d", 1): 0}
    # in alpha coordinates a beta-free form is solved for its last alpha
    assert germs._genotype(germ_A(1, 1)).killing(2 * ALPHA) == {("alpha", 0): 0}
    with pytest.raises(UnsupportedPrototype):
        germs._genotype(germ_A(1, 1)).killing(_beta(1) - ALPHA)


def test_aichern_tail_relation():
    # beyond the d-cap the A_r genotype coefficients satisfy c_{j+1} = -alpha c_j,
    # which is what makes the residue determinants vanish
    ell, maxdeg = 2, 9
    for r in (1, 2, 3):
        series = germs._genotype(germ_A(r, ell)).series(maxdeg)
        for j in range(ell + 1, maxdeg):
            assert series.homogeneous_part(j + 1) == -ALPHA * series.homogeneous_part(j)
        # the relation starts exactly at ell+1
        assert series.homogeneous_part(ell + 1) != -ALPHA * series.homogeneous_part(ell)


def _alpha_series(genotype, maxdeg):
    """A two-alpha genotype's series, built in e_1, e_2, mapped to alpha_1, alpha_2."""
    series = genotype.series(maxdeg)
    assert {v.family for v in series.used_vars()} <= {"e", "d"}
    assert {(v.family, v.index) for v in series.used_vars()} >= {("e", 1), ("e", 2)}
    return _e_to_roots(series, 0)


def test_genotype_series_d_caps():
    ell, maxdeg = 2, 6
    i22 = _alpha_series(germs._genotype(germ_I22(ell)), maxdeg)
    iii22 = _alpha_series(germs._genotype(germ_III22(ell)), maxdeg)
    # the I22 series involves d_1..d_ell, the III22 series only d_1..d_ell-1,
    # both, through e -> alpha, in the prototypes' own roots alpha_1, alpha_2
    assert any(v.family == "d" and v.index == ell for v in i22.used_vars())
    assert all(
        not (v.family == "d" and v.index >= ell) for v in iii22.used_vars()
    )
    assert {v.family for v in i22.used_vars()} == {"alpha", "d"}
    # setting the last I22 root to alpha_1 + alpha_2, d_1 -> alpha_1 + alpha_2 + d_1
    # and d_2 -> (alpha_1 + alpha_2) d_1, gives the III22 series
    e1 = A1_ + A2_
    assert substitute(i22, {("d", 1): e1 + dvar(1), ("d", 2): e1 * dvar(1)}) == iii22


# -- III22A0 suite ----------------------------------------------------------------------------------


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_verify_III22A0(ell):
    report = verify_III22A0(ell)
    assert report.ok, report.to_json_dict()
    names = [c.name for c in report.checks]
    assert {"aichern-r1", "aichern-r2", "aichern-r3", "i22chern", "iii22chern"} <= set(
        names
    )
    assert any(n.startswith("factorization") for n in names)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_verify_III22A0_builds_one_series_per_genotype(monkeypatch, ell):
    # the table sizes the I22 series for the residue before it restricts its
    # own target, so neither the residue nor a factorization rebuilds it; the
    # factorizations build the I22 denominator and numerator series once
    built, quotients = [], []
    series, quotient = germs._Genotype.series, germs.series_quotient
    monkeypatch.setattr(germs._Genotype, "series",
                        lambda g, maxdeg: built.append(id(g)) or series(g, maxdeg))
    monkeypatch.setattr(germs, "series_quotient",
                        lambda *args: quotients.append(args) or quotient(*args))
    assert verify_III22A0(ell).ok
    assert len(built) == len(set(built)) == 5  # A1, A2, A3, I22 and III22
    assert len(quotients) == 5 + 2


def test_iii22chern_matches_plug_in_at_ell1():
    # at ell=1 the III22 genotype has no beta root, and its value is the I22
    # value with the one I22 root plugged as d_1 = alpha_1 + alpha_2
    from multising.thom import residue_III22A0

    maxdeg = 6
    i22 = _alpha_series(germs._genotype(germ_I22(1)), maxdeg)
    iii22 = _alpha_series(germs._genotype(germ_III22(1)), maxdeg)
    value_i22 = chern_substitute(residue_III22A0(1), i22)
    value_iii22 = chern_substitute(residue_III22A0(1), iii22)
    assert value_iii22 == substitute(value_i22, {("d", 1): A1_ + A2_})


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_perturbed_III22A0_residuals_match_explicit_roots(monkeypatch, ell):
    exact = germs.residue_III22A0
    residue = exact(ell) + cvar(2 * ell + 4) + cvar(ell + 2) ** 2
    monkeypatch.setattr(germs, "residue_III22A0", lambda ell: residue)
    checks = {c.name: c for c in verify_III22A0(ell).checks}
    # identity (iii) holds for every residue, the perturbed one included
    assert checks["iii22chern"].holds
    # the oracle restricts on the prototypes' and the I22 class's own roots
    maxdeg = max(v.index for p in (residue, thom.residue("III22", ell)) for v in p.used_vars())
    want = {
        f"aichern-r{r}": chern_substitute(residue, chern_total(germ_A(r, ell), maxdeg))
        for r in (1, 2, 3)
    }
    i22 = _explicit_i22(ell, maxdeg)
    want["i22chern"] = chern_substitute(residue, i22) + 4 * math.prod(
        (_beta(i) for i in range(1, ell + 1)), start=one()
    ) * chern_substitute(thom.residue("III22", ell), i22)
    equations = germs._iii22a0_equations(ell)
    assert [name for name, *_ in equations] == list(want)
    for name, genotype, *_ in equations:
        check = checks[name]
        assert not check.holds and not want[name].is_zero(), name
        assert _in_genotype_basis(check.residual), name
        assert genotype.roots(check.residual) == want[name], name


@pytest.mark.parametrize(
    "ell,triple",
    [
        (1, (3, 3, 0)),
        (1, (4, 3, 0)),
        (1, (3, 3, 1)),
        (1, (4, 4, 1)),
        (2, (4, 4, 0)),
        (2, (5, 4, 2)),
    ],
)
def test_factorization_spot_checks(ell, triple):
    check = factorization_check(ell, triple)
    assert check.holds, check.to_json_dict()


def test_divisibility_suite_checks_ell_first():
    # ell = 0 is refused by name before any piece of the battery is built
    with pytest.raises(PolyError, match="relative dimension ell of the divisibility battery"):
        verify_divisibility_suite(0)


def test_factorization_range_validation():
    with pytest.raises(PolyError):
        factorization_check(1, (3, 2, 0))  # j < ell+2
    with pytest.raises(PolyError):
        factorization_check(1, (3, 3, 2))  # k > ell
    # ell = 0 meets the index ranges but has no III22 residue: refused at the boundary
    with pytest.raises(PolyError, match="relative dimension ell of a factorization"):
        factorization_check(0, (2, 2, 0))
    for ell, triple in ((1, (3, 3, -1)), (1, (4, 3, -2)), (2, (4, 4, -2))):
        # k < 0: both sides vanish, so the check would certify 0 = 0
        with pytest.raises(PolyError):
            factorization_check(ell, triple)


# -- restriction tables ------------------------------------------------------------------------------
#
# Every suite restricts its residue through _Genotype.restrict, whose series
# runs up to the largest c_i that the residue uses.  A suite that chose the
# series degree itself dropped every c_i above it, so a residue perturbed by
# a c_i past that degree passed.


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_III22A0_residue_perturbed_past_the_series_degree_fails(monkeypatch, ell):
    exact = germs.residue_III22A0
    monkeypatch.setattr(germs, "residue_III22A0", lambda ell: exact(ell) + cvar(3 * ell + 4))
    holds = {c.name: c.holds for c in verify_III22A0(ell).checks}
    assert not any(holds[name] for name in ("aichern-r1", "aichern-r2", "aichern-r3", "i22chern"))


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_A0r_residue_perturbed_past_the_series_degree_fails(monkeypatch, ell):
    _perturbed(monkeypatch, lambda r, ell: cvar((r - 1) * ell + 1))
    assert [(c.name, c.holds) for c in verify_quadruple(ell).checks] == [
        ("q1", False), ("q2", False), ("q3", False), ("q4", False)
    ]
    factors = [c for c in verify_divisibility_suite(ell).checks if "-factor-" in c.name]
    assert len(factors) == 5 * ell
    assert not any(c.holds for c in factors)


def test_germs_calls_chern_substitute_only_in_genotype_restrict():
    tree = ast.parse(Path(germs.__file__).read_text())
    calls = {}

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "chern_substitute":
            calls[scope] = calls.get(scope, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    assert calls == {("_Genotype", "restrict"): 1}


def test_restricting_the_quadruple_residue_on_A3_keeps_its_work(monkeypatch):
    # the largest A row of verify_quadruple(5): the walk, highest c index
    # outermost, makes 58 products over 1049 term pairs; lowest index
    # outermost would make 3372 pairs against 3127 over the A1..A3 rows
    series = germs._genotype(germ_A(3, 4)).series(15)
    pairs = []
    kernel = poly._mul_into

    def counted(acc, left, right):
        left = list(left)
        pairs.append(len(left) * len(right))
        kernel(acc, left, right)

    monkeypatch.setattr(poly, "_mul_into", counted)
    chern_substitute(residue_A0r(4, 5), series)
    assert (len(pairs), sum(pairs)) == (58, 1049)


def test_germs_builds_genotypes_only_in_genotype():
    # every genotype comes from a prototype: _Genotype( is called in _genotype alone
    tree = ast.parse(Path(germs.__file__).read_text())
    scopes = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Genotype":
            scopes.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    assert scopes and set(scopes) == {("_genotype",)}


def test_suites_restrict_each_polynomial_once_per_genotype(monkeypatch):
    calls = []
    exact = germs.chern_substitute
    monkeypatch.setattr(germs, "chern_substitute", lambda p, s: calls.append(p) or exact(p, s))
    assert verify_divisibility_suite(3).ok
    assert len(calls) == len(germs._DIVISIBILITY_CASES)  # once per germ, not per n_1 factor
    calls.clear()
    assert verify_III22A0(2).ok
    # aichern-r1..r3; s(4,4) and the residue on I22, read again by iii22chern
    # and by every factorization; the residue on III22; one s(i,j,k) per
    # factorization
    assert len(calls) == 3 + 2 + 1 + len(germs._factorization_triples(2))


def _partitions(n, most=None):
    """The partitions of n into parts of at most most, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _c_monomial(lam):
    return math.prod((cvar(i) for i in lam), start=one())


def _vector(p):
    """p as {monomial: coefficient}, the monomial named by its variables."""
    return {
        tuple((v.family, v.index, e) for v, e in zip(p.vars, exps) if e): c
        for exps, c in p.terms.items()
    }


def _rank(vectors):
    """Rank over Q of dict vectors, by Fraction elimination."""
    pivots = {}
    for vector in vectors:
        row = {key: Fraction(c) for key, c in vector.items() if c}
        for key, pivot in pivots.items():
            scale = row.get(key)
            if scale:
                for k, c in pivot.items():
                    row[k] = row.get(k, 0) - scale * c
                row = {k: c for k, c in row.items() if c}
        if row:
            key = next(iter(row))
            pivots[key] = {k: c / row[key] for k, c in row.items()}
    return len(pivots)


def _equation_values(equation, lam):
    """The linear part of a table row at the residue c^lam: its value on the
    row's genotype, and for a divisibility row that value under the factor's
    killing assignment."""
    _, genotype, _, factor, _ = equation
    value = genotype.restrict(_c_monomial(lam))
    return value if factor is None else substitute(value, genotype.killing(factor))


def _ranks(equations, degree):
    """Per-row ranks and the stacked rank of c^lam -> the rows' values over
    every partition lam of degree."""
    table = [[_vector(_equation_values(eq, lam)) for eq in equations]
             for lam in _partitions(degree)]
    per_row = [_rank(row[i] for row in table) for i in range(len(equations))]
    return per_row, _rank(_stacked(row) for row in table), len(table)


def _stacked(vectors):
    """One vector of the rows' values side by side."""
    return {(i, key): c for i, v in enumerate(vectors) for key, c in v.items()}


@pytest.mark.parametrize("ell,per_row,stacked,unknowns", [
    (1, [1, 1, 0, 1], 3, 3),
    (2, [6, 6, 4, 6], 11, 11),
    (3, [21, 21, 24, 21], 30, 30),
])
def test_quadruple_equations_determine_the_residue(ell, per_row, stacked, unknowns):
    assert _ranks(germs._quadruple_equations(ell), 3 * ell) == (per_row, stacked, unknowns)


@pytest.mark.parametrize("ell,aichern,i22chern,stacked,unknowns", [
    (1, 7, 13, 15, 15),
    (2, 26, 40, 42, 42),
])
def test_III22A0_equations_determine_the_residue(ell, aichern, i22chern, stacked, unknowns):
    degree = residue_III22A0(ell).weighted_degree()
    equations = germs._iii22a0_equations(ell)
    names = ["aichern-r1", "aichern-r2", "aichern-r3", "i22chern"]
    assert [name for name, *_ in equations] == names
    assert _ranks(equations, degree) == ([aichern] * 3 + [i22chern], stacked, unknowns)
    # identity (iii) gives no equation: it holds for every residue
    i22, iii22 = equations[-1][1], germs._genotype(germ_III22(ell))
    images = germs._d_images([one_plus(E1), germs._d_polynomial(ell - 1)], ell)
    for lam in _partitions(degree):
        c_lam = _c_monomial(lam)
        assert iii22.restrict(c_lam) == substitute(i22.restrict(c_lam), images)


@pytest.mark.parametrize("ell,stacked", [(1, 14), (2, 40)])
def test_III22A0_equations_lose_rank_at_a_fixed_series_degree(ell, stacked):
    # truncated at 2 ell + 4, the series maps every c_i above it to 0
    equations = germs._iii22a0_equations(ell)
    table = []
    for lam in _partitions(residue_III22A0(ell).weighted_degree()):
        table.append(_stacked(
            _vector(chern_substitute(_c_monomial(lam), g.series(2 * ell + 4)))
            for _, g, *_ in equations
        ))
    assert _rank(table) == stacked


# -- report serialization -----------------------------------------------------------------------------


def test_report_json_shape():
    report = verify_quadruple(1)
    payload = report.to_json_dict()
    assert payload["suite"] == "quadruple"
    assert payload["ok"] is True
    assert all(c["residual"] is None for c in payload["checks"])


def test_report_records_residual_on_failure():
    # force a failing identity through the blow-up control path
    report = verify_divisibility(germ_blowup(), 2)
    assert not report.ok
    assert report.checks[0].name == "n1-exactness"


def test_failing_divisibility_report_matches_golden_digest():
    # alpha is not a factor of n1(A1) = 2 beta1 beta2, so the closed form and
    # the alpha check fail with residuals while the beta1 check holds; the
    # alpha residual 2 d_2 is in the genotype basis and maps back to the
    # oracle's 2 beta1 beta2
    germ = germ_A(1, 2).replace(n1_factors=(ALPHA, _beta(1)))
    report = verify_divisibility(germ, 2)
    assert [(c.name, c.holds, c.residual is not None) for c in report.checks] == [
        ("n1-closed-form", False, True),
        ("factor-alpha", False, True),
        ("factor-beta1", True, False),
    ]
    assert report.checks[1].residual == 2 * dvar(2)
    want = _explicit_divisibility(germ, 2, residue_A0r(2, 2))
    assert want == [(False, 2 * _beta(1) * _beta(2)), (True, None)]
    assert _factor_summary(germ, report) == want
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "170a890df60e826475fbc1458b7549266eaac7b32a192ba25578011438dcaaba"
    )


# -- golden digests -------------------------------------------------------------------------

# sha256 of each suite's json.dumps(report.to_json_dict(), sort_keys=True) and
# of emit_quadruple_formula(ell).to_latex(), recorded before the packed-int
# multiply and the Horner substitution replaced the Fraction loops; any change
# to a report or rendering byte shows here.
GOLDEN_DIGESTS = {
    "quadruple-1": "b7acb32779a7ce56561ee8ab2e8e1941ec0391f81a637ac169bfd11747ebc55d",
    "quadruple-2": "0c15e75afefb0d6067082eb348e8269b45973f778df4b8adbf2ed10b2dc013e9",
    "quadruple-3": "5a0eca39a3f59da63915d1715ac7f37a0e1faebad517a5306c2dea733f003629",
    "quadruple-4": "15d1640e9816f910a02d4b52f1cb777d232cff2ab0dcf941e6a4c11f9648d6c7",
    "divisibility-1": "befd50ac3585dcb5ea09b536fcb92e22152b062ccfd807d4d1289786581ff037",
    "divisibility-2": "6dd9bc8f05b6116b1760e0a58a9a6363a481803529eac959e12da3c278cabb33",
    "divisibility-3": "5acb5a08ae889a78e975486262764ea1e0b1ab3b810f9820fe3c8279bdea4323",
    "divisibility-4": "bdc54c87b2086aecf61415de250a187489f6408f62b4d13f2ac1bedd8f0f0fb1",
    "III22A0-1": "3c2de17825da957f71c81966f8b8b1239d0406ce9b9a5f80aa68d0754940b930",
    "III22A0-2": "182f2ba8c41bc9c9926cebec980bd75d3cd88ddfdca9b636019dc6811b3c24a8",
    "III22A0-3": "312b771db0bf4ec612919b601cbae8144179b244755e4ee9c2c90b0ae540579f",
    "tpA1-1": "32d8045f157bc7253b4b3f3a1bfcfd48ef4a1cf8382e9fc1fb14cad48aa14ffe",
    "tpA1-2": "2d077298fdf932b9dc1acb737dc695eee97d2120ddedff4ee6bbe674b88dd90e",
    "tpA1-3": "9416157b399761a34c3de886f5712c96de8ad0b8e24c580dbddc8e6ec7000a34",
    "III22A0-4": "e4d90a2dd1ca0d35ececb46c84fbd6077c8c366fd8a2b4fdcc263c05cd347a04",
    "III22A0-5": "8bc9b5494655094fcefbdf2ed6b925de615e51a8658c926a8a3092a9c3be515a",
    "tpA1-4": "05f01ccede17011d7a22e37f3d31edb2ff787aae582ba61681e16bf923c05936",
    "tpA1-5": "cdd9e160c8b724758b86b8fd6eac306229d4953dc5556ff92c8fff61db1b275f",
    "tpA1-6": "c6781b3ddeaa959051caaf35882e229c11b4778ec036826b1f705d35555f1053",
    "blowup": "6229810dd2a45814973df2e196261e6205006fca38d9b7263b4d04d15adbbfe4",
    "formula-1": "9d3b154f1ba5348109e7308b614c5e90ba0d0b735d2a7396875a617b4443f728",
    "formula-2": "5f56adf96445726bd6e41aed0326e2d89b1337ee06f9190d5ad39f3ba13c7139",
    "formula-3": "3439f205f45e73f2381fb2a79a40481241eb9ae710eafa6607d68ec9a5d988a1",
    "formula-4": "57bc9657c7aee5fdf9aecde5655a539ba7100fe6f188c6cd137f921856eb5ed0",
}

_GOLDEN_SOURCES = {
    "quadruple": verify_quadruple,
    "divisibility": verify_divisibility_suite,
    "III22A0": verify_III22A0,
    "tpA1": verify_tpA1,
}


def _golden_text(name):
    if name == "blowup":
        report = blowup_control_report()
    else:
        kind, ell = name.rsplit("-", 1)
        if kind == "formula":
            return emit_quadruple_formula(int(ell)).to_latex()
        report = _GOLDEN_SOURCES[kind](int(ell))
    return json.dumps(report.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_reports_and_formulas_match_golden_digests(name):
    digest = hashlib.sha256(_golden_text(name).encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[name]
