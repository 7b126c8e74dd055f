"""Germ prototypes, Euler quotients, and the verification suites."""

import pytest

from multising.germs import (
    GermPrototype,
    UnsupportedPrototype,
    blowup_control_report,
    chern_total,
    factorization_check,
    genotype_series,
    germ_A,
    germ_III22,
    germ_blowup,
    m4_class,
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
    NonExactDivision,
    PolyError,
    chern_substitute,
    one,
    one_plus,
    root_var,
    series_quotient,
    substitute,
)
from multising.thom import residue_A0r

ALPHA = root_var("alpha")
A1_ = root_var("alpha", 1)
A2_ = root_var("alpha", 2)


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
            root_symbols=(("alpha", 0),),
            source_weights=(ALPHA,),
            target_weights=(2 * ALPHA,),
        )


def test_stable_germ_factory():
    assert stable_germ("A2", 3).name == "A2"
    assert stable_germ("III22", 1).delta == 3
    assert stable_germ("blowup", 0).name == "blowup"
    with pytest.raises(UnsupportedPrototype):
        stable_germ("A5", 1)


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


def test_n1_whitney_umbrella():
    assert n1(germ_A(1, 1)) == 2 * _beta(1)


def test_n1_blowup_fails():
    with pytest.raises(NonExactDivision):
        n1(germ_blowup())


def test_blowup_control_report():
    report = blowup_control_report()
    assert report.ok
    assert "fails as required" in report.checks[0].detail


# -- multiple point classes ------------------------------------------------------------------


def test_m4_zero_below_multiplicity():
    assert m4_class(germ_A(1, 2)).is_zero()
    assert m4_class(germ_A(2, 1)).is_zero()
    assert m4_class(germ_III22(2)).is_zero()


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_m4_A3_product(ell):
    expected = one()
    for i in range(1, ell + 1):
        b = _beta(i)
        expected = expected * (b - ALPHA) * (b - 2 * ALPHA) * (b - 3 * ALPHA)
    got = m4_class(germ_A(3, ell))
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


def test_divisibility_suite_aggregates():
    report = verify_divisibility_suite(1)
    assert report.ok
    assert any(c.name.startswith("III22-r4") for c in report.checks)


# -- Thom polynomial of A1 -------------------------------------------------------------------------


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_verify_tpA1(ell):
    assert verify_tpA1(ell).ok


def test_tpA1_explicit_values():
    assert chern_total(germ_A(1, 0), 1).homogeneous_part(1) == ALPHA
    got = chern_total(germ_A(1, 1), 2).homogeneous_part(2)
    assert got == ALPHA * _beta(1) - ALPHA ** 2


# -- genotype series -------------------------------------------------------------------------------


def test_aichern_tail_relation():
    # beyond the d-cap the coefficients satisfy c_{j+1} = a c_j, which is
    # what makes the residue determinants vanish
    ell, r, maxdeg = 2, 2, 9
    series = genotype_series("aichern", ell, maxdeg, r=r)
    a = root_var("a")
    for j in range(ell + 1, maxdeg):
        assert series.homogeneous_part(j + 1) == (
            a * series.homogeneous_part(j)
        )
    # the relation starts exactly at ell+1
    assert series.homogeneous_part(ell + 1) != (
        a * series.homogeneous_part(ell)
    )


def test_genotype_series_d_caps():
    ell, maxdeg = 2, 6
    i22 = genotype_series("i22chern", ell, maxdeg)
    iii22 = genotype_series("iii22chern", ell, maxdeg)
    # the I22 series involves d_1..d_ell, the III22 series only d_1..d_ell-1
    assert any(v.family == "d" and v.index == ell for v in i22.used_vars())
    assert all(
        not (v.family == "d" and v.index >= ell) for v in iii22.used_vars()
    )
    with pytest.raises(PolyError):
        genotype_series("nope", 1, 3)


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


def test_iii22chern_matches_plug_in_at_ell1():
    # at ell=1 the degree-cap rewriting is exactly "plug d_1 = -(a+b)"
    from multising.thom import residue_III22A0

    maxdeg = 6
    i22 = genotype_series("i22chern", 1, maxdeg)
    iii22 = genotype_series("iii22chern", 1, maxdeg)
    value_i22 = chern_substitute(residue_III22A0(1), i22)
    value_iii22 = chern_substitute(residue_III22A0(1), iii22)
    plugged = substitute(value_i22, {("d", 1): -(root_var("a") + root_var("b"))})
    assert value_iii22 == plugged


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


def test_factorization_range_validation():
    with pytest.raises(PolyError):
        factorization_check(1, (3, 2, 0))  # j < ell+2
    with pytest.raises(PolyError):
        factorization_check(1, (3, 3, 2))  # k > ell


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
