"""Germ prototypes, Euler quotients, and the verification suites."""

import hashlib
import json
from dataclasses import replace

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
from multising.multipoint import emit_quadruple_formula
from multising.thom import (
    multisingularity_codim,
    residue,
    residue_A0r,
    thom_polynomial,
)

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
    ],
    ids=[
        "verify_quadruple-bool", "verify_quadruple-float", "divisibility-float",
        "tpA1-bool", "III22A0-float", "quadruple_formula-bool", "germ_A-bool-k",
        "germ_A-bool-ell", "germ_III22-float", "codim-float", "residue_A0r-float-ell",
        "residue_A0r-float-r", "thom_polynomial-float", "residue-str-ell",
        "residue-bool-ell",
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
    for ell, triple in ((1, (3, 3, -1)), (1, (4, 3, -2)), (2, (4, 4, -2))):
        # k < 0: both sides vanish, so the check would certify 0 = 0
        with pytest.raises(PolyError):
            factorization_check(ell, triple)


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
    # beta1 - alpha is not a factor of n1(A2), so the closed form and its
    # factor check fail with residuals while the alpha check holds; the digest
    # was recorded before the suites shared one identity-check path
    germ = replace(germ_A(2, 2), n1_factors=(ALPHA, _beta(1) - ALPHA))
    report = verify_divisibility(germ, 3)
    assert [(c.name, c.holds, c.residual is not None) for c in report.checks] == [
        ("n1-closed-form", False, True),
        ("factor-alpha", True, False),
        ("factor--alpha + beta1", False, True),
    ]
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a9b21dc2fbed03b735cfc434ae7e4cce1655e7b1d66af004b2d720caefb6b8f3"
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
