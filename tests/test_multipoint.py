"""Multisingularity combinatorics: codimension, expansions, residue dispatch."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multising.multipoint import (
    MultiSingularity,
    a0_partition_coefficients,
    emit_quadruple_formula,
    expand_m,
    expand_n,
    expansion_json,
    expansion_to_latex,
    expansion_to_text,
    source_expansion_json,
)
from multising.poly import PolyError, cvar, one, rat
from multising.thom import (
    UnsupportedMultisingularity,
    residue,
    residue_A0r,
    residue_III22A0,
)

C = cvar
A0 = lambda r: MultiSingularity(("A0",) * r)


# -- multisingularity bookkeeping ---------------------------------------------------


def test_canonical_form_keeps_distinguished_first():
    m = MultiSingularity(("A1", "A2", "A0"))
    assert m.parts == ("A1", "A0", "A2")
    assert MultiSingularity.from_name("A1A0^2").parts == ("A1", "A0", "A0")


def test_empty_multisingularity_rejected():
    with pytest.raises(PolyError):
        MultiSingularity(())


@settings(max_examples=15)
@given(st.integers(1, 6))
def test_codim_examples(ell):
    assert A0(4).codim(ell) == 3 * ell
    assert MultiSingularity(("III22", "A0")).codim(ell) == 3 * ell + 4
    assert MultiSingularity(("A0",)).codim(ell) == 0


def test_aut_counts():
    assert A0(4).aut_count() == 24
    assert MultiSingularity.from_name("A1A0^2").aut_count() == 2
    assert MultiSingularity(("A1",)).aut_count() == 1


# -- target expansion ------------------------------------------------------------------


def test_expand_n_small_cases():
    assert a0_partition_coefficients(2) == {(2,): 1, (1, 1): 1}
    assert a0_partition_coefficients(3) == {(3,): 1, (1, 2): 3, (1, 1, 1): 1}


def test_expand_n_quadruple():
    assert a0_partition_coefficients(4) == {
        (4,): 1,
        (1, 3): 4,
        (1, 1, 2): 6,
        (2, 2): 3,
        (1, 1, 1, 1): 1,
    }


def test_expand_n_term_count_is_bell_number():
    # one term per set partition before merging; merged counts still sum to Bell
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for r, b in bell.items():
        coeffs = a0_partition_coefficients(r)
        assert sum(int(c) for c in coeffs.values()) == b


def test_expand_n_mixed_tokens():
    expansion = expand_n(MultiSingularity(("A0", "A1")))
    assert expansion == {
        (("A0", "A1"),): 1,
        (("A0",), ("A1",)): 1,
    }
    rendered = expansion_to_latex(expansion)
    assert "S_{A_0A_1}" in rendered


def test_expand_n_latex():
    assert (
        expansion_to_latex(expand_n(A0(4)))
        == "s_4 + 4s_1s_3 + 3s_2^2 + 6s_1^2s_2 + s_1^4"
    )


@pytest.mark.parametrize("r, rendered", [
    (1, "s_1"),
    (2, "s_2 + s_1^2"),
    (3, "s_3 + 3s_1s_2 + s_1^3"),
    (5, "s_5 + 5s_1s_4 + 10s_2s_3 + 10s_1^2s_3 + 15s_1s_2^2 + 10s_1^3s_2 + s_1^5"),
])
def test_expand_n_latex_up_to_five_points(r, rendered):
    assert expansion_to_latex(expand_n(A0(r))) == rendered


@pytest.mark.parametrize(
    "name, rendered",
    [
        ("A4A0", "S_{A_0A_4} + s_1S_{A_4}"),
        ("A7A0", "S_{A_0A_7} + s_1S_{A_7}"),
        ("III22A0", "S_{A_0III_{2,2}} + s_1S_{III_{2,2}}"),
        ("I22A1", "S_{A_1I_{2,2}} + S_{A_1}S_{I_{2,2}}"),
    ],
)
def test_expand_n_latex_subscripts_every_token(name, rendered):
    assert expansion_to_latex(expand_n(MultiSingularity.from_name(name))) == rendered


def test_expansion_rendering_signs_units_and_fractions():
    expansion = {
        (("A0",),): rat(1),
        (("A0",), ("A0",)): rat(-1),
        (("A0", "A0"),): rat(3, 2),
        (("A0",), ("A0", "III22")): rat(-2, 3),
        (("A1",), ("A1",), ("A1",)): rat(-4),
    }
    assert (
        expansion_to_text(expansion)
        == "s1 + 3/2s2 - s1^2 - 2/3s1S[A0,III22] - 4S[A1]^3"
    )
    assert (
        expansion_to_latex(expansion)
        == "s_1 + 3/2s_2 - s_1^2 - 2/3s_1S_{A_0III_{2,2}} - 4S_{A_1}^3"
    )
    assert expansion_to_text({(("A0",), ("A0",)): rat(-1)}) == "-s1^2"
    assert expansion_to_text({}) == "0"
    assert [t["coeff"] for t in expansion_json(expansion)["terms"]] == [
        "1/1", "3/2", "-1/1", "-2/3", "-4/1"
    ]


# -- source expansion -------------------------------------------------------------------


def test_expand_m_chain():
    # the j-point subsets holding the distinguished point number C(r-1, j-1),
    # and each contributes R_{A0^j} f*(n_{r-j})
    for r in (2, 3, 4):
        for ell in (1, 2, 3):
            m = expand_m(A0(r), ell)
            assert len(m.terms) == r
            for j in range(1, r + 1):
                expected = math.comb(r - 1, j - 1) * residue(("A0",) * j, ell)
                assert m.coefficient_of(("A0",) * (r - j)) == expected


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_expand_m_unbarred_quadruple(ell):
    m4 = expand_m(A0(4), ell)
    assert m4.coefficient_of(("A0", "A0", "A0")) == one()
    assert m4.coefficient_of(("A0", "A0")) == -3 * C(ell)
    assert m4.coefficient_of(("A0",)) == 3 * residue_A0r(3, ell)
    assert m4.coefficient_of(()) == residue_A0r(4, ell)


def test_expand_m_term_count():
    # 2^(r-1) subsets merge into r distinct complements for identical points
    for r in (2, 3, 4):
        exp = expand_m(A0(r), 1)
        assert len(exp.terms) == r


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_expand_m_homogeneity(ell):
    for multi in (A0(2), A0(3), A0(4)):
        target = multi.codim(ell)
        for term in expand_m(multi, ell).terms:
            assert term.coefficient.is_homogeneous()
            deg = term.coefficient.weighted_degree() or 0
            assert deg + term.fn_degree(ell) == target


def test_expand_m_mixed_with_table():
    exp = expand_m(MultiSingularity(("III22", "A0")), 1)
    assert exp.coefficient_of(()) == residue_III22A0(1)
    assert exp.coefficient_of(("A0",)) == residue("III22", 1)

    exp2 = expand_m(MultiSingularity(("A0", "A1")), 2)
    assert exp2.coefficient_of(()) == residue("A0A1", 2)
    assert exp2.coefficient_of(("A1",)) == one()


def test_expand_m_renders_a_pullback_of_a_non_A0_class():
    pure = "4*c1*c2*c4 - 4*c1*c3^2 + 4*c2*c5 - 4*c3*c4"
    pure_latex = "4c_1c_2c_4 - 4c_1c_3^2 + 4c_2c_5 - 4c_3c_4"
    expansion = expand_m(MultiSingularity(("A0", "III22")), 1)
    assert expansion.to_text() == f"f^(n_III22) + ({pure})"
    assert expansion.to_latex() == f"f^*(n_{{III_{{2,2}}}}) + ({pure_latex})"
    assert expansion.coefficient_of(()) == residue_III22A0(1)
    assert expansion.coefficient_of(("III22",)) == one()
    assert expansion.coefficient_of(("A1",)).is_zero()
    assert expansion.coefficient_of(["A0", "III22"]).is_zero()


@pytest.mark.parametrize("multi", ["A0^4", 0, None], ids=repr)
def test_expansions_refuse_anything_but_a_multisingularity(multi):
    with pytest.raises(UnsupportedMultisingularity, match="is not a MultiSingularity"):
        expand_n(multi)
    with pytest.raises(UnsupportedMultisingularity, match="is not a MultiSingularity"):
        expand_m(multi, 1)


def test_missing_residue_raises():
    with pytest.raises(UnsupportedMultisingularity):
        expand_m(MultiSingularity(("A1", "A1")), 1)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_expand_m_serves_A1A0(ell):
    # the distinguished A1 point alone has residue c_{ell+1}, its Thom polynomial
    expansion = expand_m(MultiSingularity(("A1", "A0")), ell)
    assert [term.complement for term in expansion.terms] == [("A0",), ()]
    assert expansion.coefficient_of(("A0",)) == C(ell + 1)
    assert expansion.coefficient_of(()) == residue("A0A1", ell)


def test_residue_table_order_insensitive():
    assert residue(("A0", "III22"), 1) == residue(("III22", "A0"), 1)
    assert residue(("A1", "A0"), 1) == residue("A0A1", 1)
    with pytest.raises(UnsupportedMultisingularity):
        residue(("A2", "A2"), 1)


# -- the quadruple point formula ----------------------------------------------------------


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_quadruple_formula_coefficients(ell):
    q = emit_quadruple_formula(ell)
    assert q.coefficient_of(("A0", "A0", "A0")) == one()
    assert q.coefficient_of(("A0", "A0")) == -3 * C(ell)
    triple = C(ell) ** 2
    for i in range(ell):
        triple = triple + 2 ** i * C(ell - 1 - i) * C(ell + 1 + i)
    assert q.coefficient_of(("A0",)) == 6 * triple
    # the f*(n_1) coefficient is exactly three times the triple-point residue
    assert q.coefficient_of(("A0",)) == 3 * residue_A0r(3, ell)
    assert q.coefficient_of(()) == residue_A0r(4, ell)


def test_quadruple_formula_residue_part_examples():
    assert emit_quadruple_formula(1).coefficient_of(()) == -6 * (
        C(1) ** 3 + 3 * C(1) * C(2) + 2 * C(3)
    )


def test_quadruple_formula_requires_positive_ell():
    with pytest.raises(PolyError):
        emit_quadruple_formula(0)


def test_source_expansion_json_shape():
    payload = source_expansion_json(expand_m(A0(2), 1))
    assert payload["multisingularity"] == "A0A0"
    assert payload["terms"][0]["pullback"] == ["A0"]
    assert payload["terms"][-1]["pullback"] is None
