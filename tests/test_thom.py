"""Thom series, the a-coefficient triangle, and residue polynomials."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multising.poly import PolyError, cvar, schur2, schur3, to_latex, zero
from multising.thom import (
    SeriesValidityError,
    UnsupportedMultisingularity,
    a_coeff,
    a_triangle,
    multisingularity_codim,
    parse_multisingularity,
    residue,
    residue_A0A1,
    residue_A0r,
    residue_III22,
    residue_III22A0,
    series_from_json,
    series_from_terms,
    singularity_info,
    thom_polynomial,
    thom_series_A,
)

C = cvar


# -- a-coefficient triangle ------------------------------------------------------


def test_a_triangle_first_rows():
    assert a_triangle(5) == [
        [0],
        [1, 1],
        [3, 2, 3],
        [9, 5, 5, 9],
        [27, 14, 10, 14, 27],
    ]


def _comb(n, r):
    return math.comb(n, r) if 0 <= r <= n else 0


def _a_oracle(i, j):
    # independent closed form: sum over k of f_k (C(i+j-k, j) + C(i+j-k, i))
    # with f_1 = 1 and f_k = 2 * 3^(k-2)
    total = 0
    for k in range(1, i + j + 1):
        f = 1 if k == 1 else 2 * 3 ** (k - 2)
        total += f * (_comb(i - k + j, j) + _comb(i + j - k, i))
    return total


def test_a_coeff_against_binomial_oracle():
    for i in range(9):
        for j in range(9):
            assert a_coeff(i, j) == _a_oracle(i, j), (i, j)


def test_a_coeff_symmetry_and_edges():
    for i in range(7):
        for j in range(7):
            assert a_coeff(i, j) == a_coeff(j, i)
    assert a_coeff(0, 0) == 0
    assert a_coeff(-1, 2) == 0


# -- Thom series structure --------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("shift", [0, 1, 2, 3])
def test_series_terms_shape(k, shift):
    ts = thom_series_A(k)
    for coeff, indices in ts.terms(shift):
        assert len(indices) == ts.delta - 1 == k
        assert sum(indices) == 0
        assert all(ix >= -shift for ix in indices)
        assert coeff != 0


def test_series_A4_not_builtin():
    with pytest.raises(UnsupportedMultisingularity):
        thom_series_A(4)


# -- Thom polynomials ---------------------------------------------------------------


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_thom_polynomial_A1(ell):
    assert thom_polynomial(thom_series_A(1), ell) == C(ell + 1)


def test_thom_polynomial_A2_examples():
    assert thom_polynomial(thom_series_A(2), 0) == C(1) ** 2 + C(2)
    assert thom_polynomial(thom_series_A(2), 1) == C(2) ** 2 + C(1) * C(3) + 2 * C(4)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_thom_polynomial_homogeneous_of_codimension(k, ell):
    tp = thom_polynomial(thom_series_A(k), ell)
    assert tp.is_homogeneous()
    assert tp.weighted_degree() == singularity_info(f"A{k}").codim(ell)


# -- residues of A_0^r ----------------------------------------------------------------


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_residue_double_point(ell):
    assert residue_A0r(2, ell) == -C(ell)


def test_residue_triple_point_closed_form():
    for ell in (1, 2, 3):
        expected = C(ell) ** 2
        for i in range(ell):
            expected = expected + 2 ** i * C(ell - 1 - i) * C(ell + 1 + i)
        assert residue_A0r(3, ell) == 2 * expected


def test_residue_quadruple_point_ell1():
    assert residue_A0r(4, 1) == -6 * (C(1) ** 3 + 3 * C(1) * C(2) + 2 * C(3))
    assert to_latex(residue_A0r(4, 1)) == "-6c_1^3 - 18c_1c_2 - 12c_3"


def test_residue_quadruple_point_ell2():
    expected = -6 * (
        C(2) ** 3
        + 3 * C(1) * C(2) * C(3)
        + 7 * C(2) * C(4)
        + 2 * C(1) ** 2 * C(4)
        + 10 * C(1) * C(5)
        + 12 * C(6)
        + C(3) ** 2
    )
    assert residue_A0r(4, 2) == expected


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_residue_homogeneous_degree(r, ell):
    p = residue_A0r(r, ell)
    assert p.is_homogeneous()
    assert p.weighted_degree() == (r - 1) * ell


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_residue_consistency_with_thom_polynomials(ell):
    # the same residues through the monosingularity substitution route
    assert residue_A0r(2, ell) == -1 * thom_polynomial(thom_series_A(1), ell - 1)
    assert residue_A0r(3, ell) == 2 * thom_polynomial(thom_series_A(2), ell - 1)


def test_residue_requires_positive_ell():
    with pytest.raises(PolyError):
        residue_A0r(4, 0)


# -- residues of mixed multisingularities -----------------------------------------------


def test_residue_A0A1_examples():
    assert residue_A0A1(1) == -2 * (C(1) * C(2) + C(3))
    assert residue_A0A1(2) == -2 * (C(2) * C(3) + C(1) * C(4) + 2 * C(5))


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_residue_A0A1_degree(ell):
    p = residue_A0A1(ell)
    assert p.is_homogeneous()
    assert p.weighted_degree() == 2 * ell + 1


def test_residue_III22():
    assert residue_III22(1) == schur2(3, 3) == C(3) ** 2 - C(2) * C(4)
    assert residue_III22(2) == schur2(4, 4)
    with pytest.raises(PolyError):
        residue_III22(0)


def test_residue_III22A0_ell1():
    assert residue_III22A0(1) == -4 * schur3(3, 3, 1) - 8 * schur3(4, 3, 0)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_residue_III22A0_sum_terminates(ell):
    # extending the defining sum past i = ell+1 only adds vanishing terms
    extended = zero()
    for i in range(1, ell + 6):
        extended = extended + 2 ** (i + 1) * schur3(
            ell + 1 + i, ell + 2, ell + 1 - i
        )
    assert residue_III22A0(ell) == -extended
    for i in range(ell + 2, ell + 6):
        assert schur3(ell + 1 + i, ell + 2, ell + 1 - i).is_zero()


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_residue_III22A0_degree(ell):
    p = residue_III22A0(ell)
    assert p.is_homogeneous()
    assert p.weighted_degree() == 3 * ell + 4


# -- explicit series -----------------------------------------------------------------


def _explicit_A3(max_shift: int):
    builtin = thom_series_A(3)
    return series_from_terms(
        "A3-explicit", builtin.terms(max_shift), max_degree=3 * max_shift
    )


@pytest.mark.parametrize("ell", [1, 2])
def test_explicit_series_matches_builtin(ell):
    series = _explicit_A3(2)
    assert residue_A0r(4, ell, series=series) == residue_A0r(4, ell)


def test_explicit_series_refuses_beyond_validity():
    series = _explicit_A3(2)
    with pytest.raises(SeriesValidityError):
        residue_A0r(4, 3, series=series)


def test_quintuple_requires_series():
    with pytest.raises(SeriesValidityError):
        residue_A0r(5, 1)


def test_series_json_round_trip():
    payload = [
        {"coeff": "1/1", "dIndices": [0]},
    ]
    payload.append({"validUpToDegree": 10})
    series = series_from_json(payload)
    assert series.delta == 2
    assert residue_A0r(2, 3, series=series) == -C(3)

    dict_payload = {
        "name": "A1x",
        "validUpToDegree": 4,
        "terms": [{"coeff": "1/1", "dIndices": [0]}],
    }
    series2 = series_from_json(dict_payload)
    assert residue_A0r(2, 2, series=series2) == -C(2)
    with pytest.raises(SeriesValidityError):
        residue_A0r(2, 5, series=series2)


def test_series_validation():
    with pytest.raises(PolyError):
        series_from_terms("bad", [(1, (1, 2))], 5)  # indices do not sum to 0
    with pytest.raises(PolyError):
        series_from_terms("bad", [(1, (0,)), (1, (1, -1))], 5)  # mixed arity
    with pytest.raises(PolyError):
        series_from_json([{"coeff": "1/1", "dIndices": [0]}])  # no validity


@pytest.mark.parametrize(
    "payload",
    [
        {"validUpToDegree": 4},  # no terms
        [{"coeff": "1/1"}, {"validUpToDegree": 4}],  # no dIndices
        [{"dIndices": [0]}, {"validUpToDegree": 4}],  # no coeff
        [{"coeff": "1/1", "dIndices": 5}, {"validUpToDegree": 4}],
        [{"coeff": "1/1", "dIndices": [0]}, {"validUpToDegree": 2.7}],
        {"validUpToDegree": True, "terms": [{"coeff": "1/1", "dIndices": [0]}]},
        [{"coeff": "1/1", "dIndices": [0.5, -0.5]}, {"validUpToDegree": 4}],
        [{"coeff": "1/1", "dIndices": [True, -1]}, {"validUpToDegree": 4}],
        ["A1", {"validUpToDegree": 4}],
        5,
        "[{",  # text that does not parse
    ],
)
def test_series_json_rejects_malformed_payload(payload):
    with pytest.raises(PolyError):
        series_from_json(payload)


# -- names and bookkeeping --------------------------------------------------------------


def test_parse_multisingularity():
    assert parse_multisingularity("A0^4") == ("A0",) * 4
    assert parse_multisingularity("A0A1") == ("A0", "A1")
    assert parse_multisingularity("A1A0^2") == ("A1", "A0", "A0")
    assert parse_multisingularity("III22A0") == ("III22", "A0")
    assert parse_multisingularity("III22") == ("III22",)
    with pytest.raises(UnsupportedMultisingularity):
        parse_multisingularity("B2")
    with pytest.raises(UnsupportedMultisingularity):
        parse_multisingularity("")


def test_residue_dispatch():
    assert residue("A0^4", 1) == residue_A0r(4, 1)
    assert residue("A0^2", 3) == residue_A0r(2, 3)
    assert residue("A0A1", 2) == residue_A0A1(2)
    assert residue("A1A0", 2) == residue_A0A1(2)
    assert residue("III22", 1) == residue_III22(1)
    assert residue("III22A0", 2) == residue_III22A0(2)
    for ell in (1, 2, 3):
        assert residue(("A0",), ell) == 1
    with pytest.raises(UnsupportedMultisingularity):
        residue("A1^2", 1)


def test_singularity_info():
    a2 = singularity_info("A2")
    assert (a2.delta, a2.corank, a2.defect) == (3, 1, 0)
    assert a2.codim(1) == 4
    iii = singularity_info("III22")
    assert (iii.delta, iii.corank, iii.defect) == (3, 2, 1)
    assert iii.codim(1) == 6
    with pytest.raises(PolyError):
        iii.codim(0)
    i22 = singularity_info("I22")
    assert i22.delta == 4
    assert i22.codim(2) == 10


@settings(max_examples=20)
@given(st.integers(1, 5))
def test_multisingularity_codim(ell):
    assert multisingularity_codim(("A0",) * 4, ell) == 3 * ell
    assert multisingularity_codim(("III22", "A0"), ell) == 3 * ell + 4
    assert multisingularity_codim(("A0",), ell) == 0
    assert multisingularity_codim(("A0", "A1"), ell) == 2 * ell + 1
