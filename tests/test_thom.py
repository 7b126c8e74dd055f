"""Thom series, the a-coefficient triangle, and residue polynomials."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multising.poly import PolyError, cvar, schur_det, to_json, to_latex, zero
from multising.thom import (
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
    singularity_info,
    thom_polynomial,
    thom_terms,
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
    for coeff, indices in thom_terms(k, shift):
        assert len(indices) == k
        assert sum(indices) == 0
        assert all(ix >= -shift for ix in indices)
        assert coeff != 0


def test_series_A4_not_builtin():
    with pytest.raises(UnsupportedMultisingularity):
        thom_terms(4, 1)


@pytest.mark.parametrize("k", [True, 2.0, -1, 4, "2", None])
def test_thom_terms_rejects_bad_index(k):
    with pytest.raises(UnsupportedMultisingularity):
        thom_terms(k, 1)


@pytest.mark.parametrize("shift", [True, 1.0, -1])
def test_thom_terms_rejects_bad_shift(shift):
    with pytest.raises(PolyError):
        thom_terms(2, shift)


# -- Thom polynomials ---------------------------------------------------------------


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_thom_polynomial_A1(ell):
    assert thom_polynomial(1, ell) == C(ell + 1)


def test_thom_polynomial_A2_examples():
    assert thom_polynomial(2, 0) == C(1) ** 2 + C(2)
    assert thom_polynomial(2, 1) == C(2) ** 2 + C(1) * C(3) + 2 * C(4)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_thom_polynomial_homogeneous_of_codimension(k, ell):
    tp = thom_polynomial(k, ell)
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
    assert residue_A0r(2, ell) == -1 * thom_polynomial(1, ell - 1)
    assert residue_A0r(3, ell) == 2 * thom_polynomial(2, ell - 1)


# sha256 of to_json(residue_A0r(r, ell)), recorded before residues were
# built in one pass from the Thom terms.
RESIDUE_DIGESTS = {
    (2, 1): "8abdb70af6013354d9116249a97cdfbf4131ddb0d2fe6ebfb5f5910df65797aa",
    (2, 2): "c727e9f8ab84d562113c0899dc7d0d97c30d0bee145c5c07c68bf60051ad3574",
    (2, 3): "3cfa85b6a0df3f4d336417b62ee0c94dbddd2ee20639e3378062d9a96a94ed32",
    (2, 4): "b8d9224dced3cb74c3818bd044b293ea563230e0f9bba010a6e41f49086bb837",
    (2, 5): "f1b00d232556f53e14b7354f3abebe594ce917c5a69ada5b80c689506be16654",
    (2, 6): "a51955d5abd89c3bac044844de326ce655bfdbbc1312fe0591be89e42df09e3e",
    (3, 1): "02fdc6e63679dff5a7f8ce9d1bc1e8c1f5a30d201f7d3d09536b10702b50ca56",
    (3, 2): "c361b7ba1204766d578f435555b022621a9f16ed069163c0936a4a540556da9d",
    (3, 3): "1ea6885bd89b2a4338254d11e9a40b5f4721fca30b38f3db7eb321bf44a465ec",
    (3, 4): "ac1315ab810eff333ce9d17854068d3b063b3bf3068ead4a8d4082795adbc2c3",
    (3, 5): "1a68d61a2fd043d81d7d70dafdd8c6daa112550a1931d3d47474d14b41701b00",
    (3, 6): "82d535f257bdc212adac0c0ef8da7917f9f238d10a7fed871758f510e7be8962",
    (4, 1): "947423cf014c83dff01115a582bb0ad5a89a88eb2fd06d70cf14efaf95f290f2",
    (4, 2): "0244202af9c9d118e66d15c17102236e2164d4ead6d9115faea3cc15c8afd84f",
    (4, 3): "0d75ddd85ff3e1aede6128dbc21e19a6bef90062845918bcb059a386362f4fec",
    (4, 4): "12bbcb9a857219ce4bb2b83b3e27c6d3bedc57992cd5177a2f078ccb952b10c7",
    (4, 5): "1e1fcae77bc1cf7bfc8b7c431b261bccf474b408ab1b6ef4b868bc28b024a362",
    (4, 6): "9cfa667636bd1bfdba41b2e5e787fc8bb902388dbab86a8d96e8d64000886339",
}


@pytest.mark.parametrize("r, ell", sorted(RESIDUE_DIGESTS))
def test_residue_A0r_matches_recorded_digest(r, ell):
    digest = hashlib.sha256(to_json(residue_A0r(r, ell)).encode()).hexdigest()
    assert digest == RESIDUE_DIGESTS[(r, ell)]


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
    assert residue_III22(1) == schur_det(3, 3) == C(3) ** 2 - C(2) * C(4)
    assert residue_III22(2) == schur_det(4, 4)
    with pytest.raises(PolyError):
        residue_III22(0)


def test_residue_III22A0_ell1():
    assert residue_III22A0(1) == -4 * schur_det(3, 3, 1) - 8 * schur_det(4, 3, 0)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_residue_III22A0_sum_terminates(ell):
    # extending the defining sum past i = ell+1 only adds vanishing terms
    extended = zero()
    for i in range(1, ell + 6):
        extended = extended + 2 ** (i + 1) * schur_det(
            ell + 1 + i, ell + 2, ell + 1 - i
        )
    assert residue_III22A0(ell) == -extended
    for i in range(ell + 2, ell + 6):
        assert schur_det(ell + 1 + i, ell + 2, ell + 1 - i).is_zero()


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_residue_III22A0_degree(ell):
    p = residue_III22A0(ell)
    assert p.is_homogeneous()
    assert p.weighted_degree() == 3 * ell + 4


def test_quintuple_and_beyond_unsupported():
    # only the Thom series of A_0..A_3 are built in, so A_0^r stops at r = 4
    for r in (1, 5, 6, 7, 8):
        with pytest.raises(UnsupportedMultisingularity):
            residue_A0r(r, 1)
    with pytest.raises(UnsupportedMultisingularity):
        residue("A0^5", 1)


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
    with pytest.raises(UnsupportedMultisingularity):
        parse_multisingularity(5)


def test_residue_dispatch():
    assert residue("A0^4", 1) == residue_A0r(4, 1)
    assert residue("A0^2", 3) == residue_A0r(2, 3)
    assert residue("A0A1", 2) == residue_A0A1(2)
    assert residue("A1A0", 2) == residue_A0A1(2)
    assert residue("III22", 1) == residue_III22(1)
    assert residue("III22A0", 2) == residue_III22A0(2)
    for ell in (1, 2, 3):
        assert residue(("A0",), ell) == 1
    for multi in ("A1^2", 5, None, ("A0", 5), b"A0^2"):
        with pytest.raises(UnsupportedMultisingularity):
            residue(multi, 1)
    for multi, ell in (("A0", -5), ("A0", 1.5), (("A0",), "2"), (("A0",), True)):
        with pytest.raises(PolyError):
            residue(multi, ell)


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
