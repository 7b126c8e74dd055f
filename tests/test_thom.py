"""Thom series, the a-coefficient triangle, and residue polynomials."""

import hashlib
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multising.poly import (
    PolyError,
    cvar,
    one,
    root_var,
    schur_det,
    series_quotient,
    to_json,
    to_latex,
    zero,
)
from multising.thom import (
    MAX_EXPONENT,
    UnsupportedMultisingularity,
    a_coeff,
    a_triangle,
    multisingularity_codim,
    parse_multisingularity,
    residue,
    residue_A0r,
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


def _a_series(maxdeg):
    # the generating series (u(1-u)/(1-3u) + v(1-v)/(1-3v)) / (1-u-v), the
    # independent route to a_{i,j} through the bivariate series quotient
    u, v = root_var("u"), root_var("v")
    return sum(
        x * series_quotient([one() - x], [one() - 3 * x, one() - u - v], maxdeg - 1)
        for x in (u, v)
    )


def test_a_coeff_against_generating_series_and_binomial_oracle():
    series = _a_series(14)
    for i in range(15):
        for j in range(15 - i):
            expected = series.coefficient({("u", 0): i, ("v", 0): j})
            assert a_coeff(i, j) == expected == _a_oracle(i, j), (i, j)


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


# sha256 of the JSON list of (str(coeff), indices) pairs of thom_terms(k, shift),
# recorded before the series were held as integer tables.
THOM_TERMS_DIGESTS = {
    (0, 0): "7eaa963e1934da721c4d2b38b8c2b3cce388c0f4d4a4ed7aa88664118f124944",
    (0, 1): "7eaa963e1934da721c4d2b38b8c2b3cce388c0f4d4a4ed7aa88664118f124944",
    (0, 2): "7eaa963e1934da721c4d2b38b8c2b3cce388c0f4d4a4ed7aa88664118f124944",
    (0, 3): "7eaa963e1934da721c4d2b38b8c2b3cce388c0f4d4a4ed7aa88664118f124944",
    (0, 4): "7eaa963e1934da721c4d2b38b8c2b3cce388c0f4d4a4ed7aa88664118f124944",
    (0, 5): "7eaa963e1934da721c4d2b38b8c2b3cce388c0f4d4a4ed7aa88664118f124944",
    (0, 6): "7eaa963e1934da721c4d2b38b8c2b3cce388c0f4d4a4ed7aa88664118f124944",
    (1, 0): "80cca9fea21afed20555d72704a685ce9ece3ca730c4afa81692c470eb55619d",
    (1, 1): "80cca9fea21afed20555d72704a685ce9ece3ca730c4afa81692c470eb55619d",
    (1, 2): "80cca9fea21afed20555d72704a685ce9ece3ca730c4afa81692c470eb55619d",
    (1, 3): "80cca9fea21afed20555d72704a685ce9ece3ca730c4afa81692c470eb55619d",
    (1, 4): "80cca9fea21afed20555d72704a685ce9ece3ca730c4afa81692c470eb55619d",
    (1, 5): "80cca9fea21afed20555d72704a685ce9ece3ca730c4afa81692c470eb55619d",
    (1, 6): "80cca9fea21afed20555d72704a685ce9ece3ca730c4afa81692c470eb55619d",
    (2, 0): "1e970fccc7b64b6d4e252f48bbb94b168d5f44df2d37fa40900b13cc5e41380d",
    (2, 1): "d9e0ff65d93ff77d8ae8f713139df4cc772b119853ae9ebbd4c2b200acdd1629",
    (2, 2): "d06b61aa2b6e767c34cb915b5a140eccbc15314bfbfabb4b2fd3bfd3932d7443",
    (2, 3): "5a11711f0f2d3117399dcfff11e19b9b438999b573b7eb5a344e06e93adb48b3",
    (2, 4): "d0ad5c13f9fb116b6686d9a154883b48fcd6ec9a934dcabe739250ccf2f941f3",
    (2, 5): "71fd5733c2cb8527bf9b3c405c75df1d315bb7f37ca0644d211992c967b910ae",
    (2, 6): "87f74f7167481f6cd0713d10ed51c5f441924353e5e030724fa019d93bc8acb0",
    (3, 0): "bbd6c588f656d4b85f6eb795d770ca2b9d55f2bcc55bae6a09a6495ea50bf454",
    (3, 1): "c1852245ce76747b6282310b374fe896d0423c98ce9e4ff0ee7f7474be1daaf9",
    (3, 2): "dd298a8e9c627028a7e9ac9642640050df567559f2b2d544fc5bc4ee0c5b5ac4",
    (3, 3): "fca213c34fc863d26fcc6d95a9f23dba53e38709871aacef88d7e000717228df",
    (3, 4): "e80dd3ec50465a86d38b116ee953454d2e735a0197e0bb83d74a737b27f8f1b8",
    (3, 5): "22ea3611030d60682cabf56e8548fe6d9a61a7825051a2128500fe1b9d7ab131",
    (3, 6): "435d8d6336e6194d971ffe288b066b96037eb9e7846fac49b167b80cd18ffaa6",
}


@pytest.mark.parametrize("k, shift", sorted(THOM_TERMS_DIGESTS))
def test_thom_terms_match_recorded_digest(k, shift):
    terms = [(str(coeff), list(indices)) for coeff, indices in thom_terms(k, shift)]
    digest = hashlib.sha256(json.dumps(terms).encode()).hexdigest()
    assert digest == THOM_TERMS_DIGESTS[(k, shift)]


# -- Thom polynomials ---------------------------------------------------------------


# sha256 of to_json(thom_polynomial(k, ell)), recorded before the series were
# held as integer tables.
THOM_POLYNOMIAL_DIGESTS = {
    (0, 0): "974c890f2dad750a0312a5382356294f6079591c3b34d004a3ac6cdb88551258",
    (0, 1): "974c890f2dad750a0312a5382356294f6079591c3b34d004a3ac6cdb88551258",
    (0, 2): "974c890f2dad750a0312a5382356294f6079591c3b34d004a3ac6cdb88551258",
    (0, 3): "974c890f2dad750a0312a5382356294f6079591c3b34d004a3ac6cdb88551258",
    (0, 4): "974c890f2dad750a0312a5382356294f6079591c3b34d004a3ac6cdb88551258",
    (0, 5): "974c890f2dad750a0312a5382356294f6079591c3b34d004a3ac6cdb88551258",
    (0, 6): "974c890f2dad750a0312a5382356294f6079591c3b34d004a3ac6cdb88551258",
    (1, 0): "41c69794bfa905092a109c2c85f7db4be4781be84b10ca3f5ed0236eac8ea73d",
    (1, 1): "f25f11897b1edc95ca5dfbe162203de69a3368e2b9ead7a64043d02b22ce1605",
    (1, 2): "1b1d53fe3c255a0471359bbb72f49735366048415def54c0349206e4cadeb3d9",
    (1, 3): "b7a147f05ff2f4b77b2bc009ea3c0c3e6f091a0d0cc637e81a0ede2ed778a56e",
    (1, 4): "e77e497a0b6c3c81b0813d40f25b6fec2a6758c33e805490d8497ce9154fae23",
    (1, 5): "5ed7ebeb11ae5f37b5c92a646eafcf448072a11660d5af988aaad63f26f22f84",
    (1, 6): "cbd5235b1b23e75383ace7f01bbc46ab42ef2e405c251f419cde61f466d40d32",
    (2, 0): "2ba7765083bbd98c9b762c4edd9a006390f396fac47b46ec130a0d1c40b4833c",
    (2, 1): "e204a3964bd74b5a10c8275e13e0f0e88a29ac7aee866e2ce3e58822da28b4ef",
    (2, 2): "c9d95fa620ac34a330e51d492aef13e96c09d58799a010a070b8a6c134a31488",
    (2, 3): "3bb33a69870ca6949e855180100b189fdcdde9009bd445208adf1b610ae37fe7",
    (2, 4): "dad2f2be1053ffb80b2df30eef6cc6076744c2919615663e4006b1d1ca8e6198",
    (2, 5): "b33b02a001af11c1f292540d564994937a8ffd62ca91ac0e0a272cc89d048442",
    (2, 6): "8acf3967080cf156e8dd0b086b4a7467ca16b64d6bb8bd0e4d5e217e42e07c83",
    (3, 0): "fb27f91f30c61d9b5bd284f6878e42511edba1d1c819505b8a2d88421082382d",
    (3, 1): "1b9000bd83b9db960576ec91023e83552fbad627209b11d5598a582ab71862f9",
    (3, 2): "5b1ef39879b3fb4017425605fb809a34d37278f9f36248334314bed195440e13",
    (3, 3): "b3ef6fae4e18ddc04be13f67371f51f8df00d1290584dea9637def49941c6f0c",
    (3, 4): "07852ebfaa38cf01840438ffa8055d9f66a66788ca7f551981e020928e304bbf",
    (3, 5): "026f94bf565c0f83647fd39e2b4522c9c362ccbcbf8db6506303197f681dd467",
    (3, 6): "52f3768e9f497897939c124891ac3aa53a790aa0bbe59f74e841fc9e8a098195",
}


@pytest.mark.parametrize("k, ell", sorted(THOM_POLYNOMIAL_DIGESTS))
def test_thom_polynomial_matches_recorded_digest(k, ell):
    digest = hashlib.sha256(to_json(thom_polynomial(k, ell)).encode()).hexdigest()
    assert digest == THOM_POLYNOMIAL_DIGESTS[(k, ell)]



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


# sha256 of to_json(residue(name, ell)).  The A_0^r rows were recorded
# before residues were built in one pass from the Thom terms, the other rows
# before every residue was read from one series table.
RESIDUE_DIGESTS = {
    ("A0^2", 1): "8abdb70af6013354d9116249a97cdfbf4131ddb0d2fe6ebfb5f5910df65797aa",
    ("A0^2", 2): "c727e9f8ab84d562113c0899dc7d0d97c30d0bee145c5c07c68bf60051ad3574",
    ("A0^2", 3): "3cfa85b6a0df3f4d336417b62ee0c94dbddd2ee20639e3378062d9a96a94ed32",
    ("A0^2", 4): "b8d9224dced3cb74c3818bd044b293ea563230e0f9bba010a6e41f49086bb837",
    ("A0^2", 5): "f1b00d232556f53e14b7354f3abebe594ce917c5a69ada5b80c689506be16654",
    ("A0^2", 6): "a51955d5abd89c3bac044844de326ce655bfdbbc1312fe0591be89e42df09e3e",
    ("A0^3", 1): "02fdc6e63679dff5a7f8ce9d1bc1e8c1f5a30d201f7d3d09536b10702b50ca56",
    ("A0^3", 2): "c361b7ba1204766d578f435555b022621a9f16ed069163c0936a4a540556da9d",
    ("A0^3", 3): "1ea6885bd89b2a4338254d11e9a40b5f4721fca30b38f3db7eb321bf44a465ec",
    ("A0^3", 4): "ac1315ab810eff333ce9d17854068d3b063b3bf3068ead4a8d4082795adbc2c3",
    ("A0^3", 5): "1a68d61a2fd043d81d7d70dafdd8c6daa112550a1931d3d47474d14b41701b00",
    ("A0^3", 6): "82d535f257bdc212adac0c0ef8da7917f9f238d10a7fed871758f510e7be8962",
    ("A0^4", 1): "947423cf014c83dff01115a582bb0ad5a89a88eb2fd06d70cf14efaf95f290f2",
    ("A0^4", 2): "0244202af9c9d118e66d15c17102236e2164d4ead6d9115faea3cc15c8afd84f",
    ("A0^4", 3): "0d75ddd85ff3e1aede6128dbc21e19a6bef90062845918bcb059a386362f4fec",
    ("A0^4", 4): "12bbcb9a857219ce4bb2b83b3e27c6d3bedc57992cd5177a2f078ccb952b10c7",
    ("A0^4", 5): "1e1fcae77bc1cf7bfc8b7c431b261bccf474b408ab1b6ef4b868bc28b024a362",
    ("A0^4", 6): "9cfa667636bd1bfdba41b2e5e787fc8bb902388dbab86a8d96e8d64000886339",
    ("III22", 1): "01a91c4211717e83bf00803bd02f19adbced15a30d961dac0522729669381e80",
    ("III22", 2): "ec620321f09a3b5e753af37fca349cc75146f3870b64f95ea3c8180104619bb4",
    ("III22", 3): "b32422450378a686b899df209a08141abdbe4c33fb1229974816646d993d4141",
    ("III22", 4): "62e35783d62c38e2a1fef2735fe3b18d70ae8bcfc9e375aa867ad35cd0d0dbb3",
    ("III22", 5): "45e6913abe2b381e156598cbde183e2e60bed44520ab12afa27a278789dab6db",
    ("III22", 6): "a47cb7a1cd870e38c649fedf4706c3b14d089cbd90e6cd253ba574092fcac81e",
    ("A0A1", 1): "f19ebe04eff42ad81cc4dc86e430ea6d836bfe213b93ad79dac58fb46b0b8b9d",
    ("A0A1", 2): "0ef62c8a24a0bba60ae49d498aea790fb47bcafbaab8c1302d55014bf1e3b96a",
    ("A0A1", 3): "2db3e7fcc33564465961b579f2ae15097041db8a10b6d4d592a68c147c684954",
    ("A0A1", 4): "9d833111cc8557573901caedf679325c53e1d1c75cfe91b05cd4a3948038fb3e",
    ("A0A1", 5): "e1d693610c0388c347f8a9362183812e386952089e99c547a99fd0782b176af0",
    ("A0A1", 6): "6dce14e3936aa3b4fd3ded0157a0a90759d8d0b1fee3872d4d4117c07d4388db",
    ("III22A0", 1): "e112e3580026d47c537ad86760a83598c0e533c71d81e917921f8c93e6fd8b95",
    ("III22A0", 2): "dca25e2151053ce741b5bfa399d0135c50aee97297ee4250e16550e449cc9f54",
    ("III22A0", 3): "09bacb8e748e9019c660fa968932c9abde41958a37427b1c9bb14272c11c5316",
    ("III22A0", 4): "414ee5857ae49cbd38258ebc08f813e95345044cc1fd5ed816d0a3162e2114b7",
    ("III22A0", 5): "5c4787305b22a352385e3adebe305008950a17a9f25259f01d8ac5c74f7e476d",
    ("III22A0", 6): "984a1d2a4b00d634875d915803d0fc90ae6a8ecbfa847dc3b560c8b587124815",
}

# each mixed name spelled with its points in the other order
_REORDERED = {"III22": "III22", "A0A1": "A1A0", "III22A0": "A0III22"}


def _residue_digest(name, ell):
    return hashlib.sha256(to_json(residue(name, ell)).encode()).hexdigest()


@pytest.mark.parametrize("r, ell", [(r, ell) for r in (2, 3, 4) for ell in range(1, 7)])
def test_residue_A0r_matches_recorded_digest(r, ell):
    assert _residue_digest(f"A0^{r}", ell) == RESIDUE_DIGESTS[(f"A0^{r}", ell)]


@pytest.mark.parametrize("name, ell", [key for key in RESIDUE_DIGESTS if key[0] in _REORDERED])
def test_mixed_residue_matches_recorded_digest(name, ell):
    # residues do not depend on which point is distinguished
    for spelling in (name, _REORDERED[name]):
        assert _residue_digest(spelling, ell) == RESIDUE_DIGESTS[(name, ell)], spelling


def test_residue_requires_positive_ell():
    with pytest.raises(PolyError):
        residue_A0r(4, 0)


def test_residue_A0r_is_built_once_per_r_and_ell():
    assert residue_A0r(4, 3) is residue_A0r(4, 3)
    assert residue_A0r(3, 3) is not residue_A0r(4, 3)


@pytest.mark.parametrize("r, ell, error", [
    (True, 1, UnsupportedMultisingularity),
    (4, True, PolyError),
    (4.0, 1, UnsupportedMultisingularity),
    (4, 1.0, PolyError),
    (1, 1, UnsupportedMultisingularity),
    (5, 1, UnsupportedMultisingularity),
    (4, 0, PolyError),
    (4, -1, PolyError),
])
def test_residue_A0r_refuses_bad_arguments_before_its_cache(r, ell, error):
    with pytest.raises(error):
        residue_A0r(r, ell)


# -- residues of mixed multisingularities -----------------------------------------------


def test_residue_A0A1_examples():
    assert residue("A0A1", 1) == -2 * (C(1) * C(2) + C(3))
    assert residue("A0A1", 2) == -2 * (C(2) * C(3) + C(1) * C(4) + 2 * C(5))


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_residue_A0A1_degree(ell):
    p = residue("A0A1", ell)
    assert p.is_homogeneous()
    assert p.weighted_degree() == 2 * ell + 1


def test_residue_III22():
    assert residue("III22", 1) == schur_det(3, 3) == C(3) ** 2 - C(2) * C(4)
    assert residue("III22", 2) == schur_det(4, 4)
    with pytest.raises(PolyError):
        residue("III22", 0)


def test_residue_III22_is_built_once_per_ell():
    # germs restricts it by identity, so one instance per ell is its contract
    assert residue(("III22",), 2) is residue(("III22",), 2) is residue("III22", 2)
    assert residue("III22", 1) is not residue("III22", 2)
    for bad in (True, 1.0):
        with pytest.raises(PolyError):
            residue("III22", bad)


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


def test_parse_multisingularity_bounds_exponents():
    assert parse_multisingularity(f"A0^{MAX_EXPONENT}") == ("A0",) * MAX_EXPONENT
    for name in (
        f"A0^{MAX_EXPONENT + 1}",
        "A0^" + "9" * 5000,  # beyond the digits int() takes
        "A0^00004",  # leading zeros, which A<k> names refuse too
        "A0^04",
        "A0^0",
        "A0^\u0661",
    ):
        with pytest.raises(UnsupportedMultisingularity):
            parse_multisingularity(name)


def test_parse_multisingularity_refuses_a_large_exponent_before_building_tokens():
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedMultisingularity):
            parse_multisingularity("A1A0^123456789")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the tokens alone would take about 1 GB


def test_residue_dispatch():
    assert residue("A0^4", 1) == residue_A0r(4, 1)
    assert residue("A0^2", 3) == residue_A0r(2, 3)
    assert residue("A0A1", 2) == residue(("A0", "A1"), 2)
    assert residue("A1A0", 2) == residue("A0A1", 2)
    assert residue("III22", 1) == residue(("III22",), 1)
    assert residue("III22A0", 2) == residue_III22A0(2)
    for ell in (1, 2, 3):
        assert residue(("A0",), ell) == 1
    for multi in ("A1^2", 5, None, ("A0", 5), b"A0^2"):
        with pytest.raises(UnsupportedMultisingularity):
            residue(multi, 1)
    for multi, ell in (("A0", -5), ("A0", 1.5), (("A0",), "2"), (("A0",), True),
                       ("A1", 0), ("A2", -1), ("A3", 1.0), (("A1",), True)):
        with pytest.raises(PolyError, match="relative dimension ell of a residue"):
            residue(multi, ell)


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_residue_of_a_lone_A_k_is_its_thom_polynomial(ell):
    assert residue(("A1",), ell) == cvar(ell + 1)
    for k in (0, 1, 2, 3):
        assert residue(f"A{k}", ell) == thom_polynomial(k, ell)
    with pytest.raises(UnsupportedMultisingularity):
        residue(("A4",), ell)


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
    # (x, y) -> (x^2, y^2) is stable at ell = 0, of codimension 3*0 + 4
    assert (i22.min_ell, i22.codim(0)) == (0, 4)


@pytest.mark.parametrize("k", [0, 1, 3, 8, 9, 12, 40])
def test_singularity_info_parses_every_A_k(k):
    info = singularity_info(f"A{k}")
    assert (info.name, info.delta, info.corank) == (f"A{k}", k + 1, min(k, 1))
    assert info.codim(2) == 3 * k
    # two infos built separately are equal values with equal hashes
    assert info == singularity_info(f"A{k}")
    assert hash(info) == hash(singularity_info(f"A{k}"))
    assert parse_multisingularity(f"A{k}^2A0") == (f"A{k}", f"A{k}", "A0")


@pytest.mark.parametrize("name", [
    "A01", "A00", "A", "A-1", "A1 ", "a1", "A\u0661", "III23", "I2", "D4",
    pytest.param("A" + "9" * 641, id="A-641-digits"),
])
def test_singularity_info_refuses_other_names(name):
    with pytest.raises(UnsupportedMultisingularity):
        singularity_info(name)
    with pytest.raises(UnsupportedMultisingularity):
        parse_multisingularity(name + "A0")


@settings(max_examples=20)
@given(st.integers(1, 5))
def test_multisingularity_codim(ell):
    assert multisingularity_codim(("A0",) * 4, ell) == 3 * ell
    assert multisingularity_codim(("III22", "A0"), ell) == 3 * ell + 4
    assert multisingularity_codim(("A0",), ell) == 0
    assert multisingularity_codim(("A0", "A1"), ell) == 2 * ell + 1
