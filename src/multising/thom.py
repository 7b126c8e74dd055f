"""Thom series of Morin singularities and residue polynomials.

A Thom series for a singularity of local multiplicity delta is a formal sum
of terms coeff * d_{i_1} ... d_{i_{delta-1}} whose index sum is zero.
Substituting d_j -> c_{j+shift} (with c_0 = 1 and c_{<0} = 0) at
shift = ell + 1 gives the Thom polynomial of the monosingularity at relative
dimension ell, and every residue polynomial is such a series at shift = ell.

One table, _SERIES, keyed by the sorted tokens of each served
multisingularity, holds (den, build, scale, lift): build(shift) lists
(numerator, indices) pairs over den, and the residue at ell is scale times
that series at shift = ell + lift.  The integer tables of A_0 through A_3
(the a_{i,j} of A_3 from their integer recurrence) serve a lone A_k (lift 1,
its Thom polynomial) and A_0^{k+1} (scale (-1)^k k!).  III_{2,2} is the
Jacobi-Trudi expansion of s(2, 2), A_0A_1 a two-index series and
III_{2,2}A_0 a sum of Jacobi-Trudi expansions.  poly.chern_poly packs every
entry and drops each term with an index below 0 after the shift, which is
why the III_{2,2}A_0 sum stops at i = ell + 1: beyond it the third part
1 - i + ell is negative.
"""

from __future__ import annotations

import functools
import re
from typing import Sequence, Union

from .poly import (
    GradedPoly,
    PolyError,
    Rat,
    Record,
    check_int,
    chern_poly,
    rat,
    schur_terms,
)


class UnsupportedMultisingularity(PolyError):
    """No residue formula is available for the requested multisingularity."""


# -- the a_{i,j} coefficient triangle ------------------------------------------

def _a_rows(rows: int) -> list:
    """Rows 0..rows-1 of the triangle by a_{i,j} = a_{i-1,j} + a_{i,j-1} +
    [j=0] f_i + [i=0] f_j, where sum f_n u^n = u(1-u)/(1-3u)."""
    triangle = [[0]]
    for n in range(1, rows):
        f = 2 * 3 ** (n - 2) if n > 1 else 1
        triangle.append([x + y for x, y in zip([f, *triangle[-1]], [*triangle[-1], f])])
    return triangle[:rows]


def a_coeff(i: int, j: int) -> Rat:
    """Coefficient a_{i,j} in the three-point part of the A_3 series, 0 when
    an index is negative."""
    if min(check_int(index, None, "index of a_{i,j}") for index in (i, j)) < 0:
        return rat(0)
    return rat(_a_rows(i + j + 1)[i + j][j])


def a_triangle(rows: int) -> list:
    """Rows 0..rows-1 of the triangle; row n lists a_{n-j,j} for j = 0..n."""
    check_int(rows, 0, "number of rows of the a triangle")
    return _a_rows(rows)


# -- Thom series ---------------------------------------------------------------


def _series_A2(shift: int) -> list:
    """d_0^2 + sum_{i=1}^{shift} 2^(i-1) d_{-i}d_i."""
    return [(1, (0, 0))] + [(2 ** (i - 1), (-i, i)) for i in range(1, shift + 1)]


def _series_A3(shift: int) -> list:
    """Over 6: 2^i d_{-i}d_0d_i, 2^i 3^j / 3 d_{-i}d_{-j}d_{i+j}, a_{i,j} / 2 d_{-i-j}d_id_j."""
    rows, span = _a_rows(shift + 1), range(1, shift + 1)
    return (
        [(6 * 2 ** i, (-i, 0, i)) for i in range(shift + 1)]
        + [(2 ** (i + 1) * 3 ** j, (-i, -j, i + j)) for i in span for j in span]
        + [(3 * rows[i + j][j], (-i - j, i, j))
           for i in range(shift + 1) for j in range(shift + 1 - i) if i or j]
    )


def _series_A0A1(shift: int) -> list:
    """d_0d_1 + sum_{i<shift} 2^i d_{-1-i}d_{2+i}."""
    return [(1, (0, 1))] + [(2 ** i, (-1 - i, 2 + i)) for i in range(shift)]


def _series_III22A0(shift: int) -> list:
    """sum_{i=1}^{shift+1} 2^(i+1) s(1+i, 2, 1-i)."""
    return [(2 ** (i + 1) * sign, indices) for i in range(1, shift + 2)
            for sign, indices in schur_terms((1 + i, 2, 1 - i))]


# (den, build, scale, lift) of each served multisingularity, keyed by its
# sorted tokens, as the module docstring sets out; the lone A_k entries list
# the terms of thom_terms in order.
_SERIES = {
    ("A0",): (1, lambda shift: [(1, ())], 1, 1),
    ("A1",): (1, lambda shift: [(1, (0,))], 1, 1),
    ("A2",): (1, _series_A2, 1, 1),
    ("A3",): (6, _series_A3, 1, 1),
    ("A0", "A0"): (1, lambda shift: [(1, (0,))], -1, 0),
    ("A0", "A0", "A0"): (1, _series_A2, 2, 0),
    ("A0", "A0", "A0", "A0"): (6, _series_A3, -6, 0),
    ("III22",): (1, lambda shift: schur_terms((2, 2)), 1, 0),
    ("A0", "A1"): (1, _series_A0A1, -2, 0),
    ("A0", "III22"): (1, _series_III22A0, -1, 0),
}


def _check_k(k: int) -> int:
    return check_int(k, 0, "Thom series index k", most=3, error=UnsupportedMultisingularity)


def thom_terms(k: int, shift: int) -> list:
    """Terms of the Thom series of A_k (k = 0..3) surviving d_j -> c_{j+shift}.

    Each term is (coeff, indices) with k indices summing to zero, every
    index >= -shift.
    """
    den, build, _, _ = _SERIES[(f"A{_check_k(k)}",)]
    check_int(shift, 0, "substitution shift")
    return [(rat(num, den), indices) for num, indices in build(shift)]


@functools.cache
def _residue(key: tuple, ell: int) -> GradedPoly:
    """The _SERIES entry of key at a checked ell, so no bool or float is a
    key.  It is built once per (key, ell) and every later call returns that
    one instance: polynomials are immutable, so sharing it is safe."""
    den, build, scale, lift = _SERIES[key]
    shift = ell + lift
    return chern_poly([(scale * num, indices) for num, indices in build(shift)], shift, den)


def thom_polynomial(k: int, ell: int) -> GradedPoly:
    """Thom polynomial of A_k (k = 0..3) at relative dimension ell >= 0."""
    return _residue((f"A{_check_k(k)}",), check_int(ell, 0, "relative dimension ell"))


# -- residue polynomials ---------------------------------------------------------


def residue_A0r(r: int, ell: int) -> GradedPoly:
    """Residue polynomial of the r-fold point multisingularity A_0^r, r = 2..4.

    It is the shifted Thom series of A_{r-1}; any other r raises
    UnsupportedMultisingularity.
    """
    check_int(r, 2, "A_0^r multiplicity r", most=4, error=UnsupportedMultisingularity)
    return _residue(("A0",) * r, check_int(ell, 1, "relative dimension ell of a residue"))


def residue_III22A0(ell: int) -> GradedPoly:
    """Residue polynomial of the multisingularity III_{2,2}A_0 (ell >= 1)."""
    return _residue(("A0", "III22"), check_int(ell, 1, "relative dimension ell of III_{2,2}A_0"))


# -- singularity bookkeeping ------------------------------------------------------


class SingularityInfo(Record):
    """Static data of a monosingularity family.

    delta is the local multiplicity (dimension of the local algebra), corank
    the rank drop of the differential, and min_ell the smallest relative
    dimension with a stable representative.  The codimension in the space
    of germs at relative dimension ell is slope * ell + offset.  Every field
    is plain data, so two infos of one singularity compare and hash alike.
    """

    name: str
    delta: int
    corank: int
    slope: int
    offset: int
    min_ell: int

    @property
    def defect(self) -> int:
        return max(self.corank - 1, 0)

    def codim(self, ell: int) -> int:
        ell = check_int(ell, self.min_ell, f"relative dimension ell of {self.name}")
        return self.slope * ell + self.offset


_SIGMA2 = {
    "III22": SingularityInfo("III22", delta=3, corank=2, slope=2, offset=4, min_ell=1),
    "I22": SingularityInfo("I22", delta=4, corank=2, slope=3, offset=4, min_ell=0),
}

_A_K = re.compile(r"A(0|[1-9][0-9]{0,639})")  # int() may refuse more than 640 digits

# The largest exponent of a token in a multisingularity name.  Each unit of
# an exponent is one more point, one more token of the parsed tuple, and the
# residue formulas stop at four points; the bound keeps a name such as
# A0^123456789 from building a tuple of that many tokens.
MAX_EXPONENT = 64
# one token of a multisingularity name and its optional exponent, which has
# no leading zeros
_TOKEN = r"(III\d\d|I\d\d|A\d+)(?:\^([1-9][0-9]*))?"


def singularity_info(name: str) -> SingularityInfo:
    """The data of A<k> for every k >= 0 (no leading zeros), III22 or I22.

    This is the one list of the singularities that exist: names are parsed
    and prototypes are built from it.  Any other name raises
    UnsupportedMultisingularity.
    """
    if isinstance(name, str):
        if name in _SIGMA2:
            return _SIGMA2[name]
        match = _A_K.fullmatch(name)
        if match:
            k = int(match.group(1))
            return SingularityInfo(
                name, delta=k + 1, corank=min(k, 1), slope=k, offset=k, min_ell=0
            )
    raise UnsupportedMultisingularity(f"unknown singularity {name!r}")


# -- multisingularity names ---------------------------------------------------------


def parse_multisingularity(text: str) -> tuple:
    """Parse names such as A0^4, A0A1, III22A0 into a tuple of tokens.

    The first token is the distinguished element.  Exponents repeat the
    preceding token; they have no leading zeros and are at most
    MAX_EXPONENT, and every token and exponent is checked before the tuple
    is built.
    """
    if not isinstance(text, str):
        raise UnsupportedMultisingularity(f"multisingularity name {text!r} is not a string")
    text = text.strip()
    if not re.fullmatch(f"(?:{_TOKEN})+", text):
        raise UnsupportedMultisingularity(f"cannot parse multisingularity name {text!r}")
    parts = []
    for token, power in re.findall(_TOKEN, text):
        # the length comes first: int() refuses strings of more than 4300 digits
        if len(power) > len(str(MAX_EXPONENT)) or int(power or 1) > MAX_EXPONENT:
            raise UnsupportedMultisingularity(f"an exponent of {token} exceeds {MAX_EXPONENT}")
        parts.append((singularity_info(token).name, int(power or 1)))
    return tuple(name for name, count in parts for _ in range(count))


def residue(multi: Union[str, Sequence[str]], ell: int) -> GradedPoly:
    """Residue polynomial of a multisingularity at relative dimension ell.

    multi is a name such as A0^4 or a tuple or list of tokens.  Residues do
    not depend on which point is distinguished.  The residue of a lone A_k
    (k = 0..3) is its Thom polynomial, as III_{2,2}'s is s(ell+2, ell+2):
    1 for A0 and c_{ell+1} for A1.
    """
    if isinstance(multi, str):
        tokens = parse_multisingularity(multi)
    elif isinstance(multi, (tuple, list)) and all(isinstance(t, str) for t in multi):
        tokens = tuple(multi)
    else:
        raise UnsupportedMultisingularity(f"{multi!r} is not a multisingularity")
    key = tuple(sorted(tokens))
    if key not in _SERIES:
        raise UnsupportedMultisingularity(
            f"no residue formula for multisingularity {''.join(tokens)!r}"
        )
    return _residue(key, check_int(ell, 1, "relative dimension ell of a residue"))


def multisingularity_codim(tokens: Sequence[str], ell: int) -> int:
    """Codimension of the source multisingularity locus of a nonempty tuple
    or list of names."""
    if not isinstance(tokens, (tuple, list)) or not tokens:
        raise UnsupportedMultisingularity(f"{tokens!r} is not a nonempty tuple of names")
    check_int(ell, 0, "relative dimension ell of a multisingularity")
    r = len(tokens)
    return (r - 1) * ell + sum(singularity_info(t).codim(ell) for t in tokens)
