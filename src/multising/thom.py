"""Thom series of Morin singularities and residue polynomials.

A Thom series for a singularity of local multiplicity delta is a formal sum
of terms coeff * d_{i_1} ... d_{i_{delta-1}} whose index sum is zero.  The
two substitutions used downstream shift every index by a fixed amount and
replace d_j with the Chern variable c_{j+shift} (with c_0 = 1 and c_{<0} = 0):

  * Thom polynomial of the monosingularity at relative dimension ell:
    shift = ell + 1;
  * residue polynomial of the multisingularity A_0^r at relative
    dimension ell: shift = ell, scaled by (-1)^(r-1) (r-1)!.

Closed-form series are built in for A_0 through A_3 as integer tables of
(numerator, indices) pairs over one denominator per k (6 for A_3); the
a_{i,j} of A_3 come from their integer recurrence.  Both substitutions sum
a table's numerators as ints, fold in the scale and pack the polynomial's
keys directly.  The residue of a lone A_k is its Thom polynomial.  Residues
for the mixed multisingularities A_0A_1, III_{2,2} and III_{2,2}A_0 are
closed formulas in Chern variables and Schur determinants.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from typing import Sequence, Union

from .poly import (
    _FIELD,
    GradedPoly,
    PolyError,
    Rat,
    Record,
    _pack,
    _poly,
    _width,
    check_int,
    cvar,
    rat,
    schur_det,
    zero,
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


def _series_A3(shift: int) -> list:
    """Over 6: 2^i d_{-i}d_0d_i, 2^i 3^j / 3 d_{-i}d_{-j}d_{i+j}, a_{i,j} / 2 d_{-i-j}d_id_j."""
    rows, span = _a_rows(shift + 1), range(1, shift + 1)
    return (
        [(6 * 2 ** i, (-i, 0, i)) for i in range(shift + 1)]
        + [(2 ** (i + 1) * 3 ** j, (-i, -j, i + j)) for i in span for j in span]
        + [(3 * rows[i + j][j], (-i - j, i, j))
           for i in range(shift + 1) for j in range(shift + 1 - i) if i or j]
    )


# (denominator, build) of A_0..A_3: build(shift) lists the (numerator,
# indices) pairs of the terms surviving d_j -> c_{j+shift}, in thom_terms order.
_SERIES = (
    (1, lambda shift: [(1, ())]),
    (1, lambda shift: [(1, (0,))]),
    (1, lambda shift: [(1, (0, 0))] + [(2 ** (i - 1), (-i, i)) for i in range(1, shift + 1)]),
    (6, _series_A3),
)


def _check_k(k: int) -> int:
    return check_int(k, 0, "Thom series index k", most=len(_SERIES) - 1,
                     error=UnsupportedMultisingularity)


def thom_terms(k: int, shift: int) -> list:
    """Terms of the Thom series of A_k (k = 0..3) surviving d_j -> c_{j+shift}.

    Each term is (coeff, indices) with k indices summing to zero, every
    index >= -shift.
    """
    den, build = _SERIES[_check_k(k)]
    check_int(shift, 0, "substitution shift")
    return [(rat(num, den), indices) for num, indices in build(shift)]


def _substitute_shift(k: int, shift: int, scale: int) -> GradedPoly:
    """scale times the Thom series of A_k under d_j -> c_{j+shift}; c_0 = 1.

    The numerators are summed as ints keyed by their sorted nonzero Chern
    indices and packed straight into one polynomial over the series'
    denominator.  Index sums are zero, so every term has degree k * shift.
    """
    den, build = _SERIES[k]
    sums: dict = {}
    for num, indices in build(shift):
        key = tuple(c for c in sorted(i + shift for i in indices) if c)
        sums[key] = sums.get(key, 0) + num
    vars_ = tuple(cvar(c).vars[0] for c in sorted({c for key in sums for c in key}))
    width = _width(k * shift, _FIELD)
    nums = {_pack(vars_, width, tuple(key.count(v.index) for v in vars_)): scale * num
            for key, num in sums.items() if num}
    return _poly(vars_, width, nums, den)


def thom_polynomial(k: int, ell: int) -> GradedPoly:
    """Thom polynomial of A_k (k = 0..3) at relative dimension ell >= 0."""
    check_int(ell, 0, "relative dimension ell")
    return _substitute_shift(_check_k(k), ell + 1, 1)


# -- residue polynomials ---------------------------------------------------------


def residue_A0r(r: int, ell: int) -> GradedPoly:
    """Residue polynomial of the r-fold point multisingularity A_0^r, r = 2..4.

    It is the shifted Thom series of A_{r-1}; any other r raises
    UnsupportedMultisingularity.  It is built once per (r, ell) and every
    later call returns that one instance: polynomials are immutable, so
    sharing it is safe.
    """
    check_int(r, 2, "A_0^r multiplicity r", most=4, error=UnsupportedMultisingularity)
    check_int(ell, 1, "relative dimension ell of a residue")
    return _residue_A0r(r, ell)


@functools.cache
def _residue_A0r(r: int, ell: int) -> GradedPoly:
    """residue_A0r of a checked (r, ell), so no bool or float is a key."""
    return _substitute_shift(r - 1, ell, (-1) ** (r - 1) * math.factorial(r - 1))


def residue_A0A1(ell: int) -> GradedPoly:
    """Residue polynomial of the multisingularity A_0A_1."""
    check_int(ell, 1, "relative dimension ell of a residue")
    total = cvar(ell) * cvar(ell + 1)
    for i in range(ell):
        total = total + rat(2 ** i) * cvar(ell - 1 - i) * cvar(ell + 2 + i)
    return total * rat(-2)


def residue_III22(ell: int) -> GradedPoly:
    """Residue polynomial s(ell+2, ell+2) of the monosingularity III_{2,2}
    (ell >= 1), built once per ell and shared as residue_A0r's is."""
    check_int(ell, 1, "relative dimension ell of III_{2,2}")
    return _residue_III22(ell)


@functools.cache
def _residue_III22(ell: int) -> GradedPoly:
    """residue_III22 of a checked ell."""
    return schur_det(ell + 2, ell + 2)


def residue_III22A0(ell: int) -> GradedPoly:
    """Residue polynomial of the multisingularity III_{2,2}A_0 (ell >= 1).

    The defining sum is infinite but terminates because the third Schur
    index drops below zero; only i = 1 .. ell+1 contribute.
    """
    check_int(ell, 1, "relative dimension ell of III_{2,2}A_0")
    total = zero()
    for i in range(1, ell + 2):
        total = total + rat(2 ** (i + 1)) * schur_det(ell + 1 + i, ell + 2, ell + 1 - i)
    return -total


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
    if len(tokens) == 1 and tokens[0] in ("A0", "A1", "A2", "A3"):
        check_int(ell, 1, "relative dimension ell of a residue")
        return thom_polynomial(int(tokens[0][1:]), ell)
    counts = Counter(tokens)
    if set(counts) == {"A0"}:
        return residue_A0r(counts["A0"], ell)
    if counts == {"A0": 1, "A1": 1}:
        return residue_A0A1(ell)
    if counts == {"III22": 1}:
        return residue_III22(ell)
    if counts == {"III22": 1, "A0": 1}:
        return residue_III22A0(ell)
    raise UnsupportedMultisingularity(
        f"no residue formula for multisingularity {''.join(tokens)!r}"
    )


def multisingularity_codim(tokens: Sequence[str], ell: int) -> int:
    """Codimension of the source multisingularity locus of a nonempty tuple
    or list of names."""
    if not isinstance(tokens, (tuple, list)) or not tokens:
        raise UnsupportedMultisingularity(f"{tokens!r} is not a nonempty tuple of names")
    r = len(tokens)
    return (r - 1) * ell + sum(singularity_info(t).codim(ell) for t in tokens)
