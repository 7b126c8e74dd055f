"""Thom series of Morin singularities and residue polynomials.

A Thom series for a singularity of local multiplicity delta is a formal sum
of terms coeff * d_{i_1} ... d_{i_{delta-1}} whose index sum is zero.  The
two substitutions used downstream shift every index by a fixed amount and
replace d_j with the Chern variable c_{j+shift} (with c_0 = 1 and c_{<0} = 0):

  * Thom polynomial of the monosingularity at relative dimension ell:
    shift = ell + 1;
  * residue polynomial of the multisingularity A_0^r at relative
    dimension ell: shift = ell, scaled by (-1)^(r-1) (r-1)!.

Closed-form series are built in for A_0 through A_3.  Residues for the
mixed multisingularities A_0A_1, III_{2,2} and III_{2,2}A_0 are given by
closed formulas in Chern variables and Schur determinants.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .poly import (
    GradedPoly,
    PolyError,
    Rat,
    Var,
    check_int,
    cvar,
    one,
    rat,
    root_var,
    schur_det,
    series_quotient,
    zero,
)


class UnsupportedMultisingularity(PolyError):
    """No residue formula is available for the requested multisingularity."""


# -- the a_{i,j} coefficient triangle ------------------------------------------

@functools.cache
def _a_series(maxdeg: int) -> GradedPoly:
    """Bivariate series (u(1-u)/(1-3u) + v(1-v)/(1-3v)) / (1-u-v)."""
    if maxdeg < 1:
        return zero()
    u, v = root_var("u"), root_var("v")
    return sum(
        x * series_quotient([one() - x], [one() - 3 * x, one() - u - v], maxdeg - 1)
        for x in (u, v)
    )


def a_coeff(i: int, j: int) -> Rat:
    """Coefficient a_{i,j} in the three-point part of the A_3 series."""
    if i < 0 or j < 0:
        return rat(0)
    return _a_series(i + j).coefficient({("u", 0): i, ("v", 0): j})


def a_triangle(rows: int) -> list:
    """Rows 0..rows-1 of the triangle; row n lists a_{n-j,j} for j = 0..n."""
    return [
        [int(a_coeff(n - j, j)) for j in range(n + 1)] for n in range(rows)
    ]


# -- Thom series ---------------------------------------------------------------


def _terms_A0(shift: int):
    return [(rat(1), ())]


def _terms_A1(shift: int):
    return [(rat(1), (0,))]


def _terms_A2(shift: int):
    terms = [(rat(1), (0, 0))]
    for i in range(1, shift + 1):
        terms.append((rat(2 ** (i - 1)), (-i, i)))
    return terms


def _terms_A3(shift: int):
    terms = []
    for i in range(0, shift + 1):
        terms.append((rat(2 ** i), (-i, 0, i)))
    for i in range(1, shift + 1):
        for j in range(1, shift + 1):
            terms.append((rat(2 ** i * 3 ** j, 3), (-i, -j, i + j)))
    series = _a_series(shift)
    for i in range(0, shift + 1):
        for j in range(0, shift + 1 - i):
            if i == 0 and j == 0:
                continue
            c = series.coefficient({("u", 0): i, ("v", 0): j})
            if c != 0:
                terms.append((c / 2, (-i - j, i, j)))
    return terms


_THOM_TERMS = (_terms_A0, _terms_A1, _terms_A2, _terms_A3)


def thom_terms(k: int, shift: int) -> list:
    """Terms of the Thom series of A_k (k = 0..3) surviving d_j -> c_{j+shift}.

    Each term is (coeff, indices) with k indices summing to zero, every
    index >= -shift.
    """
    check_int(k, 0, "Thom series index k", most=len(_THOM_TERMS) - 1,
              error=UnsupportedMultisingularity)
    check_int(shift, 0, "substitution shift")
    return _THOM_TERMS[k](shift)


def _substitute_shift(terms, shift: int) -> GradedPoly:
    """Apply d_j -> c_{j+shift} to a term list; c_0 = 1, c_{<0} = 0.

    The surviving terms are summed in one dict keyed by their sorted Chern
    indices, and one polynomial is built from it at the end.
    """
    sums: dict = {}
    for coeff, indices in terms:
        chern = sorted(idx + shift for idx in indices)
        if chern and chern[0] < 0:
            continue
        key = tuple(k for k in chern if k)
        sums[key] = sums.get(key, 0) + coeff
    table = sorted({k for key in sums for k in key})
    return GradedPoly(
        tuple(Var("c", k, k) for k in table),
        {tuple(key.count(k) for k in table): coeff for key, coeff in sums.items()},
    )


def thom_polynomial(k: int, ell: int) -> GradedPoly:
    """Thom polynomial of A_k (k = 0..3) at relative dimension ell >= 0."""
    check_int(ell, 0, "relative dimension ell")
    return _substitute_shift(thom_terms(k, ell + 1), ell + 1)


# -- residue polynomials ---------------------------------------------------------


def residue_A0r(r: int, ell: int) -> GradedPoly:
    """Residue polynomial of the r-fold point multisingularity A_0^r, r = 2..4.

    It is the shifted Thom series of A_{r-1}; any other r raises
    UnsupportedMultisingularity.
    """
    check_int(r, 2, "A_0^r multiplicity r", most=4, error=UnsupportedMultisingularity)
    check_int(ell, 1, "relative dimension ell of a residue")
    scale = rat((-1) ** (r - 1) * math.factorial(r - 1))
    return _substitute_shift(thom_terms(r - 1, ell), ell) * scale


def residue_A0A1(ell: int) -> GradedPoly:
    """Residue polynomial of the multisingularity A_0A_1."""
    check_int(ell, 1, "relative dimension ell of a residue")
    total = cvar(ell) * cvar(ell + 1)
    for i in range(ell):
        total = total + rat(2 ** i) * cvar(ell - 1 - i) * cvar(ell + 2 + i)
    return total * rat(-2)


def residue_III22(ell: int) -> GradedPoly:
    """Residue polynomial of the monosingularity III_{2,2} (ell >= 1)."""
    check_int(ell, 1, "relative dimension ell of III_{2,2}")
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


@dataclass(frozen=True)
class SingularityInfo:
    """Static data of a monosingularity family.

    delta is the local multiplicity (dimension of the local algebra), corank
    the rank drop of the differential, codim_of the codimension in the space
    of germs as a function of the relative dimension ell, and min_ell the
    smallest relative dimension with a stable representative.
    """

    name: str
    delta: int
    corank: int
    codim_of: Callable[[int], int]
    min_ell: int

    @property
    def defect(self) -> int:
        return max(self.corank - 1, 0)

    def codim(self, ell: int) -> int:
        return self.codim_of(check_int(ell, self.min_ell, f"relative dimension ell of {self.name}"))


def _a_info(k: int) -> SingularityInfo:
    return SingularityInfo(
        name=f"A{k}",
        delta=k + 1,
        corank=0 if k == 0 else 1,
        codim_of=lambda ell, k=k: k * (ell + 1),
        min_ell=0,
    )


_SINGULARITIES: dict = {
    **{f"A{k}": _a_info(k) for k in range(0, 8)},
    "III22": SingularityInfo(
        name="III22",
        delta=3,
        corank=2,
        codim_of=lambda ell: 2 * ell + 4,
        min_ell=1,
    ),
    "I22": SingularityInfo(
        name="I22",
        delta=4,
        corank=2,
        codim_of=lambda ell: 3 * ell + 4,
        min_ell=1,
    ),
}


def singularity_info(name: str) -> SingularityInfo:
    try:
        return _SINGULARITIES[name]
    except KeyError:
        raise UnsupportedMultisingularity(f"unknown singularity {name!r}") from None


# -- multisingularity names ---------------------------------------------------------


def parse_multisingularity(text: str) -> tuple:
    """Parse names such as A0^4, A0A1, III22A0 into a tuple of tokens.

    The first token is the distinguished element.  Exponents repeat the
    preceding token.
    """
    import re

    if not isinstance(text, str):
        raise UnsupportedMultisingularity(f"multisingularity name {text!r} is not a string")
    tokens = []
    pos = 0
    pattern = re.compile(r"(III\d\d|I\d\d|A\d+)(?:\^(\d+))?")
    text = text.strip()
    while pos < len(text):
        m = pattern.match(text, pos)
        if not m:
            raise UnsupportedMultisingularity(
                f"cannot parse multisingularity name {text!r}"
            )
        token, power = m.group(1), int(m.group(2) or 1)
        if power < 1:
            raise UnsupportedMultisingularity("exponents must be positive")
        if token not in _SINGULARITIES:
            raise UnsupportedMultisingularity(f"unknown singularity {token!r}")
        tokens.extend([token] * power)
        pos = m.end()
    if not tokens:
        raise UnsupportedMultisingularity("empty multisingularity name")
    return tuple(tokens)


def residue(multi: Union[str, Sequence[str]], ell: int) -> GradedPoly:
    """Residue polynomial of a multisingularity at relative dimension ell.

    multi is a name such as A0^4 or a tuple or list of tokens.  Residues do
    not depend on which point is distinguished; a lone A0 has residue 1.
    """
    if isinstance(multi, str):
        tokens = parse_multisingularity(multi)
    elif isinstance(multi, (tuple, list)) and all(isinstance(t, str) for t in multi):
        tokens = tuple(multi)
    else:
        raise UnsupportedMultisingularity(f"{multi!r} is not a multisingularity")
    counts = Counter(tokens)
    if set(counts) == {"A0"}:
        if counts["A0"] == 1:
            check_int(ell, 1, "relative dimension ell of a residue")
            return one()
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
    """Codimension of the source multisingularity locus."""
    r = len(tokens)
    return (r - 1) * ell + sum(singularity_info(t).codim(ell) for t in tokens)
