"""Thom series of Morin singularities and residue polynomials.

A Thom series for a singularity of local multiplicity delta is a formal sum
of terms coeff * d_{i_1} ... d_{i_{delta-1}} whose index sum is zero.  The
two substitutions used downstream shift every index by a fixed amount and
replace d_j with the Chern variable c_{j+shift} (with c_0 = 1 and c_{<0} = 0):

  * Thom polynomial of the monosingularity at relative dimension ell:
    shift = ell + 1;
  * residue polynomial of the multisingularity A_0^r at relative
    dimension ell: shift = ell, scaled by (-1)^(r-1) (r-1)!.

Closed-form series are built in for A_0 through A_3; higher series can be
supplied as explicit term lists with a validity bound.  Residues for the
mixed multisingularities A_0A_1, III_{2,2} and III_{2,2}A_0 are given by
closed formulas in Chern variables and Schur determinants.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .poly import (
    GradedPoly,
    PolyError,
    Rat,
    constant,
    cvar,
    json_field,
    json_loads,
    one,
    rat,
    root_var,
    schur2,
    schur3,
    series_quotient,
    zero,
)


class SeriesValidityError(PolyError):
    """Requested substitution exceeds an explicit series' validity bound."""


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


_BUILTIN_TERMS: dict = {
    "A0": (1, _terms_A0),
    "A1": (2, _terms_A1),
    "A2": (3, _terms_A2),
    "A3": (4, _terms_A3),
}


@dataclass(frozen=True)
class ThomSeries:
    """Thom series, either a built-in closed family or an explicit list.

    Explicit series carry max_degree, the largest weighted degree of a
    substituted polynomial for which the term list is complete; requests
    beyond it raise SeriesValidityError rather than return a wrong answer.
    """

    name: str
    delta: int
    builtin: Optional[str] = None
    explicit_terms: Optional[tuple] = None
    max_degree: Optional[int] = None

    def terms(self, shift: int) -> list:
        """All terms surviving d_j -> c_{j+shift}, i.e. every index >= -shift."""
        if shift < 0:
            raise PolyError("substitution shift must be nonnegative")
        if self.builtin is not None:
            return _BUILTIN_TERMS[self.builtin][1](shift)
        out_degree = (self.delta - 1) * shift
        if self.max_degree is not None and out_degree > self.max_degree:
            raise SeriesValidityError(
                f"series {self.name} is valid up to degree {self.max_degree}, "
                f"requested degree {out_degree}"
            )
        return [
            (coeff, indices)
            for coeff, indices in self.explicit_terms
            if all(k >= -shift for k in indices)
        ]


def thom_series_A(k: int) -> ThomSeries:
    """Built-in Thom series of A_k for k = 0..3."""
    key = f"A{k}"
    if key not in _BUILTIN_TERMS:
        raise UnsupportedMultisingularity(
            f"no built-in Thom series for A_{k}; supply an explicit series"
        )
    return ThomSeries(name=key, delta=_BUILTIN_TERMS[key][0], builtin=key)


def series_from_terms(
    name: str, terms: Sequence[tuple], max_degree: int
) -> ThomSeries:
    terms = tuple((rat(c) if not isinstance(c, Rat) else c, tuple(ix)) for c, ix in terms)
    deltas = {len(ix) + 1 for _, ix in terms}
    if len(deltas) != 1:
        raise PolyError("all terms of a series must have the same arity")
    for _, ix in terms:
        if sum(ix) != 0:
            raise PolyError(f"term indices {ix} do not sum to zero")
    return ThomSeries(
        name=name,
        delta=deltas.pop(),
        explicit_terms=terms,
        max_degree=max_degree,
    )


def series_from_json(payload) -> ThomSeries:
    """Explicit series from JSON.

    Accepts either a list mixing term objects {"coeff": "p/q",
    "dIndices": [...]} with one {"validUpToDegree": D} marker, or a dict
    {"name"?, "validUpToDegree", "terms": [...]}.  D and every index must be
    ints; any malformed payload raises PolyError.
    """
    if isinstance(payload, str):
        payload = json_loads(payload)
    name = "explicit"
    max_degree = None
    raw_terms = []
    if isinstance(payload, dict):
        name = payload.get("name", name)
        max_degree = json_field(payload, "validUpToDegree", int)
        raw_terms = json_field(payload, "terms", list)
    elif isinstance(payload, list):
        for entry in payload:
            if isinstance(entry, dict) and "validUpToDegree" in entry:
                max_degree = json_field(entry, "validUpToDegree", int)
            else:
                raw_terms.append(entry)
    else:
        raise PolyError(f"explicit series must be a JSON object or list, not {payload!r}")
    if max_degree is None:
        raise PolyError("explicit series must declare validUpToDegree")
    terms = []
    for entry in raw_terms:
        indices = json_field(entry, "dIndices", list)
        if not all(type(i) is int for i in indices):
            raise PolyError(f"dIndices {indices!r} must be ints")
        terms.append((rat(json_field(entry, "coeff")), tuple(indices)))
    return series_from_terms(name, terms, max_degree)


def _substitute_shift(terms, shift: int) -> GradedPoly:
    """Apply d_j -> c_{j+shift} to a term list; c_0 = 1, c_{<0} = 0."""
    total = zero()
    for coeff, indices in terms:
        mono = constant(coeff)
        dead = False
        for idx in indices:
            k = idx + shift
            if k < 0:
                dead = True
                break
            if k > 0:
                mono = mono * cvar(k)
        if not dead:
            total = total + mono
    return total


def thom_polynomial(series: ThomSeries, ell: int) -> GradedPoly:
    """Thom polynomial of the monosingularity at relative dimension ell >= 0."""
    if ell < 0:
        raise PolyError("relative dimension must be nonnegative")
    return _substitute_shift(series.terms(ell + 1), ell + 1)


# -- residue polynomials ---------------------------------------------------------


def residue_A0r(r: int, ell: int, series: Optional[ThomSeries] = None) -> GradedPoly:
    """Residue polynomial of the r-fold point multisingularity A_0^r.

    For r <= 4 the built-in Thom series is used; for r >= 5 an explicit
    series for A_{r-1} must be supplied.
    """
    if r < 2 or r > 7:
        raise UnsupportedMultisingularity(f"A_0^{r} is out of the supported range")
    if ell < 1:
        raise PolyError("residues of multiple point classes need ell >= 1")
    if series is None:
        if r > 4:
            raise SeriesValidityError(
                f"A_0^{r} requires an explicit Thom series for A_{r - 1}"
            )
        series = thom_series_A(r - 1)
    if series.delta != r:
        raise PolyError(
            f"series arity mismatch: A_0^{r} needs delta {r}, got {series.delta}"
        )
    sign = 1 if (r - 1) % 2 == 0 else -1
    scale = rat(sign * math.factorial(r - 1))
    return _substitute_shift(series.terms(ell), ell) * scale


def residue_A0A1(ell: int) -> GradedPoly:
    """Residue polynomial of the multisingularity A_0A_1."""
    if ell < 1:
        raise PolyError("residues of multiple point classes need ell >= 1")
    total = cvar(ell) * cvar(ell + 1)
    for i in range(ell):
        total = total + rat(2 ** i) * cvar(ell - 1 - i) * cvar(ell + 2 + i)
    return total * rat(-2)


def residue_III22(ell: int) -> GradedPoly:
    """Residue polynomial of the monosingularity III_{2,2} (ell >= 1)."""
    if ell < 1:
        raise PolyError("III_{2,2} is stable only for ell >= 1")
    return schur2(ell + 2, ell + 2)


def residue_III22A0(ell: int) -> GradedPoly:
    """Residue polynomial of the multisingularity III_{2,2}A_0 (ell >= 1).

    The defining sum is infinite but terminates because the third Schur
    index drops below zero; only i = 1 .. ell+1 contribute.
    """
    if ell < 1:
        raise PolyError("III_{2,2}A_0 is stable only for ell >= 1")
    total = zero()
    for i in range(1, ell + 2):
        total = total + rat(2 ** (i + 1)) * schur3(ell + 1 + i, ell + 2, ell + 1 - i)
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
        if ell < self.min_ell:
            raise PolyError(f"{self.name} has no stable germ for ell = {ell}")
        return self.codim_of(ell)


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


def residue(
    multi: Union[str, Sequence[str]],
    ell: int,
    series: Optional[ThomSeries] = None,
) -> GradedPoly:
    """Residue polynomial of a multisingularity at relative dimension ell.

    multi is a name such as A0^4 or a sequence of tokens.  Residues do not
    depend on which point is distinguished; a lone A0 has residue 1.
    """
    tokens = parse_multisingularity(multi) if isinstance(multi, str) else tuple(multi)
    counts = Counter(tokens)
    if set(counts) == {"A0"}:
        if counts["A0"] == 1:
            return one()
        return residue_A0r(counts["A0"], ell, series=series)
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
