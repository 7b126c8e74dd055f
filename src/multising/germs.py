"""Stable germ prototypes and the interpolation-method verification suites.

A germ prototype is stored purely as torus weight data: two lists of
weight-1 linear forms in root symbols, one for the source representation
and one for the target.  Everything the verification needs derives from
those lists:

  * the total Chern class of the virtual normal bundle is the series
    quotient prod(1 + target) / prod(1 + source);
  * equivariant Euler classes are plain products of the weight forms, and
    n_1 is the exact polynomial quotient e(target)/e(source), whose failure
    to divide certifies a malformed prototype;
  * multiple-point classes of the prototypes are zero above the local
    multiplicity delta and explicit weight products at r = delta.

The suites check the defining identities of the quadruple-point and
III_{2,2}A_0 residue polynomials as exact polynomial identities, never as
numeric spot evaluations.  The III_{2,2}A_0 suite works with genotype
c-series in symbols a, b and degree-capped series symbols d_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .poly import (
    GradedPoly,
    NonExactDivision,
    PolyError,
    chern_substitute,
    constant,
    divide_by_linear,
    dvar,
    one,
    one_plus,
    rat,
    root_var,
    schur2,
    schur3,
    series_quotient,
    substitute,
    to_json_dict,
    to_text,
    zero,
)
from .thom import residue_A0r, residue_III22A0


class UnsupportedPrototype(PolyError):
    """The requested class is not documented for this prototype."""


# -- prototypes ---------------------------------------------------------------------


@dataclass(frozen=True)
class GermPrototype:
    """Weight data of a stable germ prototype.

    n1_factors lists the linear factors of n_1 together with its scalar,
    used to drive factor-wise divisibility checks; the product is verified
    against the exact Euler quotient, not assumed.
    """

    name: str
    ell: int
    delta: int
    source_weights: Tuple[GradedPoly, ...]
    target_weights: Tuple[GradedPoly, ...]
    n1_scalar: int = 1
    n1_factors: Tuple[GradedPoly, ...] = ()

    def __post_init__(self):
        if len(self.target_weights) - len(self.source_weights) != self.ell:
            raise PolyError(
                f"{self.name}: weight counts differ by "
                f"{len(self.target_weights) - len(self.source_weights)}, "
                f"expected ell = {self.ell}"
            )


def _betas(count: int) -> List[GradedPoly]:
    return [root_var("beta", i) for i in range(1, count + 1)]


def germ_A(k: int, ell: int) -> GermPrototype:
    """Stable A_k germ of relative dimension ell (k = 1..3, ell >= 0)."""
    if k < 1 or k > 3:
        raise UnsupportedPrototype(f"no A_{k} prototype")
    if ell < 0:
        raise PolyError("relative dimension must be nonnegative")
    alpha = root_var("alpha")
    betas = _betas(ell)
    source = [s * alpha for s in range(1, k + 1)]
    target = [(k + 1) * alpha] + [s * alpha for s in range(2, k + 1)]
    for b in betas:
        source.extend(b - s * alpha for s in range(1, k + 1))
        target.append(b)
        target.extend(b - s * alpha for s in range(1, k + 1))
    return GermPrototype(
        name=f"A{k}",
        ell=ell,
        delta=k + 1,
        source_weights=tuple(source),
        target_weights=tuple(target),
        n1_scalar=k + 1,
        n1_factors=tuple(betas),
    )


def germ_III22(ell: int) -> GermPrototype:
    """Stable III_{2,2} germ of relative dimension ell (ell >= 1)."""
    if ell < 1:
        raise PolyError("III_{2,2} has stable representatives only for ell >= 1")
    a1 = root_var("alpha", 1)
    a2 = root_var("alpha", 2)
    betas = _betas(ell - 1)
    source = [a1, a2, 2 * a1 - a2, 2 * a2 - a1, a1, a2]
    target = [a1 + a2, 2 * a1, 2 * a2, 2 * a1 - a2, 2 * a2 - a1, a1, a2]
    for b in betas:
        source.extend([b - a1, b - a2])
        target.extend([b, b - a1, b - a2])
    return GermPrototype(
        name="III22",
        ell=ell,
        delta=3,
        source_weights=tuple(source),
        target_weights=tuple(target),
        n1_scalar=4,
        n1_factors=(a1 + a2,) + tuple(betas),
    )


def germ_blowup() -> GermPrototype:
    """Blow-up of a surface point: immersion-like weight data whose Euler
    quotient is NOT polynomial; kept as the negative control."""
    alpha = root_var("alpha")
    beta = root_var("beta", 1)
    return GermPrototype(
        name="blowup",
        ell=0,
        delta=1,
        source_weights=(alpha, beta),
        target_weights=(alpha, alpha + beta),
    )


_GERM_FACTORIES = {
    "A1": lambda ell: germ_A(1, ell),
    "A2": lambda ell: germ_A(2, ell),
    "A3": lambda ell: germ_A(3, ell),
    "III22": germ_III22,
    "blowup": lambda ell: germ_blowup(),
}


def stable_germ(name: str, ell: int) -> GermPrototype:
    factory = _GERM_FACTORIES.get(name)
    if factory is None:
        raise UnsupportedPrototype(f"unknown prototype {name!r}")
    return factory(ell)


# -- derived classes -----------------------------------------------------------------


def _cancel_common(
    numer: Sequence[GradedPoly], denom: Sequence[GradedPoly]
) -> Tuple[List[GradedPoly], List[GradedPoly]]:
    kept_n = list(numer)
    kept_d = []
    for form in denom:
        for i, other in enumerate(kept_n):
            if other == form:
                kept_n.pop(i)
                break
        else:
            kept_d.append(form)
    return kept_n, kept_d


def chern_total(g: GermPrototype, maxdeg: int) -> GradedPoly:
    """Total Chern class of the virtual normal bundle, truncated."""
    numer, denom = _cancel_common(g.target_weights, g.source_weights)
    return series_quotient(
        [one_plus(w) for w in numer], [one_plus(w) for w in denom], maxdeg
    )


def euler_class(weights: Sequence[GradedPoly]) -> GradedPoly:
    total = one()
    for w in weights:
        total = total * w
    return total


def n1(g: GermPrototype) -> GradedPoly:
    """The class n_1 as the exact Euler quotient e(target)/e(source).

    Raises NonExactDivision when the quotient is not polynomial, certifying
    a malformed prototype.
    """
    numer, denom = _cancel_common(g.target_weights, g.source_weights)
    result = euler_class(numer)
    for w in denom:
        result = divide_by_linear(result, w)
    return result


def multiple_point_class(g: GermPrototype, r: int) -> GradedPoly:
    """Reduced r-fold point class of a prototype.

    Zero above the local multiplicity; at r = delta the class of the
    diagonal locus, an explicit product of weight differences for A_k.
    Below delta the loci are not documented and are refused.
    """
    if r > g.delta:
        return zero()
    if r < g.delta:
        raise UnsupportedPrototype(
            f"m_{r} of {g.name} (delta {g.delta}) is not documented"
        )
    if g.name.startswith("A"):
        k = g.delta - 1
        alpha = root_var("alpha")
        total = one()
        for i in range(1, g.ell + 1):
            b = root_var("beta", i)
            for s in range(1, k + 1):
                total = total * (b - s * alpha)
        return total
    if g.name == "III22":
        raise UnsupportedPrototype(
            "the triple-point locus of III22 is not documented"
        )
    raise UnsupportedPrototype(f"no multiple point classes for {g.name}")


def m4_class(g: GermPrototype) -> GradedPoly:
    """Reduced quadruple point class; zero for delta < 4."""
    if g.delta < 4:
        return zero()
    return multiple_point_class(g, 4)


# -- verification reports ---------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    holds: bool
    residual: Optional[GradedPoly] = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "residual": None
            if self.residual is None or self.residual.is_zero()
            else to_json_dict(self.residual),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Report:
    suite: str
    ell: int
    checks: Tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ell": self.ell,
            "ok": self.ok,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _identity_check(name: str, lhs: GradedPoly, rhs: GradedPoly, detail: str = "") -> CheckResult:
    residual = lhs - rhs
    return CheckResult(
        name=name,
        holds=residual.is_zero(),
        residual=None if residual.is_zero() else residual,
        detail=detail,
    )


# -- quadruple point suite ----------------------------------------------------------------


def _specialization_for(form: GradedPoly):
    """Solve a linear form for its last variable: returns (symbol, image)."""
    form = form.compress()
    var = form.vars[-1]
    coeff = form.terms.get(tuple(
        1 if i == len(form.vars) - 1 else 0 for i in range(len(form.vars))
    ))
    rest = form - root_var(var.family, var.index) * coeff
    return ((var.family, var.index), (-rest) * (1 / rat(coeff)))


def verify_quadruple(ell: int) -> Report:
    """The four defining identities of the quadruple-point residue.

    Prototypes of relative dimension ell-1 are instantiated, materializing
    ell-1 beta symbols, the minimum.
    For ell = 1 the III_{2,2} identity degenerates: no prototype of relative
    dimension 0 exists, so the residue is evaluated on the ell = 1 germ and
    certified divisible by its n_1 factor alpha_1 + alpha_2 instead.
    """
    if ell < 1:
        raise PolyError("the quadruple identities need ell >= 1")
    residue = residue_A0r(4, ell)
    maxdeg = 3 * ell
    checks = []

    for qname, k in (("q1", 1), ("q2", 2)):
        germ = germ_A(k, ell - 1)
        value = chern_substitute(residue, chern_total(germ, maxdeg))
        checks.append(
            _identity_check(
                qname,
                value,
                zero(),
                detail=f"quadruple residue vanishes on the A{k} prototype",
            )
        )

    if ell >= 2:
        germ = germ_III22(ell - 1)
        value = chern_substitute(residue, chern_total(germ, maxdeg))
        checks.append(
            _identity_check(
                "q3",
                value,
                zero(),
                detail="quadruple residue vanishes on the III22 prototype",
            )
        )
    else:
        germ = germ_III22(1)
        value = chern_substitute(residue, chern_total(germ, maxdeg + 1))
        sym, image = _specialization_for(germ.n1_factors[0])
        specialized = substitute(value, {sym: image})
        divisible = specialized.is_zero()
        checks.append(
            CheckResult(
                name="q3",
                holds=divisible,
                residual=None if divisible else specialized,
                detail=(
                    "degenerate case: no III22 prototype of relative dimension 0; "
                    "the residue on the ell=1 germ is divisible by alpha_1+alpha_2"
                ),
            )
        )

    germ = germ_A(3, ell - 1)
    value = chern_substitute(residue, chern_total(germ, maxdeg))
    alpha = root_var("alpha")
    expected = constant(-36) * alpha ** 3
    for i in range(1, ell):
        b = root_var("beta", i)
        expected = expected * (b - alpha) * (b - 2 * alpha) * (b - 3 * alpha)
    checks.append(
        _identity_check(
            "q4",
            value,
            expected,
            detail="quadruple residue on the A3 prototype equals -36 e(source)*m4",
        )
    )
    return Report(suite="quadruple", ell=ell, checks=tuple(checks))


# -- divisibility suite -------------------------------------------------------------------


def verify_divisibility(g: GermPrototype, r: int) -> Report:
    """Certify that the reduced r-fold class of a prototype differs from the
    substituted residue term by a multiple of n_1.

    The difference m_r(g) - R_{A_0^r}(ell)/(r-1)! at c(g) must vanish under
    the specialization killing each linear factor of n_1; the exactness of
    the Euler quotient itself is reported as the first check.
    """
    ell = g.ell
    checks = []
    try:
        quotient = n1(g)
        expected = constant(g.n1_scalar)
        for f in g.n1_factors:
            expected = expected * f
        checks.append(
            _identity_check(
                "n1-closed-form",
                quotient,
                expected,
                detail="Euler quotient matches the documented closed form",
            )
        )
    except NonExactDivision as err:
        checks.append(
            CheckResult(
                name="n1-exactness",
                holds=False,
                residual=None,
                detail=f"Euler quotient is not polynomial: {err}",
            )
        )
        return Report(suite="divisibility", ell=ell, checks=tuple(checks))

    m_class = multiple_point_class(g, r)
    residue = residue_A0r(r, ell) * rat(1, math.factorial(r - 1))
    substituted = chern_substitute(residue, chern_total(g, (r - 1) * ell))
    difference = m_class - substituted
    for f in g.n1_factors:
        sym, image = _specialization_for(f)
        specialized = substitute(difference, {sym: image})
        checks.append(
            CheckResult(
                name=f"factor-{to_text(f)}",
                holds=specialized.is_zero(),
                residual=None if specialized.is_zero() else specialized,
                detail=f"difference vanishes under {sym[0]}{sym[1] or ''} -> {to_text(image)}",
            )
        )
    return Report(suite="divisibility", ell=ell, checks=tuple(checks))


_DIVISIBILITY_CASES = (("A1", 2), ("A2", 3), ("A3", 4), ("A1", 4), ("III22", 4))


def verify_divisibility_suite(ell: int) -> Report:
    """The documented divisibility battery at one relative dimension."""
    checks = []
    for name, r in _DIVISIBILITY_CASES:
        germ = stable_germ(name, ell)
        sub = verify_divisibility(germ, r)
        for c in sub.checks:
            checks.append(
                CheckResult(
                    name=f"{name}-r{r}-{c.name}",
                    holds=c.holds,
                    residual=c.residual,
                    detail=c.detail,
                )
            )
    return Report(suite="divisibility", ell=ell, checks=tuple(checks))


# -- Thom polynomial of A_1 ------------------------------------------------------------------


def verify_tpA1(ell: int) -> Report:
    """c_{ell+1} of the A_1 prototype equals the source Euler class."""
    if ell < 0:
        raise PolyError("relative dimension must be nonnegative")
    germ = germ_A(1, ell)
    series = chern_total(germ, ell + 1)
    lhs = series.homogeneous_part(ell + 1)
    rhs = euler_class(germ.source_weights)
    check = _identity_check(
        "tpA1",
        lhs,
        rhs,
        detail="top Chern class of the A1 prototype is the source Euler class",
    )
    return Report(suite="tpa1", ell=ell, checks=(check,))


# -- III_{2,2}A_0 suite ----------------------------------------------------------------------


def _d_polynomial(cap: int) -> GradedPoly:
    """1 + d_1 + ... + d_cap with d_i of weight i (degree-capped symbols)."""
    total = one()
    for i in range(1, cap + 1):
        total = total + dvar(i)
    return total


def genotype_series(kind: str, ell: int, maxdeg: int, r: int = 1) -> GradedPoly:
    """Genotype c-series as a graded polynomial; the weight-i part is c_i.

    aichern: (1-(r+1)a)/(1-a) times the degree-ell d-polynomial;
    i22chern: (1-2a)(1-2b)/((1-a)(1-b)) times the degree-ell d-polynomial;
    iii22chern: i22chern's quotient times (1-(a+b)) and a degree-(ell-1)
    d-polynomial.
    """
    a = root_var("a")
    b = root_var("b")
    if kind == "aichern":
        numer = [one() - (r + 1) * a, _d_polynomial(ell)]
        denom = [one() - a]
    elif kind == "i22chern":
        numer = [one() - 2 * a, one() - 2 * b, _d_polynomial(ell)]
        denom = [one() - a, one() - b]
    elif kind == "iii22chern":
        numer = [one() - 2 * a, one() - 2 * b, one() - (a + b), _d_polynomial(ell - 1)]
        denom = [one() - a, one() - b]
    else:
        raise PolyError(f"unknown genotype series {kind!r}")
    return series_quotient(numer, denom, maxdeg)


def _triangular_substitution(value: GradedPoly, ell: int) -> GradedPoly:
    """Rewrite d_i for the degree-(ell-1) cap: d_i -> d_i - (a+b) d_{i-1},
    with d_ell -> -(a+b) d_{ell-1} because d_ell vanishes under the cap."""
    e1 = root_var("a") + root_var("b")
    assignment = {}
    for i in range(1, ell):
        assignment[("d", i)] = dvar(i) - e1 * (dvar(i - 1) if i > 1 else one())
    assignment[("d", ell)] = -e1 * (dvar(ell - 1) if ell > 1 else one())
    return substitute(value, assignment)


def verify_III22A0(ell: int) -> Report:
    """Three exact identities certifying the III_{2,2}A_0 residue.

    (i) the residue vanishes under the Morin genotype series for r = 1..3;
    (ii) under the I_{2,2} genotype it collapses to -4 d_ell times the
    substituted Schur determinant of the III_{2,2} residue; (iii) the
    III_{2,2} genotype value is the (ii) value under the degree-cap
    rewriting of the top d symbol.
    """
    if ell < 1:
        raise PolyError("the III22A0 identities need ell >= 1")
    residue = residue_III22A0(ell)
    maxdeg = 2 * ell + 4
    checks = []

    for r in (1, 2, 3):
        series = genotype_series("aichern", ell, maxdeg, r=r)
        value = chern_substitute(residue, series)
        checks.append(
            _identity_check(
                f"aichern-r{r}",
                value,
                zero(),
                detail=f"residue vanishes on the A{r} genotype",
            )
        )

    i22 = genotype_series("i22chern", ell, maxdeg)
    value_i22 = chern_substitute(residue, i22)
    rhs = constant(-4) * dvar(ell) * chern_substitute(schur2(ell + 2, ell + 2), i22)
    checks.append(
        _identity_check(
            "i22chern",
            value_i22,
            rhs,
            detail="residue collapses to -4 d_ell s(l+2,l+2) on the I22 genotype",
        )
    )

    iii22 = genotype_series("iii22chern", ell, maxdeg)
    value_iii22 = chern_substitute(residue, iii22)
    checks.append(
        _identity_check(
            "iii22chern",
            value_iii22,
            _triangular_substitution(value_i22, ell),
            detail="III22 genotype value matches the degree-capped I22 value",
        )
    )

    for triple in _factorization_triples(ell):
        checks.append(factorization_check(ell, triple))
    return Report(suite="iii22a0", ell=ell, checks=tuple(checks))


def _factorization_triples(ell: int):
    if ell == 1:
        return ((3, 3, 0), (4, 3, 0), (3, 3, 1), (4, 4, 1))
    if ell == 2:
        return ((4, 4, 0), (5, 4, 2))
    return ((ell + 2, ell + 2, 0), (ell + 3, ell + 2, 1))


def _complete_homogeneous(k: int) -> GradedPoly:
    a = root_var("a")
    b = root_var("b")
    total = zero()
    for p in range(k + 1):
        total = total + a ** p * b ** (k - p)
    return total


def factorization_check(ell: int, triple: Tuple[int, int, int]) -> CheckResult:
    """Schur factorization on the I_{2,2} genotype.

    For i >= j >= k with j >= ell+2 and k <= ell the substituted 3x3 Schur
    determinant factors as e2^(j-ell-2) h_{i-j} times the substituted
    residue determinant times (d_k - 2 e1 d_{k-1} + 4 e2 d_{k-2}).
    """
    i, j, k = triple
    if not (i >= j >= k and j >= ell + 2 and k <= ell):
        raise PolyError(f"triple {triple} violates the factorization ranges")
    maxdeg = i + 2
    series = genotype_series("i22chern", ell, maxdeg)
    lhs = chern_substitute(schur3(i, j, k), series)
    a = root_var("a")
    b = root_var("b")
    e1 = a + b
    e2 = a * b
    d_part = (
        (dvar(k) if k >= 1 else one())
        - 2 * e1 * (dvar(k - 1) if k - 1 >= 1 else (one() if k - 1 == 0 else zero()))
        + 4 * e2 * (dvar(k - 2) if k - 2 >= 1 else (one() if k - 2 == 0 else zero()))
    )
    rhs = (
        e2 ** (j - ell - 2)
        * _complete_homogeneous(i - j)
        * chern_substitute(schur2(ell + 2, ell + 2), series)
        * d_part
    )
    return _identity_check(
        f"factorization-{i}{j}{k}",
        lhs,
        rhs,
        detail=f"Schur factorization at (i,j,k)=({i},{j},{k})",
    )


# -- negative control -------------------------------------------------------------------------


def blowup_control_report() -> Report:
    """The blow-up weight data must fail the Euler divisibility check."""
    germ = germ_blowup()
    try:
        n1(germ)
        check = CheckResult(
            name="blowup-rejected",
            holds=False,
            detail="Euler quotient unexpectedly polynomial",
        )
    except NonExactDivision as err:
        check = CheckResult(
            name="blowup-rejected",
            holds=True,
            detail=f"Euler divisibility fails as required: {err}",
        )
    return Report(suite="blowup", ell=0, checks=(check,))
