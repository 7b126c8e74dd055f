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
numeric spot evaluations.  Every check that compares two polynomials goes
through _identity_check, which keeps the residual lhs - rhs of a failing
check.

The suites work in the genotype basis (Rimanyi's restriction method).
After cancelling common weights, the beta roots of an A_k or III_{2,2}
prototype enter its Chern class only as the factor prod_i (1 + beta_i) =
1 + d_1 + ... + d_m, with d_j = e_j(beta) the Chern classes of the U(m)
factor of the symmetry group (_Genotype).  The d_j of m independent roots
are algebraically independent, so an identity holds in Q[alpha, beta]
exactly when it holds in Q[alpha, d_1..d_m], where it is far cheaper to
check.  Only a failing check, or a divisibility factor that mixes beta
with alpha, maps its polynomial back through d_j -> e_j(beta), so every
residual is reported in root coordinates.  The III_{2,2}A_0 suite uses the
same series in symbols a, b (alpha -> -a) with degree-capped d_i (d_0 = 1,
d_{<0} = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .poly import (
    GradedPoly,
    NonExactDivision,
    PolyError,
    check_int,
    chern_substitute,
    constant,
    dvar,
    exact_quotient,
    one,
    one_plus,
    rat,
    root_var,
    schur_det,
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
    check_int(k, 1, "A_k prototype index k", most=3, error=UnsupportedPrototype)
    check_int(ell, 0, "relative dimension ell")
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
    check_int(ell, 1, "relative dimension ell of III_{2,2}")
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
    factory = _GERM_FACTORIES.get(name) if isinstance(name, str) else None
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
    return exact_quotient(euler_class(numer), denom)


def multiple_point_class(g: GermPrototype, r: int) -> GradedPoly:
    """Reduced r-fold point class of a prototype, in root coordinates.

    Zero above the local multiplicity; at r = delta the class of the
    diagonal locus, the product of the weight differences beta_i - s alpha
    (s = 1..k) for A_k, built in the genotype basis and mapped back.
    Below delta the loci are not documented and are refused.
    """
    if check_int(r, 1, "multiplicity r of a multiple-point class") > g.delta:
        return zero()
    genotype = _genotype(g)
    return genotype.roots(_multiple_point_genotype(g, r, genotype.m))


def _multiple_point_genotype(g: GermPrototype, r: int, m: int) -> GradedPoly:
    """multiple_point_class in Q[alpha, d_1..d_m].

    For A_k, prod_i prod_s (beta_i - s alpha) = prod_s P(-s alpha) with
    P(x) = prod_i (x + beta_i) = sum_j d_j x^(m-j).
    """
    if r > g.delta:
        return zero()
    if r < g.delta:
        raise UnsupportedPrototype(
            f"m_{r} of {g.name} (delta {g.delta}) is not documented"
        )
    if g.name.startswith("A"):
        alpha = root_var("alpha")
        total = one()
        for s in range(1, g.delta):
            x = -s * alpha
            total = total * sum((_d(j) * x ** (m - j) for j in range(m + 1)), zero())
        return total
    if g.name == "III22":
        raise UnsupportedPrototype(
            "the triple-point locus of III22 is not documented"
        )
    raise UnsupportedPrototype(f"no multiple point classes for {g.name}")


# -- the genotype basis -----------------------------------------------------------------


def _involves_beta(form: GradedPoly) -> bool:
    return any(v.family == "beta" for v in form.used_vars())


def _is_lone_beta(form: GradedPoly) -> bool:
    used = form.used_vars()
    return len(used) == 1 and form == root_var("beta", used[0].index)


class _Genotype:
    """A total Chern class prod(1 + w) / prod(1 + v) * prod_i (1 + beta_i).

    numer and denom hold the beta-free forms w and v; betas holds the m
    distinct lone roots, whose product series is 1 + d_1 + ... + d_m.  A
    plain class: nothing compares or hashes genotypes, and dataclass methods
    would be generated at every import.
    """

    __slots__ = ("numer", "denom", "betas")

    def __init__(
        self,
        numer: Sequence[GradedPoly],
        denom: Sequence[GradedPoly],
        betas: Sequence[GradedPoly],
    ):
        self.numer, self.denom, self.betas = numer, denom, betas

    @property
    def m(self) -> int:
        return len(self.betas)

    def series(self, maxdeg: int) -> GradedPoly:
        """The class in Q[alpha, d_1..d_m], truncated at maxdeg."""
        return series_quotient(
            [one_plus(w) for w in self.numer] + [_d_polynomial(self.m)],
            [one_plus(v) for v in self.denom],
            maxdeg,
        )

    def roots(self, p: GradedPoly) -> GradedPoly:
        """p mapped back to root coordinates through d_j -> e_j(beta)."""
        elementary = euler_class([one_plus(b) for b in self.betas])
        return substitute(
            p, {("d", j): elementary.homogeneous_part(j) for j in range(1, self.m + 1)}
        )


def _genotype(g: GermPrototype) -> _Genotype:
    """The genotype of a prototype's weight data after cancellation.

    Every surviving form that involves a beta must be a lone beta_i of the
    numerator, each at most once; any other shape raises UnsupportedPrototype.
    """
    numer, denom = _cancel_common(g.target_weights, g.source_weights)
    free, betas = [], []
    for w in numer:
        if not _involves_beta(w):
            free.append(w)
        elif _is_lone_beta(w) and w not in betas:
            betas.append(w)
        else:
            raise UnsupportedPrototype(f"{g.name}: weight {to_text(w)} is not a lone beta root")
    for v in denom:
        if _involves_beta(v):
            raise UnsupportedPrototype(f"{g.name}: source weight {to_text(v)} involves a beta root")
    return _Genotype(free, denom, betas)


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
    """lhs == rhs as an exact identity; a failing check keeps the residual lhs - rhs."""
    residual = lhs - rhs
    holds = residual.is_zero()
    return CheckResult(name=name, holds=holds, residual=None if holds else residual, detail=detail)


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


def _genotype_check(
    name: str, lhs: GradedPoly, rhs: GradedPoly, genotype: _Genotype, detail: str
) -> CheckResult:
    """_identity_check in Q[alpha, d]; a failing residual is mapped back to roots."""
    check = _identity_check(name, lhs, rhs, detail=detail)
    return check if check.holds else replace(check, residual=genotype.roots(check.residual))


def verify_quadruple(ell: int) -> Report:
    """The four defining identities of the quadruple-point residue.

    Prototypes of relative dimension ell-1 are instantiated and the residue
    is evaluated on their genotype series in Q[alpha, d_1..d_m], with m the
    number of their beta roots.  q1-q3 must vanish there and q4 must equal
    -36 alpha^3 m_4, with m_4 = prod_s P(-s alpha) in the same basis; a
    failing check reports its residual mapped back through d_j -> e_j(beta).
    For ell = 1 the III_{2,2} identity degenerates: no prototype of relative
    dimension 0 exists, so the residue is evaluated on the ell = 1 germ and
    certified divisible by its n_1 factor alpha_1 + alpha_2 instead.
    """
    check_int(ell, 1, "relative dimension ell of the quadruple identities")
    residue = residue_A0r(4, ell)
    maxdeg = 3 * ell

    def on(germ: GermPrototype, degree: int) -> Tuple[_Genotype, GradedPoly]:
        genotype = _genotype(germ)
        return genotype, chern_substitute(residue, genotype.series(degree))

    checks = []
    for k in (1, 2):
        genotype, value = on(germ_A(k, ell - 1), maxdeg)
        checks.append(_genotype_check(
            f"q{k}", value, zero(), genotype,
            detail=f"quadruple residue vanishes on the A{k} prototype",
        ))
    if ell >= 2:
        genotype, q3 = on(germ_III22(ell - 1), maxdeg)
        q3_detail = "quadruple residue vanishes on the III22 prototype"
    else:
        germ = germ_III22(1)
        sym, image = _specialization_for(germ.n1_factors[0])
        genotype, q3 = on(germ, maxdeg + 1)
        q3 = substitute(q3, {sym: image})
        q3_detail = (
            "degenerate case: no III22 prototype of relative dimension 0; "
            "the residue on the ell=1 germ is divisible by alpha_1+alpha_2"
        )
    checks.append(_genotype_check("q3", q3, zero(), genotype, detail=q3_detail))

    germ = germ_A(3, ell - 1)
    genotype, q4 = on(germ, maxdeg)
    m4 = _multiple_point_genotype(germ, 4, genotype.m)
    checks.append(_genotype_check(
        "q4", q4, constant(-36) * root_var("alpha") ** 3 * m4, genotype,
        detail="quadruple residue on the A3 prototype equals -36 e(source)*m4",
    ))
    return Report(suite="quadruple", ell=ell, checks=tuple(checks))


# -- divisibility suite -------------------------------------------------------------------


def verify_divisibility(g: GermPrototype, r: int) -> Report:
    """Certify that the reduced r-fold class of a prototype differs from the
    substituted residue term by a multiple of n_1.

    The difference m_r(g) - R_{A_0^r}(ell)/(r-1)! at c(g) is formed in the
    genotype basis Q[alpha, d_1..d_m] and must vanish under the
    specialization killing each linear factor of n_1.  A lone root beta_i
    is killed by d_m -> 0: the difference is symmetric in the roots, so that
    one substitution certifies every beta_i.  A factor free of beta is
    substituted directly.  A factor that mixes beta with alpha, and any
    factor whose check fails, specializes the difference mapped back through
    d_j -> e_j(beta), so residuals stay in root coordinates.  The exactness
    of the Euler quotient itself is reported as the first check.
    """
    check_int(r, 1, "multiplicity r of the divisibility identity")
    ell = g.ell
    try:
        quotient = n1(g)
    except NonExactDivision as err:
        exactness = CheckResult(
            name="n1-exactness",
            holds=False,
            detail=f"Euler quotient is not polynomial: {err}",
        )
        return Report(suite="divisibility", ell=ell, checks=(exactness,))
    expected = constant(g.n1_scalar)
    for f in g.n1_factors:
        expected = expected * f
    checks = [
        _identity_check(
            "n1-closed-form",
            quotient,
            expected,
            detail="Euler quotient matches the documented closed form",
        )
    ]

    genotype = _genotype(g)
    m_class = _multiple_point_genotype(g, r, genotype.m)
    residue = residue_A0r(r, ell) * rat(1, math.factorial(r - 1))
    difference = m_class - chern_substitute(residue, genotype.series((r - 1) * ell))
    in_roots = None  # the difference in root coordinates, built only when needed
    for f in g.n1_factors:
        sym, image = _specialization_for(f)
        if f in genotype.betas:
            value = substitute(difference, {("d", genotype.m): 0})
        elif not _involves_beta(f):
            value = substitute(difference, {sym: image})
        else:
            value = None
        if value is None or not value.is_zero():
            if in_roots is None:
                in_roots = genotype.roots(difference)
            value = substitute(in_roots, {sym: image})
        checks.append(
            _identity_check(
                f"factor-{to_text(f)}",
                value,
                zero(),
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
        checks.extend(
            replace(c, name=f"{name}-r{r}-{c.name}") for c in sub.checks
        )
    return Report(suite="divisibility", ell=ell, checks=tuple(checks))


# -- Thom polynomial of A_1 ------------------------------------------------------------------


def verify_tpA1(ell: int) -> Report:
    """c_{ell+1} of the A_1 prototype equals the source Euler class."""
    check_int(ell, 0, "relative dimension ell")
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


def _d(i: int) -> GradedPoly:
    """Series symbol d_i with the convention d_0 = 1, d_{<0} = 0, like cvar."""
    if i < 0:
        return zero()
    return one() if i == 0 else dvar(i)


def _d_polynomial(cap: int) -> GradedPoly:
    """1 + d_1 + ... + d_cap with d_i of weight i (degree-capped symbols)."""
    return sum((_d(i) for i in range(cap + 1)), zero())


def genotype_series(kind: str, ell: int, maxdeg: int, r: int = 1) -> GradedPoly:
    """Genotype c-series as a graded polynomial; the weight-i part is c_i.

    aichern: (1-(r+1)a)/(1-a) times the degree-ell d-polynomial, the A_r
    genotype with alpha -> -a;
    i22chern: (1-2a)(1-2b)/((1-a)(1-b)) times the degree-ell d-polynomial;
    iii22chern: i22chern's quotient times (1-(a+b)) and a degree-(ell-1)
    d-polynomial, so its ell must be at least 1.
    """
    check_int(ell, 1 if kind == "iii22chern" else 0, f"relative dimension ell of {kind!r}")
    a = root_var("a")
    b = root_var("b")
    if kind == "aichern":
        check_int(r, 1, "index r of the A_r genotype")
        genotype = _Genotype((-(r + 1) * a,), (-a,), _betas(ell))
    elif kind == "i22chern":
        genotype = _Genotype((-2 * a, -2 * b), (-a, -b), _betas(ell))
    elif kind == "iii22chern":
        genotype = _Genotype((-2 * a, -2 * b, -(a + b)), (-a, -b), _betas(ell - 1))
    else:
        raise PolyError(f"unknown genotype series {kind!r}")
    return genotype.series(maxdeg)


def _triangular_substitution(value: GradedPoly, ell: int) -> GradedPoly:
    """Rewrite d_i for the degree-(ell-1) cap: d_i -> d_i - (a+b) d_{i-1},
    with d_ell -> -(a+b) d_{ell-1} because d_ell vanishes under the cap."""
    e1 = root_var("a") + root_var("b")
    assignment = {}
    for i in range(1, ell):
        assignment[("d", i)] = dvar(i) - e1 * _d(i - 1)
    assignment[("d", ell)] = -e1 * _d(ell - 1)
    return substitute(value, assignment)


def verify_III22A0(ell: int) -> Report:
    """Three exact identities certifying the III_{2,2}A_0 residue.

    (i) the residue vanishes under the Morin genotype series for r = 1..3;
    (ii) under the I_{2,2} genotype it collapses to -4 d_ell times the
    substituted Schur determinant of the III_{2,2} residue; (iii) the
    III_{2,2} genotype value is the (ii) value under the degree-cap
    rewriting of the top d symbol.
    """
    check_int(ell, 1, "relative dimension ell of the III22A0 identities")
    residue = residue_III22A0(ell)
    maxdeg = 2 * ell + 4
    checks = [
        _identity_check(
            f"aichern-r{r}",
            chern_substitute(residue, genotype_series("aichern", ell, maxdeg, r=r)),
            zero(),
            detail=f"residue vanishes on the A{r} genotype",
        )
        for r in (1, 2, 3)
    ]

    i22 = genotype_series("i22chern", ell, maxdeg)
    value_i22 = chern_substitute(residue, i22)
    rhs = constant(-4) * dvar(ell) * chern_substitute(schur_det(ell + 2, ell + 2), i22)
    checks.append(
        _identity_check(
            "i22chern",
            value_i22,
            rhs,
            detail="residue collapses to -4 d_ell s(l+2,l+2) on the I22 genotype",
        )
    )

    iii22 = genotype_series("iii22chern", ell, maxdeg)
    checks.append(
        _identity_check(
            "iii22chern",
            chern_substitute(residue, iii22),
            _triangular_substitution(value_i22, ell),
            detail="III22 genotype value matches the degree-capped I22 value",
        )
    )

    checks.extend(factorization_check(ell, triple) for triple in _factorization_triples(ell))
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

    For i >= j >= k >= 0 with j >= ell+2 and k <= ell the substituted 3x3 Schur
    determinant factors as e2^(j-ell-2) h_{i-j} times the substituted
    residue determinant times (d_k - 2 e1 d_{k-1} + 4 e2 d_{k-2}).
    """
    check_int(ell, 0, "relative dimension ell of a factorization")
    if not isinstance(triple, tuple) or len(triple) != 3:
        raise PolyError(f"{triple!r} is not a triple of indices")
    i, j, k = (check_int(index, 0, "factorization index") for index in triple)
    if not (i >= j >= k and j >= ell + 2 and k <= ell):
        raise PolyError(f"triple {triple} violates the factorization ranges")
    maxdeg = i + 2
    series = genotype_series("i22chern", ell, maxdeg)
    lhs = chern_substitute(schur_det(i, j, k), series)
    a = root_var("a")
    b = root_var("b")
    e1 = a + b
    e2 = a * b
    d_part = _d(k) - 2 * e1 * _d(k - 1) + 4 * e2 * _d(k - 2)
    rhs = (
        e2 ** (j - ell - 2)
        * _complete_homogeneous(i - j)
        * chern_substitute(schur_det(ell + 2, ell + 2), series)
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
    except NonExactDivision as err:
        holds, detail = True, f"Euler divisibility fails as required: {err}"
    else:
        holds, detail = False, "Euler quotient unexpectedly polynomial"
    check = CheckResult(name="blowup-rejected", holds=holds, detail=detail)
    return Report(suite="blowup", ell=0, checks=(check,))
