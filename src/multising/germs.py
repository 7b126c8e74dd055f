"""Stable germ prototypes and the interpolation-method verification suites.

A germ prototype is stored purely as the torus weights of its normal
bundle nu: the target weights over the source weights, linear forms in
root symbols with no weight on both sides.  Everything the verification
needs derives from those two lists:

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
The beta roots of a prototype enter its Chern class only as the factor
prod_i (1 + beta_i) = 1 + d_1 + ... + d_m, with d_j = e_j(beta) the Chern
classes of the U(m) factor of the symmetry group (_Genotype).  The d_j of
m independent roots are algebraically independent, so an identity holds in
Q[alpha, beta] exactly when it holds in Q[alpha, d_1..d_m], where it is far
cheaper to check.  The III_{2,2} and I_{2,2} genotypes have two alpha roots, and their
symmetry swaps alpha_1 and alpha_2, so the beta-free part of their class is
symmetric and is rewritten in e_1 = alpha_1 + alpha_2 (weight 1) and
e_2 = alpha_1 alpha_2 (weight 2).  These are algebraically independent too,
so an identity holds in Q[alpha, beta] exactly when it holds in
Q[e_1, e_2, d_1..d_m].  Every check stays in this basis: _identity_check
compares two polynomials, and _restriction_checks holds the one rule for an
n_1 factor, which certifies it when the polynomial vanishes under the
factor's killing assignment, _Genotype.killing (a lone beta_i: d_m -> 0; a
beta-free form in alpha coordinates: that form solved for its last alpha; a
multiple of alpha_1 + alpha_2: e_1 -> 0).  A failing check keeps its
residual in the genotype basis, so a wrong residue fails as fast as a right
one passes; _Genotype.roots maps back to the roots only for
multiple_point_class.
Every suite restricts on the genotype of a prototype (_genotype), the
III_{2,2}A_0 suite on those of III_{2,2} and I_{2,2} included.

Every restriction of a polynomial in the c_i goes through _Genotype.restrict,
whose series runs up to the largest c_i that the polynomial uses: a series
cut at a degree chosen by hand maps every c_i above it to 0, so a residue
wrong only there would pass.  Each suite holds its equations as a table of
rows (name, genotype, target, n_1 factor or None, detail) with the residue
left out (_quadruple_equations, _iii22a0_equations and the rows of
verify_divisibility and verify_tpA1); _restriction_checks evaluates a table
at a residue.
"""

from __future__ import annotations

import functools
import math
from typing import List, Optional, Sequence, Tuple

from .poly import (
    GradedPoly,
    NonExactDivision,
    PolyError,
    Record,
    check_int,
    chern_substitute,
    constant,
    cvar,
    dvar,
    exact_quotient,
    int_product,
    one,
    one_plus,
    rat,
    root_var,
    schur_det,
    series_quotient,
    substitute,
    to_json_dict,
    to_text,
    variable,
    zero,
)
from .thom import (UnsupportedMultisingularity, multisingularity_codim, residue,
                   residue_A0r, residue_III22A0, singularity_info)


class UnsupportedPrototype(PolyError):
    """The requested class is not documented for this prototype."""


# -- prototypes ---------------------------------------------------------------------


class GermPrototype(Record):
    """The normal-bundle weights of a stable germ prototype.

    target_weights over source_weights are the torus weights of nu, nonzero
    linear forms with no weight on both sides.  n1_factors lists the linear
    factors of n_1 together with its scalar, used to drive factor-wise
    divisibility checks; the product is verified against the exact Euler
    quotient, not assumed.
    """

    name: str
    ell: int
    delta: int
    source_weights: Tuple[GradedPoly, ...]
    target_weights: Tuple[GradedPoly, ...]
    n1_scalar: int = 1
    n1_factors: Tuple[GradedPoly, ...] = ()

    def __post_init__(self):
        if type(self.name) is not str:
            raise PolyError(f"prototype name {self.name!r} is not a str")
        check_int(self.ell, 0, f"relative dimension ell of {self.name}")
        check_int(self.delta, 1, f"local multiplicity delta of {self.name}")
        check_int(self.n1_scalar, None, f"n_1 scalar of {self.name}")
        for field in ("source_weights", "target_weights", "n1_factors"):
            forms = getattr(self, field)
            if type(forms) is not tuple or not all(isinstance(w, GradedPoly) for w in forms):
                raise PolyError(f"{self.name}: {field} is not a tuple of polynomials")
            if not all(f.is_homogeneous() and f.weighted_degree() == 1 for f in forms):
                raise PolyError(f"{self.name}: a form of {field} is not a nonzero linear form")
        if any(w in self.source_weights for w in self.target_weights):
            raise PolyError(f"{self.name}: a weight is on both sides")
        surplus = len(self.target_weights) - len(self.source_weights)
        if surplus != self.ell:
            raise PolyError(f"{self.name}: weight counts differ by {surplus}, "
                            f"expected ell = {self.ell}")


_ALPHA_KEYS = (("alpha", 1), ("alpha", 2))
_ALPHA_1, _ALPHA_2 = (root_var(*key) for key in _ALPHA_KEYS)


def _prototype(name: str, ell: int, delta: int, source: Tuple[GradedPoly, ...],
               target: Tuple[GradedPoly, ...], n1_scalar: int,
               n1_free: Tuple[GradedPoly, ...]) -> GermPrototype:
    """The prototype with the beta-free weights source -> target, brought to
    relative dimension ell by the lone roots beta_i, each also an n_1 factor
    after the beta-free ones n1_free."""
    surplus = len(target) - len(source)
    check_int(ell, surplus, f"relative dimension ell of {name}")
    betas = tuple(root_var("beta", i) for i in range(1, ell - surplus + 1))
    return GermPrototype(name=name, ell=ell, delta=delta, source_weights=source,
                         target_weights=target + betas, n1_scalar=n1_scalar,
                         n1_factors=n1_free + betas)


def germ_A(k: int, ell: int) -> GermPrototype:
    """Stable A_k germ of relative dimension ell (k >= 1, ell >= 0)."""
    check_int(k, 1, "A_k prototype index k", error=UnsupportedPrototype)
    alpha = root_var("alpha")
    return _prototype(f"A{k}", ell, k + 1, (alpha,), ((k + 1) * alpha,), k + 1, ())


def germ_III22(ell: int) -> GermPrototype:
    """Stable III_{2,2} germ of relative dimension ell (ell >= 1)."""
    a1, a2 = _ALPHA_1, _ALPHA_2
    return _prototype("III22", ell, 3, (a1, a2), (a1 + a2, 2 * a1, 2 * a2), 4, (a1 + a2,))


def germ_I22(ell: int) -> GermPrototype:
    """Stable I_{2,2} germ (x, y) -> (x^2, y^2) of relative dimension ell (ell >= 0)."""
    a1, a2 = _ALPHA_1, _ALPHA_2
    return _prototype("I22", ell, 4, (a1, a2), (2 * a1, 2 * a2), 4, ())


def germ_blowup() -> GermPrototype:
    """Blow-up of a surface point: nu has source weight beta_1 and target
    weight alpha + beta_1, so its Euler quotient is NOT polynomial; kept as
    the negative control."""
    beta = root_var("beta", 1)
    return GermPrototype(
        name="blowup",
        ell=0,
        delta=1,
        source_weights=(beta,),
        target_weights=(root_var("alpha") + beta,),
    )


def stable_germ(name: str, ell: int) -> GermPrototype:
    """The prototype of A<k> (k >= 1), III22 or I22 from thom.singularity_info,
    or the negative control "blowup" (ell = 0 only); any other name raises
    UnsupportedPrototype."""
    if name == "blowup":
        check_int(ell, 0, "relative dimension ell of the blow-up", most=0)
        return germ_blowup()
    try:
        info = singularity_info(name)
    except UnsupportedMultisingularity:
        raise UnsupportedPrototype(f"unknown prototype {name!r}") from None
    if info.name == "III22":
        return germ_III22(ell)
    if info.name == "I22":
        return germ_I22(ell)
    return germ_A(info.delta - 1, ell)


# -- derived classes -----------------------------------------------------------------


def _check_prototype(g: GermPrototype) -> None:
    if not isinstance(g, GermPrototype):
        raise PolyError(f"{g!r} is not a germ prototype")


def chern_total(g: GermPrototype, maxdeg: int) -> GradedPoly:
    """Total Chern class of the virtual normal bundle, truncated."""
    _check_prototype(g)
    return series_quotient(
        [one_plus(w) for w in g.target_weights], [one_plus(v) for v in g.source_weights], maxdeg
    )


def euler_class(weights: Sequence[GradedPoly]) -> GradedPoly:
    return math.prod(weights, start=one())


def n1(g: GermPrototype) -> GradedPoly:
    """The class n_1 as the exact Euler quotient e(target)/e(source).

    Raises NonExactDivision when the quotient is not polynomial, certifying
    a malformed prototype.
    """
    _check_prototype(g)
    return exact_quotient(euler_class(g.target_weights), g.source_weights)


def multiple_point_class(g: GermPrototype, r: int) -> GradedPoly:
    """Reduced r-fold point class of a prototype, in root coordinates.

    Zero above the local multiplicity; at r = delta the class of the
    diagonal locus, the product of the weight differences beta_i - s alpha
    (s = 1..k) for A_k, built in the genotype basis and mapped back.
    Below delta the loci are not documented and are refused.
    """
    _check_prototype(g)
    if check_int(r, 1, "multiplicity r of a multiple-point class") > g.delta:
        return zero()
    genotype = _genotype(g)
    return genotype.roots(_multiple_point_genotype(g, r, genotype.m))


def _multiple_point_genotype(g: GermPrototype, r: int, m: int) -> GradedPoly:
    """multiple_point_class in the genotype basis, Q[alpha, d_1..d_m] for A_k.

    For A_k, prod_i prod_s (beta_i - s alpha) = prod_s P(-s alpha) with
    P(x) = prod_i (x + beta_i) = sum_j d_j x^(m-j) and d_0 = 1.  Each factor
    P(-s alpha) is the coefficients (-s)^(m-j) of the m + 1 monomials
    alpha^(m-j) d_j, so int_product multiplies the k factors out in one pass
    of the int kernel, with no checking constructor and no intermediate
    polynomial.
    """
    if r > g.delta:
        return zero()
    if r < g.delta or not g.name.startswith("A"):
        raise UnsupportedPrototype(f"m_{r} of {g.name} (delta {g.delta}) is not documented")
    table = tuple(x.vars[0] for x in (root_var("alpha"), *map(dvar, range(1, m + 1))))
    # the exponents of alpha^(m-j) d_j over the table, j = 0..m
    exponents = [(m - j, *(int(i == j) for i in range(1, m + 1))) for j in range(m + 1)]
    return int_product(table, exponents, [[(-s) ** (m - j) for j in range(m + 1)]
                                          for s in range(1, g.delta)])


# -- the genotype basis -----------------------------------------------------------------


def _involves_beta(form: GradedPoly) -> bool:
    return any(v.family == "beta" for v in form.used_vars())


def _is_lone_beta(form: GradedPoly) -> bool:
    """True when form is some beta_i itself, read off the packed form: one
    term of numerator 1 over 1 and of degree 1, which is one weight-1
    variable to the first power, and that variable a beta."""
    if form.den != 1 or list(form.nums.values()) != [1] or form.weighted_degree() != 1:
        return False
    return form.used_vars()[0].family == "beta"


@functools.cache
def _d_polynomial(m: int) -> GradedPoly:
    """1 + d_1 + ... + d_m with d_i of weight i, the factor prod_i (1 + beta_i)
    of m lone roots in the genotype basis.  Built in one construction
    (int_product of one factor) once per m, and shared by every genotype with
    m lone roots: polynomials are immutable."""
    table = tuple(dvar(i).vars[0] for i in range(1, m + 1))
    monomials = [tuple(int(i == j) for i in range(1, m + 1)) for j in range(m + 1)]
    return int_product(table, monomials, [[1] * (m + 1)])


_E_1, _E_2 = variable("e", 1, weight=1), variable("e", 2, weight=2)
# e_1 and e_2 of a two-alpha genotype mapped back to its roots
_E_IN_ROOTS = {("e", 1): _ALPHA_1 + _ALPHA_2, ("e", 2): _ALPHA_1 * _ALPHA_2}


class _Genotype:
    """A total Chern class prod(1 + w) / prod(1 + v) * prod_i (1 + beta_i).

    numer and denom hold the beta-free classes w and v: linear forms in
    alpha, or for a two-alpha genotype one class per side in e_1, e_2 (see
    _genotype).  alphas maps e_1, e_2 back to the alpha roots and is
    empty when the classes are in alpha.  betas holds the m distinct lone
    roots, whose product series is 1 + d_1 + ... + d_m.  longest holds the
    longest series built so far (see reserve) and restricted restrict's
    values.  A plain class, not a Record: a genotype is a working object
    that nothing compares, hashes, prints or rebuilds, so it needs none of
    a value type's methods.
    """

    __slots__ = ("numer", "denom", "betas", "alphas", "longest", "restricted")

    def __init__(
        self,
        numer: Sequence[GradedPoly],
        denom: Sequence[GradedPoly],
        betas: Sequence[GradedPoly],
        alphas: dict,
    ):
        self.numer, self.denom, self.betas, self.alphas = numer, denom, betas, alphas
        self.longest, self.restricted = (-1, None), {}

    @property
    def m(self) -> int:
        return len(self.betas)

    def factors(self) -> Tuple[List[GradedPoly], List[GradedPoly]]:
        """The numerator factors 1 + w, then 1 + d_1 + ... + d_m, and the
        denominator factors 1 + v of the class."""
        numer = [one_plus(w) for w in self.numer] + [_d_polynomial(self.m)]
        return numer, [one_plus(v) for v in self.denom]

    def series(self, maxdeg: int) -> GradedPoly:
        """The class in the genotype basis, truncated at maxdeg."""
        return series_quotient(*self.factors(), maxdeg)

    def restrict(self, p: GradedPoly) -> GradedPoly:
        """p at this class: each c_i -> the weight-i part of the series, built
        up to the largest c_i that p uses, so no c_i is dropped.  Each p is
        restricted once, keyed by identity (the entry keeps p alive), and the
        longest series built so far serves every shorter one."""
        if id(p) not in self.restricted:
            self.reserve(max((v.index for v in p.used_vars() if v.family == "c"), default=0))
            self.restricted[id(p)] = p, chern_substitute(p, self.longest[1])
        return self.restricted[id(p)][1]

    def reserve(self, degree: int) -> None:
        """Build the series up to degree now, unless one as long is built, so
        that restricting a p with no c_i above degree builds none."""
        if degree > self.longest[0]:
            self.longest = degree, self.series(degree)

    def roots(self, p: GradedPoly) -> GradedPoly:
        """p mapped back to root coordinates through e -> alpha and d_j -> e_j(beta)."""
        return substitute(p, {**self.alphas, **_d_images([one_plus(b) for b in self.betas], self.m)})

    def has_root(self, form: GradedPoly) -> bool:
        """form is one of the lone roots.  A prototype's n_1 factors are its
        weight objects, so identity finds a root before any comparison by
        value, which compresses both sides of every distinct root."""
        return any(form is b for b in self.betas) or form in self.betas

    def killing(self, form: GradedPoly) -> dict:
        """The assignment of genotype coordinates under which a polynomial of
        this basis vanishes exactly when its root image is divisible by the
        linear form.

        A lone root beta_i is killed by d_m -> 0, since every polynomial in
        the d_j is symmetric in the roots.  In alpha coordinates a beta-free
        form is killed by solving it for its last alpha, and in e coordinates
        a multiple of alpha_1 + alpha_2 by e_1 -> 0.  Any other form, one that
        mixes beta with alpha for instance, raises UnsupportedPrototype.
        """
        if self.has_root(form):
            return {("d", self.m): 0}
        if not _involves_beta(form):
            if not self.alphas:
                return dict([_specialization_for(form)])
            scale = form.coefficient({("alpha", 1): 1})
            if scale and form == scale * _E_IN_ROOTS[("e", 1)]:
                return {("e", 1): 0}
        raise UnsupportedPrototype(f"{to_text(form)} has no killing assignment in this genotype")


def _specialization_for(form: GradedPoly):
    """Solve a linear form for its last variable: returns (symbol, image)."""
    var = form.compress().vars[-1]
    coeff = form.coefficient({(var.family, var.index): 1})
    rest = form - root_var(var.family, var.index) * coeff
    return ((var.family, var.index), (-rest) * (1 / rat(coeff)))


def _d_images(factors: Sequence[GradedPoly], m: int) -> dict:
    """d_j -> the weight-j part of prod(factors), for j = 1..m."""
    product = euler_class(factors)
    return {("d", j): product.homogeneous_part(j) for j in range(1, m + 1)}


@functools.cache
def _class_in_e(forms: Tuple[GradedPoly, ...], name: str) -> GradedPoly:
    """prod(1 + w) - 1 over forms in alpha_1, alpha_2, rewritten in e_1, e_2.

    The forms are paired by the swap alpha_1 <-> alpha_2: a (alpha_1 + alpha_2)
    is its own image and gives 1 + a e_1, and a alpha_1 + b alpha_2 (a != b)
    with its image gives 1 + (a+b) e_1 + ab e_1^2 + (a-b)^2 e_2.  A form with
    no image, or with another variable, raises UnsupportedPrototype.  Built
    once per forms and shared, as the genotypes of one singularity at every
    ell have the same forms: polynomials are immutable and hash by value.
    """
    rest, total = list(forms), one()
    while rest:
        w = rest.pop()
        a, b = (w.coefficient({key: 1}) for key in _ALPHA_KEYS)
        if w != a * _ALPHA_1 + b * _ALPHA_2:
            raise UnsupportedPrototype(f"{name}: {to_text(w)} is not in alpha_1, alpha_2 alone")
        if a == b:
            total = total * (1 + a * _E_1)
            continue
        image = b * _ALPHA_1 + a * _ALPHA_2
        if image not in rest:
            raise UnsupportedPrototype(f"{name}: {to_text(w)} has no alpha_1 <-> alpha_2 image")
        rest.remove(image)
        total = total * (1 + (a + b) * _E_1 + a * b * _E_1 ** 2 + (a - b) ** 2 * _E_2)
    return total - 1


def _genotype(g: GermPrototype) -> _Genotype:
    """The genotype of a prototype's normal-bundle weights.

    Every weight that involves a beta must be a lone beta_i among the target
    weights, each at most once (found by its variable, not by comparing
    polynomials); any other shape raises UnsupportedPrototype.
    When the beta-free forms use alpha_1 and alpha_2, each side becomes one
    class in e_1, e_2 (_class_in_e), and a side that is not symmetric raises
    UnsupportedPrototype.
    """
    free, betas, seen = [], [], set()  # seen: the variables of the lone roots so far
    for w in g.target_weights:
        if not _involves_beta(w):
            free.append(w)
        elif _is_lone_beta(w) and (v := w.used_vars()[0]) not in seen:
            seen.add(v)
            betas.append(w)
        else:
            raise UnsupportedPrototype(f"{g.name}: weight {to_text(w)} is not a lone beta root")
    for v in g.source_weights:
        if _involves_beta(v):
            raise UnsupportedPrototype(f"{g.name}: source weight {to_text(v)} involves a beta root")
    used = {(v.family, v.index) for w in (*free, *g.source_weights) for v in w.used_vars()}
    if not used >= set(_ALPHA_KEYS):
        return _Genotype(free, list(g.source_weights), betas, {})
    sides = ([_class_in_e(tuple(forms), g.name)] for forms in (free, g.source_weights))
    return _Genotype(*sides, betas, _E_IN_ROOTS)


# -- verification reports ---------------------------------------------------------------


class CheckResult(Record):
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


class Report(Record):
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


def _identity_check(name: str, lhs: GradedPoly, rhs: GradedPoly, detail: str) -> CheckResult:
    """lhs == rhs as an exact identity; a failing check keeps the residual lhs - rhs."""
    residual = lhs - rhs
    holds = residual.is_zero()
    return CheckResult(name, holds, None if holds else residual, detail)


_Equation = Tuple[str, _Genotype, GradedPoly, Optional[GradedPoly], str]


def _restriction_checks(residue: GradedPoly, equations: Sequence[_Equation]) -> List[CheckResult]:
    """Restrict the residue on the genotype of each row (name, genotype,
    target, n_1 factor or None, detail): without a factor the value must
    equal the target, with one the value less the target must be divisible
    by the factor, that is vanish under the factor's killing assignment
    (_Genotype.killing), and the value there, in the genotype basis, is the
    residual of a failing check.  Factor rows that share a genotype, a
    target object and a killing assignment share one killed value: every
    lone beta_i of a genotype is killed by d_m -> 0, so its m rows make one
    substitution, and each keeps its own name, detail and check."""
    checks, killed = [], {}
    for name, genotype, target, factor, detail in equations:
        value = genotype.restrict(residue)
        if factor is None:
            checks.append(_identity_check(name, value, target, detail))
            continue
        assignment = genotype.killing(factor)
        key = id(genotype), id(target), tuple(assignment.items())
        if key not in killed:
            killed[key] = substitute(value - target, assignment)
        checks.append(_identity_check(name, killed[key], zero(), detail))
    return checks


# -- quadruple point suite ----------------------------------------------------------------


def verify_quadruple(ell: int) -> Report:
    """The four defining identities of the quadruple-point residue.

    The residue is restricted to the genotypes of the prototypes of relative
    dimension ell-1 (_quadruple_equations).  q1-q3 must vanish there and q4
    must equal -36 alpha^3 m_4, with m_4 = prod_s P(-s alpha) in the same
    basis.  For ell = 1 the III_{2,2} identity degenerates: no prototype of
    relative dimension 0 exists, so the residue on the ell = 1 germ must be
    divisible by its n_1 factor alpha_1 + alpha_2, that is vanish at e_1 = 0.
    """
    check_int(ell, 1, "relative dimension ell of the quadruple identities")
    checks = _restriction_checks(residue_A0r(4, ell), _quadruple_equations(ell))
    return Report(suite="quadruple", ell=ell, checks=tuple(checks))


def _quadruple_equations(ell: int) -> List[_Equation]:
    """The rows q1-q4 of verify_quadruple."""
    equations = [
        (f"q{k}", _genotype(germ_A(k, ell - 1)), zero(), None,
         f"quadruple residue vanishes on the A{k} prototype")
        for k in (1, 2)
    ]
    if ell >= 2:
        equations.append(("q3", _genotype(germ_III22(ell - 1)), zero(), None,
                          "quadruple residue vanishes on the III22 prototype"))
    else:
        germ = germ_III22(1)
        equations.append((
            "q3", _genotype(germ), zero(), germ.n1_factors[0],
            "degenerate case: no III22 prototype of relative dimension 0; "
            "the residue on the ell=1 germ is divisible by alpha_1+alpha_2",
        ))
    germ = germ_A(3, ell - 1)
    genotype = _genotype(germ)
    m4 = _multiple_point_genotype(germ, 4, genotype.m)
    equations.append(("q4", genotype, constant(-36) * root_var("alpha") ** 3 * m4, None,
                      "quadruple residue on the A3 prototype equals -36 e(source)*m4"))
    return equations


# -- divisibility suite -------------------------------------------------------------------


def verify_divisibility(g: GermPrototype, r: int) -> Report:
    """Certify that the reduced r-fold class of a prototype differs from the
    substituted residue term by a multiple of n_1.

    The difference m_r(g) - R_{A_0^r}(ell)/(r-1)! at c(g) is formed in the
    genotype basis, and each linear factor of n_1 is certified by its
    killing assignment in _restriction_checks.  A lone root beta_i is killed
    by d_m -> 0: the difference is symmetric in the roots, so one
    substitution, shared by all the beta_i rows, certifies every beta_i, and
    each beta_i's detail reads beta_i -> 0 with nothing solved; any other
    factor's detail is the factor solved for its last variable.  The
    exactness of the Euler quotient itself is reported as the first check.
    verify_divisibility_suite runs each of its cases through the same
    _divisibility_checks, on pieces it builds once per germ.
    """
    _check_prototype(g)
    check_int(r, 1, "multiplicity r of the divisibility identity")
    checks = _divisibility_checks(_divisibility_pieces(g), r)
    return Report(suite="divisibility", ell=g.ell, checks=tuple(checks))


# a prototype, its n_1 checks, its genotype and its (name, factor, detail) rows
_Pieces = Tuple[GermPrototype, List[CheckResult], Optional[_Genotype],
                List[Tuple[str, GradedPoly, str]]]


def _divisibility_pieces(g: GermPrototype) -> _Pieces:
    """What every r of the divisibility identity on a prototype shares: the
    checks of its n_1 quotient, its genotype and one row per factor of n_1,
    named and detailed.  A quotient that is not polynomial gives the one
    failing exactness check and no genotype."""
    try:
        quotient = n1(g)
    except NonExactDivision as err:
        detail = f"Euler quotient is not polynomial: {err}"
        return g, [CheckResult("n1-exactness", False, None, detail)], None, []
    expected = math.prod(g.n1_factors, start=constant(g.n1_scalar))
    closed_form = _identity_check("n1-closed-form", quotient, expected,
                                  detail="Euler quotient matches the documented closed form")
    genotype, rows = _genotype(g), []
    for f in g.n1_factors:
        text = to_text(f)
        if genotype.has_root(f):
            solved = f"{text} -> 0"
        else:
            (family, index), image = _specialization_for(f)
            solved = f"{family}{index or ''} -> {to_text(image)}"
        rows.append((f"factor-{text}", f, f"difference vanishes under {solved}"))
    return g, [closed_form], genotype, rows


def _divisibility_checks(pieces: _Pieces, r: int) -> List[CheckResult]:
    """The checks of verify_divisibility(g, r) on g's pieces: the n_1
    checks, then the factor rows at r."""
    g, head, genotype, rows = pieces
    if genotype is None:
        return head
    # m_r - R/(r-1)! is the value of -R/(r-1)! less the target -m_r
    target = -_multiple_point_genotype(g, r, genotype.m)
    equations = [(name, genotype, target, f, detail) for name, f, detail in rows]
    residue = residue_A0r(r, g.ell) * rat(-1, math.factorial(r - 1))
    return head + _restriction_checks(residue, equations)


_DIVISIBILITY_CASES = (("A1", 2), ("A2", 3), ("A3", 4), ("A1", 4), ("III22", 4))


def verify_divisibility_suite(ell: int) -> Report:
    """The documented divisibility battery at one relative dimension.

    Each distinct germ of _DIVISIBILITY_CASES is built once per call with
    its n_1 checks and its genotype (_divisibility_pieces).  The genotype's
    series is reserved at once up to the largest degree that its cases'
    residues use, (r - 1) ell for its largest r, so no case builds a second
    series.  Every (germ, r) case then runs _divisibility_checks on those
    pieces and reports what verify_divisibility(germ, r) reports, each check
    named after its case.  Nothing is kept after the call.
    """
    check_int(ell, 1, "relative dimension ell of the divisibility battery")
    largest = {}
    for name, r in _DIVISIBILITY_CASES:
        largest[name] = max(largest.get(name, r), r)
    pieces = {}
    for name, r in largest.items():
        pieces[name] = _divisibility_pieces(stable_germ(name, ell))
        genotype = pieces[name][2]
        if genotype is not None:
            genotype.reserve(multisingularity_codim(("A0",) * r, ell))
    checks = [
        c.replace(name=f"{name}-r{r}-{c.name}")
        for name, r in _DIVISIBILITY_CASES
        for c in _divisibility_checks(pieces[name], r)
    ]
    return Report(suite="divisibility", ell=ell, checks=tuple(checks))


# -- Thom polynomial of A_1 ------------------------------------------------------------------


def verify_tpA1(ell: int) -> Report:
    """c_{ell+1} of the A_1 prototype equals the source Euler class.

    Both sides are in Q[alpha, d_1..d_ell]: the Euler class is alpha P(-alpha)
    with P(x) = sum_j d_j x^(ell-j), the A_1 multiple-point class m_2.
    """
    check_int(ell, 0, "relative dimension ell")
    germ = germ_A(1, ell)
    genotype = _genotype(germ)
    euler = root_var("alpha") * _multiple_point_genotype(germ, 2, genotype.m)
    equation = ("tpA1", genotype, euler, None,
                "top Chern class of the A1 prototype is the source Euler class")
    checks = _restriction_checks(cvar(ell + 1), [equation])
    return Report(suite="tpa1", ell=ell, checks=tuple(checks))


# -- III_{2,2}A_0 suite ----------------------------------------------------------------------


def verify_III22A0(ell: int) -> Report:
    """Three exact identities certifying the III_{2,2}A_0 residue.

    (i) the residue vanishes on the A_r prototype genotypes for r = 1..3;
    (ii) on the I_{2,2} prototype genotype it collapses to -4 d_ell times
    the substituted Schur determinant of the III_{2,2} residue; (iii) its value
    on the III_{2,2} prototype genotype is the (ii) value with the last
    I_{2,2} root set to alpha_1 + alpha_2 = e_1, that is under d_j -> the
    weight-j part of (1 + e_1)(1 + d_1 + ... + d_(ell-1)).  The III_{2,2}
    genotype is that specialization of the I_{2,2} one, so (iii) holds for
    every residue and certifies nothing by itself.  Both genotypes are in
    e_1, e_2, and every failing residual stays in its genotype's basis.
    """
    check_int(ell, 1, "relative dimension ell of the III22A0 identities")
    residue = residue_III22A0(ell)
    equations = _iii22a0_equations(ell)
    checks = _restriction_checks(residue, equations)
    i22, iii22 = equations[-1][1], _genotype(germ_III22(ell))
    last_root = one_plus(_E_1)
    checks.append(_identity_check(
        "iii22chern",
        iii22.restrict(residue),
        substitute(i22.restrict(residue), _d_images([last_root, _d_polynomial(ell - 1)], ell)),
        detail="III22 genotype value matches the degree-capped I22 value",
    ))
    checks.extend(_factorization_checks(i22, ell, _factorization_triples(ell)))
    return Report(suite="iii22a0", ell=ell, checks=tuple(checks))


def _iii22a0_equations(ell: int) -> List[_Equation]:
    """The rows of identities (i) and (ii) of verify_III22A0, i22chern last."""
    equations = [
        (f"aichern-r{r}", _genotype(germ_A(r, ell)), zero(), None,
         f"residue vanishes on the A{r} genotype")
        for r in (1, 2, 3)
    ]
    i22 = _genotype(germ_I22(ell))
    # one series for the target and for every residue of the suite's degree,
    # which uses no c_i above that degree: the solver's unknowns as well
    i22.reserve(multisingularity_codim(("III22", "A0"), ell))
    target = constant(-4) * dvar(ell) * i22.restrict(residue(("III22",), ell))
    equations.append(("i22chern", i22, target, None,
                      "residue collapses to -4 d_ell s(l+2,l+2) on the I22 genotype"))
    return equations


def _factorization_triples(ell: int):
    if ell == 1:
        return ((3, 3, 0), (4, 3, 0), (3, 3, 1), (4, 4, 1))
    if ell == 2:
        return ((4, 4, 0), (5, 4, 2))
    return ((ell + 2, ell + 2, 0), (ell + 3, ell + 2, 1))


def factorization_check(ell: int, triple: Tuple[int, int, int]) -> CheckResult:
    """Schur factorization on the I_{2,2} prototype genotype.

    For ell >= 1, where the III_{2,2} residue exists, and i >= j >= k >= 0
    with j >= ell+2 and k <= ell the substituted 3x3 Schur determinant
    factors as e_2^(j-ell-2) = (alpha_1 alpha_2)^(j-ell-2) times the
    weight-(i-j) part of the genotype's denominator 1/((1+alpha_1)(1+alpha_2)),
    the substituted residue determinant s(ell+2, ell+2), and the weight-k
    part of its numerator (1+2 alpha_1)(1+2 alpha_2)(1 + d_1 + ... + d_ell),
    all in e_1, e_2.
    """
    check_int(ell, 1, "relative dimension ell of a factorization")
    if not isinstance(triple, tuple) or len(triple) != 3:
        raise PolyError(f"{triple!r} is not a triple of indices")
    i, j, k = (check_int(index, 0, "factorization index") for index in triple)
    if not (i >= j >= k and j >= ell + 2 and k <= ell):
        raise PolyError(f"triple {triple} violates the factorization ranges")
    return _factorization_checks(_genotype(germ_I22(ell)), ell, [(i, j, k)])[0]


def _factorization_checks(genotype: _Genotype, ell: int,
                          triples: Sequence[Tuple[int, int, int]]) -> List[CheckResult]:
    """factorization_check of each valid triple on the given I_{2,2} genotype
    of ell roots, which verify_III22A0 shares with its i22chern row.  The
    genotype's denominator and numerator series are built once, up to the
    largest i - j and the largest k, and every triple takes its homogeneous
    parts from them."""
    numer, denom = genotype.factors()
    inverse = series_quotient([], denom, max(i - j for i, j, _ in triples))
    product = series_quotient(numer, [], max(k for *_, k in triples))
    s22 = genotype.restrict(residue(("III22",), ell))
    return [
        _identity_check(
            f"factorization-{i}{j}{k}",
            genotype.restrict(schur_det(i, j, k)),
            _E_2 ** (j - ell - 2) * inverse.homogeneous_part(i - j) * s22
            * product.homogeneous_part(k),
            detail=f"Schur factorization at (i,j,k)=({i},{j},{k})",
        )
        for i, j, k in triples
    ]


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
