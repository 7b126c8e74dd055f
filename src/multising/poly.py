"""Exact sparse polynomial arithmetic over Q with weighted-graded variables.

A polynomial is a mapping from exponent vectors to exact rational
coefficients.  Every variable carries a (family, index, weight) triple:
Chern-type variables c_i have weight i, root symbols (alpha, beta_i, a, b)
have weight 1, and series symbols d_i get their weight at construction time.
The weighted degree of a monomial is the exponent-weighted sum, and all
truncation is by weighted degree.

Conventions used throughout the package:

  * the variable table of a polynomial is always sorted by (family, index),
    and exponent vectors are aligned with that order;
  * canonical term order is graded lexicographic: ascending weighted degree,
    then descending lexicographic on the exponent vector;
  * c_0 = 1 and c_i = 0 for i < 0 wherever index-shifted Chern variables are
    requested (see cvar);
  * coefficients are fractions.Fraction (exported as Rat); floating point
    never enters, and rat() is the one place where outside scalars become
    coefficients.

Values are immutable after construction; all operations are pure and return
new polynomials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Tuple, Union

Rat = Fraction

_ZERO = Rat(0)
_ONE = Rat(1)


class PolyError(ValueError):
    """Base error for polynomial operations."""


class IncompatibleVariables(PolyError):
    """Raised when merging tables that disagree on a variable's weight."""


class NonExactDivision(PolyError):
    """Raised when a requested exact polynomial division leaves a remainder."""


def rat(numerator: Union[int, str, Rat], denominator: Union[int, Rat] = 1) -> Rat:
    """Exact rational from ints, a "p/q" string, or an existing rational.

    Anything else (a float, a malformed string, a zero denominator) raises
    PolyError.
    """
    if isinstance(numerator, str):
        if denominator != 1:
            raise PolyError("string rationals carry their own denominator")
        p, _, q = numerator.partition("/")
        try:
            numerator, denominator = int(p), int(q or 1)
        except ValueError:
            raise PolyError(f"malformed rational {numerator!r}") from None
    if not isinstance(numerator, (int, Rat)) or not isinstance(denominator, (int, Rat)):
        raise PolyError(f"not an exact rational: {numerator!r}/{denominator!r}")
    if denominator == 0:
        raise PolyError(f"zero denominator in {numerator}/0")
    if denominator != 1:
        return Rat(numerator, denominator)
    return numerator if type(numerator) is Rat else Rat(numerator)


def rat_str(value: Rat) -> str:
    """Canonical "p/q" rendering, denominator always present and positive."""
    value = rat(value)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Var:
    """A graded variable; (family, index) identifies it, weight grades it."""

    family: str
    index: int
    weight: int

    def sort_key(self) -> tuple:
        return (self.family, self.index)


Exponents = tuple  # exponent vector aligned with a sorted variable table
Terms = dict

SymbolLike = Union["Var", str, tuple]


def _resolve_symbol(sym: SymbolLike) -> tuple:
    """Accept Var, bare family string (index 0), or (family, index)."""
    if isinstance(sym, Var):
        return (sym.family, sym.index)
    if isinstance(sym, str):
        return (sym, 0)
    family, index = sym
    return (family, index)


class GradedPoly:
    """Immutable sparse polynomial; see module docstring for conventions."""

    __slots__ = ("vars", "terms", "trunc")

    def __init__(self, vars: tuple, terms: Terms, trunc=None, _checked=False):
        if not _checked:
            order = sorted(range(len(vars)), key=lambda i: vars[i].sort_key())
            if order != list(range(len(vars))):
                remap = {old: new for new, old in enumerate(order)}
                vars = tuple(vars[i] for i in order)
                moved = {}
                for exps, coeff in terms.items():
                    new_exps = [0] * len(vars)
                    for old, e in enumerate(exps):
                        new_exps[remap[old]] = e
                    moved[tuple(new_exps)] = coeff
                terms = moved
            seen = {}
            for v in vars:
                key = (v.family, v.index)
                if key in seen and seen[key] != v.weight:
                    raise IncompatibleVariables(f"conflicting weights for {key}")
                seen[key] = v.weight
            terms = {
                exps: rat(c)
                for exps, c in terms.items()
                if c != 0 and (trunc is None or _wdeg(vars, exps) <= trunc)
            }
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *args):
        raise AttributeError("GradedPoly is immutable")

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Rat:
        zero_key = (0,) * len(self.vars)
        return self.terms.get(zero_key, _ZERO)

    def weighted_degree(self):
        """Maximum weighted degree of a term, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(_wdeg(self.vars, exps) for exps in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {_wdeg(self.vars, exps) for exps in self.terms}
        return len(degrees) <= 1

    def homogeneous_part(self, degree: int) -> "GradedPoly":
        terms = {
            exps: c
            for exps, c in self.terms.items()
            if _wdeg(self.vars, exps) == degree
        }
        return GradedPoly(self.vars, terms, None, _checked=True)

    def truncate(self, maxdeg) -> "GradedPoly":
        if maxdeg is None:
            return GradedPoly(self.vars, dict(self.terms), None, _checked=True)
        terms = {
            exps: c
            for exps, c in self.terms.items()
            if _wdeg(self.vars, exps) <= maxdeg
        }
        return GradedPoly(self.vars, terms, maxdeg, _checked=True)

    def used_vars(self) -> tuple:
        used = [False] * len(self.vars)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(v for i, v in enumerate(self.vars) if used[i])

    def compress(self) -> "GradedPoly":
        """Drop unused variables from the table."""
        keep = self.used_vars()
        if keep == self.vars:
            return self
        positions = [i for i, v in enumerate(self.vars) if v in keep]
        terms = {
            tuple(exps[i] for i in positions): c for exps, c in self.terms.items()
        }
        return GradedPoly(keep, terms, self.trunc, _checked=True)

    def coefficient(self, monomial: Mapping[SymbolLike, int]) -> Rat:
        """Coefficient of the monomial given as {symbol: exponent}."""
        want = {_resolve_symbol(s): e for s, e in monomial.items() if e}
        index = {(v.family, v.index): i for i, v in enumerate(self.vars)}
        exps = [0] * len(self.vars)
        for key, e in want.items():
            if key not in index:
                return _ZERO
            exps[index[key]] = e
        return self.terms.get(tuple(exps), _ZERO)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "GradedPoly":
        return GradedPoly(
            self.vars,
            {e: -c for e, c in self.terms.items()},
            self.trunc,
            _checked=True,
        )

    def __add__(self, other) -> "GradedPoly":
        other = _coerce(other)
        a, b, vars_ = _aligned(self, other)
        trunc = _min_trunc(self.trunc, other.trunc)
        terms = dict(a)
        for exps, c in b.items():
            acc = terms.get(exps)
            if acc is None:
                terms[exps] = c
            else:
                acc = acc + c
                if acc == 0:
                    del terms[exps]
                else:
                    terms[exps] = acc
        if trunc is not None:
            terms = {e: c for e, c in terms.items() if _wdeg(vars_, e) <= trunc}
        return GradedPoly(vars_, terms, trunc, _checked=True)

    __radd__ = __add__

    def __sub__(self, other) -> "GradedPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "GradedPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, (int, Rat)):
            scalar = rat(other)
            if scalar == 0:
                return GradedPoly(self.vars, {}, self.trunc, _checked=True)
            return GradedPoly(
                self.vars,
                {e: c * scalar for e, c in self.terms.items()},
                self.trunc,
                _checked=True,
            )
        other = _coerce(other)
        a, b, vars_ = _aligned(self, other)
        trunc = _min_trunc(self.trunc, other.trunc)
        weights = tuple(v.weight for v in vars_)
        terms: Terms = {}
        if trunc is not None:
            deg_a = {e: sum(x * w for x, w in zip(e, weights)) for e in a}
            deg_b = {e: sum(x * w for x, w in zip(e, weights)) for e in b}
        for ea, ca in a.items():
            for eb, cb in b.items():
                if trunc is not None and deg_a[ea] + deg_b[eb] > trunc:
                    continue
                key = tuple(x + y for x, y in zip(ea, eb))
                prod = ca * cb
                acc = terms.get(key)
                if acc is None:
                    terms[key] = prod
                else:
                    acc = acc + prod
                    if acc == 0:
                        del terms[key]
                    else:
                        terms[key] = acc
        return GradedPoly(vars_, terms, trunc, _checked=True)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GradedPoly":
        if exponent < 0:
            raise PolyError("negative powers are not defined")
        result = constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Rat)):
            other = constant(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        a, b, _ = _aligned(self.compress(), other.compress())
        return a == b

    def __hash__(self):
        p = self.compress()
        if not p.vars:
            return hash(p.constant_term())  # equal scalars hash alike
        return hash((p.vars, frozenset((e, c) for e, c in p.terms.items())))

    def __repr__(self) -> str:
        return f"GradedPoly({to_text(self)})"


def _wdeg(vars_: tuple, exps: Exponents) -> int:
    return sum(e * v.weight for e, v in zip(exps, vars_))


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _coerce(value) -> GradedPoly:
    if isinstance(value, GradedPoly):
        return value
    if isinstance(value, (int, Rat)):
        return constant(value)
    raise PolyError(f"cannot interpret {value!r} as a polynomial")


def _aligned(p: GradedPoly, q: GradedPoly):
    """Terms of p and q over a merged variable table."""
    if p.vars == q.vars:
        return p.terms, q.terms, p.vars
    merged = {}
    for v in p.vars + q.vars:
        key = (v.family, v.index)
        if key in merged and merged[key].weight != v.weight:
            raise IncompatibleVariables(f"conflicting weights for {key}")
        merged[key] = v
    vars_ = tuple(sorted(merged.values(), key=Var.sort_key))
    return _remap(p, vars_), _remap(q, vars_), vars_


def _remap(p: GradedPoly, vars_: tuple) -> Terms:
    if p.vars == vars_:
        return p.terms
    index = {(v.family, v.index): i for i, v in enumerate(vars_)}
    positions = [index[(v.family, v.index)] for v in p.vars]
    out: Terms = {}
    for exps, c in p.terms.items():
        new = [0] * len(vars_)
        for pos, e in zip(positions, exps):
            new[pos] = e
        out[tuple(new)] = c
    return out


# -- constructors -----------------------------------------------------------


def constant(value) -> GradedPoly:
    value = rat(value)
    terms = {(): value} if value != 0 else {}
    return GradedPoly((), terms, None, _checked=True)


def zero() -> GradedPoly:
    return constant(0)


def one() -> GradedPoly:
    return constant(1)


def variable(family: str, index: int = 0, weight: int = 1) -> GradedPoly:
    v = Var(family, index, weight)
    return GradedPoly((v,), {(1,): _ONE}, None, _checked=True)


def cvar(i: int) -> GradedPoly:
    """Chern variable c_i with the convention c_0 = 1, c_{<0} = 0."""
    if i < 0:
        return zero()
    if i == 0:
        return one()
    return variable("c", i, weight=i)


def dvar(i: int, weight=None) -> GradedPoly:
    """Series symbol d_i; weight defaults to i (genotype-series grading)."""
    return variable("d", i, weight=i if weight is None else weight)


def root_var(family: str, index: int = 0) -> GradedPoly:
    """Weight-1 root symbol such as alpha, beta_i, a, b."""
    return variable(family, index, weight=1)


def monomial(coeff, factors: Mapping[SymbolLike, int], weights=None) -> GradedPoly:
    """coeff * prod(sym^e); weights default to 1 per symbol."""
    result = constant(coeff)
    for sym, e in factors.items():
        family, index = _resolve_symbol(sym)
        w = 1 if weights is None else weights.get(sym, 1)
        result = result * variable(family, index, w) ** e
    return result


# -- spec-named operations ----------------------------------------------------


def series_inverse(g: GradedPoly, maxdeg: int) -> GradedPoly:
    """Inverse of a series with constant term 1, truncated by weighted degree."""
    if g.constant_term() != 1:
        raise PolyError("series inverse requires constant term 1")
    g = g.truncate(maxdeg)
    parts = [g.homogeneous_part(d) for d in range(maxdeg + 1)]
    inv = [one()]
    for d in range(1, maxdeg + 1):
        acc = zero()
        for e in range(1, d + 1):
            if parts[e].is_zero():
                continue
            acc = acc + parts[e] * inv[d - e]
        inv.append((-acc).homogeneous_part(d))
    total = zero()
    for piece in inv:
        total = total + piece
    return total.truncate(maxdeg)


def series_quotient(
    numerator_factors: Sequence[GradedPoly],
    denominator_factors: Sequence[GradedPoly],
    maxdeg: int,
) -> GradedPoly:
    """prod(numerator) / prod(denominator) as a series truncated at maxdeg.

    Every factor must have constant term 1 (a total-Chern-class factor 1 + w).
    """
    numer = one().truncate(maxdeg)
    for f in numerator_factors:
        if f.constant_term() != 1:
            raise PolyError("factors must have constant term 1")
        numer = numer * f.truncate(maxdeg)
    denom = one().truncate(maxdeg)
    for f in denominator_factors:
        if f.constant_term() != 1:
            raise PolyError("factors must have constant term 1")
        denom = denom * f.truncate(maxdeg)
    return (numer * series_inverse(denom, maxdeg)).truncate(maxdeg)


def one_plus(form: GradedPoly) -> GradedPoly:
    return one() + form


def substitute(
    p: GradedPoly,
    assignment: Mapping[SymbolLike, Union[GradedPoly, int, Rat]],
    strict: bool = False,
) -> GradedPoly:
    """Ring-morphism substitution; unassigned variables map to themselves.

    With strict=True every variable occurring in p must be assigned.
    """
    images = {}
    for sym, value in assignment.items():
        images[_resolve_symbol(sym)] = _coerce(value)
    power_cache: dict = {}

    def image_power(var: Var, e: int) -> GradedPoly:
        key = (var.family, var.index)
        img = images.get(key)
        if img is None:
            if strict:
                raise PolyError(f"no assignment for {key}")
            img = variable(var.family, var.index, var.weight)
            images[key] = img
        cache_key = (key, e)
        got = power_cache.get(cache_key)
        if got is None:
            got = img ** e
            power_cache[cache_key] = got
        return got

    total = zero()
    for exps, coeff in p.terms.items():
        term = constant(coeff)
        for var, e in zip(p.vars, exps):
            if e:
                term = term * image_power(var, e)
        total = total + term
    return total


def chern_substitute(
    p: GradedPoly, series: GradedPoly, family: str = "c"
) -> GradedPoly:
    """Substitute each variable (family, i) by the weight-i part of series.

    This is the "p evaluated at a total Chern class" operation: the degree-i
    part of the series plays the role of c_i.
    """
    needed = sorted(
        {v.index for v in p.used_vars() if v.family == family}
    )
    assignment = {(family, i): series.homogeneous_part(i) for i in needed}
    return substitute(p, assignment)


def vanishes_under(
    p: GradedPoly,
    specializations: Iterable[tuple],
) -> bool:
    """True iff p becomes identically zero under each single substitution."""
    for sym, value in specializations:
        if not substitute(p, {sym: value}).is_zero():
            return False
    return True


def schur2(i: int, j: int) -> GradedPoly:
    """2x2 Schur determinant det[[c_i, c_{i+1}], [c_{j-1}, c_j]]."""
    return cvar(i) * cvar(j) - cvar(i + 1) * cvar(j - 1)


def schur3(i: int, j: int, k: int) -> GradedPoly:
    """3x3 Schur determinant with rows (c_i,c_{i+1},c_{i+2}),
    (c_{j-1},c_j,c_{j+1}), (c_{k-2},c_{k-1},c_k)."""
    rows = [
        [cvar(i), cvar(i + 1), cvar(i + 2)],
        [cvar(j - 1), cvar(j), cvar(j + 1)],
        [cvar(k - 2), cvar(k - 1), cvar(k)],
    ]
    total = zero()
    for col, sign in ((0, 1), (1, -1), (2, 1)):
        rest = [c for c in range(3) if c != col]
        minor = (
            rows[1][rest[0]] * rows[2][rest[1]]
            - rows[1][rest[1]] * rows[2][rest[0]]
        )
        total = total + rows[0][col] * minor * sign
    return total


def divide_by_linear(p: GradedPoly, form: GradedPoly) -> GradedPoly:
    """Exact quotient p / form for a homogeneous linear form.

    One synthetic division in the form's first variable v: writing
    form = a*v + rest and p = sum_k p_k v^k, the quotient coefficients are
    q_{k-1} = (p_k - rest*q_k)/a from the top down, and p_0 - rest*q_0 is the
    remainder, which equals p at v = -rest/a.  Raises NonExactDivision when
    the remainder is nonzero; this is the certified-failure path for
    malformed Euler-class quotients.
    """
    form = form.compress()
    if form.is_zero() or any(
        sum(exps) != 1 or _wdeg(form.vars, exps) != 1 for exps in form.terms
    ):
        raise PolyError("divisor must be a nonzero homogeneous linear form")
    lead = form.vars[0]
    a, f, vars_ = _aligned(p, form)
    pos = vars_.index(lead)
    inv_lead = 1 / f[tuple(int(i == pos) for i in range(len(vars_)))]
    rest = GradedPoly(
        vars_, {e: c for e, c in f.items() if not e[pos]}, None, _checked=True
    )
    slices: dict = {}
    for exps, c in a.items():
        slices.setdefault(exps[pos], {})[exps[:pos] + (0,) + exps[pos + 1:]] = c

    def p_slice(k: int) -> GradedPoly:
        return GradedPoly(vars_, slices.get(k, {}), None, _checked=True)

    quotient: Terms = {}
    carry = GradedPoly(vars_, {}, None, _checked=True)
    for k in range(max(slices, default=0), 0, -1):
        carry = (p_slice(k) - rest * carry) * inv_lead
        for exps, c in carry.terms.items():
            quotient[exps[:pos] + (k - 1,) + exps[pos + 1:]] = c
    remainder = p_slice(0) - rest * carry
    if not remainder.is_zero():
        raise NonExactDivision(
            f"remainder {to_text(remainder)} dividing by {to_text(form)}"
        )
    return GradedPoly(vars_, quotient, None, _checked=True)


def exact_quotient(p: GradedPoly, factors: Sequence[GradedPoly], unit=1) -> GradedPoly:
    """Divide p by unit * prod(factors) of linear forms, exactly."""
    result = p * rat(1, unit)
    for form in factors:
        result = divide_by_linear(result, form)
    return result


# -- canonical ordering and serialization -------------------------------------


def sorted_terms(p: GradedPoly):
    """Terms in canonical graded-lex order.

    Ascending weighted degree; within a degree, descending lexicographic on
    the exponent vector (variables already sorted by family, index).
    """
    return sorted(
        p.terms.items(),
        key=lambda item: (
            _wdeg(p.vars, item[0]),
            tuple(-e for e in item[0]),
        ),
    )


def to_json_dict(p: GradedPoly) -> dict:
    p = p.compress()
    vars_payload = [
        {"family": v.family, "index": v.index, "weight": v.weight} for v in p.vars
    ]
    terms_payload = []
    for exps, coeff in sorted_terms(p):
        pairs = [[i, e] for i, e in enumerate(exps) if e]
        terms_payload.append({"coeff": rat_str(coeff), "exps": pairs})
    return {"vars": vars_payload, "terms": terms_payload}


def to_json(p: GradedPoly, indent=None) -> str:
    return json.dumps(to_json_dict(p), indent=indent)


def from_json_dict(payload: Mapping) -> GradedPoly:
    vars_ = tuple(
        Var(v["family"], v["index"], v["weight"]) for v in payload["vars"]
    )
    terms: Terms = {}
    for entry in payload["terms"]:
        exps = [0] * len(vars_)
        for ref, e in entry["exps"]:
            if not isinstance(ref, int) or not 0 <= ref < len(vars_):
                raise PolyError(f"exponent ref {ref!r} outside the variable table")
            exps[ref] = e
        terms[tuple(exps)] = rat(entry["coeff"])
    return GradedPoly(vars_, terms)


def from_json(text: str) -> GradedPoly:
    return from_json_dict(json.loads(text))


_LATEX_FAMILIES = {
    "alpha": r"\alpha",
    "beta": r"\beta",
    "xi": r"\xi",
    "kappa": r"\kappa",
    "pi": r"\pi",
    "chi": r"\chi",
}


def _var_latex(v: Var) -> str:
    base = _LATEX_FAMILIES.get(v.family, v.family)
    if v.index:
        return f"{base}_{{{v.index}}}" if v.index > 9 else f"{base}_{v.index}"
    return base


def _var_text(v: Var) -> str:
    return f"{v.family}{v.index}" if v.index else v.family


def render_sum(terms: Iterable[Tuple[Rat, str]], times: str) -> str:
    """Signed sum of (coefficient, monomial text) pairs in the given order.

    A unit coefficient is elided before a nonempty monomial, a fractional one
    prints as p/q, times separates coefficient and monomial, and the empty
    sum is "0".  Polynomials and formal expansions both render through it.
    """
    out = []
    for coeff, body in terms:
        mag = abs(coeff)
        mag_s = "" if mag == 1 and body else str(mag)
        piece = f"{mag_s}{times}{body}" if mag_s and body else mag_s or body
        if out:
            out.append(f" {'-' if coeff < 0 else '+'} {piece}")
        else:
            out.append(f"-{piece}" if coeff < 0 else piece)
    return "".join(out) or "0"


def _render(p: GradedPoly, var_namer: Callable[[Var], str], times: str) -> str:
    p = p.compress()
    pieces = []
    for exps, coeff in sorted_terms(p):
        factors = []
        for v, e in zip(p.vars, exps):
            if not e:
                continue
            name = var_namer(v)
            factors.append(name if e == 1 else f"{name}^{e}" if e < 10 else f"{name}^{{{e}}}")
        pieces.append((coeff, times.join(factors)))
    return render_sum(pieces, times)


def to_latex(p: GradedPoly) -> str:
    return _render(p, _var_latex, "")


def to_text(p: GradedPoly) -> str:
    return _render(p, _var_text, "*")
