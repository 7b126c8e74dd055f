"""Exact sparse polynomial arithmetic over Q with weighted-graded variables.

A polynomial is a mapping from exponent vectors to exact rational
coefficients.  Every variable carries a (family, index, weight) triple:
Chern-type variables c_i have weight i, root symbols (alpha, beta_i, a, b)
have weight 1, and series symbols d_i get their weight at construction time.
The weighted degree of a monomial is the exponent-weighted sum, and all
truncation is by weighted degree.  Truncation is explicit: a polynomial is
a plain value that carries no precision, so its products and sums are
always exact, and only truncate(), series_inverse() and series_quotient()
drop terms above a degree they are given.

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

Products and substitutions run in one packed int kernel (the packed exponent
vectors of Monagan and Pearce): for the duration of one call each exponent
vector is one int in a radix larger than any exponent the call can reach,
and each operand is cleared to int numerators over its common denominator,
so a monomial product is one int addition and a Fraction is built only for
each nonzero output term.  A product takes its radix from the two operands'
exponent sums.  substitute() fixes one radix for the whole Horner evaluation,
from p's largest exponents and its images' largest exponents, and keeps
every slice, image power and partial sum packed until the end.  The stored
terms stay a dict from exponent tuples to Fraction.  Packing is only sound
because every exponent is a nonnegative int, so the checking constructor
and from_json_dict reject anything else.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import add, mul
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple, Union

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

    Anything else (a float, a bool, a malformed string, a zero denominator)
    raises PolyError.
    """
    if isinstance(numerator, str):
        if denominator != 1:
            raise PolyError("string rationals carry their own denominator")
        p, _, q = numerator.partition("/")
        try:
            numerator, denominator = int(p), int(q or 1)
        except ValueError:
            raise PolyError(f"malformed rational {numerator!r}") from None
    if not is_scalar(numerator) or not is_scalar(denominator):
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

    def __post_init__(self):
        if not isinstance(self.family, str):
            raise PolyError(f"variable family {self.family!r} is not a string")
        if not _is_int(self.index):
            raise PolyError(f"variable index {self.index!r} is not an int")
        if not _is_int(self.weight) or self.weight < 1:
            # weight 0 or below breaks truncation by weighted degree
            raise PolyError(f"variable weight {self.weight!r} is not a positive int")

    def sort_key(self) -> tuple:
        return (self.family, self.index)


Exponents = tuple  # exponent vector aligned with a sorted variable table
Terms = dict

SymbolLike = Union["Var", str, tuple]


def _resolve_symbol(sym: SymbolLike) -> tuple:
    """Accept Var, bare family string (index 0), or (family, index); else PolyError."""
    if isinstance(sym, Var):
        return (sym.family, sym.index)
    if isinstance(sym, str):
        return (sym, 0)
    if isinstance(sym, tuple) and len(sym) == 2 and isinstance(sym[0], str) and _is_int(sym[1]):
        return sym
    raise PolyError(f"{sym!r} is not a symbol: give a Var, a family or a (family, index) pair")


class GradedPoly:
    """Immutable sparse polynomial; see module docstring for conventions."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple, terms: Terms, *, _checked=False):
        if not _checked:
            seen = {}
            for v in vars:
                key = (v.family, v.index)
                if key in seen:
                    if seen[key] != v.weight:
                        raise IncompatibleVariables(f"conflicting weights for {key}")
                    raise PolyError(f"variable {key} repeats in the table")
                seen[key] = v.weight
            for exps in terms:
                if not isinstance(exps, tuple) or len(exps) != len(vars):
                    raise PolyError(f"exponent vector {exps!r} does not match {len(vars)} variables")
                if not all(map(_is_exponent, exps)):
                    raise PolyError(f"exponents {exps!r} must be nonnegative ints")
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
            terms = {exps: rat(c) for exps, c in terms.items() if c != 0}
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)

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
        return GradedPoly(self.vars, terms, _checked=True)

    def truncate(self, maxdeg: int) -> "GradedPoly":
        """The terms of weighted degree at most maxdeg."""
        terms = {
            exps: c
            for exps, c in self.terms.items()
            if _wdeg(self.vars, exps) <= maxdeg
        }
        return GradedPoly(self.vars, terms, _checked=True)

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
        return GradedPoly(keep, terms, _checked=True)

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
        return GradedPoly(self.vars, {e: -c for e, c in self.terms.items()}, _checked=True)

    def __add__(self, other) -> "GradedPoly":
        other = _coerce(other)
        a, b, vars_ = _aligned(self, other)
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
        return GradedPoly(vars_, terms, _checked=True)

    __radd__ = __add__

    def __sub__(self, other) -> "GradedPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "GradedPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "GradedPoly":
        if is_scalar(other):
            scalar = rat(other)
            if scalar == 0:
                return GradedPoly(self.vars, {}, _checked=True)
            return GradedPoly(
                self.vars, {e: c * scalar for e, c in self.terms.items()}, _checked=True
            )
        return _mul_upto(self, _coerce(other), None)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GradedPoly":
        if not _is_exponent(exponent):
            raise PolyError(f"power {exponent!r} is not a nonnegative int")
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
        if is_scalar(other):
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_scalar(value) -> bool:
    """True for the exact scalars rat() takes as numbers: ints and Rats, not bools."""
    return isinstance(value, Rat) or _is_int(value)


def check_int(value, least: int, what: str, most: Optional[int] = None, error=PolyError) -> int:
    """value if it is an int in least..most (no upper bound when most is None).

    A bool, any other non-int or a value out of range raises error, a
    PolyError subclass.  The relative dimensions ell, multiplicities r and
    singularity indices k of thom, germs and multipoint are checked here.
    """
    if not _is_int(value) or value < least or (most is not None and value > most):
        bounds = f">= {least}" if most is None else f"in {least}..{most}"
        raise error(f"{what} must be an int {bounds}, got {value!r}")
    return value


def _is_exponent(e) -> bool:
    return _is_int(e) and e >= 0


# -- the packed int kernel ------------------------------------------------------
#
# An exponent vector over a table of n variables packs into the int
# sum(e_i * radix**(n-1-i)).  When radix exceeds every exponent a result can
# reach, no digit carries, so a monomial product is one int addition and a
# packed key unpacks back to the same vector.  Coefficients are cleared to int
# numerators over one common denominator per operand.


def _places(radix: int, n: int) -> list:
    return [radix ** i for i in range(n - 1, -1, -1)]


def _cleared(terms: Terms, places: list) -> tuple:
    """Rows (exponents, packed key, int numerator) over the common denominator.

    A variable whose place is 0 is left out of the key.
    """
    den = lcm(*(c.denominator for c in terms.values()))
    rows = [
        (e, sum(map(mul, e, places)), c.numerator * (den // c.denominator))
        for e, c in terms.items()
    ]
    return rows, den


def _mul_into(acc: dict, left: Iterable[tuple], right: list) -> None:
    """acc += left * right on packed keys and int numerators.

    Left rows are (key, numerator, stop): a row meets only right[:stop]
    (stop None: all of right), which cuts a product at a degree when right
    is sorted by degree.  Right rows are (key, numerator).
    """
    get = acc.get
    for key_a, c_a, stop in left:
        for key_b, c_b in islice(right, stop):
            key = key_a + key_b
            acc[key] = get(key, 0) + c_a * c_b


def _unpacked(acc: dict, radix: int, places: list, den: int) -> Terms:
    """Terms of the nonzero numerators in acc, each over den."""
    return {
        tuple([key // place % radix for place in places]): Rat(c, den)
        for key, c in acc.items()
        if c
    }


def _mul_terms(a: Terms, b: Terms, vars_: tuple, trunc) -> Terms:
    """Terms of the product of two term dicts aligned with vars_.

    The radix is 1 + the largest per-variable exponent sum of the operands.
    With a trunc, the right operand is sorted by weighted degree, so the
    pairs above trunc are never visited.
    """
    if not a or not b:
        return {}
    radix = 1 + max(map(add, map(max, zip(*a)), map(max, zip(*b))), default=0)
    places = _places(radix, len(vars_))
    left, den_a = _cleared(a, places)
    right, den_b = _cleared(b, places)
    if trunc is None:
        rows = [(key, c, None) for _, key, c in left]
    else:
        weights = [v.weight for v in vars_]
        right.sort(key=lambda row: sum(map(mul, row[0], weights)))
        cut = [sum(map(mul, e, weights)) for e, _, _ in right]
        rows = [
            (key, c, bisect_right(cut, trunc - sum(map(mul, e, weights))))
            for e, key, c in left
        ]
    acc: dict = {}
    _mul_into(acc, rows, [(key, c) for _, key, c in right])
    return _unpacked(acc, radix, places, den_a * den_b)


def _mul_upto(p: GradedPoly, q: GradedPoly, maxdeg) -> GradedPoly:
    """p * q without the terms above weighted degree maxdeg (None: none cut)."""
    a, b, vars_ = _aligned(p, q)
    return GradedPoly(vars_, _mul_terms(a, b, vars_, maxdeg), _checked=True)


def _coerce(value) -> GradedPoly:
    if isinstance(value, GradedPoly):
        return value
    if is_scalar(value):
        return constant(value)
    raise PolyError(f"cannot interpret {value!r} as a polynomial")


def _aligned(p: GradedPoly, q: GradedPoly):
    """Terms of p and q over a merged variable table."""
    if p.vars == q.vars:
        return p.terms, q.terms, p.vars
    vars_ = _merged_table(p.vars + q.vars)
    return _remap(p, vars_), _remap(q, vars_), vars_


def _merged_table(vars_: Iterable[Var]) -> tuple:
    """The sorted union of variables; one (family, index) with two weights raises."""
    merged = {}
    for v in vars_:
        key = (v.family, v.index)
        if key in merged and merged[key].weight != v.weight:
            raise IncompatibleVariables(f"conflicting weights for {key}")
        merged[key] = v
    return tuple(sorted(merged.values(), key=Var.sort_key))


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
    return GradedPoly((), terms, _checked=True)


def zero() -> GradedPoly:
    return constant(0)


def one() -> GradedPoly:
    return constant(1)


def variable(family: str, index: int = 0, weight: int = 1) -> GradedPoly:
    v = Var(family, index, weight)
    return GradedPoly((v,), {(1,): _ONE}, _checked=True)


def cvar(i: int) -> GradedPoly:
    """Chern variable c_i with the convention c_0 = 1, c_{<0} = 0."""
    if i < 0:
        return zero()
    if i == 0:
        return one()
    return variable("c", i, weight=i)


def dvar(i: int) -> GradedPoly:
    """Series symbol d_i of weight i (genotype-series grading)."""
    return variable("d", i, weight=i)


def root_var(family: str, index: int = 0) -> GradedPoly:
    """Weight-1 root symbol such as alpha, beta_i, a, b."""
    return variable(family, index, weight=1)


# -- spec-named operations ----------------------------------------------------


def series_inverse(g: GradedPoly, maxdeg: int) -> GradedPoly:
    """Inverse of a series with constant term 1, truncated by weighted degree.

    Newton iteration: if inv is right up to degree k, inv * (2 - g * inv) is
    right up to degree 2k + 1, so the steps cut at 1, 3, 7, ... maxdeg.
    """
    if g.constant_term() != 1:
        raise PolyError("series inverse requires constant term 1")
    inv, prec = one().truncate(maxdeg), 0
    while prec < maxdeg:
        prec = min(2 * prec + 1, maxdeg)
        inv = _mul_upto(inv, 2 - _mul_upto(g, inv, prec), prec)
    return inv


def series_quotient(
    numerator_factors: Sequence[GradedPoly],
    denominator_factors: Sequence[GradedPoly],
    maxdeg: int,
) -> GradedPoly:
    """prod(numerator) / prod(denominator) as a series truncated at maxdeg.

    Every factor must have constant term 1 (a total-Chern-class factor 1 + w).
    """

    def product(factors: Sequence[GradedPoly]) -> GradedPoly:
        total = one()
        for f in factors:
            if f.constant_term() != 1:
                raise PolyError("factors must have constant term 1")
            total = _mul_upto(total, f, maxdeg)
        return total

    numer = product(numerator_factors)
    return _mul_upto(numer, series_inverse(product(denominator_factors), maxdeg), maxdeg)


def one_plus(form: GradedPoly) -> GradedPoly:
    return one() + form


def substitute(
    p: GradedPoly,
    assignment: Mapping[SymbolLike, Union[GradedPoly, int, Rat]],
    strict: bool = False,
) -> GradedPoly:
    """Ring-morphism substitution; unassigned variables map to themselves.

    With strict=True every variable occurring in p must be assigned.  The
    evaluation is Horner-style over the assigned variables, in the packed int
    kernel from start to end: p is sliced by the exponent of one assigned
    variable at a time, each slice is substituted recursively and multiplied
    by a cached power of that variable's image, so unassigned variables are
    never multiplied.  One radix serves the whole call; it bounds, for each
    output variable, p's own exponent of it plus E_i times its exponent in
    image i, summed over the assigned variables i, where E_i is the largest
    exponent of i in p.  p is cleared over D_p and image i over D_i, and a
    slice of exponent e is scaled by D_i**(E_i - e), so every partial sum is
    over the one denominator D_p * prod(D_i**E_i).
    """
    images = {_resolve_symbol(sym): _coerce(value) for sym, value in assignment.items()}
    if strict:
        for v in p.used_vars():
            if (v.family, v.index) not in images:
                raise PolyError(f"no assignment for {(v.family, v.index)}")
    if not p.terms:
        return p
    keys = [(v.family, v.index) for v in p.vars]
    tops = list(map(max, zip(*p.terms)))
    # the assigned variables that occur in p, outermost slice first
    levels = [i for i in range(len(keys) - 1, -1, -1) if tops[i] and keys[i] in images]
    vars_ = _merged_table(
        [v for v, key in zip(p.vars, keys) if key not in images]
        + [v for i in levels for v in images[keys[i]].vars]
    )
    index = {(v.family, v.index): n for n, v in enumerate(vars_)}
    bound = [0] * len(vars_)
    for key, top in zip(keys, tops):
        if key not in images:
            bound[index[key]] += top
    for i in levels:
        image = images[keys[i]]
        for v, top in zip(image.vars, map(max, zip(*image.terms))):
            bound[index[(v.family, v.index)]] += tops[i] * top
    radix = 1 + max(bound, default=0)
    places = _places(radix, len(vars_))

    rows, den = _cleared(p.terms, [0 if key in images else places[index[key]] for key in keys])
    powers, scales = [], []
    for i in levels:
        image = images[keys[i]]
        image_rows, den_i = _cleared(
            image.terms, [places[index[(v.family, v.index)]] for v in image.vars]
        )
        base = [(key, c) for _, key, c in image_rows]
        chain = [[(0, 1)]]
        for _ in range(tops[i]):
            acc: dict = {}
            _mul_into(acc, [(key, c, None) for key, c in chain[-1]], base)
            chain.append([(key, c) for key, c in acc.items() if c])
        powers.append(chain)
        scales.append([den_i ** (tops[i] - e) for e in range(tops[i] + 1)])
        den *= den_i ** tops[i]

    def horner(rows: list, depth: int) -> dict:
        if depth == len(levels):
            return {key: c for _, key, c in rows}
        pos, scale, power = levels[depth], scales[depth], powers[depth]
        slices: dict = {}
        for row in rows:
            slices.setdefault(row[0][pos], []).append(row)
        acc: dict = {}
        for e, part in slices.items():
            inner = horner(part, depth + 1)
            _mul_into(acc, [(key, c * scale[e], None) for key, c in inner.items()], power[e])
        return acc

    return GradedPoly(vars_, _unpacked(horner(rows, 0), radix, places, den), _checked=True)


def chern_substitute(
    p: GradedPoly, series: GradedPoly, family: str = "c"
) -> GradedPoly:
    """Substitute each variable (family, i) by the weight-i part of series.

    This is the "p evaluated at a total Chern class" operation: the degree-i
    part of the series plays the role of c_i.  The series is bucketed by
    weighted degree in one pass.
    """
    parts = {v.index: {} for v in p.used_vars() if v.family == family}
    for exps, c in series.terms.items():
        part = parts.get(_wdeg(series.vars, exps))
        if part is not None:
            part[exps] = c
    assignment = {
        (family, i): GradedPoly(series.vars, parts[i], _checked=True)
        for i in sorted(parts)
    }
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


def schur_det(*parts: int) -> GradedPoly:
    """Schur determinant det[c_{parts[r]+s-r}] over rows r and columns s.

    schur_det() is 1, schur_det(i) is c_i and schur_det(i, j) is
    c_i c_j - c_{i+1} c_{j-1}; larger determinants expand along the first row.
    """
    if not parts:
        return one()

    def minor(row: int, cols: tuple) -> GradedPoly:
        if len(cols) == 1:
            return cvar(parts[row] + cols[0] - row)
        total = zero()
        for pos, col in enumerate(cols):
            term = cvar(parts[row] + col - row) * minor(row + 1, cols[:pos] + cols[pos + 1:])
            total = total - term if pos % 2 else total + term
        return total

    return minor(0, tuple(range(len(parts))))


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
        vars_, {e: c for e, c in f.items() if not e[pos]}, _checked=True
    )
    slices: dict = {}
    for exps, c in a.items():
        slices.setdefault(exps[pos], {})[exps[:pos] + (0,) + exps[pos + 1:]] = c

    def p_slice(k: int) -> GradedPoly:
        return GradedPoly(vars_, slices.get(k, {}), _checked=True)

    quotient: Terms = {}
    carry = GradedPoly(vars_, {}, _checked=True)
    for k in range(max(slices, default=0), 0, -1):
        carry = (p_slice(k) - rest * carry) * inv_lead
        for exps, c in carry.terms.items():
            quotient[exps[:pos] + (k - 1,) + exps[pos + 1:]] = c
    remainder = p_slice(0) - rest * carry
    if not remainder.is_zero():
        raise NonExactDivision(
            f"remainder {to_text(remainder)} dividing by {to_text(form)}"
        )
    return GradedPoly(vars_, quotient, _checked=True)


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


def to_json(p: GradedPoly) -> str:
    return json.dumps(to_json_dict(p))


def json_field(payload, key: str, kind=object):
    """payload[key] of a JSON object, checked to be a kind (int excludes bool).

    A payload that is not a mapping, a missing key or a value of another
    kind raises PolyError; every JSON reader of the package goes through it.
    """
    if not isinstance(payload, Mapping) or key not in payload:
        raise PolyError(f"JSON: {payload!r} has no {key!r} field")
    value = payload[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise PolyError(f"JSON: {key!r} is {value!r}, not {kind.__name__}")
    return value


def json_loads(text: str):
    """json.loads at the package's boundary: text that does not parse raises PolyError."""
    try:
        return json.loads(text)
    except ValueError as err:  # json.JSONDecodeError and undecodable bytes
        raise PolyError(f"JSON: {err}") from None


def from_json_dict(payload: Mapping) -> GradedPoly:
    """Inverse of to_json_dict; any malformed payload raises PolyError."""
    vars_ = tuple(
        Var(json_field(v, "family", str), json_field(v, "index", int),
            json_field(v, "weight", int))
        for v in json_field(payload, "vars", list)
    )
    terms: Terms = {}
    for entry in json_field(payload, "terms", list):
        exps = [0] * len(vars_)
        seen = set()
        for pair in json_field(entry, "exps", list):
            if not isinstance(pair, list) or len(pair) != 2:
                raise PolyError(f"exponent entry {pair!r} is not a [ref, exponent] pair")
            ref, e = pair
            if not _is_exponent(ref) or ref >= len(vars_):
                raise PolyError(f"exponent ref {ref!r} outside the variable table")
            if ref in seen:
                raise PolyError(f"exponent ref {ref} repeats within one term")
            seen.add(ref)
            exps[ref] = e
        if tuple(exps) in terms:
            raise PolyError(f"monomial {exps} appears in two terms")
        terms[tuple(exps)] = rat(json_field(entry, "coeff"))
    return GradedPoly(vars_, terms)


def from_json(text: str) -> GradedPoly:
    return from_json_dict(json_loads(text))


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
