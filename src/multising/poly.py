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

A polynomial is stored packed (the packed exponent vectors of Monagan and
Pearce): a dict from int keys to int numerators over one shared positive
denominator, kept in lowest terms so that equal polynomials store equal
numerators.  A key holds the weighted degree in its top field and the
exponent of each variable of the table in one fixed-width field below it,
the first variable highest.  Every weight is at least 1, so no exponent
exceeds the weighted degree, and every polynomial keeps fields wide enough
for its own degree.  A monomial product is then one int addition, which
cannot carry while the product's degree bound fits the field; the product
and substitution kernels check that bound before they run and repack to a
wider field when it does not fit.  Operands over different tables or
widths go through the same single repack.  Sums, equality, truncation and
the graded order work on the ints too, and a Fraction is built only when a
coefficient is read (terms, coefficient, sorted_terms).  Packing is only
sound because every exponent is a nonnegative int, so the checking
constructor and from_json_dict, the only ways in from outside, reject
anything else.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import gcd, lcm
from operator import or_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple, Union

Rat = Fraction

_ZERO = Rat(0)

# Bits of the narrowest exponent field of a packed key; wider fields double it.
_FIELD = 8


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
    """Immutable sparse polynomial; see module docstring for conventions.

    vars is the sorted variable table, width the bits of one exponent field,
    nums maps packed keys to nonzero int numerators and den is their shared
    positive denominator.
    """

    __slots__ = ("vars", "width", "nums", "den")

    def __init__(self, vars: tuple, terms: Mapping[Exponents, object]):
        """The checking constructor: terms maps exponent tuples aligned with vars to scalars."""
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
        vars = tuple(vars[i] for i in order)
        coeffs = {}
        for exps, c in terms.items():
            if c != 0 and (c := rat(c)):
                coeffs[tuple(exps[i] for i in order)] = c
        den = lcm(*(c.denominator for c in coeffs.values()))
        width = _width(max((_wdeg(vars, e) for e in coeffs), default=0), _FIELD)
        # over the lcm of lowest-terms denominators the numerators share no factor with den
        _fill(self, vars, width, {
            _pack(vars, width, e): c.numerator * (den // c.denominator) for e, c in coeffs.items()
        }, den)

    def __setattr__(self, *args):
        raise AttributeError("GradedPoly is immutable")

    # -- queries ------------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Rat]:
        """Read-only view {exponent tuple: coefficient}, built on each access."""
        den = self.den
        return MappingProxyType(
            {exps: Rat(c, den) for exps, c in zip(_exponents(self), self.nums.values())}
        )

    def is_zero(self) -> bool:
        return not self.nums

    def constant_term(self) -> Rat:
        c = self.nums.get(0)
        return _ZERO if c is None else Rat(c, self.den)

    def weighted_degree(self):
        """Maximum weighted degree of a term, or None for the zero polynomial."""
        return _degree(self) if self.nums else None

    def is_homogeneous(self) -> bool:
        top = _top(self)
        return len({key >> top for key in self.nums}) <= 1

    def homogeneous_part(self, degree: int) -> "GradedPoly":
        top = _top(self)
        nums = {key: c for key, c in self.nums.items() if key >> top == degree}
        return _poly(self.vars, self.width, nums, self.den)

    def truncate(self, maxdeg: int) -> "GradedPoly":
        """The terms of weighted degree at most maxdeg."""
        limit = maxdeg + 1 << _top(self)
        nums = {key: c for key, c in self.nums.items() if key < limit}
        return _poly(self.vars, self.width, nums, self.den)

    def used_vars(self) -> tuple:
        used = reduce(or_, self.nums, 0)
        mask = (1 << self.width) - 1
        shifts = _shifts(len(self.vars), self.width)
        return tuple(v for v, shift in zip(self.vars, shifts) if used >> shift & mask)

    def compress(self) -> "GradedPoly":
        """Drop unused variables from the table."""
        keep = self.used_vars()
        if keep == self.vars:
            return self
        return _make(keep, self.width, _repack(self, keep, self.width), self.den)

    def coefficient(self, monomial: Mapping[SymbolLike, int]) -> Rat:
        """Coefficient of the monomial given as {symbol: exponent}."""
        want = {_resolve_symbol(s): e for s, e in monomial.items() if e}
        index = {(v.family, v.index): i for i, v in enumerate(self.vars)}
        exps = [0] * len(self.vars)
        for key, e in want.items():
            if key not in index or not _is_exponent(e) or e >> self.width:
                return _ZERO  # a monomial no term of this polynomial can have
            exps[index[key]] = e
        c = self.nums.get(_pack(self.vars, self.width, exps))
        return _ZERO if c is None else Rat(c, self.den)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "GradedPoly":
        return _make(self.vars, self.width, {k: -c for k, c in self.nums.items()}, self.den)

    def __add__(self, other) -> "GradedPoly":
        return _combine(self, _coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other) -> "GradedPoly":
        return _combine(self, _coerce(other), -1)

    def __rsub__(self, other) -> "GradedPoly":
        return _combine(_coerce(other), self, -1)

    def __mul__(self, other) -> "GradedPoly":
        if is_scalar(other):
            scalar = rat(other)
            factor = scalar.numerator
            nums = {k: c * factor for k, c in self.nums.items()} if factor else {}
            return _poly(self.vars, self.width, nums, self.den * scalar.denominator)
        return _mul_upto(self, _coerce(other), None)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GradedPoly":
        return power(self, exponent, constant(1))

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if is_scalar(other):
            other = constant(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        p, q = self, other
        if p.vars != q.vars:
            # polynomials that use different variables differ
            p, q = p.compress(), q.compress()
            if p.vars != q.vars:
                return False
        if p.den != q.den or len(p.nums) != len(q.nums):
            return False
        width = max(p.width, q.width)
        return _repack(p, p.vars, width) == _repack(q, q.vars, width)

    def __hash__(self):
        p = self.compress()
        if not p.vars:
            return hash(p.constant_term())  # equal scalars hash alike
        # exponent tuples, not keys: the hash must not depend on the width
        return hash((p.vars, p.den, frozenset(zip(_exponents(p), p.nums.values()))))

    def __repr__(self) -> str:
        return f"GradedPoly({to_text(self)})"


def _fill(p: GradedPoly, vars_: tuple, width: int, nums: dict, den: int) -> None:
    put = object.__setattr__
    put(p, "vars", vars_)
    put(p, "width", width)
    put(p, "nums", nums)
    put(p, "den", den)


def _make(vars_: tuple, width: int, nums: dict, den: int) -> GradedPoly:
    """A GradedPoly of nonzero numerators already in lowest terms over den."""
    p = object.__new__(GradedPoly)
    _fill(p, vars_, width, nums, den)
    return p


def _poly(vars_: tuple, width: int, nums: dict, den: int) -> GradedPoly:
    """A GradedPoly of nonzero numerators over den, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: c // g for k, c in nums.items()}
    return _make(vars_, width, nums, den)


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


def power(base, exponent: int, unit):
    """base ** exponent by square-and-multiply, starting from unit.

    The one power loop of the package: GradedPoly, GrassClass and FiberClass
    all raise to powers through it.  A bool, a non-int or a negative
    exponent raises PolyError.
    """
    if not _is_exponent(exponent):
        raise PolyError(f"power {exponent!r} is not a nonnegative int")
    result = unit
    while exponent:
        if exponent & 1:
            result = result * base
        if exponent > 1:
            base = base * base
        exponent >>= 1
    return result


# -- the packed int kernel ------------------------------------------------------
#
# Over a table of n variables and fields of w bits, the exponent vector e
# packs into the key (wdeg(e) << n*w) | sum(e_i << (n-1-i)*w).  Adding two
# keys adds degrees and exponents; no field carries while every exponent of
# the sum stays below 2**w, which holds whenever its degree does.  Ascending
# keys are ascending degree, then ascending lex on the exponent vector.


def _width(bound: int, width: int) -> int:
    """The narrowest field of width * 2**k bits (k >= 0) that holds 0..bound."""
    while bound >> width:
        width *= 2
    return width


def _shifts(n: int, width: int) -> range:
    """Bit offset of each variable's field, first variable first."""
    return range((n - 1) * width, -1, -width)


def _top(p: GradedPoly) -> int:
    """Bit offset of the degree field of p's keys."""
    return len(p.vars) * p.width


def _degree(p: GradedPoly) -> int:
    """Maximum weighted degree of a term of p; 0 for the zero polynomial."""
    return max(p.nums) >> _top(p) if p.nums else 0


def _pack(vars_: tuple, width: int, exps: Exponents) -> int:
    key = _wdeg(vars_, exps)
    for e in exps:
        key = key << width | e
    return key


def _exponents(p: GradedPoly) -> list:
    """The exponent tuple of each key of p, in p.nums order."""
    mask = (1 << p.width) - 1
    shifts = _shifts(len(p.vars), p.width)
    return [tuple([key >> shift & mask for shift in shifts]) for key in p.nums]


def _repack(p: GradedPoly, vars_: tuple, width: int) -> dict:
    """p's numerators keyed over the table vars_ with fields of width bits.

    vars_ must hold every variable p uses and width must be at least p's;
    this is the one place where keys move between tables or widths.
    """
    if p.vars == vars_ and p.width == width:
        return p.nums
    index = {(v.family, v.index): i for i, v in enumerate(vars_)}
    n = len(vars_)
    moves = [
        (shift, (n - 1 - index[(v.family, v.index)]) * width)
        for v, shift in zip(p.vars, _shifts(len(p.vars), p.width))
        if (v.family, v.index) in index
    ]
    mask = (1 << p.width) - 1
    top, new_top = _top(p), n * width
    out = {}
    for key, c in p.nums.items():
        new = key >> top << new_top
        for src, dst in moves:
            new |= (key >> src & mask) << dst
        out[new] = c
    return out


def _aligned(p: GradedPoly, q: GradedPoly, bound: int = 0):
    """(table, width, p's numerators, q's numerators) over a merged table and
    a width that holds both operands and every degree up to bound."""
    vars_ = p.vars if p.vars == q.vars else _merged_table(p.vars + q.vars)
    width = _width(bound, max(p.width, q.width))
    return vars_, width, _repack(p, vars_, width), _repack(q, vars_, width)


def _combine(p: GradedPoly, q: GradedPoly, sign: int) -> GradedPoly:
    """p + sign * q, merged on int numerators over the lcm of the denominators."""
    vars_, width, a, b = _aligned(p, q)
    den = lcm(p.den, q.den)
    scale_a, scale_b = den // p.den, sign * (den // q.den)
    nums = dict(a) if scale_a == 1 else {k: c * scale_a for k, c in a.items()}
    get = nums.get
    for key, c in b.items():
        c = get(key, 0) + c * scale_b
        if c:
            nums[key] = c
        else:
            del nums[key]
    return _poly(vars_, width, nums, den)


def _mul_into(acc: dict, left: Iterable[tuple], right: list) -> None:
    """acc += left * right on packed keys and int numerators.

    Left rows are (key, numerator, stop): a row meets only right[:stop]
    (stop None: all of right), which cuts a product at a degree when right
    is sorted by key.  Right rows are (key, numerator).
    """
    get = acc.get
    for key_a, c_a, stop in left:
        for key_b, c_b in islice(right, stop):
            key = key_a + key_b
            acc[key] = get(key, 0) + c_a * c_b


def _mul_upto(p: GradedPoly, q: GradedPoly, maxdeg) -> GradedPoly:
    """p * q without the terms above weighted degree maxdeg (None: none cut).

    The fields must hold the product's degree bound, which maxdeg cuts too:
    with a maxdeg, q's keys are sorted, hence sorted by degree, and the
    pairs above maxdeg are never formed.
    """
    bound = _degree(p) + _degree(q)
    if maxdeg is not None:
        bound = max(min(bound, maxdeg), 0)
    vars_, width, a, b = _aligned(p, q, bound)
    if maxdeg is None:
        rows = [(key, c, None) for key, c in a.items()]
        right = list(b.items())
    else:
        top = len(vars_) * width
        right = sorted(b.items())
        keys = [key for key, _ in right]
        rows = [
            (key, c, bisect_left(keys, maxdeg + 1 - (key >> top) << top))
            for key, c in a.items()
        ]
    acc: dict = {}
    _mul_into(acc, rows, right)
    nums = {key: c for key, c in acc.items() if c}
    return _poly(vars_, width, nums, p.den * q.den)


def _coerce(value) -> GradedPoly:
    if isinstance(value, GradedPoly):
        return value
    if is_scalar(value):
        return constant(value)
    raise PolyError(f"cannot interpret {value!r} as a polynomial")


def _merged_table(vars_: Iterable[Var]) -> tuple:
    """The sorted union of variables; one (family, index) with two weights raises."""
    merged = {}
    for v in vars_:
        key = (v.family, v.index)
        if key in merged and merged[key].weight != v.weight:
            raise IncompatibleVariables(f"conflicting weights for {key}")
        merged[key] = v
    return tuple(sorted(merged.values(), key=Var.sort_key))


# -- constructors -----------------------------------------------------------


def constant(value) -> GradedPoly:
    value = rat(value)
    nums = {0: value.numerator} if value else {}
    return _make((), _FIELD, nums, value.denominator)


def zero() -> GradedPoly:
    return constant(0)


def one() -> GradedPoly:
    return constant(1)


def variable(family: str, index: int = 0, weight: int = 1) -> GradedPoly:
    v = Var(family, index, weight)
    width = _width(weight, _FIELD)
    return _make((v,), width, {_pack((v,), width, (1,)): 1}, 1)


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
    check_int(maxdeg, -1, "series degree maxdeg")  # -1: the empty cut
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
    check_int(maxdeg, -1, "series degree maxdeg")

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
    never multiplied.  Every output term of a term of p of degree D has
    degree at most D * max(1, deg(image_i) / weight_i) over the assigned
    variables i, and so has every partial product; the fields are widened
    if that bound does not fit them.  Image i is over D_i, and a slice of
    exponent e is scaled by D_i**(E_i - e), where E_i is the largest
    exponent of i in p, so every partial sum is over the one denominator
    D_p * prod(D_i**E_i).
    """
    images = {_resolve_symbol(sym): _coerce(value) for sym, value in assignment.items()}
    if strict:
        for v in p.used_vars():
            if (v.family, v.index) not in images:
                raise PolyError(f"no assignment for {(v.family, v.index)}")
    if not p.nums:
        return p
    keys = [(v.family, v.index) for v in p.vars]
    shifts = _shifts(len(keys), p.width)
    mask = (1 << p.width) - 1
    used = reduce(or_, p.nums)
    occurs = [bool(used >> shift & mask) for shift in shifts]
    # the assigned variables that occur in p, outermost slice first
    levels = [i for i in range(len(keys) - 1, -1, -1) if occurs[i] and keys[i] in images]
    vars_ = _merged_table(
        [v for v, key in zip(p.vars, keys) if key not in images]
        + [v for i in levels for v in images[keys[i]].vars]
    )
    degree = _degree(p)
    bound = max([degree] + [degree * _degree(images[keys[i]]) // p.vars[i].weight for i in levels])
    width = _width(bound, max([p.width] + [images[keys[i]].width for i in levels]))
    top = len(vars_) * width
    out_shift = dict(zip(((v.family, v.index) for v in vars_), _shifts(len(vars_), width)))
    # (field in p, field in the output, weight) of each unassigned variable occurring in p
    moves = [
        (shifts[i], out_shift[key], p.vars[i].weight)
        for i, key in enumerate(keys)
        if occurs[i] and key not in images
    ]

    def kept(key: int) -> int:
        """The output key of the unassigned part of a key of p."""
        out = deg = 0
        for field, dst, weight in moves:
            e = key >> field & mask
            out |= e << dst
            deg += e * weight
        return deg << top | out

    rows = [(key, kept(key), c) for key, c in p.nums.items()]
    den = p.den
    powers, scales = [], []
    for i in levels:
        image = images[keys[i]]
        most = max(key >> shifts[i] & mask for key in p.nums)
        base = list(_repack(image, vars_, width).items())
        chain = [[(0, 1)]]
        for _ in range(most):
            acc: dict = {}
            _mul_into(acc, [(key, c, None) for key, c in chain[-1]], base)
            chain.append([(key, c) for key, c in acc.items() if c])
        powers.append(chain)
        scales.append([image.den ** (most - e) for e in range(most + 1)])
        den *= image.den ** most

    def horner(rows: list, depth: int) -> dict:
        if depth == len(levels):
            return {out: c for _, out, c in rows}
        shift, scale, power = shifts[levels[depth]], scales[depth], powers[depth]
        slices: dict = {}
        for row in rows:
            slices.setdefault(row[0] >> shift & mask, []).append(row)
        acc: dict = {}
        for e, part in slices.items():
            inner = horner(part, depth + 1)
            _mul_into(acc, [(key, c * scale[e], None) for key, c in inner.items()], power[e])
        return acc

    nums = {key: c for key, c in horner(rows, 0).items() if c}
    return _poly(vars_, width, nums, den)


def chern_substitute(
    p: GradedPoly, series: GradedPoly, family: str = "c"
) -> GradedPoly:
    """Substitute each variable (family, i) by the weight-i part of series.

    This is the "p evaluated at a total Chern class" operation: the degree-i
    part of the series plays the role of c_i.  The series is bucketed by
    the degree field of its keys in one pass.
    """
    parts = {v.index: {} for v in p.used_vars() if v.family == family}
    top = _top(series)
    for key, c in series.nums.items():
        part = parts.get(key >> top)
        if part is not None:
            part[key] = c
    assignment = {
        (family, i): _poly(series.vars, series.width, parts[i], series.den)
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
    # weights are >= 1, so degree 1 means one weight-1 variable to the first power
    if form.is_zero() or any(key >> _top(form) != 1 for key in form.nums):
        raise PolyError("divisor must be a nonzero homogeneous linear form")
    lead = form.vars[0]
    vars_, width, a, f = _aligned(p, form)
    shift = _shifts(len(vars_), width)[vars_.index(lead)]
    unit = 1 << len(vars_) * width | 1 << shift  # the key of lead itself
    inv_lead = Rat(form.den, f[unit])
    rest = _poly(vars_, width, {k: c for k, c in f.items() if k != unit}, form.den)
    mask = (1 << width) - 1
    slices: dict = {}
    for key, c in a.items():
        e = key >> shift & mask
        slices.setdefault(e, {})[key - e * unit] = c

    def p_slice(k: int) -> GradedPoly:
        return _poly(vars_, width, slices.get(k, {}), p.den)

    quotient = carry = _make(vars_, width, {}, 1)
    for k in range(max(slices, default=0), 0, -1):
        carry = (p_slice(k) - rest * carry) * inv_lead
        # carry keeps vars_ and width: its degree stays below p's
        shifted = {key + (k - 1) * unit: c for key, c in carry.nums.items()}
        quotient = quotient + _make(vars_, width, shifted, carry.den)
    remainder = p_slice(0) - rest * carry
    if not remainder.is_zero():
        raise NonExactDivision(
            f"remainder {to_text(remainder)} dividing by {to_text(form)}"
        )
    return quotient


def exact_quotient(p: GradedPoly, factors: Sequence[GradedPoly]) -> GradedPoly:
    """Divide p by the product of the linear forms in factors, exactly."""
    result = p
    for form in factors:
        result = divide_by_linear(result, form)
    return result


# -- canonical ordering and serialization -------------------------------------


def sorted_terms(p: GradedPoly):
    """Terms in canonical graded-lex order.

    Ascending weighted degree; within a degree, descending lexicographic on
    the exponent vector (variables already sorted by family, index).
    """
    low = (1 << _top(p)) - 1  # flipping the exponent fields reverses their lex order
    den = p.den
    return [
        (exps, Rat(c, den))
        for _, exps, c in sorted(zip([key ^ low for key in p.nums], _exponents(p), p.nums.values()))
    ]


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
    terms: dict = {}
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
