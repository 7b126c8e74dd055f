"""Exact sparse polynomial arithmetic over Q with weighted-graded variables.

A polynomial is a mapping from exponent vectors to exact rational
coefficients.  Every variable carries a (family, index, weight) triple:
Chern-type variables c_i have weight i, root symbols (alpha_i, beta_i)
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
new polynomials.  No operation writes to the numerators of a polynomial
after it is built, so equal values may safely be one object: variable()
hands out one shared polynomial per (family, index, weight), and one() and
zero() one constant each.  Aligning two operands is memoised as well: the
merged table of two variable tables and the field moves from one (table,
width) to another are each computed once, so those caches grow with the
number of distinct tables, never with the number of operations.

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
widths go through the same single repack.  Sums, equality, truncation,
the graded order, rendering and JSON work on the ints too, and a Fraction
is built only when a coefficient is read (terms, coefficient,
sorted_terms).  Packing is only sound because every exponent is a
nonnegative int, so int_product, the packer that the checking constructor
and from_json_dict go through, rejects anything else.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, permutations
from math import gcd, lcm, prod
from operator import attrgetter, itemgetter, mul, or_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple, Union

Rat = Fraction

_ZERO = Rat(0)

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

# Bits of the narrowest exponent field of a packed key; wider fields double it.
_FIELD = 8


class PolyError(ValueError):
    """Base error for polynomial operations."""


class IncompatibleVariables(PolyError):
    """Raised when merging tables that disagree on a variable's weight."""


class NonExactDivision(PolyError):
    """Raised when a requested exact polynomial division leaves a remainder."""


def rat(numerator: Union[int, str, Rat], denominator: Union[int, Rat] = 1) -> Rat:
    """Exact rational from ints, a "p" or "p/q" string, or an existing rational.

    A string must match -?[0-9]+(/[0-9]+)?: no spaces, "+", underscores,
    non-ASCII digits or sign in q.  Anything else (a float, a bool, a
    malformed string, a zero denominator) raises PolyError.
    """
    if isinstance(numerator, str):
        if denominator != 1:
            raise PolyError("string rationals carry their own denominator")
        match = _RATIONAL.fullmatch(numerator)
        try:
            numerator, denominator = int(match[1]), int(match[2] or 1)
        except (TypeError, ValueError):  # no match, or more digits than int() reads
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


class Record:
    """Base of the frozen value types, with no generated code.

    The fields of a subclass are its own annotations, in order, after those
    it inherits; trailing fields may have class-attribute defaults.  An
    instance is built positionally or by keyword (a missing or unknown field
    raises TypeError), __post_init__ validates it, and assigning or deleting
    an attribute raises AttributeError.  Only instances of one class compare
    equal, the hash is that of the tuple of fields, and the repr is
    Name(field=value, ...).  replace(**changes) goes through __init__, so
    validation runs again.  The tuple of fields is read once, after
    __post_init__, and kept for equality, hashing and repr.  The hash is
    kept too, from its first use on, so a field that cannot be hashed raises
    only when the record is hashed.
    """

    __slots__ = ("_values", "_hash")
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__  # the class's own, from Python 3.10 on
        cls._fields = fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._defaults = {n: getattr(cls, n) for n in fields if hasattr(cls, n)}
        get = attrgetter(*fields)
        cls._values_of = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))
        cls.__match_args__ = fields

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            named = {**self._defaults, **kwargs}
            try:
                values = args + tuple(map(named.__getitem__, rest))
            except KeyError:
                values = ()
            if len(values) != len(fields) or kwargs.keys() - rest:
                raise TypeError(f"{type(self).__name__} takes the fields {fields}, got "
                                f"{len(args)} positional and the keywords {sorted(kwargs)}")
            args = values
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()
        _set_values(self, self._values_of(self))

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _set_hash(self, h := hash(self._values))
            return h

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._values

    def replace(self, **changes):
        """A copy with the given fields changed, validated again."""
        values = tuple(map(changes.pop, self._fields, self._values))
        if changes:
            raise TypeError(f"{type(self).__name__} has no fields {sorted(changes)}")
        return type(self)(*values)


# all three bypass the frozen __setattr__
_setattr = object.__setattr__
_set_values, _set_hash = Record._values.__set__, Record._hash.__set__


class Var(Record):
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
        coeffs = [rat(c) if c != 0 else _ZERO for c in terms.values()]
        den = lcm(*(c.denominator for c in coeffs))
        # over the lcm of lowest-terms denominators the numerators share no factor with den
        p = int_product(vars, list(terms), [[c.numerator * (den // c.denominator) for c in coeffs]])
        _fill(self, p.vars, p.width, p.nums, den)

    def __setattr__(self, *args):
        raise AttributeError("GradedPoly is immutable")

    # -- queries ------------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Rat]:
        """Read-only view {exponent tuple: coefficient}, built on each access."""
        den = self.den
        return MappingProxyType(
            {exps: Rat(c, den) for exps, c in zip(_exponents(self, self.nums), self.nums.values())}
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
        check_int(degree, None, "degree of a homogeneous part")
        top = _top(self)
        nums = {key: c for key, c in self.nums.items() if key >> top == degree}
        return _poly(self.vars, self.width, nums, self.den)

    def truncate(self, maxdeg: int) -> "GradedPoly":
        """The terms of weighted degree at most maxdeg."""
        check_int(maxdeg, None, "truncation degree maxdeg")
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
        """Coefficient of the monomial given as {symbol: exponent}.

        A negative, bool or non-int exponent raises PolyError, as in the
        checking constructor.
        """
        want = {}
        for sym, e in monomial.items():
            key = _resolve_symbol(sym)
            if not _is_exponent(e):
                raise PolyError(f"exponent {e!r} of {key} must be a nonnegative int")
            if e:
                want[key] = e
        index = {(v.family, v.index): i for i, v in enumerate(self.vars)}
        exps = [0] * len(self.vars)
        for key, e in want.items():
            if key not in index or e >> self.width:
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
        if not isinstance(other, GradedPoly) and is_scalar(other):
            scalar = rat(other)
            factor = scalar.numerator
            nums = {k: c * factor for k, c in self.nums.items()} if factor else {}
            return _poly(self.vars, self.width, nums, self.den * scalar.denominator)
        return _mul(self, _coerce(other))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GradedPoly":
        return power(self, exponent, one())

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, GradedPoly):
            if not is_scalar(other):
                return NotImplemented
            other = constant(other)
        p, q = self, other
        # lowest terms make the denominator and the term count canonical
        if p.den != q.den or len(p.nums) != len(q.nums):
            return False
        if p.vars != q.vars:
            # polynomials that use different variables differ
            p, q = p.compress(), q.compress()
            if p.vars != q.vars:
                return False
        width = max(p.width, q.width)
        return _repack(p, p.vars, width) == _repack(q, q.vars, width)

    def __hash__(self):
        p = self.compress()
        if not p.vars:
            return hash(p.constant_term())  # equal scalars hash alike
        # exponent tuples, not keys: the hash must not depend on the width
        return hash((p.vars, p.den, frozenset(zip(_exponents(p, p.nums), p.nums.values()))))

    def __repr__(self) -> str:
        return f"GradedPoly({to_text(self)})"


# the slot descriptors' setters bypass the immutable __setattr__
_set_vars, _set_width, _set_nums, _set_den = (
    getattr(GradedPoly, name).__set__ for name in ("vars", "width", "nums", "den")
)


def _fill(p: GradedPoly, vars_: tuple, width: int, nums: dict, den: int) -> None:
    _set_vars(p, vars_)
    _set_width(p, width)
    _set_nums(p, nums)
    _set_den(p, den)


def _make(vars_: tuple, width: int, nums: dict, den: int) -> GradedPoly:
    """A GradedPoly of nonzero numerators already in lowest terms over den."""
    p = object.__new__(GradedPoly)
    _fill(p, vars_, width, nums, den)
    return p


def _poly(vars_: tuple, width: int, nums: dict, den: int) -> GradedPoly:
    """A GradedPoly of nonzero numerators over den, brought to lowest terms."""
    return _make(vars_, width, *lowest_terms(nums, den))


def lowest_terms(nums: dict, den: int) -> Tuple[dict, int]:
    """Nonzero int numerators over a positive den, divided by their common factor.

    The zero vector comes back over 1.  This is the gcd step of every sum and
    product of GradedPoly, GrassClass and FiberClass.
    """
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            return {k: c // g for k, c in nums.items()}, den // g
    return nums, den


def lcm_merge(a: dict, den_a: int, b: dict, den_b: int, sign: int) -> Tuple[dict, int]:
    """a/den_a + sign * b/den_b as nonzero int numerators over lcm(den_a, den_b).

    Both operands must key alike; the result is not yet in lowest terms.
    """
    den = lcm(den_a, den_b)
    scale_a, scale_b = den // den_a, sign * (den // den_b)
    nums = dict(a) if scale_a == 1 else {k: c * scale_a for k, c in a.items()}
    get = nums.get
    for key, c in b.items():
        c = get(key, 0) + c * scale_b
        if c:
            nums[key] = c
        else:
            del nums[key]
    return nums, den


def _wdeg(vars_: tuple, exps: Exponents) -> int:
    return sum(e * v.weight for e, v in zip(exps, vars_))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_scalar(value) -> bool:
    """True for the exact scalars rat() takes as numbers: ints and Rats, not bools."""
    return isinstance(value, Rat) or _is_int(value)


def check_int(
    value, least: Optional[int], what: str, most: Optional[int] = None, error=PolyError
) -> int:
    """value if it is an int in least..most (no upper bound when most is None).

    least None admits every int.  A bool, any other non-int or a value out
    of range raises error, a PolyError subclass.  The relative dimensions
    ell, multiplicities r and singularity indices k of thom, germs and
    multipoint are checked here.
    """
    if _is_int(value) and (least is None or least <= value and (most is None or value <= most)):
        return value
    if least is None:
        bounds = ""
    else:
        bounds = f" >= {least}" if most is None else f" in {least}..{most}"
    raise error(f"{what} must be an int{bounds}, got {value!r}")


def _is_exponent(e) -> bool:
    return _is_int(e) and e >= 0


def power(base, exponent: int, unit):
    """base ** exponent by left-to-right square-and-multiply, starting from unit.

    The one power loop of the package: GradedPoly, GrassClass and FiberClass
    all raise to powers through it.  Read from the top bit, every product
    that is not a square has the small base as a factor, cheaper than
    squaring ever larger powers of it (Fateman, Stud. Appl. Math. 53, 1974),
    and x ** e still takes O(log e) products.  A bool, a non-int or a
    negative exponent raises PolyError.
    """
    if not _is_exponent(exponent):
        raise PolyError(f"power {exponent!r} is not a nonnegative int")
    result = unit
    for bit in bin(exponent)[2:]:
        result = result * result
        if bit == "1":
            result = result * base
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


def _exponents(p: GradedPoly, keys: Iterable[int]) -> list:
    """The exponent tuple of each of p's keys."""
    mask = (1 << p.width) - 1
    shifts = _shifts(len(p.vars), p.width)
    return [tuple([key >> shift & mask for shift in shifts]) for key in keys]


def _repack(p: GradedPoly, vars_: tuple, width: int) -> dict:
    """p's numerators keyed over the table vars_ with fields of width bits.

    vars_ must hold every variable p uses and width must be at least p's;
    this is the one place where keys move between tables or widths.
    """
    if p.vars == vars_ and p.width == width:
        return p.nums
    moves = _moves(p.vars, p.width, vars_, width)
    mask = (1 << p.width) - 1
    top, new_top = _top(p), len(vars_) * width
    out = {}
    for key, c in p.nums.items():
        new = key >> top << new_top
        for src, dst in moves:
            new |= (key >> src & mask) << dst
        out[new] = c
    return out


@cache
def _moves(src: tuple, src_width: int, dst: tuple, dst_width: int) -> tuple:
    """(field in src, field in dst) of each variable of src that dst holds."""
    index = {(v.family, v.index): i for i, v in enumerate(dst)}
    n = len(dst)
    return tuple(
        (shift, (n - 1 - index[(v.family, v.index)]) * dst_width)
        for v, shift in zip(src, _shifts(len(src), src_width))
        if (v.family, v.index) in index
    )


def _aligned(p: GradedPoly, q: GradedPoly, bound: int):
    """(table, width, p's numerators, q's numerators) over a merged table and
    a width that holds both operands and every degree up to bound."""
    vars_ = p.vars if p.vars == q.vars else _merged_table(p.vars + q.vars)
    width = _width(bound, max(p.width, q.width))
    return vars_, width, _repack(p, vars_, width), _repack(q, vars_, width)


def _combine(p: GradedPoly, q: GradedPoly, sign: int) -> GradedPoly:
    """p + sign * q, merged on int numerators over the lcm of the denominators."""
    if not q.nums:
        return p
    if not p.nums:
        return q if sign == 1 else -q
    vars_, width, a, b = _aligned(p, q, 0)
    return _poly(vars_, width, *lcm_merge(a, p.den, b, q.den, sign))


def _mul_into(acc: dict, left: Iterable[tuple], right: list) -> None:
    """acc += left * right, exactly, on (key, numerator) rows of packed keys
    and int numerators; the fields must hold the product's degree."""
    get = acc.get
    for key_a, c_a in left:
        for key_b, c_b in right:
            key = key_a + key_b
            acc[key] = get(key, 0) + c_a * c_b


def _mul(p: GradedPoly, q: GradedPoly) -> GradedPoly:
    """p * q over fields that hold its degree bound, deg p + deg q."""
    vars_, width, a, b = _aligned(p, q, _degree(p) + _degree(q))
    acc: dict = {}
    _mul_into(acc, a.items(), list(b.items()))
    return _poly(vars_, width, {key: c for key, c in acc.items() if c}, p.den * q.den)


def _check_poly(value, what: str) -> GradedPoly:
    """value if it is a GradedPoly; anything else raises PolyError."""
    if isinstance(value, GradedPoly):
        return value
    raise PolyError(f"{what} must be a GradedPoly, got {value!r}")


def _check_factors(factors, what: str) -> None:
    """Raise PolyError unless factors is a sequence; what names its items."""
    if not isinstance(factors, Sequence):
        raise PolyError(f"the factors must be a sequence of {what}, got {factors!r}")


def _coerce(value) -> GradedPoly:
    if isinstance(value, GradedPoly):
        return value
    if is_scalar(value):
        return constant(value)
    raise PolyError(f"cannot interpret {value!r} as a polynomial")


@cache
def _merged_table(vars_: tuple) -> tuple:
    """The sorted union of a tuple of variables, memoised; one (family, index)
    with two weights raises IncompatibleVariables, which is never cached."""
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


_ZERO_POLY, _ONE = constant(0), constant(1)


def zero() -> GradedPoly:
    return _ZERO_POLY


def one() -> GradedPoly:
    return _ONE


# one shared value per (family, index, weight); only exact str, int, int
# arguments reach it, since True == 1 and 1.0 == 1 hash alike
_VARIABLES: dict = {}


def variable(family: str, index: int = 0, weight: int = 1) -> GradedPoly:
    key = (family, index, weight)
    shared = type(family) is str and type(index) is int and type(weight) is int
    p = _VARIABLES.get(key) if shared else None
    if p is None:
        v = Var(family, index, weight)
        width = _width(weight, _FIELD)
        p = _make((v,), width, {_pack((v,), width, (1,)): 1}, 1)
        if shared:
            _VARIABLES[key] = p
    return p


def cvar(i: int) -> GradedPoly:
    """Chern variable c_i with the convention c_0 = 1, c_{<0} = 0."""
    if check_int(i, None, "Chern index i") < 0:
        return zero()
    if i == 0:
        return one()
    return variable("c", i, weight=i)


def dvar(i: int) -> GradedPoly:
    """Series symbol d_i of weight i (genotype-series grading)."""
    return variable("d", i, weight=i)


def root_var(family: str, index: int = 0) -> GradedPoly:
    """Weight-1 root symbol such as alpha, alpha_i or beta_i."""
    return variable(family, index, weight=1)


def int_product(vars_: tuple, monomials: Sequence[Exponents],
                factors: Iterable[Sequence[int]]) -> GradedPoly:
    """The product of factors over the table vars_, each factor the sum of
    its int coefficients times the monomials, multiplied out in one pass of
    the int kernel; with one factor, the packer of an int polynomial.

    The checking constructor packs its terms through it.  A variable twice
    in vars_ (with two weights: IncompatibleVariables), a monomial that is
    not a tuple of len(vars_) nonnegative ints, or a factor that is not one
    int per monomial (0 where it lacks it) raises PolyError.  The table is
    sorted by (family, index), the monomials are packed once, over fields
    that hold the product's degree bound, and the running product stays on
    packed rows: no Fraction and no intermediate polynomial is built.  No
    factors give 1.
    """
    seen = {}
    for v in vars_:
        key = (v.family, v.index)
        if key in seen:
            if seen[key] != v.weight:
                raise IncompatibleVariables(f"conflicting weights for {key}")
            raise PolyError(f"variable {key} repeats in the table")
        seen[key] = v.weight
    for exps in monomials:
        if not isinstance(exps, tuple) or len(exps) != len(vars_):
            raise PolyError(f"exponent vector {exps!r} does not match {len(vars_)} variables")
        if not all(map(_is_exponent, exps)):
            raise PolyError(f"exponents {exps!r} must be nonnegative ints")
    factors = list(factors)
    for f in factors:
        if len(f) != len(monomials) or not all(map(_is_int, f)):
            raise PolyError(f"factor {f!r} is not one int per monomial")
    order = sorted(range(len(vars_)), key=lambda i: vars_[i].sort_key())
    vars_ = tuple(vars_[i] for i in order)
    monomials = [[exps[i] for i in order] for exps in monomials]
    degrees = [_wdeg(vars_, exps) for exps in monomials]
    bound = sum(max((d for d, c in zip(degrees, f) if c), default=0) for f in factors)
    width = _width(bound, _FIELD)
    packed = [_pack(vars_, width, exps) for exps in monomials]
    rows = [(0, 1)]
    for f in factors:
        acc: dict = {}
        _mul_into(acc, rows, [(key, c) for key, c in zip(packed, f) if c])
        rows = [(key, c) for key, c in acc.items() if c]
    return _make(vars_, width, dict(rows), 1)


# -- spec-named operations ----------------------------------------------------


def series_inverse(g: GradedPoly, maxdeg: int) -> GradedPoly:
    """Inverse of a series with constant term 1, truncated by weighted degree.

    The power-series division of 1 by g that series_quotient does.
    """
    return series_quotient((), (g,), maxdeg)


def series_quotient(
    numerator_factors: Sequence[GradedPoly],
    denominator_factors: Sequence[GradedPoly],
    maxdeg: int,
) -> GradedPoly:
    """prod(numerator) / prod(denominator) as a series truncated at maxdeg.

    Every factor must have constant term 1 (a total-Chern-class factor 1 + w).
    Each side is multiplied out exactly to p and g = 1 + h (one() for no
    factors), and the quotient q is built degree by degree:
    q_d = p_d - sum_i h_i * q_(d-i) over the degree-i parts h_i of h, so each
    term of h meets each term of q once.  The recurrence reads only the
    parts of p and h of degree at most maxdeg; that is where the degrees
    above maxdeg are dropped.  With p over E and h over D, the numerators
    Q_d of q_d over E * D**d obey Q_d = P_d * D**d - sum_i H_i * Q_(d-i) * D**(i-1).
    """
    check_int(maxdeg, -1, "series degree maxdeg")  # -1: the empty cut
    sides = (numerator_factors, denominator_factors)
    for factors in sides:
        _check_factors(factors, "series factors")
        for f in factors:
            if _check_poly(f, "series factor").nums.get(0) != f.den:
                raise PolyError("factors must have constant term 1")
    p, g = (reduce(mul, factors) if factors else one() for factors in sides)
    vars_, width, a, b = _aligned(p, g, max(maxdeg, 0))
    top, den = len(vars_) * width, g.den  # g's constant numerator is den
    # the rows of -h by degree, each scaled by D**(i-1)
    h: dict = {}
    for key, c in b.items():
        if 0 < (i := key >> top) <= maxdeg:
            h.setdefault(i, []).append((key, -c * den ** (i - 1)))
    parts: list = [{} for _ in range(maxdeg + 1)]
    for key, c in a.items():
        if (d := key >> top) <= maxdeg:
            parts[d][key] = c
    q: list = []  # q[d]: the (key, Q_d numerator) rows of degree d
    for d, acc in enumerate(parts):
        if den != 1:
            acc = {key: c * den ** d for key, c in acc.items()}
        for i, rows in h.items():
            if i <= d:
                _mul_into(acc, rows, q[d - i])
        q.append([(key, c) for key, c in acc.items() if c])
    last, nums = max(maxdeg, 0), {}
    for d, rows in enumerate(q):
        scale = den ** (last - d)
        nums.update(rows if scale == 1 else [(key, c * scale) for key, c in rows])
    return _poly(vars_, width, nums, p.den * den ** last)


def one_plus(form: GradedPoly) -> GradedPoly:
    return one() + form


def substitute(
    p: GradedPoly, assignment: Mapping[SymbolLike, Union[GradedPoly, int, Rat]]
) -> GradedPoly:
    """Ring-morphism substitution; unassigned variables map to themselves.

    One sorted sparse Horner walk (_horner): a term that a zero image kills
    is dropped unmultiplied, and each distinct prefix of the terms' assigned
    factors costs one product.  Two keys naming one variable raise
    PolyError, a Var key whose weight differs from that variable's in p
    raises IncompatibleVariables, and a key for a variable p lacks is ignored.
    """
    if not isinstance(assignment, Mapping):
        raise PolyError(f"an assignment must be a mapping, got {assignment!r}")
    weights = {(v.family, v.index): v.weight for v in _check_poly(p, "substituted polynomial").vars}
    images: dict = {}
    for sym, value in assignment.items():
        key = _resolve_symbol(sym)
        if key in images:
            raise PolyError(f"the assignment names {key} twice")
        if isinstance(sym, Var) and weights.get(key, sym.weight) != sym.weight:
            raise IncompatibleVariables(f"conflicting weights for {key}")
        images[key] = _coerce(value)
    return _horner(p, list(map(images.get, weights)))


def _horner(p: GradedPoly, images: list) -> GradedPoly:
    """p with its variable i sent to images[i], or kept where that is None.

    Terms holding a variable whose image is zero are dropped before any
    table, bound or power is built; zero() is returned if none is left.
    Each term is a row of (level, exponent) factors, one per nonzero field
    of an assigned variable, the last in p's table outermost.  Sorted, the
    rows under each distinct prefix of factors (a trie node) are one run.  A
    stack holds the open sum of each node on the current path; when the
    prefix changes, each deeper sum is multiplied by its level's image power
    into its parent.  So a term pays only for the assigned variables it
    uses.  Powers are built on first use, each from the one below.  A term
    of degree D has partial products of degree at most D * max(1,
    deg(image_i) / weight_i) over the assigned i; the fields hold that bound.
    With image i over D_i (in lowest terms or not) and E_i the largest
    exponent of i in p, a row with exponents e_i is scaled by
    prod(D_i**(E_i - e_i)): every sum is over D_p * prod(D_i**E_i).
    """
    n, w, mask = len(p.vars), p.width, (1 << p.width) - 1
    fields = list(zip(_shifts(n, w), p.vars, images))
    dead = sum(mask << f for f, _, q in fields if q is not None and not q.nums)
    nums = {key: c for key, c in p.nums.items() if not key & dead} if dead else p.nums
    if not nums:
        return zero()
    used = reduce(or_, nums)
    # (field, variable, image) of each assigned variable occurring in p, outermost first
    levels = [t for t in reversed(fields) if t[2] is not None and used >> t[0] & mask]
    tables = {id(q.vars): q.vars for _, _, q in levels}  # each distinct image table once
    vars_ = _merged_table(tuple(v for _, v, q in fields if q is None) + sum(tables.values(), ()))
    degree = max(nums) >> n * w
    bound = max([degree] + [degree * _degree(q) // v.weight for _, v, q in levels])
    width = _width(bound, max([w] + [q.width for _, _, q in levels]))
    out_shift = dict(zip(((v.family, v.index) for v in vars_), _shifts(len(vars_), width)))
    # by field in p: the output field and weight of each unassigned variable
    moves = {f: (out_shift[(v.family, v.index)], v.weight) for f, v, q in fields if q is None}
    full = prod(q.den ** max(key >> f & mask for key in nums) for f, _, q in levels if q.den != 1)
    rows, low, top = [], (1 << n * w) - 1, len(vars_) * width
    for key, c in nums.items():
        factors, out, deg, rest = [], 0, 0, key & low
        while rest:  # over the nonzero fields, lowest (outermost) first
            f = ((rest & -rest).bit_length() - 1) // w * w
            e = rest >> f & mask
            rest ^= e << f
            move = moves.get(f)
            if move is None:  # an assigned variable's level is its field
                factors.append((f, e))
            else:
                out, deg = out | e << move[0], deg + e * move[1]
        if full != 1:
            c = c * full // prod(images[n - 1 - f // w].den ** e for f, e in factors)
        rows.append((tuple(factors), deg << top | out, c))
    rows.sort()
    # powers[f][e - 1] is the e-th power of the image of level f
    powers = {f: [list(_repack(q, vars_, width).items())] for f, _, q in levels}
    nonzero = itemgetter(1)  # filter(nonzero, rows) drops the rows of numerator 0
    sums, path = [{}], ()  # sums[k] is the open sum of the node path[:k]
    for factors, out, c in rows + [((), 0, 0)]:  # the empty last row closes every sum
        depth = 0  # of the prefix that this row shares with the last
        for a, b in zip(path, factors):
            if a != b:
                break
            depth += 1
        for f, e in reversed(path[depth:]):
            chain = powers[f]
            while len(chain) < e:
                acc: dict = {}
                _mul_into(acc, chain[-1], chain[0])
                chain.append(list(filter(nonzero, acc.items())))
            inner = sums.pop()
            _mul_into(sums[-1], filter(nonzero, inner.items()), chain[e - 1])
        sums += [{} for _ in factors[depth:]]
        path = factors
        sums[-1][out] = sums[-1].get(out, 0) + c
    return _poly(vars_, width, dict(filter(nonzero, sums[0].items())), p.den * full)


def chern_substitute(p: GradedPoly, series: GradedPoly) -> GradedPoly:
    """Substitute each Chern variable c_i by the weight-i part of series.

    This is the "p evaluated at a total Chern class" operation: the degree-i
    part of the series plays the role of c_i.  The series is bucketed by the
    degree field of its keys in one pass, and _horner reads each bucket as an
    image over the series' table and denominator, not brought to lowest terms.
    """
    top = _top(_check_poly(series, "Chern series"))
    parts = {v.index: {} for v in _check_poly(p, "polynomial").vars if v.family == "c"}
    for key, c in series.nums.items():
        if (part := parts.get(key >> top)) is not None:
            part[key] = c
    return _horner(p, [_make(series.vars, series.width, parts[v.index], series.den)
                       if v.family == "c" else None for v in p.vars])


def chern_poly(terms: Iterable[tuple], shift: int, den: int) -> GradedPoly:
    """The sum over (num, indices) of num/den times the product of the c_{i+shift}.

    This is the one packer of polynomials in Chern variables: c_0 = 1, a term
    with an index i + shift below 0 is dropped, and the int numerators are
    summed by sorted nonzero index and packed once over den.
    """
    sums: dict = {}
    for num, indices in terms:
        key = sorted(i + shift for i in indices)
        if min(key, default=0) >= 0:
            key = tuple(filter(None, key))
            sums[key] = sums.get(key, 0) + num
    sums = {key: num for key, num in sums.items() if num}
    vars_ = tuple(cvar(c).vars[0] for c in sorted({c for key in sums for c in key}))
    width = _width(max(map(sum, sums), default=0), _FIELD)
    return _poly(vars_, width, {
        _pack(vars_, width, tuple(key.count(v.index) for v in vars_)): num
        for key, num in sums.items()
    }, den)


def schur_terms(parts: Sequence[int]) -> list:
    """The Jacobi-Trudi expansion of det[c_{parts[r]+s-r}] over rows r and
    columns s: one (sign, indices) pair per column permutation."""
    terms = []
    for perm in permutations(range(len(parts))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        terms.append(((-1) ** inversions, tuple(parts[r] + s - r for r, s in enumerate(perm))))
    return terms


def schur_det(*parts: int) -> GradedPoly:
    """Schur determinant det[c_{parts[r]+s-r}] over rows r and columns s.

    schur_det() is 1, schur_det(i) is c_i and schur_det(i, j) is
    c_i c_j - c_{i+1} c_{j-1}; every size is chern_poly of schur_terms.
    """
    for part in parts:
        check_int(part, None, "Schur determinant part")
    return chern_poly(schur_terms(parts), 0, 1)


def divide_by_linear(p: GradedPoly, form: GradedPoly) -> GradedPoly:
    """Exact quotient p / form for a homogeneous linear form.

    One synthetic division in the form's first variable v: writing
    form = a*v + rest and p = sum_k p_k v^k, the quotient coefficients are
    q_{k-1} = (p_k - rest*q_k)/a from the top down, and p_0 - rest*q_0 is the
    remainder, which equals p at v = -rest/a.  Raises NonExactDivision when
    the remainder is nonzero; this is the certified-failure path for
    malformed Euler-class quotients.
    """
    _check_poly(p, "dividend")
    form = _check_poly(form, "divisor").compress()
    # weights are >= 1, so degree 1 means one weight-1 variable to the first power
    if form.is_zero() or any(key >> _top(form) != 1 for key in form.nums):
        raise PolyError("divisor must be a nonzero homogeneous linear form")
    lead = form.vars[0]
    vars_, width, a, f = _aligned(p, form, 0)
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
    _check_factors(factors, "linear forms")
    result = _check_poly(p, "dividend")
    for form in factors:
        result = divide_by_linear(result, form)
    return result


# -- canonical ordering and serialization -------------------------------------


def _sorted_rows(p: GradedPoly) -> list:
    """(exponent tuple, numerator, denominator) of each term of p in canonical
    graded-lex order, its int numerator over den divided by their gcd."""
    # flipping the exponent fields reverses their lex order
    keys, den = sorted(p.nums, key=((1 << _top(p)) - 1).__xor__), p.den
    return [(exps, c // (g := gcd(c, den)), den // g)
            for exps, c in zip(_exponents(p, keys), map(p.nums.__getitem__, keys))]


def sorted_terms(p: GradedPoly):
    """Terms in canonical graded-lex order.

    Ascending weighted degree; within a degree, descending lexicographic on
    the exponent vector (variables already sorted by family, index).
    """
    return [(exps, Rat(c, d)) for exps, c, d in _sorted_rows(p)]


def to_json_dict(p: GradedPoly) -> dict:
    p = p.compress()
    vars_payload = [
        {"family": v.family, "index": v.index, "weight": v.weight} for v in p.vars
    ]
    terms_payload = [{"coeff": f"{c}/{d}", "exps": [[i, e] for i, e in enumerate(exps) if e]}
                     for exps, c, d in _sorted_rows(p)]
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
    """json.loads at the package's boundary: anything that is not a JSON text raises PolyError."""
    try:
        return json.loads(text)
    # json.JSONDecodeError, undecodable bytes, arrays nested past the stack
    # and a value that is not str, bytes or bytearray
    except (ValueError, RecursionError, TypeError) as err:
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


_LATEX_FAMILIES = {"alpha": r"\alpha", "beta": r"\beta"}


def _var_latex(v: Var) -> str:
    base = _LATEX_FAMILIES.get(v.family, v.family)
    if v.index:
        return f"{base}_{{{v.index}}}" if v.index > 9 else f"{base}_{v.index}"
    return base


def _var_text(v: Var) -> str:
    return f"{v.family}{v.index}" if v.index else v.family


def render_sum(terms: Iterable[Tuple[int, int, str]], times: str) -> str:
    """Signed sum of (numerator, denominator, monomial text) triples in the
    given order, each coefficient in lowest terms over a positive denominator.

    A unit coefficient is elided before a nonempty monomial, a fractional one
    prints as p/q, times separates coefficient and monomial, and the empty
    sum is "0".  Polynomials, from their int numerators, and formal
    expansions, from their rational coefficients, both render through it.
    """
    out = []
    for num, den, body in terms:
        mag = abs(num)
        if den != 1:
            mag_s = f"{mag}/{den}"
        else:
            mag_s = "" if mag == 1 and body else str(mag)
        piece = f"{mag_s}{times}{body}" if mag_s and body else mag_s or body
        if out:
            out.append(f" {'-' if num < 0 else '+'} {piece}")
        else:
            out.append(f"-{piece}" if num < 0 else piece)
    return "".join(out) or "0"


def _render(p: GradedPoly, var_namer: Callable[[Var], str], times: str) -> str:
    p = p.compress()
    names = list(map(var_namer, p.vars))  # each variable named once
    return render_sum([
        (c, d, times.join([name if e == 1 else f"{name}^{e}" if e < 10 else f"{name}^{{{e}}}"
                           for name, e in zip(names, exps) if e]))
        for exps, c, d in _sorted_rows(p)
    ], times)


def to_latex(p: GradedPoly) -> str:
    return _render(p, _var_latex, "")


def to_text(p: GradedPoly) -> str:
    return _render(p, _var_text, "*")
