"""Exact Schur-calculus on Grassmannians and the line-in-subbundle fibration.

The cohomology of Gr_k(C^n) is modelled in the basis of Schur classes s_lam
indexed by partitions inside the k x (n-k) box, normalized so that the class
of a point (the full box) integrates to 1.  Basis products follow the
Littlewood-Richardson rule: the rows of the smaller partition are added as
labelled horizontal strips inside the box, and each filling with a lattice
reading word counts once, so the multiplicities come with no cancellation.
Three rules decide a product before any table or walk (_mul_terms): a unit
factor gives the other factor; s_lam * s_mu != 0 iff lam_i + mu_(k+1-i)
<= n-k for every i (Fulton, Young Tableaux, 9.4), the box test; and a
product of top degree k(n-k) that passes the box test is the point class
once.  A GrassClass product that vanishes is the ring's one shared zero
class.  Only the pairs the rules leave open are walked, and only walks are
cached (_mul_basis).  The walk places the strips in place in one shape
list and never fails for lack of room: the rows below row r can take at
most old[r] - old[k-1] cells of a strip (their rooms telescope), so row r
takes at least left - (old[r] - old[k-1]) of the cells left.  For k = 1
nothing but the box test bounds the one row, so passing it is the walk's
precondition.
GrassClass and the FiberClass below are stored as GradedPoly is: nonzero int
numerators over one shared positive denominator in lowest terms.  Their
private base, _SchurSum, makes +, -, ==, ** and scalar * one lcm merge and
one gcd step, every product sums a * b * mult into one int dict through
_mul_terms, and coeffs is a read-only view.  Only the public constructors
check their input; results are built unchecked.  schur() builds each basis
class s_lam once per ring and hands out that one instance, which is safe
because no operation changes a class or its numerators in place.

On top of the base ring the module models the projectivization P(S) of the
universal subbundle S, of rank k: classes are polynomials in the fiberwise
hyperplane class xi with Schur-class coefficients, kept in raw powers of xi.
In Grothendieck's convention zeta = c_1(O(1)) satisfies
sum_i c_i(S) zeta^{k-i} = 0, pushes forward by pi_* zeta^{k-1+i} = c_i(Q),
and the relative tangent bundle kappa = T_{P(S)/G} has
c(kappa) = sum_i c_i(S) (1 + zeta)^{k-i}.  reduce() and kappa_chern() write
the relation and kappa in xi = sigma * zeta; pushforward_P_S pushes xi^w to
c_{w-k+1}(Q) for either sign.  DUAL_LINE, sigma = +1, is Grothendieck's
convention.  TAUTOLOGICAL_LINE, sigma = -1 and still kappa_chern's default,
contradicts its own relation under that pushforward and stays only as a
negative control.  The calculus wholly in xi = -zeta is sigma = -1 with xi^w
pushed to (-1)^w c_{w-k+1}(Q), dual-line's change of variable xi -> -xi, so
it gives the same integrals and needs no convention of its own.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb, lcm
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .poly import (PolyError, Rat, Record, check_int, is_scalar, json_field, lcm_merge,
                   lowest_terms, power, rat, rat_str)

_ZERO = Rat(0)  # the one default for absent coefficients
_INT_ONLY = frozenset({int})  # the element types of a partition that may key a table

Partition = Tuple[int, ...]


class RingMismatch(PolyError):
    """Raised when classes from different Grassmannians are combined."""


class GrassRing(Record):
    """The Grassmannian of k-planes in C^n."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if type(self.k) is not int or type(self.n) is not int or not 0 < self.k < self.n:
            raise PolyError(f"need ints 0 < k < n, got k={self.k!r}, n={self.n!r}")

    @cached_property
    def cols(self) -> int:
        return self.n - self.k

    @cached_property
    def dim(self) -> int:
        return self.k * (self.n - self.k)

    @cached_property
    def box(self) -> Partition:
        """The full k x (n-k) partition, built once per ring."""
        return (self.cols,) * self.k

    @cached_property
    def _basis(self) -> Dict[Partition, "GrassClass"]:
        """The shared Schur classes s_lam of this ring, filled by schur() on demand."""
        return {}

    @cached_property
    def _zero(self) -> "GrassClass":
        """The zero class of this ring, shared by every product that vanishes."""
        return GrassClass._make(self, {}, 1)

    def contains(self, lam: Partition) -> bool:
        return len(lam) <= self.k and (not lam or lam[0] <= self.cols)

    def partitions(self, degree: Optional[int] = None) -> Iterator[Partition]:
        """All box partitions, or only those of the given degree."""
        parts = _box_partitions(self.k, self.cols)
        if degree is None:
            return iter(parts)
        check_int(degree, None, "degree of a partition")
        return (lam for lam in parts if sum(lam) == degree)

    def dual(self, lam: Sequence[int]) -> Partition:
        lam = _validate_partition(lam)
        if not self.contains(lam):
            raise PolyError(f"partition {lam} outside the {self.k}x{self.cols} box")
        padded = lam + (0,) * (self.k - len(lam))
        return _strip_zeros(tuple(self.cols - p for p in reversed(padded)))


def _strip_zeros(lam: Sequence[int]) -> Partition:
    out = tuple(lam)
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def _validate_partition(lam: Sequence[int]) -> Partition:
    try:
        parts = tuple(lam)
    except TypeError:
        raise PolyError(f"a partition is a sequence of ints, not {lam!r}") from None
    if not all(type(p) is int for p in parts):
        raise PolyError(f"partition parts must be ints: {parts!r}")
    if any(p < 0 for p in parts):
        raise PolyError(f"negative part in partition {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise PolyError(f"partition parts must be weakly decreasing: {parts}")
    return _strip_zeros(parts)


@lru_cache(maxsize=None)
def _box_partitions(rows: int, cols: int) -> Dict[Partition, Partition]:
    """Each box partition mapped to itself: schur() and _mul_basis share its tuples."""
    acc: List[Partition] = []

    def grow(prefix: List[int], bound: int, depth: int) -> None:
        acc.append(_strip_zeros(tuple(prefix)))
        if depth == rows:
            return
        for part in range(bound, 0, -1):
            prefix.append(part)
            grow(prefix, part, depth + 1)
            prefix.pop()

    grow([], cols, 0)
    return {p: p for p in acc}


@lru_cache(maxsize=None)
def _padded_partitions(rows: int, cols: int) -> Dict[Tuple[int, ...], Partition]:
    """_box_partitions with each key also padded with zeros to rows parts."""
    canon = _box_partitions(rows, cols)
    return {**canon, **{p + (0,) * (rows - len(p)): p for p in canon}}


class _SchurSum:
    """A ring, int numerators nums and their shared denominator den, immutable.

    nums maps canonical keys to nonzero ints, and den > 0 shares no factor
    with all of them, so equal classes store equal numerators and the zero
    class is {} over 1.  Each subclass supplies _UNIT, the key of the unit
    class, _coerce and its product.
    """

    __slots__ = ("ring", "nums", "den")

    @classmethod
    def _make(cls, ring: GrassRing, nums: dict, den: int):
        """A class of canonical keys mapped to nonzero numerators over den > 0,
        brought to lowest terms."""
        x = object.__new__(cls)
        if den != 1:
            nums, den = lowest_terms(nums, den)
        _set_ring(x, ring)
        _set_nums(x, nums)
        _set_den(x, den)
        return x

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.nums

    def _constant(self, value):
        c = rat(value)
        return self._make(self.ring, {self._UNIT: c.numerator} if c else {}, c.denominator)

    def _scaled(self, value):
        c = rat(value)
        nums = {key: v * c.numerator for key, v in self.nums.items()} if c else {}
        return self._make(self.ring, nums, self.den * c.denominator)

    def _merged(self, other, sign: int):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._make(self.ring, *lcm_merge(self.nums, self.den, rhs.nums, rhs.den, sign))

    def __add__(self, other):
        return self._merged(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.ring, {key: -c for key, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __rsub__(self, other):
        diff = self._merged(other, -1)
        return diff if diff is NotImplemented else -diff

    def __pow__(self, exponent: int):
        return power(self, exponent, self._constant(1))

    def __eq__(self, other) -> bool:
        try:
            rhs = self._coerce(other)
        except RingMismatch:
            return False
        if rhs is None:
            return NotImplemented
        return self.den == rhs.den and self.nums == rhs.nums


# the slots' own setters, which __setattr__ does not block
_set_ring, _set_nums, _set_den = (getattr(_SchurSum, s).__set__ for s in _SchurSum.__slots__)


class GrassClass(_SchurSum):
    """A cohomology class on a Grassmannian in the boxed Schur basis, keyed by partition."""

    __slots__ = ()

    _UNIT: Partition = ()

    def __new__(cls, ring: GrassRing, coeffs: Mapping[Sequence[int], object]):
        _check_ring(ring)
        if not isinstance(coeffs, Mapping):
            raise PolyError(f"a GrassClass needs a mapping {{partition: coefficient}}, "
                            f"not {coeffs!r}")
        summed: Dict[Partition, Rat] = {}
        for raw, value in coeffs.items():
            lam = _validate_partition(raw)
            if ring.contains(lam):  # outside the box s_lam is zero
                summed[lam] = summed.get(lam, _ZERO) + rat(value)
        den = lcm(*(c.denominator for c in summed.values()))
        nums = {lam: c.numerator * (den // c.denominator) for lam, c in summed.items() if c}
        return cls._make(ring, nums, den)

    # -- inspection --

    @property
    def coeffs(self) -> Mapping[Partition, Rat]:
        """Read-only view {partition: coefficient}, built on each access."""
        den = self.den
        return MappingProxyType({lam: Rat(c, den) for lam, c in self.nums.items()})

    def coefficient(self, lam: Sequence[int]) -> Rat:
        c = self.nums.get(_validate_partition(lam))
        return _ZERO if c is None else Rat(c, self.den)

    def is_homogeneous(self) -> bool:
        return len({sum(lam) for lam in self.nums}) <= 1

    def homogeneous_part(self, d: int) -> "GrassClass":
        check_int(d, None, "degree of a homogeneous part")
        nums = {lam: c for lam, c in self.nums.items() if sum(lam) == d}
        return self._make(self.ring, nums, self.den)

    def integrate(self) -> Rat:
        c = self.nums.get(self.ring.box)
        return _ZERO if c is None else Rat(c, self.den)

    # -- arithmetic --

    def _coerce(self, other) -> Optional["GrassClass"]:
        if isinstance(other, GrassClass):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatch("classes live on different Grassmannians")
            return other
        if is_scalar(other):
            return self._constant(other)
        return None

    def __mul__(self, other) -> "GrassClass":
        if isinstance(other, GrassClass):
            return class_mul(self, other)
        if is_scalar(other):
            return self._scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def __hash__(self) -> int:
        if set(self.nums) <= {()}:
            return hash(Rat(self.nums.get((), 0), self.den))  # equal scalars hash alike
        return hash((self.ring, self.den, frozenset(self.nums.items())))

    def __repr__(self) -> str:
        if not self.nums:
            return "0"
        coeffs = self.coeffs
        bits = []
        for lam in sorted(coeffs, key=lambda p: (sum(p), p)):
            c = coeffs[lam]
            name = "s" + "".join(str(p) for p in lam) if lam else "1"
            bits.append(name if c == 1 else f"{rat_str(c)}*{name}")
        return " + ".join(bits)

    # -- serialization --

    def to_json_list(self) -> List[dict]:
        return [
            {"partition": list(lam), "coeff": rat_str(c)}
            for lam, c in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        ]


def _check_ring(ring) -> None:
    if not isinstance(ring, GrassRing):
        raise PolyError(f"classes live on a GrassRing, not on {ring!r}")


def schur(ring: GrassRing, lam: Sequence[int]) -> GrassClass:
    """The Schur basis class s_lam (zero if lam leaves the box).

    Each s_lam inside the box is built once per ring and every call returns
    that one instance: classes are immutable, so sharing it is safe.
    """
    _check_ring(ring)
    basis = ring._basis
    # only an int-only tuple may hit directly: (True,) and (1.0,) equal (1,)
    x = basis.get(lam) if type(lam) is tuple and _INT_ONLY.issuperset(map(type, lam)) else None
    if x is None:
        canon = _box_partitions(ring.k, ring.cols).get(_validate_partition(lam))
        if canon is None:
            return ring._zero
        x = basis.get(canon)
        if x is None:
            x = basis[canon] = GrassClass._make(ring, {canon: 1}, 1)
    return x


def class_from_json(ring: GrassRing, payload: Iterable[Mapping]) -> GrassClass:
    """Inverse of GrassClass.to_json_list; malformed entries raise PolyError."""
    if not isinstance(payload, list):
        raise PolyError(f"JSON: a class is a list of terms, not {payload!r}")
    coeffs: Dict[Partition, Rat] = {}
    for entry in payload:
        lam = _validate_partition(json_field(entry, "partition", list))
        coeffs[lam] = coeffs.get(lam, _ZERO) + rat(json_field(entry, "coeff"))
    return GrassClass(ring, coeffs)


# -- products ------------------------------------------------------------------


def _mul_terms(k: int, n: int, lam: Partition, mu: Partition) -> Tuple[Tuple[Partition, int], ...]:
    """Boxed expansion of s_lam * s_mu with integer multiplicities, for box
    partitions lam and mu, keyed by canonical partitions.

    Three rules decide a product unwalked and uncached: a unit factor s_()
    gives the other factor; the product vanishes unless lam_i + mu_(k+1-i)
    <= n-k for every i (Fulton, Young Tableaux, 9.4), that is unless lam fits
    inside the dual of mu; and in top degree k(n-k) a product that passes
    that test is s_box once, since the k sums total k(n-k), so each
    lam_i + mu_(k+1-i) is n-k and lam is the dual of mu.  Every other pair
    goes to the walk, one cache entry per unordered pair.
    """
    cols = n - k
    if not (lam and mu):
        return ((_box_partitions(k, cols)[lam or mu], 1),)
    row = k - 1
    for b in mu:
        if row < len(lam) and lam[row] + b > cols:
            return ()
        row -= 1
    if sum(lam) + sum(mu) == k * cols:
        return ((_box_partitions(k, cols)[(cols,) * k], 1),)
    return _mul_basis(k, n, lam, mu) if lam >= mu else _mul_basis(k, n, mu, lam)


@lru_cache(maxsize=None)
def _mul_basis(k: int, n: int, lam: Partition, mu: Partition) -> Tuple[Tuple[Partition, int], ...]:
    """The Littlewood-Richardson walk of _mul_terms, cached: s_lam * s_mu for
    nonempty box partitions lam and mu that pass the box test.  _mul_terms
    decides the unit, vanishing and top-degree products before it, so the
    table holds walks only and cache_info() counts walks.

    Row i of the smaller partition is added as a horizontal strip of cells
    labelled i, and a filling counts once when its reading word is a lattice
    word, that is when the label-i cells in rows <= r never outnumber the
    label-(i-1) cells in rows < r.  No cell is placed outside the k x (n-k)
    box, which is safe because shapes only grow.  Strips are placed in
    place, in one shape list and one list of the previous strip's cells per
    row, restored on the way back.  Row r' of a strip takes at most
    old[r'-1] - old[r'] cells, and below row r these rooms telescope to
    old[r] - old[k-1] whatever row r takes, so row r takes at least
    left - (old[r] - old[k-1]) cells and the last row always has room for
    the rest.  For k = 1 the last row is the first, which nothing bounds
    but the box test: that test is the walk's precondition, and without it
    the walk would look up the shape (5,) for (3,) * (2,) on Gr(1,5).
    """
    if sum(mu) > sum(lam):
        lam, mu = mu, lam
    cols = n - k
    canon = _padded_partitions(k, cols)
    last = k - 1
    shape = list(lam) + [0] * (k - len(lam))
    labels = [0] * k  # cells of the previous strip in each row, 0 before the first
    hits: Dict[Tuple[int, ...], int] = {}

    # strip i fills row r with left cells to go; bound is row r - 1 before
    # the strip and limit counts the previous strip's cells in rows < r
    def strip(i: int, r: int, left: int, bound: int, limit: int) -> None:
        old = shape[r]
        if r == last:  # room is left: by the bound below, or by the box test if k = 1
            if mu[i] <= limit:
                shape[r] = old + left
                if i + 1 < len(mu):
                    strip(i + 1, 0, mu[i + 1], cols, 0)
                else:
                    nu = tuple(shape)
                    hits[nu] = hits.get(nu, 0) + 1
                shape[r] = old
            return
        prev = labels[r]
        low = left - (old - shape[last])  # the rows below hold at most old - shape[last]
        for c in range(low if low > 0 else 0, min(bound - old, left, limit - mu[i] + left) + 1):
            shape[r] = old + c
            labels[r] = c
            strip(i, r + 1, left - c, old, limit + prev)
        shape[r] = old
        labels[r] = prev

    strip(0, 0, mu[0], cols, mu[0])
    return tuple(sorted((canon[nu], m) for nu, m in hits.items()))


def _mul_into(acc: Dict[Partition, int], k: int, n: int, left, right) -> None:
    """acc[nu] += a * b * mult for each row (lam, a) of left, (mu, b) of right
    and each term mult * s_nu of s_lam * s_mu: the one product kernel."""
    get = acc.get
    for lam, a in left:
        for mu, b in right:
            ab = a * b
            for nu, mult in _mul_terms(k, n, lam, mu):
                acc[nu] = get(nu, 0) + ab * mult


def class_mul(x: GrassClass, y: GrassClass) -> GrassClass:
    """The product in the Schur basis, summed as int numerators over the
    product of the operands' denominators; a product that vanishes is the
    ring's one shared zero class."""
    if not (isinstance(x, GrassClass) and isinstance(y, GrassClass)):
        raise PolyError(f"class_mul multiplies two GrassClasses, not {x!r} and {y!r}")
    if x.ring is not y.ring and x.ring != y.ring:
        raise RingMismatch("classes live on different Grassmannians")
    ring = x.ring
    acc: Dict[Partition, int] = {}
    _mul_into(acc, ring.k, ring.n, x.nums.items(), y.nums.items())
    if 0 in acc.values():  # a numerator cancelled
        acc = {nu: c for nu, c in acc.items() if c}
    return GrassClass._make(ring, acc, x.den * y.den) if acc else ring._zero


def integrate(x: GrassClass) -> Rat:
    """Evaluation against the fundamental class: the full-box coefficient."""
    if not isinstance(x, GrassClass):
        raise PolyError(f"only a GrassClass integrates over the Grassmannian, not {x!r}")
    return x.integrate()


# -- tautological bundles ----------------------------------------------------------


def chern_Q(ring: GrassRing, i: int) -> GrassClass:
    """c_i of the universal quotient bundle: the one-row Schur class."""
    _check_ring(ring)
    check_int(i, 0, f"index of c_i(Q) for rank {ring.cols}", most=ring.cols)
    return schur(ring, (i,) if i else ())


def chern_S(ring: GrassRing, i: int) -> GrassClass:
    """c_i of the universal subbundle: a signed one-column Schur class."""
    _check_ring(ring)
    check_int(i, 0, f"index of c_i(S) for rank {ring.k}", most=ring.k)
    return GrassClass(ring, {(1,) * i: (-1) ** i})


# -- the fibration of lines in S -----------------------------------------------------


# sigma, the sign of xi = sigma * zeta
DUAL_LINE = 1
TAUTOLOGICAL_LINE = -1


def _check_sigma(sigma) -> None:
    if type(sigma) is not int or sigma not in (1, -1):
        raise PolyError(f"sigma, the sign of xi = sigma * zeta, is the int 1 or -1, "
                        f"not {sigma!r}")


class FiberClass(_SchurSum):
    """A polynomial in the fiberwise hyperplane class xi over a Grassmannian.

    nums is keyed by (power of xi, partition): the numerator of s_lam xi^w
    sits at (w, lam).  coeffs is the read-only view {w: GrassClass}.  Powers
    are kept raw; reduce() rewrites into xi-degree < k using the relation in
    xi = sigma * zeta.
    """

    __slots__ = ()

    _UNIT: Tuple[int, Partition] = (0, ())

    def __new__(cls, ring: GrassRing, parts: Mapping[int, GrassClass]):
        _check_ring(ring)
        if not isinstance(parts, Mapping):
            raise PolyError(f"a FiberClass needs a mapping {{power of xi: GrassClass}}, "
                            f"not {parts!r}")
        for w, g in parts.items():
            check_int(w, 0, "power of xi")
            if not isinstance(g, GrassClass):
                raise PolyError(f"xi^{w} coefficient {g!r} is not a GrassClass")
            if g.ring != ring:
                raise RingMismatch("coefficient lives on a different Grassmannian")
        den = lcm(*(g.den for g in parts.values()))
        nums = {(w, lam): c * (den // g.den) for w, g in parts.items() for lam, c in g.nums.items()}
        return cls._make(ring, nums, den)

    @staticmethod
    def lift(g: GrassClass) -> "FiberClass":
        """Pullback of a base class to the fibration."""
        if not isinstance(g, GrassClass):
            raise PolyError(f"only a GrassClass lifts to the fibration, not {g!r}")
        return FiberClass._make(g.ring, {(0, lam): c for lam, c in g.nums.items()}, g.den)

    @staticmethod
    def xi(ring: GrassRing) -> "FiberClass":
        _check_ring(ring)
        return FiberClass._make(ring, {(1, ()): 1}, 1)

    @property
    def coeffs(self) -> Mapping[int, GrassClass]:
        """Read-only view {power of xi: nonzero GrassClass}, built on each access."""
        return MappingProxyType({
            w: GrassClass._make(self.ring, part, self.den)
            for w, part in _by_power(self.nums).items()
        })

    def xi_degree(self) -> Optional[int]:
        return max((w for w, _ in self.nums), default=None)

    def coefficient(self, w: int) -> GrassClass:
        check_int(w, None, "power of xi")
        part = {lam: c for (v, lam), c in self.nums.items() if v == w}
        return GrassClass._make(self.ring, part, self.den) if part else self.ring._zero

    def _coerce(self, other) -> Optional["FiberClass"]:
        if isinstance(other, (FiberClass, GrassClass)):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatch("classes live on different Grassmannians")
            return other if isinstance(other, FiberClass) else FiberClass.lift(other)
        if is_scalar(other):
            return self._constant(other)
        return None

    def __mul__(self, other) -> "FiberClass":
        if is_scalar(other):
            return self._scaled(other)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        k, n = self.ring.k, self.ring.n
        right = _by_power(rhs.nums).items()
        out: Dict[int, Dict[Partition, int]] = {}
        for w1, part1 in _by_power(self.nums).items():
            for w2, part2 in right:
                w = w1 + w2
                _mul_into(out.setdefault(w, {}), k, n, part1.items(), part2.items())
        return self._make(self.ring, _flat(out), self.den * rhs.den)

    __rmul__ = __mul__

    def __hash__(self) -> int:
        if self.xi_degree() in (None, 0):  # equal to its base class, so hashes alike
            return hash(self.coefficient(0))
        return hash((self.ring, self.den, frozenset(self.nums.items())))

    def __repr__(self) -> str:
        if not self.nums:
            return "0"
        coeffs = self.coeffs
        bits = []
        for w in sorted(coeffs):
            head = "1" if w == 0 else ("xi" if w == 1 else f"xi^{w}")
            bits.append(f"({coeffs[w]!r})*{head}" if w else f"({coeffs[w]!r})")
        return " + ".join(bits)

    def reduce(self, sigma: int) -> "FiberClass":
        """Rewrite into xi-degree < k by xi^k = -sum_i sigma^i c_i(S) xi^{k-i},
        top power first, with c_i(S) = (-1)^i s_{1^i}."""
        _check_sigma(sigma)
        k, n = self.ring.k, self.ring.n
        relation = [(i, [((1,) * i, -(-sigma) ** i)]) for i in range(1, k + 1)]
        parts = _by_power(self.nums)
        for w in range(max(parts, default=0), k - 1, -1):
            part = parts.pop(w, None)
            if part:
                for i, column in relation:
                    _mul_into(parts.setdefault(w - i, {}), k, n, part.items(), column)
        return self._make(self.ring, _flat(parts), self.den)


def _by_power(nums: Dict[Tuple[int, Partition], int]) -> Dict[int, Dict[Partition, int]]:
    """A FiberClass's numerators split by power of xi: {w: {lam: numerator}}."""
    parts: Dict[int, Dict[Partition, int]] = {}
    for (w, lam), c in nums.items():
        parts.setdefault(w, {})[lam] = c
    return parts


def _flat(parts: Dict[int, Dict[Partition, int]]) -> Dict[Tuple[int, Partition], int]:
    """The inverse of _by_power, dropping zero numerators."""
    return {(w, lam): c for w, part in parts.items() for lam, c in part.items() if c}


def pushforward_P_S(x: FiberClass) -> GrassClass:
    """Integrate over the fibers: xi^w contributes c_{w-k+1}(Q)."""
    if not isinstance(x, FiberClass):
        raise PolyError(f"only a FiberClass pushes forward from P(S), not {x!r}")
    ring = x.ring
    acc: Dict[Partition, int] = {}
    for w, part in _by_power(x.nums).items():
        i = w - ring.k + 1
        if 0 <= i <= ring.cols:  # c_i(Q) is the one-row class s_(i)
            _mul_into(acc, ring.k, ring.n, part.items(), [((i,) if i else (), 1)])
    return GrassClass._make(ring, {nu: c for nu, c in acc.items() if c}, x.den)


def kappa_chern(ring: GrassRing, sigma: int = TAUTOLOGICAL_LINE) -> Tuple[FiberClass, ...]:
    """c_1..c_{k-1} of kappa, the graded parts of sum_i c_i(S) (1 + sigma xi)^{k-i}."""
    _check_ring(ring)
    _check_sigma(sigma)
    k = ring.k
    return tuple(
        FiberClass(ring, {
            j - i: chern_S(ring, i) * (comb(k - i, j - i) * sigma ** (j - i))
            for i in range(j + 1)
        })
        for j in range(1, k)
    )
