"""Exact Schur-calculus on Grassmannians and the line-in-subbundle fibration.

The cohomology of Gr_k(C^n) is modelled in the basis of Schur classes s_lam
indexed by partitions inside the k x (n-k) box, normalized so that the class
of a point (the full box) integrates to 1.  Basis products follow the
Littlewood-Richardson rule: the rows of the smaller partition are added as
labelled horizontal strips inside the box, and each filling with a lattice
reading word counts once, so the multiplicities come with no cancellation.
A product that vanishes in the box skips the enumeration: s_lam * s_mu != 0
iff lam_i + mu_(k+1-i) <= n-k for every i (Fulton, Young Tableaux, 9.4).
GrassClass and the FiberClass below are stored as GradedPoly is: nonzero int
numerators over one shared positive denominator in lowest terms.  Their
private base, _SchurSum, makes +, -, ==, ** and scalar * one lcm merge and
one gcd step, every product sums a * b * mult into one int dict through
_mul_basis, and coeffs is a read-only view.  Only the public constructors
check their input; results are built unchecked.

On top of the base ring the module models the projectivization P(S) of the
universal subbundle S, of rank k: classes are polynomials in the fiberwise
hyperplane class xi with Schur-class coefficients, kept in raw powers of xi.
In Grothendieck's convention zeta = c_1(O(1)) satisfies
sum_i c_i(S) zeta^{k-i} = 0, pushes forward by pi_* zeta^{k-1+i} = c_i(Q),
and the relative tangent bundle kappa = T_{P(S)/G} has
c(kappa) = sum_i c_i(S) (1 + zeta)^{k-i}.  An orientation writes all three
in xi = sigma * zeta and scales the pushforward of xi^w by push_sign^w:

  * dual-line is Grothendieck's convention itself: sigma = +1, sign +1;
  * signed-push is the same calculus written in xi = -zeta, so it gives the
    same integrals as dual-line and no enumerative count can separate them;
  * tautological-line, still the default argument, pairs signed-push's
    relation with dual-line's pushforward signs and contradicts its own
    relation; it stays only as a negative control.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, lcm
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .poly import (PolyError, Rat, check_int, is_scalar, json_field, lcm_merge, lowest_terms,
                   power, rat, rat_str)

_ZERO = Rat(0)  # the one default for absent coefficients

Partition = Tuple[int, ...]


class RingMismatch(PolyError):
    """Raised when classes from different Grassmannians are combined."""


@dataclass(frozen=True)
class GrassRing:
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
    parts = tuple(lam)
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
        nums, den = lowest_terms(nums, den)
        put = object.__setattr__
        put(x, "ring", ring)
        put(x, "nums", nums)
        put(x, "den", den)
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
        return -(self - other)

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


class GrassClass(_SchurSum):
    """A cohomology class on a Grassmannian in the boxed Schur basis, keyed by partition."""

    __slots__ = ()

    _UNIT: Partition = ()

    def __new__(cls, ring: GrassRing, coeffs: Mapping[Sequence[int], object]):
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
            if other.ring != self.ring:
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


def schur(ring: GrassRing, lam: Sequence[int]) -> GrassClass:
    """The Schur basis class s_lam (zero if lam leaves the box)."""
    box = _box_partitions(ring.k, ring.cols)
    # only an int-only tuple may hit directly: (True,) and (1.0,) equal (1,)
    canon = box.get(lam) if type(lam) is tuple and all(type(p) is int for p in lam) else None
    if canon is None:
        canon = box.get(_validate_partition(lam))
    return GrassClass._make(ring, {} if canon is None else {canon: 1}, 1)


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


@lru_cache(maxsize=None)
def _mul_basis(k: int, n: int, lam: Partition, mu: Partition) -> Tuple[Tuple[Partition, int], ...]:
    """Boxed expansion of s_lam * s_mu with integer multiplicities.

    Littlewood-Richardson rule: row i of the smaller partition is added as a
    horizontal strip of cells labelled i, and a filling counts once when its
    reading word is a lattice word, that is when the label-i cells in rows
    <= r never outnumber the label-(i-1) cells in rows < r.  No cell is
    placed outside the k x (n-k) box, which is safe because shapes only grow.
    A product that vanishes in the box is decided before any enumeration:
    s_lam * s_mu != 0 iff lam_i + mu_(k+1-i) <= n-k for every i (Fulton,
    Young Tableaux, 9.4), that is iff lam fits inside the dual of mu.
    """
    if sum(mu) > sum(lam):
        lam, mu = mu, lam
    if not mu:
        return ((lam, 1),)
    cols = n - k
    # vanishing criterion (Fulton, Young Tableaux, 9.4): lam must fit in mu's dual
    if any(a + b > cols for a, b in zip(lam, reversed(mu + (0,) * (k - len(mu))))):
        return ()
    canon = _box_partitions(k, cols)
    acc: Dict[Partition, int] = {}

    # old: the shape before strip i; new: its rows r' < r after the strip;
    # limits[r]: label-(i-1) cells in rows < r; above: the same for label i
    def strip(i: int, r: int, left: int, old: Partition, new: Partition,
              limits: Tuple[int, ...], above: Tuple[int, ...]) -> None:
        if r == k:  # the last row took every cell left
            if i + 1 < len(mu):
                strip(i + 1, 0, mu[i + 1], new, (), above, ())
            else:
                nu = canon[_strip_zeros(new)]
                acc[nu] = acc.get(nu, 0) + 1
            return
        done = mu[i] - left
        room = (old[r - 1] if r else cols) - old[r]
        most = min(room, left, limits[r] - done)
        for c in range(left if r == k - 1 else 0, most + 1):  # the last row takes the rest
            strip(i, r + 1, left - c, old, new + (old[r] + c,), limits, above + (done,))

    strip(0, 0, mu[0], lam + (0,) * (k - len(lam)), (), (mu[0],) * k, ())
    return tuple(sorted(acc.items()))


def _mul_into(acc: Dict[Partition, int], k: int, n: int, left, right) -> None:
    """acc[nu] += a * b * mult for each row (lam, a) of left, (mu, b) of right
    and each term mult * s_nu of s_lam * s_mu: the one product kernel."""
    get = acc.get
    for lam, a in left:
        for mu, b in right:
            ab = a * b
            # one cache entry per unordered pair: s_lam * s_mu = s_mu * s_lam
            pair = (lam, mu) if lam >= mu else (mu, lam)
            for nu, mult in _mul_basis(k, n, *pair):
                acc[nu] = get(nu, 0) + ab * mult


def class_mul(x: GrassClass, y: GrassClass) -> GrassClass:
    """The product in the Schur basis, summed as int numerators over the
    product of the operands' denominators."""
    if x.ring != y.ring:
        raise RingMismatch("classes live on different Grassmannians")
    acc: Dict[Partition, int] = {}
    _mul_into(acc, x.ring.k, x.ring.n, x.nums.items(), y.nums.items())
    return GrassClass._make(x.ring, {nu: c for nu, c in acc.items() if c}, x.den * y.den)


def integrate(x: GrassClass) -> Rat:
    """Evaluation against the fundamental class: the full-box coefficient."""
    if not isinstance(x, GrassClass):
        raise PolyError(f"only a GrassClass integrates over the Grassmannian, not {x!r}")
    return x.integrate()


# -- tautological bundles ----------------------------------------------------------


def chern_Q(ring: GrassRing, i: int) -> GrassClass:
    """c_i of the universal quotient bundle: the one-row Schur class."""
    check_int(i, 0, f"index of c_i(Q) for rank {ring.cols}", most=ring.cols)
    return schur(ring, (i,) if i else ())


def chern_S(ring: GrassRing, i: int) -> GrassClass:
    """c_i of the universal subbundle: a signed one-column Schur class."""
    check_int(i, 0, f"index of c_i(S) for rank {ring.k}", most=ring.k)
    return GrassClass(ring, {(1,) * i: (-1) ** i})


# -- the fibration of lines in S -----------------------------------------------------


@dataclass(frozen=True)
class Orientation:
    """One choice of signs for the xi-calculus.

    xi = kappa_xi_sign * zeta fixes the relation and kappa; push_sign**w
    scales the pushforward of xi^w.
    """

    name: str
    kappa_xi_sign: int
    push_sign: int


TAUTOLOGICAL_LINE = Orientation("tautological-line", -1, +1)
SIGNED_PUSH = Orientation("signed-push", -1, -1)
DUAL_LINE = Orientation("dual-line", +1, +1)

ORIENTATIONS: Dict[str, Orientation] = {
    o.name: o for o in (TAUTOLOGICAL_LINE, SIGNED_PUSH, DUAL_LINE)
}


class FiberClass(_SchurSum):
    """A polynomial in the fiberwise hyperplane class xi over a Grassmannian.

    nums is keyed by (power of xi, partition): the numerator of s_lam xi^w
    sits at (w, lam).  coeffs is the read-only view {w: GrassClass}.  Powers
    are kept raw; reduce() rewrites into xi-degree < k using the relation of
    a chosen orientation.
    """

    __slots__ = ()

    _UNIT: Tuple[int, Partition] = (0, ())

    def __new__(cls, ring: GrassRing, parts: Mapping[int, GrassClass]):
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
        return self.coeffs.get(w) or GrassClass._make(self.ring, {}, 1)

    def _coerce(self, other) -> Optional["FiberClass"]:
        if isinstance(other, (FiberClass, GrassClass)):
            if other.ring != self.ring:
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

    def reduce(self, orientation: Orientation) -> "FiberClass":
        """Rewrite into xi-degree < k by xi^k = -sum_i sigma^i c_i(S) xi^{k-i},
        top power first, with c_i(S) = (-1)^i s_{1^i}."""
        k, n = self.ring.k, self.ring.n
        sigma = orientation.kappa_xi_sign
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


def pushforward_P_S(
    x: FiberClass, orientation: Orientation = TAUTOLOGICAL_LINE
) -> GrassClass:
    """Integrate over the fibers: xi^w contributes c_{w-k+1}(Q) times its sign."""
    if not isinstance(x, FiberClass):
        raise PolyError(f"only a FiberClass pushes forward from P(S), not {x!r}")
    ring = x.ring
    acc: Dict[Partition, int] = {}
    for w, part in _by_power(x.nums).items():
        i = w - ring.k + 1
        if 0 <= i <= ring.cols:  # c_i(Q) is the one-row class s_(i)
            row = [((i,) if i else (), orientation.push_sign ** w)]
            _mul_into(acc, ring.k, ring.n, part.items(), row)
    return GrassClass._make(ring, {nu: c for nu, c in acc.items() if c}, x.den)


def kappa_chern(
    ring: GrassRing, orientation: Orientation = TAUTOLOGICAL_LINE
) -> Tuple[FiberClass, ...]:
    """c_1..c_{k-1} of kappa, the graded parts of sum_i c_i(S) (1 + sigma xi)^{k-i}."""
    sigma = orientation.kappa_xi_sign
    k = ring.k
    return tuple(
        FiberClass(ring, {
            j - i: chern_S(ring, i) * (comb(k - i, j - i) * sigma ** (j - i))
            for i in range(j + 1)
        })
        for j in range(1, k)
    )
