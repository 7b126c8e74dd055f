"""Exact Schur-calculus on Grassmannians and the line-in-subbundle fibration.

The cohomology of Gr_k(C^n) is modelled in the basis of Schur classes s_lam
indexed by partitions inside the k x (n-k) box, normalized so that the class
of a point (the full box) integrates to 1.  Basis products follow the
Littlewood-Richardson rule: the rows of the smaller partition are added as
labelled horizontal strips inside the box, and each filling with a lattice
reading word counts once, so the multiplicities come with no cancellation.
class_mul clears each factor to int numerators over the lcm of its
denominators, sums the products as ints and builds one rational per output.

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
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .poly import PolyError, Rat, check_int, is_scalar, json_field, power, rat, rat_str

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

    @property
    def cols(self) -> int:
        return self.n - self.k

    @property
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
        for lam in _box_partitions(self.k, self.cols):
            if degree is None or sum(lam) == degree:
                yield lam

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


class GrassClass:
    """A cohomology class on a Grassmannian in the boxed Schur basis."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: GrassRing, coeffs: Mapping[Sequence[int], object], *, _checked=False):
        if _checked:  # internal results: box partitions mapped to nonzero Rats
            object.__setattr__(self, "ring", ring)
            object.__setattr__(self, "coeffs", coeffs)
            return
        clean: Dict[Partition, Rat] = {}
        for raw, value in coeffs.items():
            lam = _validate_partition(raw)
            if not ring.contains(lam):
                continue  # zero in the boxed quotient
            c = rat(value)
            if c == 0:
                continue
            clean[lam] = clean.get(lam, _ZERO) + c
            if clean[lam] == 0:
                del clean[lam]
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("GrassClass is immutable")

    # -- inspection --

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, lam: Sequence[int]) -> Rat:
        return self.coeffs.get(_validate_partition(lam), _ZERO)

    def is_homogeneous(self) -> bool:
        return len({sum(lam) for lam in self.coeffs}) <= 1

    def homogeneous_part(self, d: int) -> "GrassClass":
        return GrassClass(
            self.ring, {lam: c for lam, c in self.coeffs.items() if sum(lam) == d}
        )

    def integrate(self) -> Rat:
        return self.coeffs.get(self.ring.box, _ZERO)

    # -- arithmetic --

    def _coerce(self, other) -> Optional["GrassClass"]:
        if isinstance(other, GrassClass):
            if other.ring != self.ring:
                raise RingMismatch("classes live on different Grassmannians")
            return other
        if is_scalar(other):
            return GrassClass(self.ring, {(): rat(other)})
        return None

    def __add__(self, other) -> "GrassClass":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        merged = dict(self.coeffs)
        for lam, c in rhs.coeffs.items():
            total = merged.get(lam, 0) + c
            if total:
                merged[lam] = total
            else:
                del merged[lam]
        return GrassClass(self.ring, merged, _checked=True)

    __radd__ = __add__

    def __neg__(self) -> "GrassClass":
        return GrassClass(self.ring, {lam: -c for lam, c in self.coeffs.items()}, _checked=True)

    def __sub__(self, other) -> "GrassClass":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "GrassClass":
        return -(self - other)

    def __mul__(self, other) -> "GrassClass":
        if isinstance(other, GrassClass):
            return class_mul(self, other)
        if is_scalar(other):
            c = rat(other)
            coeffs = {lam: c * v for lam, v in self.coeffs.items()} if c else {}
            return GrassClass(self.ring, coeffs, _checked=True)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GrassClass":
        return power(self, exponent, schur(self.ring, ()))

    def __eq__(self, other) -> bool:
        try:
            rhs = self._coerce(other)
        except RingMismatch:
            return False
        if rhs is None:
            return NotImplemented
        return self.coeffs == rhs.coeffs

    def __hash__(self) -> int:
        if set(self.coeffs) <= {()}:
            return hash(self.coeffs.get((), 0))  # equal scalars hash alike
        return hash((self.ring, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for lam in sorted(self.coeffs, key=lambda p: (sum(p), p)):
            c = self.coeffs[lam]
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
    lam = _box_partitions(ring.k, ring.cols).get(_validate_partition(lam))
    return GrassClass(ring, {} if lam is None else {lam: Rat(1)}, _checked=True)


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
    """
    if sum(mu) > sum(lam):
        lam, mu = mu, lam
    if not mu:
        return ((lam, 1),)
    cols = n - k
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


def class_mul(x: GrassClass, y: GrassClass) -> GrassClass:
    """The product in the Schur basis, summed as int numerators over the
    product of the operands' common denominators."""
    if x.ring != y.ring:
        raise RingMismatch("classes live on different Grassmannians")
    k, n = x.ring.k, x.ring.n
    left, den_x = _cleared(x)
    right, den_y = _cleared(y)
    den = den_x * den_y
    acc: Dict[Partition, int] = {}
    get = acc.get
    for lam, a in left:
        for mu, b in right:
            ab = a * b
            # one cache entry per unordered pair: s_lam * s_mu = s_mu * s_lam
            pair = (lam, mu) if lam >= mu else (mu, lam)
            for nu, mult in _mul_basis(k, n, *pair):
                acc[nu] = get(nu, 0) + ab * mult
    return GrassClass(x.ring, {nu: Rat(c, den) for nu, c in acc.items() if c}, _checked=True)


def _cleared(x: GrassClass) -> Tuple[List[Tuple[Partition, int]], int]:
    den = lcm(*(c.denominator for c in x.coeffs.values()))
    return [(lam, c.numerator * (den // c.denominator)) for lam, c in x.coeffs.items()], den


def integrate(x: GrassClass) -> Rat:
    """Evaluation against the fundamental class: the full-box coefficient."""
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


class FiberClass:
    """A polynomial in the fiberwise hyperplane class xi over a Grassmannian.

    Powers of xi are kept raw; reduce() rewrites into xi-degree < k using the
    relation of a chosen orientation.
    """

    __slots__ = ("ring", "parts")

    def __init__(self, ring: GrassRing, parts: Mapping[int, GrassClass]):
        clean: Dict[int, GrassClass] = {}
        for w, g in parts.items():
            check_int(w, 0, "power of xi")
            if not isinstance(g, GrassClass):
                raise PolyError(f"xi^{w} coefficient {g!r} is not a GrassClass")
            if g.ring != ring:
                raise RingMismatch("coefficient lives on a different Grassmannian")
            if not g.is_zero():
                clean[w] = g
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "parts", clean)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("FiberClass is immutable")

    @staticmethod
    def lift(g: GrassClass) -> "FiberClass":
        """Pullback of a base class to the fibration."""
        return FiberClass(g.ring, {0: g})

    @staticmethod
    def xi(ring: GrassRing, power: int = 1) -> "FiberClass":
        return FiberClass(ring, {power: schur(ring, ())})

    def is_zero(self) -> bool:
        return not self.parts

    def xi_degree(self) -> Optional[int]:
        return max(self.parts) if self.parts else None

    def coefficient(self, w: int) -> GrassClass:
        return self.parts.get(w, GrassClass(self.ring, {}))

    def _coerce(self, other) -> Optional["FiberClass"]:
        if isinstance(other, FiberClass):
            if other.ring != self.ring:
                raise RingMismatch("classes live on different fibrations")
            return other
        if isinstance(other, GrassClass):
            return FiberClass.lift(other)
        if is_scalar(other):
            return FiberClass(self.ring, {0: GrassClass(self.ring, {(): rat(other)})})
        return None

    def __add__(self, other) -> "FiberClass":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        merged = dict(self.parts)
        for w, g in rhs.parts.items():
            merged[w] = merged.get(w, GrassClass(self.ring, {})) + g
        return FiberClass(self.ring, merged)

    __radd__ = __add__

    def __neg__(self) -> "FiberClass":
        return FiberClass(self.ring, {w: -g for w, g in self.parts.items()})

    def __sub__(self, other) -> "FiberClass":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "FiberClass":
        return -(self - other)

    def __mul__(self, other) -> "FiberClass":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: Dict[int, GrassClass] = {}
        for w1, g1 in self.parts.items():
            for w2, g2 in rhs.parts.items():
                w = w1 + w2
                out[w] = out.get(w, GrassClass(self.ring, {})) + g1 * g2
        return FiberClass(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "FiberClass":
        return power(self, exponent, FiberClass(self.ring, {0: schur(self.ring, ())}))

    def __eq__(self, other) -> bool:
        try:
            rhs = self._coerce(other)
        except RingMismatch:
            return False
        if rhs is None:
            return NotImplemented
        return self.parts == rhs.parts

    def __repr__(self) -> str:
        if not self.parts:
            return "0"
        bits = []
        for w in sorted(self.parts):
            head = "1" if w == 0 else ("xi" if w == 1 else f"xi^{w}")
            bits.append(f"({self.parts[w]!r})*{head}" if w else f"({self.parts[w]!r})")
        return " + ".join(bits)

    def reduce(self, orientation: Orientation) -> "FiberClass":
        """Rewrite into xi-degree < k by xi^k = -sum_i sigma^i c_i(S) xi^{k-i}."""
        ring = self.ring
        sigma = orientation.kappa_xi_sign
        relation = [(i, chern_S(ring, i) * -sigma ** i) for i in range(1, ring.k + 1)]
        parts = dict(self.parts)
        while parts:
            top = max(parts)
            if top < ring.k:
                break
            g = parts.pop(top)
            for shift, cls in relation:
                w = top - shift
                parts[w] = parts.get(w, GrassClass(ring, {})) + g * cls
                if parts[w].is_zero():
                    del parts[w]
        return FiberClass(ring, parts)


def pushforward_P_S(
    x: FiberClass, orientation: Orientation = TAUTOLOGICAL_LINE
) -> GrassClass:
    """Integrate over the fibers: xi^w contributes c_{w-k+1}(Q) times its sign."""
    ring = x.ring
    out = GrassClass(ring, {})
    for w, g in x.parts.items():
        i = w - ring.k + 1
        if i < 0 or i > ring.cols:
            continue
        out = out + g * chern_Q(ring, i) * (orientation.push_sign ** w)
    return out


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
