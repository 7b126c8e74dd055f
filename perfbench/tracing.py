"""Spans and counts around the calls into each multising layer.

``Tracer.install`` replaces the listed public functions and operators with
wrappers that record a span (name, start, end, parent) and the counts of the
call at the same boundary.  Spans stay in memory; ``Tracer.layer_metrics``
reduces them to the per-layer metrics when the sample ends.

Modules bind ``substitute``, ``series_inverse`` and friends through
``from .poly import ...``, so every module that holds a traced function gets
the wrapper, not only the defining one.  ``__rmul__``/``__radd__`` are the
same functions as ``__mul__``/``__add__`` and are wrapped with them.

Bookkeeping done by a wrapper outside its own span (creating the span,
counting after the call) is charged to no layer: it is subtracted from the
parent's self time and reported only through ``trace.overhead_s``.

Spans are timed with ``speed.clock``, which leaves out the reference runs
that the speed meter makes inside them.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional

import multising
from multising import germs, grassmann, multipoint, poly, thom

import speed

_MODULES = (multising, poly, thom, germs, multipoint, grassmann)

# Span fields: name, start, end, parent index (-1 at top level), time the
# tracer spent on this span's children outside their spans.
_NAME, _START, _END, _PARENT, _LOST = range(5)


def _count_poly_mul(counts: Dict[str, float], args, result) -> None:
    left, right = args[0], args[1]
    right_terms = len(right.terms) if isinstance(right, poly.GradedPoly) else 1
    counts["poly.mul.term_pairs"] += len(left.terms) * right_terms
    counts["poly.mul.terms_out"] += len(result.terms)
    bits = counts["poly.coeff.max_bits"]
    integral = 0
    for c in result.terms.values():
        den = c.denominator
        if den == 1:
            integral += 1
        bits = max(bits, abs(c.numerator).bit_length(), den.bit_length())
    counts["poly.coeff.max_bits"] = bits
    counts["coeff.integral"] += integral


def _count_class_mul(counts: Dict[str, float], args, result) -> None:
    counts["grassmann.class_mul.basis_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


# (span name, home, attribute names, counter): home is the class or module
# that defines the attributes.
_TARGETS = (
    ("poly.mul", poly.GradedPoly, ("__mul__", "__rmul__"), _count_poly_mul),
    ("poly.add", poly.GradedPoly, ("__add__", "__radd__"), None),
    ("poly.substitute", poly, ("substitute",), None),
    ("poly.chern_substitute", poly, ("chern_substitute",), None),
    ("poly.series_inverse", poly, ("series_inverse",), None),
    ("poly.series_quotient", poly, ("series_quotient",), None),
    ("poly.divide_by_linear", poly, ("divide_by_linear",), None),
    ("thom.residue", thom, ("residue_A0r", "residue_III22A0"), None),
    ("germs.chern_total", germs, ("chern_total",), None),
    ("germs.n1", germs, ("n1",), None),
    ("germs.verify", germs, ("verify_quadruple", "verify_divisibility_suite", "blowup_control_report"), None),
    ("multipoint.expand_n", multipoint, ("expand_n",), None),
    ("multipoint.expand_m", multipoint, ("expand_m",), None),
    ("grassmann.class_mul", grassmann, ("class_mul",), _count_class_mul),
    ("grassmann.fiber_mul", grassmann.FiberClass, ("__mul__", "__rmul__"), None),
    ("grassmann.reduce", grassmann.FiberClass, ("reduce",), None),
    ("grassmann.pushforward", grassmann, ("pushforward_P_S",), None),
)

# Per-layer metrics: calls and self time come from spans of one name,
# inclusive time ("<name>.s") from its outermost spans.
_CALLS = ("poly.mul", "poly.add", "poly.substitute", "poly.divide_by_linear",
          "thom.residue", "grassmann.class_mul")
_SELF = ("poly.mul", "poly.add", "poly.substitute", "grassmann.class_mul")
_INCLUSIVE = ("poly.chern_substitute", "poly.series_inverse", "poly.series_quotient",
              "poly.divide_by_linear", "thom.residue", "germs.chern_total", "germs.n1",
              "germs.verify", "multipoint.expand_n", "multipoint.expand_m",
              "grassmann.fiber_mul", "grassmann.reduce", "grassmann.pushforward")
_COUNTS = ("poly.mul.term_pairs", "poly.mul.terms_out", "poly.coeff.max_bits",
           "grassmann.class_mul.basis_pairs")


class Tracer:
    """Records spans for one process; install once, read at the end."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = dict.fromkeys(_COUNTS + ("coeff.integral",), 0)
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, speed.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            if parent >= 0:
                spans[parent][_LOST] += (span[_START] - entered) + (clock() - span[_END])
            return result

        return traced

    def install(self) -> None:
        for name, home, attrs, counter in _TARGETS:
            holders = (home,) if isinstance(home, type) else _MODULES
            wrappers: Dict[Callable, Callable] = {}
            for attr in attrs:
                fn = vars(home)[attr]
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(name, fn, counter)
                for holder in holders:
                    if vars(holder).get(attr) is fn:
                        setattr(holder, attr, wrappers[fn])

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of every span recorded so far.

        Self time is a span's duration minus its children's durations and
        the bookkeeping charged to it; inclusive time is self time plus the
        children's inclusive time.
        """
        spans = self.spans
        n = len(spans)
        self_time = [s[_END] - s[_START] - s[_LOST] for s in spans]
        inclusive = [0.0] * n
        children = [0.0] * n
        # Children always follow their parent in the list.
        for i in range(n - 1, -1, -1):
            inclusive[i] = self_time[i] + children[i]
            parent = spans[i][_PARENT]
            if parent >= 0:
                self_time[parent] -= spans[i][_END] - spans[i][_START]
                children[parent] += inclusive[i]

        calls = dict.fromkeys(_CALLS, 0)
        self_s = dict.fromkeys(_SELF, 0.0)
        incl_s = dict.fromkeys(_INCLUSIVE, 0.0)
        for i, span in enumerate(spans):
            name = span[_NAME]
            if name in calls:
                calls[name] += 1
            if name in self_s:
                self_s[name] += self_time[i]
            if name in incl_s and not _has_ancestor_named(spans, i, name):
                incl_s[name] += inclusive[i]

        out: Dict[str, float] = {}
        out.update({f"{k}.calls": v for k, v in calls.items()})
        out.update({f"{k}.self_s": v for k, v in self_s.items()})
        out.update({f"{k}.s": v for k, v in incl_s.items()})
        out.update({k: self.counts[k] for k in _COUNTS})
        terms_out = self.counts["poly.mul.terms_out"]
        out["poly.coeff.int_share"] = self.counts["coeff.integral"] / terms_out if terms_out else 0.0
        info = grassmann._mul_basis.cache_info()
        looked_up = info.hits + info.misses
        out["grassmann.mul_basis.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        return out


def _has_ancestor_named(spans: List[list], index: int, name: str) -> bool:
    parent = spans[index][_PARENT]
    while parent >= 0:
        if spans[parent][_NAME] == name:
            return True
        parent = spans[parent][_PARENT]
    return False
