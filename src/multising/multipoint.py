"""Multisingularity combinatorics: codimension, automorphisms, expansions.

A multisingularity is a multiset of singularity names with a distinguished
first element.  Two formal expansions drive everything downstream:

  * the target class n of a multisingularity expands recursively into
    products of residue symbols S over sub-multisets (one product per set
    partition of the points);
  * the source class m expands into residue polynomials R times pullbacks
    f*(n) of target classes of complements, one term per subset of the
    points containing the distinguished one.

Every residue R comes from thom.residue, and every class is unreduced: no
term is divided by an automorphism count.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Dict, Iterator, Sequence, Tuple

from .poly import (
    GradedPoly,
    PolyError,
    Rat,
    Record,
    check_int,
    constant,
    rat,
    rat_str,
    render_sum,
    to_json_dict,
    to_latex,
    to_text,
)
from .thom import (
    UnsupportedMultisingularity,
    multisingularity_codim,
    parse_multisingularity,
    residue,
    singularity_info,
)


def _splits(tokens: Tuple[str, ...]) -> Iterator[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """(picked, complement) for each subset of the points holding tokens[0].

    Both keep the order of tokens, so the complement of sorted tokens[1:] is
    sorted, and so is picked when all of tokens is.
    """
    rest = tokens[1:]
    for mask in range(2 ** len(rest)):
        picked = tuple(t for i, t in enumerate(rest) if mask >> i & 1)
        yield tokens[:1] + picked, tuple(t for i, t in enumerate(rest) if not mask >> i & 1)


class MultiSingularity(Record):
    """Multiset of singularity names, distinguished element first."""

    parts: Tuple[str, ...]

    def __post_init__(self):
        if type(self.parts) is not tuple:
            raise UnsupportedMultisingularity(f"parts {self.parts!r} are not a tuple of names")
        if not self.parts:
            raise PolyError("a multisingularity must be nonempty")
        for name in self.parts:
            singularity_info(name)
        canonical = (self.parts[0],) + tuple(sorted(self.parts[1:]))
        object.__setattr__(self, "parts", canonical)

    @classmethod
    def from_name(cls, text: str) -> "MultiSingularity":
        return cls(parse_multisingularity(text))

    def codim(self, ell: int) -> int:
        return multisingularity_codim(self.parts, ell)

    def aut_count(self) -> int:
        return math.prod(math.factorial(k) for k in Counter(self.parts).values())

    def label(self) -> str:
        return "".join(self.parts)


# -- target-class expansion into S symbols ---------------------------------------

# A FormalExpansion maps monomials to rational coefficients; a monomial is a
# sorted tuple of S-symbol labels, each label a sorted tuple of names.
FormalExpansion = Dict[Tuple[Tuple[str, ...], ...], Rat]


def expand_n(multi: MultiSingularity) -> FormalExpansion:
    """Target class as a polynomial in residue symbols S_{sub-multiset}.

    One term per set partition of the points; with identical entries the
    terms merge into the familiar coefficients, e.g. for four ordinary
    points s_4 + 4 s_1 s_3 + 6 s_1^2 s_2 + 3 s_2^2 + s_1^4.
    """
    if not isinstance(multi, MultiSingularity):
        raise UnsupportedMultisingularity(f"{multi!r} is not a MultiSingularity")
    return dict(_expansion(tuple(sorted(multi.parts))))


@functools.cache
def _expansion(tokens: Tuple[str, ...]) -> FormalExpansion:
    """expand_n of the sorted tokens: the block holding tokens[0] times the
    expansion of its complement, summed over the blocks."""
    if not tokens:
        return {(): Rat(1)}
    out: FormalExpansion = {}
    for picked, complement in _splits(tokens):
        for mono, c in _expansion(complement).items():
            key = tuple(sorted(mono + (picked,)))
            out[key] = out.get(key, 0) + c
    return out


def a0_partition_coefficients(r: int) -> Dict[Tuple[int, ...], Rat]:
    """expand_n of r ordinary points, keyed by the sorted block-size partition."""
    check_int(r, 1, "number of points r")
    expansion = expand_n(MultiSingularity(("A0",) * r))
    out: Dict[Tuple[int, ...], Rat] = {}
    for mono, coeff in expansion.items():
        sizes = tuple(sorted(len(label) for label in mono))
        out[sizes] = out.get(sizes, rat(0)) + coeff
    return out


# -- source-class expansion with resolved residues -------------------------------------


class SourceTerm(Record):
    """One term R * f*(n_complement) of a source-class expansion.

    complement is the sorted label of the pulled-back target class; the
    empty tuple marks the pure residue term.  fn_degree is the degree
    assigned to the pullback symbol in the homogeneity bookkeeping.
    """

    coefficient: GradedPoly
    complement: Tuple[str, ...]

    def fn_degree(self, ell: int) -> int:
        if not self.complement:
            return 0
        return multisingularity_codim(self.complement, ell) + ell


class SourceExpansion(Record):
    multi: MultiSingularity
    ell: int
    terms: Tuple[SourceTerm, ...]

    def coefficient_of(self, complement: Sequence[str]) -> GradedPoly:
        if not (isinstance(complement, (tuple, list))
                and all(isinstance(t, str) for t in complement)):
            raise UnsupportedMultisingularity(f"{complement!r} is not a tuple of names")
        key = tuple(sorted(complement))
        for term in self.terms:
            if term.complement == key:
                return term.coefficient
        return constant(0)

    def to_latex(self) -> str:
        return _render_source(self, latex=True)

    def to_text(self) -> str:
        return _render_source(self, latex=False)


def expand_m(multi: MultiSingularity, ell: int) -> SourceExpansion:
    """Source class of a multisingularity with residues resolved.

    m = R + sum over proper subsets J containing the distinguished point of
    R_J f*(n_complement); exactly 2^(r-1) terms before merging.
    """
    if not isinstance(multi, MultiSingularity):
        raise UnsupportedMultisingularity(f"{multi!r} is not a MultiSingularity")
    merged: Dict[Tuple[str, ...], GradedPoly] = {}
    for picked, complement in _splits(multi.parts):
        poly = residue(picked, ell)
        merged[complement] = merged[complement] + poly if complement in merged else poly
    terms = tuple(
        SourceTerm(coefficient=poly, complement=comp)
        for comp, poly in sorted(
            merged.items(), key=lambda kv: (-len(kv[0]), kv[0])
        )
    )
    return SourceExpansion(multi=multi, ell=ell, terms=terms)


def emit_quadruple_formula(ell: int) -> SourceExpansion:
    """The general quadruple point formula at relative dimension ell.

    m_4 = f*(n_3) - 3 c_ell f*(n_2) + 3 R_{A_0^3} f*(n_1) + R_{A_0^4},
    in unreduced classes (m_4 = 3! reduced).
    """
    check_int(ell, 1, "relative dimension ell of the quadruple point formula")
    return expand_m(MultiSingularity(("A0",) * 4), ell)


# -- rendering ----------------------------------------------------------------------


def _token_latex(token: str) -> str:
    """A3 -> A_3, A12 -> A_{12}, III22 -> III_{2,2}, I22 -> I_{2,2}."""
    family = token.rstrip("0123456789")
    index = token[len(family):]
    if family != "A":
        index = ",".join(index)
    return f"{family}_{index}" if len(index) == 1 else f"{family}_{{{index}}}"


def _sym_latex(label: Tuple[str, ...]) -> str:
    if all(t == "A0" for t in label):
        return f"s_{len(label)}"
    inner = "".join(_token_latex(t) for t in label)
    return f"S_{{{inner}}}"


def _sym_text(label: Tuple[str, ...]) -> str:
    if all(t == "A0" for t in label):
        return f"s{len(label)}"
    return "S[" + ",".join(label) + "]"


def expansion_to_latex(expansion: FormalExpansion) -> str:
    return _render_expansion(expansion, _sym_latex)


def expansion_to_text(expansion: FormalExpansion) -> str:
    return _render_expansion(expansion, _sym_text)


def _render_expansion(expansion, namer) -> str:
    items = sorted(
        expansion.items(), key=lambda kv: (len(kv[0]), kv[0])
    )
    pieces = []
    for mono, coeff in items:
        powers: Dict[Tuple[str, ...], int] = {}
        for label in mono:
            powers[label] = powers.get(label, 0) + 1
        body = "".join(
            namer(label) + (f"^{e}" if e > 1 else "")
            for label, e in sorted(powers.items(), key=lambda kv: len(kv[0]))
        )
        pieces.append((coeff.numerator, coeff.denominator, body))
    return render_sum(pieces, "")


def _render_source(expansion: SourceExpansion, latex: bool) -> str:
    poly_renderer = to_latex if latex else to_text
    pieces = []
    for term in expansion.terms:
        coeff = poly_renderer(term.coefficient)
        if term.complement:
            k = len(term.complement)
            if all(t == "A0" for t in term.complement):
                sub = str(k)
            else:
                sub = (
                    "".join(_token_latex(t) for t in term.complement)
                    if latex
                    else ",".join(term.complement)
                )
            fn = rf"f^*(n_{{{sub}}})" if latex else f"f^(n_{sub})"
            if coeff == "1":
                pieces.append(fn)
            else:
                pieces.append(f"({coeff}){fn}")
        else:
            wrap = " " in coeff or coeff.startswith("-")
            pieces.append(f"({coeff})" if wrap else coeff)
    return " + ".join(pieces)


def source_expansion_json(expansion: SourceExpansion) -> dict:
    return {
        "multisingularity": expansion.multi.label(),
        "ell": expansion.ell,
        "terms": [
            {
                "pullback": list(term.complement) or None,
                "coefficient": to_json_dict(term.coefficient),
            }
            for term in expansion.terms
        ],
    }


def expansion_json(expansion: FormalExpansion) -> dict:
    items = sorted(expansion.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return {
        "terms": [
            {
                "symbols": [list(label) for label in mono],
                "coeff": rat_str(c),
            }
            for mono, c in items
        ]
    }
