"""Multisingularity combinatorics: codimension, automorphisms, expansions.

A multisingularity is a multiset of singularity names with a distinguished
first element.  Two formal expansions drive everything downstream:

  * the target class n of a multisingularity expands recursively into
    products of residue symbols S over sub-multisets (one product per set
    partition of the points);
  * the source class m expands into residue polynomials R times pullbacks
    f*(n) of target classes of complements, one term per subset of the
    points containing the distinguished one.

Every residue R comes from thom.residue.  Reduced (barred) classes divide
by the automorphism counts; the source expansions are stated internally in
barred form with exact rational prefactors and converted at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .poly import (
    GradedPoly,
    PolyError,
    Rat,
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
    multisingularity_codim,
    parse_multisingularity,
    residue,
    singularity_info,
)


def _multiset_aut(names: Sequence[str]) -> int:
    counts: Dict[str, int] = {}
    for name in names:
        counts[name] = counts.get(name, 0) + 1
    out = 1
    for k in counts.values():
        out *= math.factorial(k)
    return out


@dataclass(frozen=True)
class MultiSingularity:
    """Multiset of singularity names, distinguished element first."""

    parts: Tuple[str, ...]

    def __post_init__(self):
        if not self.parts:
            raise PolyError("a multisingularity must be nonempty")
        canonical = (self.parts[0],) + tuple(sorted(self.parts[1:]))
        object.__setattr__(self, "parts", canonical)
        for name in self.parts:
            singularity_info(name)

    @classmethod
    def from_name(cls, text: str) -> "MultiSingularity":
        return cls(parse_multisingularity(text))

    def codim(self, ell: int) -> int:
        return multisingularity_codim(self.parts, ell)

    def aut_count(self) -> int:
        return _multiset_aut(self.parts)

    def rest_aut_count(self) -> int:
        """Automorphisms fixing the distinguished element."""
        return _multiset_aut(self.parts[1:])

    def label(self) -> str:
        return "".join(self.parts)


# -- target-class expansion into S symbols ---------------------------------------

# A FormalExpansion maps monomials to rational coefficients; a monomial is a
# sorted tuple of S-symbol labels, each label a sorted tuple of names.
FormalExpansion = Dict[Tuple[Tuple[str, ...], ...], Rat]

_EXPAND_N_MEMO: Dict[Tuple[str, ...], FormalExpansion] = {}


def _expansion_product(a: FormalExpansion, b: FormalExpansion) -> FormalExpansion:
    out: FormalExpansion = {}
    for mono_a, ca in a.items():
        for mono_b, cb in b.items():
            key = tuple(sorted(mono_a + mono_b))
            out[key] = out.get(key, rat(0)) + ca * cb
    return {k: c for k, c in out.items() if c != 0}


def expand_n(multi: MultiSingularity) -> FormalExpansion:
    """Target class as a polynomial in residue symbols S_{sub-multiset}.

    One term per set partition of the points; with identical entries the
    terms merge into the familiar coefficients, e.g. for four ordinary
    points s_4 + 4 s_1 s_3 + 6 s_1^2 s_2 + 3 s_2^2 + s_1^4.
    """
    tokens = multi.parts
    key = tuple(sorted(tokens))
    cached = _EXPAND_N_MEMO.get(key)
    if cached is not None:
        return dict(cached)
    r = len(tokens)
    result: FormalExpansion = {(key,): rat(1)}
    if r > 1:
        rest_positions = list(range(1, r))
        for mask in range(2 ** (r - 1) - 1):
            picked = [0] + [
                p for i, p in enumerate(rest_positions) if mask >> i & 1
            ]
            complement = [p for p in rest_positions if p not in picked]
            s_label = tuple(sorted(tokens[p] for p in picked))
            sub = expand_n(MultiSingularity(tuple(tokens[p] for p in complement)))
            for mono, c in _expansion_product({(s_label,): rat(1)}, sub).items():
                result[mono] = result.get(mono, rat(0)) + c
    result = {k: c for k, c in result.items() if c != 0}
    _EXPAND_N_MEMO[key] = dict(result)
    return result


def a0_partition_coefficients(r: int) -> Dict[Tuple[int, ...], Rat]:
    """expand_n of r ordinary points, keyed by the sorted block-size partition."""
    expansion = expand_n(MultiSingularity(("A0",) * r))
    out: Dict[Tuple[int, ...], Rat] = {}
    for mono, coeff in expansion.items():
        sizes = tuple(sorted(len(label) for label in mono))
        out[sizes] = out.get(sizes, rat(0)) + coeff
    return out


# -- source-class expansion with resolved residues -------------------------------------


@dataclass(frozen=True)
class SourceTerm:
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


@dataclass(frozen=True)
class SourceExpansion:
    multi: MultiSingularity
    ell: int
    barred: bool
    terms: Tuple[SourceTerm, ...]

    def coefficient_of(self, complement: Sequence[str]) -> GradedPoly:
        key = tuple(sorted(complement))
        for term in self.terms:
            if term.complement == key:
                return term.coefficient
        return constant(0)

    def to_latex(self) -> str:
        return _render_source(self, to_latex, latex=True)

    def to_text(self) -> str:
        return _render_source(self, to_text, latex=False)


def expand_m(
    multi: MultiSingularity,
    ell: int,
    barred: bool = True,
) -> SourceExpansion:
    """Source class of a multisingularity with residues resolved.

    Unbarred form: m = R + sum over proper subsets J containing the
    distinguished point of R_J f*(n_complement); exactly 2^(r-1) terms
    before merging.  Barred form divides by the automorphisms fixing the
    distinguished point and rewrites pullbacks in reduced classes.
    """
    tokens = multi.parts
    r = len(tokens)
    merged: Dict[Tuple[str, ...], GradedPoly] = {}
    rest = list(range(1, r))
    for mask in range(2 ** (r - 1)):
        picked = [0] + [p for i, p in enumerate(rest) if mask >> i & 1]
        complement = tuple(
            sorted(tokens[p] for p in rest if p not in picked)
        )
        residue_poly = residue(tuple(tokens[p] for p in picked), ell)
        if complement in merged:
            merged[complement] = merged[complement] + residue_poly
        else:
            merged[complement] = residue_poly
    if barred:
        scale = rat(1, multi.rest_aut_count())
        merged = {
            comp: poly * (scale * _multiset_aut(comp))
            for comp, poly in merged.items()
        }
    terms = tuple(
        SourceTerm(coefficient=poly, complement=comp)
        for comp, poly in sorted(
            merged.items(), key=lambda kv: (-len(kv[0]), kv[0])
        )
    )
    return SourceExpansion(multi=multi, ell=ell, barred=barred, terms=terms)


def emit_quadruple_formula(ell: int) -> SourceExpansion:
    """The general quadruple point formula at relative dimension ell.

    m_4 = f*(n_3) - 3 c_ell f*(n_2) + 3 R_{A_0^3} f*(n_1) + R_{A_0^4},
    in unreduced classes (m_4 = 3! reduced).
    """
    check_int(ell, 1, "relative dimension ell of the quadruple point formula")
    return expand_m(MultiSingularity(("A0",) * 4), ell, barred=False)


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
        pieces.append((coeff, body))
    return render_sum(pieces, "")


def _render_source(expansion: SourceExpansion, poly_renderer, latex: bool) -> str:
    pieces = []
    bar = r"\bar n" if latex else "nbar"
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
            if expansion.barred:
                fn = (
                    rf"f^*({bar}_{{{sub}}})" if latex else f"f^(nbar_{sub})"
                )
            else:
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
        "barred": expansion.barred,
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
