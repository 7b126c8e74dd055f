"""Exact multisingularity calculus.

Residue polynomials of multisingularity classes, mechanical verification of
the defining identities on stable germ prototypes, and Schur calculus on
Grassmannians with the line-in-subbundle fibration.  All arithmetic is exact
rational; floating point is never used.
"""

from .poly import (
    GradedPoly,
    Rat,
    cvar,
    rat,
    rat_str,
    schur_det,
    series_quotient,
    substitute,
    vanishes_under,
)

__all__ = [
    "GradedPoly",
    "Rat",
    "cvar",
    "rat",
    "rat_str",
    "schur_det",
    "series_quotient",
    "substitute",
    "vanishes_under",
]

__version__ = "0.1.0"
