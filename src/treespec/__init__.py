"""treespec: rational recurrence closed forms and tree eigenvalue location.

Submodules:
  recurrence  the map x_{j+1} = alpha + gamma/x_j and its closed forms
  treediag    tree matrices, congruence diagonalization, inertia bisection
  oracle      dense reference spectra (eigvalsh) and seeded random trees
  signs       alternating-sign analytics of the pendant-path orbit
  limits      starlike-tree spectral radius limit points
  cli         command-line interface (``treespec`` entry point)
"""

from . import limits, oracle, recurrence, signs, treediag

__all__ = [
    "recurrence",
    "treediag",
    "oracle",
    "signs",
    "limits",
]

__version__ = "0.1.0"
