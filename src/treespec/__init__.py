"""treespec: rational recurrence closed forms and tree eigenvalue location.

Submodules:
  recurrence  the map x_{j+1} = alpha + gamma/x_j and its closed forms
  treediag    tree matrices, congruence diagonalization, inertia bisection
  oracle      dense reference spectra (eigvalsh) and seeded random trees
  signs       alternating-sign analytics of the pendant-path orbit
  limits      starlike-tree spectral radius limit points
  cli         command-line interface (``treespec`` entry point)

Importing the package imports no submodule; ``treespec.signs`` and the like
import theirs on first access, so each CLI command loads only what it runs.
"""

import importlib

__all__ = [
    "recurrence",
    "treediag",
    "oracle",
    "signs",
    "limits",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
