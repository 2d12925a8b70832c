"""Spectral-radius limit points of the starlike trees T_{l,m,n}.

T_{l,m,n} joins one endpoint of each of three paths (l, m and n vertices)
to a common center.  As the two long arms of T_{1,n,n} grow, the adjacency
spectral radius increases to sqrt(2 + sqrt(5)) and the Laplacian spectral
radius to 2 + e where e is the real root of x^3 - 4x - 4.  Radii are
computed by inertia bisection; the limit constants are hard-coded from
their algebraic closed forms.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

from .errors import OutOfDomainError
from .treediag import MatrixKind, RootedTree, build_matrix, build_tree, spectral_radius


class _Arms(NamedTuple):
    l: int
    m: int
    n_arm: int


class StarlikeSpec(_Arms):
    """Arm lengths (vertex counts) of a starlike tree; center has degree 3."""

    __slots__ = ()

    def __new__(cls, l: int, m: int, n_arm: int) -> StarlikeSpec:
        for name, v in zip(cls._fields, (l, m, n_arm)):
            if not isinstance(v, int) or v < 1:
                raise OutOfDomainError(f"{name} must be a positive integer, got {v!r}")
        return super().__new__(cls, l, m, n_arm)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # ``_replace`` calls it: both check

    @property
    def n(self) -> int:
        return self.l + self.m + self.n_arm + 1


def t_lmn(spec: StarlikeSpec) -> RootedTree:
    """The starlike tree, rooted at the center.

    Arms are labeled leaf-inward: 1..l, l+1..l+m, l+m+1..l+m+n; the center
    is the last vertex.
    """
    edges: List[Tuple[int, int]] = []
    center = spec.n
    start = 1
    for length in (spec.l, spec.m, spec.n_arm):
        for v in range(start, start + length - 1):
            edges.append((v, v + 1))
        edges.append((start + length - 1, center))
        start += length
    return build_tree(edges, root=center)


def shearer_constant() -> float:
    """sqrt(2 + sqrt(5)): the adjacency limit, and the density threshold
    above which every real is a limit point of spectral radii."""
    return math.sqrt(2.0 + math.sqrt(5.0))


def guo_constant() -> float:
    """2 + e with e the unique real root of x^3 - 4x - 4, via the cubic
    closed form e = c/3 + 4/c, c = (54 + 6*sqrt(33))^(1/3)."""
    c = (54.0 + 6.0 * math.sqrt(33.0)) ** (1.0 / 3.0)
    return 2.0 + c / 3.0 + 4.0 / c


def adjacency_limit_gap(n_arm: int, tol: float = 1e-10) -> float:
    """sqrt(2 + sqrt(5)) minus the adjacency spectral radius of T_{1,n,n}."""
    tree = t_lmn(StarlikeSpec(1, n_arm, n_arm))
    return shearer_constant() - spectral_radius(build_matrix(tree, MatrixKind.ADJACENCY), tol)


def laplacian_limit_gap(n_arm: int, tol: float = 1e-9) -> float:
    """(2 + e) minus the Laplacian spectral radius of T_{1,n,n}."""
    tree = t_lmn(StarlikeSpec(1, n_arm, n_arm))
    return guo_constant() - spectral_radius(build_matrix(tree, MatrixKind.LAPLACIAN), tol)
