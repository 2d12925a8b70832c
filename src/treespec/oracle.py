"""Dense spectral reference and seeded random trees for property tests.

The dense spectra come from LAPACK's symmetric eigensolver
(``numpy.linalg.eigvalsh``), which shares nothing with the congruence
sweep it is used to check.  NumPy is imported when a spectrum is asked
for, so importing this module does not import it.  Random labeled trees
are drawn uniformly by decoding a random Pruefer sequence.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush, heapify
from math import inf
from typing import List, NamedTuple, Tuple

from .errors import DomainError, SizeLimitError
from .treediag import RootedTree, SymmetricTreeMatrix, build_tree

#: dense_spectrum refuses larger instances (misuse guard)
SIZE_LIMIT = 512

#: default eigenvalue tolerance of the oracle
DEFAULT_TOL = 1e-10


class DenseSpectrum(NamedTuple):
    """All eigenvalues of a small symmetric matrix, ascending."""

    eigenvalues: Tuple[float, ...]
    tolerance: float


def dense_spectrum(m: SymmetricTreeMatrix, tol: float = DEFAULT_TOL) -> DenseSpectrum:
    """Every eigenvalue of the dense matrix within tol, ascending.

    ``numpy.linalg.eigvalsh`` computes each eigenvalue to within
    n*u*||M||_2 with u = 2**-53 (LAPACK Users' Guide, section 4.7, taking
    p(n) = n).  The bound uses g = max(|lo|, |hi|) of ``m.gershgorin()``,
    which is at least ||M||_2, and a tol below n*u*g is refused.
    """
    if m.n > SIZE_LIMIT:
        raise SizeLimitError(f"dense oracle limited to n <= {SIZE_LIMIT}, got {m.n}")
    if not tol > 0 or tol == inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    lo, hi = m.gershgorin()
    bound = m.n * 2.0**-53 * max(abs(lo), abs(hi))
    if tol < bound:
        raise DomainError(f"tol {tol!r} is below the LAPACK error bound n*u*||M|| = {bound!r}")
    import numpy as np

    values = np.linalg.eigvalsh(m.dense())
    return DenseSpectrum(eigenvalues=tuple(float(v) for v in values), tolerance=tol)


def random_tree(n: int, seed: int) -> RootedTree:
    """Uniformly random labeled tree on 1..n, rooted at n.

    The Pruefer sequence is drawn as n-2 independent
    ``random.Random(seed).randrange(1, n + 1)`` values and decoded
    smallest-leaf-first, so (n, seed) fully determines the tree.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if n == 1:
        return build_tree([], root=1)
    if n == 2:
        return build_tree([(1, 2)], root=2)
    rng = random.Random(seed)
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    return build_tree(_prufer_to_edges(seq, n), root=n)


def _prufer_to_edges(seq: List[int], n: int) -> List[Tuple[int, int]]:
    degree = [1] * (n + 1)
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapify(leaves)
    edges: List[Tuple[int, int]] = []
    for s in seq:
        leaf = heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heappush(leaves, s)
    u = heappop(leaves)
    v = heappop(leaves)
    edges.append((u, v))
    return edges
