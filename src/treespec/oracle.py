"""Brute-force spectral reference and seeded random trees for property tests.

The dense eigensolver is a cyclic Jacobi rotation scheme written out in
Python, fully independent of the congruence sweep it is used to check.
It imports NumPy when called, so importing this module does not.
Random labeled trees are drawn uniformly by decoding a random Pruefer
sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush, heapify
from math import inf
from typing import TYPE_CHECKING, List, Tuple

from .errors import DomainError, SizeLimitError
from .treediag import RootedTree, SymmetricTreeMatrix, build_tree

if TYPE_CHECKING:
    import numpy as np

#: dense_spectrum refuses larger instances (misuse guard)
SIZE_LIMIT = 64

#: default eigenvalue tolerance of the oracle
DEFAULT_TOL = 1e-10

_MAX_SWEEPS = 100


@dataclass(frozen=True)
class DenseSpectrum:
    """All eigenvalues of a small symmetric matrix, ascending."""

    eigenvalues: Tuple[float, ...]
    tolerance: float


def dense_spectrum(m: SymmetricTreeMatrix, tol: float = DEFAULT_TOL) -> DenseSpectrum:
    """Every eigenvalue of the dense matrix within tol, ascending.

    Cyclic Jacobi sweeps stop once the off-diagonal Frobenius norm is at
    most tol/2, which bounds each eigenvalue error by tol/2.
    """
    if m.n > SIZE_LIMIT:
        raise SizeLimitError(f"dense oracle limited to n <= {SIZE_LIMIT}, got {m.n}")
    if not tol > 0 or tol == inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    values, converged = jacobi_eigenvalues(m.dense(), 0.5 * tol, _MAX_SWEEPS)
    if not converged:  # pragma: no cover - quadratic convergence, n <= 64
        raise RuntimeError("Jacobi iteration failed to converge")
    return DenseSpectrum(eigenvalues=tuple(float(v) for v in values), tolerance=tol)


def jacobi_eigenvalues(mat: np.ndarray, off_tol: float, max_sweeps: int) -> Tuple[np.ndarray, bool]:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    ``mat`` is destroyed.  Sweeps run until the off-diagonal Frobenius norm
    drops to ``off_tol`` (which bounds every eigenvalue error) or
    ``max_sweeps`` is exhausted.  Returns (eigenvalues ascending, converged).
    """
    import numpy as np

    n = mat.shape[0]
    converged = False
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                off += 2.0 * mat[i, j] * mat[i, j]
        if np.sqrt(off) <= off_tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = mat[p, q]
                if apq == 0.0:
                    continue
                tau = (mat[q, q] - mat[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                app = mat[p, p]
                aqq = mat[q, q]
                mat[p, p] = app - t * apq
                mat[q, q] = aqq + t * apq
                mat[p, q] = 0.0
                mat[q, p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        akp = mat[k, p]
                        akq = mat[k, q]
                        mat[k, p] = c * akp - s * akq
                        mat[p, k] = mat[k, p]
                        mat[k, q] = s * akp + c * akq
                        mat[q, k] = mat[k, q]
    if n <= 1:
        converged = True
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        out[i] = mat[i, i]
    return np.sort(out), converged


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
