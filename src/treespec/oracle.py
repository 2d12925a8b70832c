"""Dense spectral reference and seeded random trees for property tests.

The dense spectra come from LAPACK's symmetric eigensolver
(``numpy.linalg.eigvalsh``), which shares nothing with the congruence
sweep it is used to check.  NumPy is imported when a spectrum is asked
for, so importing this module does not import it.  Random labeled trees
are drawn uniformly by decoding a random Pruefer sequence.
"""

from __future__ import annotations

import random
from itertools import islice, repeat
from math import inf
from typing import TYPE_CHECKING, List, NamedTuple, Tuple

from .errors import DomainError, SizeLimitError

if TYPE_CHECKING:  # imported where it runs, so random-tree loads no tree code
    from .treediag import RootedTree, SymmetricTreeMatrix

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
    """Uniformly random labeled tree on 1..n, rooted at n: ``random_parents`` oriented."""
    from .treediag import build_tree

    parent = random_parents(n, seed)
    return build_tree(enumerate(parent[1:n], 1), root=n)


def random_parents(n: int, seed: int) -> List[int]:
    """Parent list of a uniformly random labeled tree on 1..n rooted at n.

    The Pruefer sequence is drawn as n-2 independent
    ``random.Random(seed).randrange(1, n + 1)`` values and decoded
    smallest-leaf-first, so (n, seed) fully determines the tree.  Slot v
    holds the parent of v; slot 0 and the root's slot hold 0.
    """
    if n < 1:
        raise DomainError("n must be positive")
    # randrange(1, n + 1) is 1 plus the first getrandbits(k) below n, k = n.bit_length();
    # drawn in C here, the same stream (the generator is not used afterwards)
    rng = random.Random(seed)
    draws = filter(n.__gt__, map(rng.getrandbits, repeat(n.bit_length())))
    return _prufer_parents([s + 1 for s in islice(draws, max(n - 2, 0))], n)


def _prufer_parents(seq: List[int], n: int) -> List[int]:
    """Decode a Pruefer sequence of n-2 values in 1..n in O(n).

    Each removed leaf's partner is its parent in the tree rooted at n.  The
    next leaf is the partner when it has just become a leaf below the scan
    pointer ``ptr`` (every smaller vertex is removed or inner), else the
    first degree-1 vertex past ``ptr``; a removed leaf never lies past it.
    """
    degree = [1] * (n + 1)
    for s in seq:
        degree[s] += 1
    parent = [0] * (n + 1)
    ptr = leaf = degree.index(1, 1)
    for s in seq:
        parent[leaf] = s
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr = leaf = degree.index(1, ptr + 1)
    if n > 1:
        parent[leaf] = n
    return parent
