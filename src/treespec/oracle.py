"""Seeded random trees: uniform labeled trees drawn by decoding a random
Pruefer sequence."""

from __future__ import annotations

import random
from itertools import islice, repeat
from typing import TYPE_CHECKING, List

from .errors import DomainError

if TYPE_CHECKING:  # imported where it runs, so random-tree loads no tree code
    from .treediag import RootedTree


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
