"""Tree-structured symmetric matrices and congruence-based eigenvalue location.

A symmetric matrix whose sparsity graph is a tree can be reduced to a
congruent diagonal matrix in one bottom-up sweep over the vertices (the
values live on the vertices, the off-diagonal entries on the edges).  By
Sylvester's law of inertia, the signs of the final vertex values count the
eigenvalues of M - alpha*I below, at, and above zero, i.e. the eigenvalues
of M relative to the shift alpha.  Bisection over that count yields the
spectral radius or any individual eigenvalue.

One sweep function, ``_sweep``, runs over plain Python lists for both
arithmetics: float sweeps count values within a relative threshold as zero,
and matrices with integer/rational entries also support an exact-rational
sweep (``exact=True``) whose zero test is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BadIndexError, BadVertexError, DomainError, NotATreeError

Real = Union[int, float, Fraction]

#: relative zero threshold of the float sweep
SWEEP_ZERO_TOL = 1e-10

#: bisection iteration cap
MAX_BISECT = 200


class RootedTree:
    """A tree on vertices 1..n with parent links toward the root.

    ``postorder`` lists every child before its parent, root last.  Instances
    are immutable.  ``_postorder_parent`` holds the parent of each vertex of
    ``postorder``, 0 for the root; the sweep walks the two side by side.
    """

    __slots__ = ("n", "root", "_parent", "_postorder", "_children", "_postorder_parent")

    def __init__(self, parent: Dict[int, Optional[int]], postorder: Sequence[int]):
        n = len(postorder)
        if sorted(postorder) != list(range(1, n + 1)):
            raise NotATreeError("postorder must be a permutation of 1..n")
        roots = [v for v, p in parent.items() if p is None]
        if len(parent) != n or len(roots) != 1:
            raise NotATreeError("parent map must cover 1..n with a single root")
        self.n = n
        self.root = roots[0]
        self._parent = dict(parent)
        self._postorder = tuple(postorder)
        children: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
        for v, p in parent.items():
            if p is not None:
                children[p].append(v)
        self._children = {v: tuple(sorted(c)) for v, c in children.items()}
        seen = set()
        for v in self._postorder:
            for c in self._children[v]:
                if c not in seen:
                    raise NotATreeError("postorder must place children before parents")
            seen.add(v)
        self._postorder_parent = tuple(self._parent[v] or 0 for v in self._postorder)

    @property
    def postorder(self) -> Tuple[int, ...]:
        return self._postorder

    def parent(self, v: int) -> Optional[int]:
        return self._parent[v]

    def children(self, v: int) -> Tuple[int, ...]:
        return self._children[v]

    def degree(self, v: int) -> int:
        return len(self._children[v]) + (0 if self._parent[v] is None else 1)

    def edges(self) -> List[Tuple[int, int]]:
        """(child, parent) pairs, sorted by child."""
        return [(v, p) for v, p in sorted(self._parent.items()) if p is not None]

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n}, root={self.root})"


def build_tree(edges: Iterable[Tuple[int, int]], root: int) -> RootedTree:
    """Orient an undirected edge list into a RootedTree.

    The edges must form a tree on vertices 1..n (n = largest id seen);
    children are visited in ascending order, which fixes the postorder.
    """
    edge_list = list(edges)
    vertices = set()
    for e in edge_list:
        if len(e) != 2:
            raise NotATreeError(f"malformed edge {e!r}")
        u, v = e
        for w in (u, v):
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise BadVertexError(f"vertex id must be a positive integer, got {w!r}")
        if u == v:
            raise NotATreeError(f"self-loop at vertex {u}")
        vertices.add(u)
        vertices.add(v)
    n = max(vertices) if vertices else 1
    if not isinstance(root, int) or isinstance(root, bool) or not (1 <= root <= n):
        raise BadVertexError(f"root {root!r} outside 1..{n}")
    if len(edge_list) != n - 1:
        raise NotATreeError(f"a tree on {n} vertices needs {n - 1} edges, got {len(edge_list)}")
    adj: Dict[int, set] = {v: set() for v in range(1, n + 1)}
    for u, v in edge_list:
        if v in adj[u]:
            raise NotATreeError(f"duplicate edge ({u}, {v})")
        adj[u].add(v)
        adj[v].add(u)
    parent: Dict[int, Optional[int]] = {root: None}
    postorder: List[int] = []
    stack: List[Tuple[int, Iterable[int]]] = [(root, iter(sorted(adj[root])))]
    seen = {root}
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                stack.append((w, iter(sorted(adj[w]))))
                advanced = True
                break
        if not advanced:
            postorder.append(v)
            stack.pop()
    if len(seen) != n:
        raise NotATreeError("edge list is disconnected")
    return RootedTree(parent, postorder)


class MatrixKind:
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    NORMALIZED_LAPLACIAN = "normalized"

    ALL = (ADJACENCY, LAPLACIAN, NORMALIZED_LAPLACIAN)


class SymmetricTreeMatrix:
    """Symmetric matrix supported on a tree: vertex weights + edge weights.

    ``diag[v]`` is the diagonal entry of vertex v; ``edge_weight[v]`` is the
    off-diagonal entry on the edge from v to its parent (every entry off the
    tree is zero).  All edge weights must be nonzero.  The sweep reads the
    lists built here, indexed by vertex with a spare slot 0: the diagonal
    and the squared edge weights (0 at the root), as given for exact sweeps
    and as floats.
    """

    __slots__ = (
        "tree", "diag", "edge_weight", "kind", "is_rational",
        "_diag", "_diag_float", "_dmin", "_dmax", "_w2", "_w2_float",
    )

    def __init__(
        self,
        tree: RootedTree,
        diag: Dict[int, Real],
        edge_weight: Dict[int, Real],
        kind: Optional[str] = None,
    ):
        if set(diag) != set(range(1, tree.n + 1)):
            raise BadVertexError("diag must assign a value to every vertex")
        non_root = {v for v in range(1, tree.n + 1) if v != tree.root}
        if set(edge_weight) != non_root:
            raise BadVertexError("edge_weight must cover exactly the non-root vertices")
        for v, w in edge_weight.items():
            if w == 0:
                raise DomainError(f"edge weight at vertex {v} must be nonzero")
        self.tree = tree
        self.diag = dict(diag)
        self.edge_weight = dict(edge_weight)
        self.kind = kind
        self.is_rational = all(
            isinstance(x, (int, Fraction)) for x in list(diag.values()) + list(edge_weight.values())
        )
        self._diag = [0] + [diag[v] for v in range(1, tree.n + 1)]
        self._diag_float = [float(d) for d in self._diag]
        self._dmin = min(self._diag_float[1:])
        self._dmax = max(self._diag_float[1:])
        self._w2 = [0] * (tree.n + 1)
        self._w2_float = [0.0] * (tree.n + 1)
        for v, w in edge_weight.items():
            self._w2[v] = w * w
            self._w2_float[v] = float(w) * float(w)

    @property
    def n(self) -> int:
        return self.tree.n

    def dense(self) -> np.ndarray:
        """Dense float copy (for the brute-force oracle)."""
        m = np.zeros((self.n, self.n))
        for v in range(1, self.n + 1):
            m[v - 1, v - 1] = float(self.diag[v])
        for v, w in self.edge_weight.items():
            p = self.tree.parent(v)
            m[v - 1, p - 1] = float(w)
            m[p - 1, v - 1] = float(w)
        return m

    def gershgorin(self) -> Tuple[float, float]:
        """Closed interval containing every eigenvalue."""
        radius = [0.0] * (self.n + 1)
        for v, w in self.edge_weight.items():
            p = self.tree.parent(v)
            radius[v] += abs(float(w))
            radius[p] += abs(float(w))
        diag = self._diag_float
        lo = min(diag[v] - radius[v] for v in range(1, self.n + 1))
        hi = max(diag[v] + radius[v] for v in range(1, self.n + 1))
        return lo, hi


class InertiaTriple(NamedTuple):
    """Eigenvalue counts of M relative to a shift: below, equal, above."""

    below: int
    equal: int
    above: int


def build_matrix(tree: RootedTree, kind: str) -> SymmetricTreeMatrix:
    """Adjacency, Laplacian, or normalized Laplacian of a tree.

    adjacency  : diag 0, edge weights 1
    laplacian  : diag degree(v), edge weights -1
    normalized : diag 1, edge weight -1/sqrt(deg(u)*deg(v))  (float-only)
    """
    n = tree.n
    if kind == MatrixKind.ADJACENCY:
        diag: Dict[int, Real] = {v: 0 for v in range(1, n + 1)}
        weight: Dict[int, Real] = {v: 1 for v, _ in tree.edges()}
    elif kind == MatrixKind.LAPLACIAN:
        diag = {v: tree.degree(v) for v in range(1, n + 1)}
        weight = {v: -1 for v, _ in tree.edges()}
    elif kind == MatrixKind.NORMALIZED_LAPLACIAN:
        diag = {v: 1 for v in range(1, n + 1)}
        weight = {
            v: -1.0 / np.sqrt(tree.degree(v) * tree.degree(p)) for v, p in tree.edges()
        }
    else:
        raise DomainError(f"unknown matrix kind {kind!r}")
    return SymmetricTreeMatrix(tree, diag, weight, kind=kind)


def _sweep(a: List[Real], tree: RootedTree, w2: List[Real], tol: Real, two: Real) -> List[Real]:
    """One congruence sweep over ``tree``, bottom-up, in place on ``a``.

    a    : on entry the shifted diagonal m_vv - alpha at index v, on exit the
           final vertex values; index 0 is a spare slot.
    w2   : squared weight of the edge from vertex v to its parent, at index v.
    tol  : values with -tol <= a <= tol count as zero; 0 makes the test exact.
    two  : the constant 2 in the arithmetic of ``a``: 2.0 for a float sweep,
           Fraction(2) for an exact one.

    Vertices are processed in postorder.  A vertex subtracts the sum of
    w_c^2/a_c over its children, added up in postorder.  A vertex with a
    zero child instead takes the value -w^2/2 while the zero child becomes 2
    and the vertex's own parent edge is cut (it contributes nothing upward).
    Ties between several zero children go to the smallest vertex index.
    The root's parent is the spare slot 0, which takes its unused term.
    """
    acc = [two - two] * len(a)
    zero_child: Dict[int, int] = {}
    lo = -tol
    for v, p in zip(tree._postorder, tree._postorder_parent):
        if v in zero_child:
            zc = zero_child[v]
            a[v] = -w2[zc] / two
            a[zc] = two
            continue
        x = a[v] = a[v] - acc[v]
        if lo <= x <= tol:
            if p not in zero_child or v < zero_child[p]:
                zero_child[p] = v
        else:
            acc[p] += w2[v] / x
    return a


def _require_exact(m: SymmetricTreeMatrix, alpha: Real) -> Fraction:
    if not m.is_rational:
        raise DomainError("exact sweep needs a matrix with rational entries")
    if not isinstance(alpha, (int, Fraction)) or isinstance(alpha, bool):
        raise DomainError("exact sweep needs a rational shift alpha")
    return Fraction(alpha)


def _shifted_sweep(m: SymmetricTreeMatrix, alpha: Real, exact: bool) -> Tuple[List[Real], Real]:
    """Final vertex values of the sweep of M - alpha*I, and their zero threshold.

    The float threshold is SWEEP_ZERO_TOL times max(1, max_v |m_vv - alpha|);
    the largest |m_vv - alpha| sits at the smallest or the largest diagonal
    entry.
    """
    if exact:
        alpha = _require_exact(m, alpha)
        shifted, w2, tol, two = [d - alpha for d in m._diag], m._w2, 0, Fraction(2)
    else:
        alpha = float(alpha)
        scale = max(abs(m._dmax - alpha), abs(m._dmin - alpha))
        tol = SWEEP_ZERO_TOL * max(1.0, scale)
        shifted, w2, two = [d - alpha for d in m._diag_float], m._w2_float, 2.0
    return _sweep(shifted, m.tree, w2, tol, two)[1:], tol


def diagonalize(m: SymmetricTreeMatrix, alpha: Real, exact: bool = False) -> Dict[int, Real]:
    """Final vertex values of the congruence sweep of M - alpha*I.

    The sign pattern of the returned values carries the inertia.  The sweep
    initializes every vertex to m_vv - alpha and processes vertices in
    postorder: a vertex with all (remaining) children nonzero subtracts
    sum(w_c^2 / a_c); a vertex with a zero child v_j instead becomes
    -w_j^2/2 while a(v_j) becomes 2 and the vertex's own parent edge is cut.
    Exact sweeps return Fraction values, float sweeps floats.
    """
    values, _ = _shifted_sweep(m, alpha, exact)
    return dict(enumerate(values, start=1))


def locate(m: SymmetricTreeMatrix, alpha: Real, exact: bool = False) -> InertiaTriple:
    """Counts of eigenvalues of M below / equal to / above alpha."""
    values, tol = _shifted_sweep(m, alpha, exact)
    lo = -tol
    below = equal = 0
    for x in values:
        if x < lo:
            below += 1
        elif x <= tol:
            equal += 1
    return InertiaTriple(below, equal, m.n - below - equal)


def _bisect(m: SymmetricTreeMatrix, tol: float, predicate) -> float:
    if tol <= 0:
        raise DomainError("tol must be positive")
    lo, hi = m.gershgorin()
    for _ in range(MAX_BISECT):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def spectral_radius(m: SymmetricTreeMatrix, tol: float = 1e-10) -> float:
    """Largest eigenvalue, within tol, by bisection on the above-count."""
    return _bisect(m, tol, lambda mid: locate(m, mid).above == 0)


def kth_eigenvalue(m: SymmetricTreeMatrix, k: int, tol: float = 1e-10) -> float:
    """k-th smallest eigenvalue (1-based), within tol, by bisection."""
    if not (1 <= k <= m.n):
        raise BadIndexError(f"k must lie in 1..{m.n}, got {k}")
    return _bisect(m, tol, lambda mid: locate(m, mid).below >= k)


def parse_tree_file(text: str, root: Optional[int] = None) -> RootedTree:
    """Tree from the text format: one "u v" edge per line, optional "root k".

    Blank lines and lines starting with "#" are ignored.  An explicit
    ``root`` argument wins over a root line; with neither, the root is the
    largest vertex id.
    """
    edges: List[Tuple[int, int]] = []
    file_root: Optional[int] = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0].lower() == "root":
            if len(parts) != 2:
                raise NotATreeError(f"line {ln}: expected 'root k'")
            file_root = _parse_vertex(parts[1], ln)
            continue
        if len(parts) != 2:
            raise NotATreeError(f"line {ln}: expected 'u v', got {raw!r}")
        edges.append((_parse_vertex(parts[0], ln), _parse_vertex(parts[1], ln)))
    if not edges and file_root is None and root is None:
        raise NotATreeError("empty tree file")
    n = max(max(e) for e in edges) if edges else 1
    chosen = root if root is not None else (file_root if file_root is not None else n)
    return build_tree(edges, chosen)


def _parse_vertex(token: str, ln: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise BadVertexError(f"line {ln}: bad vertex id {token!r}") from None
    if value < 1:
        raise BadVertexError(f"line {ln}: vertex ids are 1-based, got {value}")
    return value
