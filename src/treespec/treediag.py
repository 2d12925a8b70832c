"""Tree-structured symmetric matrices and congruence-based eigenvalue location.

A symmetric matrix whose sparsity graph is a tree can be reduced to a
congruent diagonal matrix in one bottom-up sweep over the vertices (the
values live on the vertices, the off-diagonal entries on the edges).  By
Sylvester's law of inertia, the signs of the final vertex values count the
eigenvalues of M - alpha*I below, at, and above zero, i.e. the eigenvalues
of M relative to the shift alpha.  Bisection over that count yields the
spectral radius or any individual eigenvalue.

One sweep function, ``_sweep``, runs over plain Python lists for both
arithmetics: float sweeps count values within a relative threshold as zero
(bisection's within ``pivmin``), and matrices with integer/rational entries
also support an exact-rational sweep (``exact=True``) with an exact zero
test.  ``_exact_counts`` (exact ``locate``, the double broom's split) runs a
float sweep with a certified error bound per vertex, and the exact sweep
only when that bound leaves a sign in doubt.  Each bisection builds one
program of its matrix once: the tree without its leaves, which fold into
their parents when they share a diagonal entry, and the chains of what is
left (runs of one-child vertices with equal entries).  Its float sweeps
step only that inner tree and take each chain in one step with the closed
form of ``chain_orbit``.
"""

from __future__ import annotations

import gc
import math
import re
import sys
from fractions import Fraction
from math import inf, isfinite, sqrt
from operator import add, eq, itemgetter, sub
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import BadIndexError, BadVertexError, DomainError, NotATreeError

Real = Union[int, float, Fraction]

#: relative zero threshold of float ``locate`` and ``diagonalize``
SWEEP_ZERO_TOL = 1e-10

#: shortest chain that bisection sweeps in closed form; shorter ones are stepped
MIN_CHAIN = 16


class RootedTree:
    """A tree on vertices 1..n with parent links toward the root.

    Like the entries of ``SymmetricTreeMatrix``, its data are read-only
    tuples indexed by vertex with slot 0 spare: ``parent[v]`` is the parent
    of v (0 at the root and in slot 0) and ``degree[v]`` its degree (0 in
    slot 0).  ``postorder`` lists every child before its parent, children in
    ascending order, root last; ``_postorder_parent`` holds the parent of
    each vertex of ``postorder``, and the sweep walks the two side by side.
    Build instances with ``build_tree``; they are immutable.
    """

    __slots__ = ("n", "root", "parent", "degree", "postorder", "_postorder_parent")

    def __init__(self, root: int, parent: List[int], degree: List[int], postorder: List[int]):
        self.n = len(postorder)
        self.root = root
        self.parent = tuple(parent)
        self.degree = tuple(degree)
        self.postorder = tuple(postorder)
        self._postorder_parent = tuple(map(parent.__getitem__, postorder))

    def edges(self) -> List[Tuple[int, int]]:
        """(child, parent) pairs, sorted by child."""
        return [(v, p) for v, p in enumerate(self.parent) if p]

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n}, root={self.root})"


def build_tree(edges: Iterable[Tuple[int, int]], root: int) -> RootedTree:
    """Orient an undirected edge list into a RootedTree.

    The edges must form a tree on vertices 1..n (n = largest id seen);
    children are visited in ascending order, which fixes the postorder.
    """
    edge_list = list(edges)
    if set(map(len, edge_list)) - {2}:
        _check_edges(edge_list)
    return _orient(list(map(itemgetter(0), edge_list)), list(map(itemgetter(1), edge_list)), root)


def _check_edges(edges: Iterable[Tuple[int, int]]) -> None:
    """Raise the error of the first malformed edge, bad vertex id or self-loop."""
    for e in edges:
        if len(e) != 2:
            raise NotATreeError(f"malformed edge {e!r}")
        u, v = e
        for w in (u, v):
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise BadVertexError(f"vertex id must be a positive integer, got {w!r}")
        if u == v:
            raise NotATreeError(f"self-loop at vertex {u}")


def _orient(us: List[int], vs: List[int], root: int) -> RootedTree:
    """``build_tree`` of the edges (us[i], vs[i]); ``_check_edges`` runs only to name a bad one.

    A degree is the length of a neighbour list; the tree keeps no list."""
    ids = us + vs
    if set(map(type, ids)) - {int} or min(ids, default=1) < 1 or any(map(eq, us, vs)):
        _check_edges(zip(us, vs))
    n = max(ids, default=1)
    del ids  # 2n references that the walk does not need
    if not isinstance(root, int) or isinstance(root, bool) or not (1 <= root <= n):
        raise BadVertexError(f"root {root!r} outside 1..{n}")
    if len(us) != n - 1:
        raise NotATreeError(f"a tree on {n} vertices needs {n - 1} edges, got {len(us)}")
    enabled = gc.isenabled()
    gc.disable()  # n + 1 new lists would set off full collections that find no garbage
    children: List[List[int]] = [[] for _ in range(n + 1)]
    if enabled:
        gc.enable()
    for u, v in zip(us, vs):
        children[u].append(v)
        children[v].append(u)
    degree = list(map(len, children))
    # preorder by a stack that pops the largest child first; its reverse is
    # the postorder with children visited in ascending order.  Each
    # neighbour list loses the parent and is sorted in place as it is popped.
    parent = [-1] * (n + 1)
    parent[root] = 0
    order: List[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        kids = children[v]
        if parent[v]:
            kids.remove(parent[v])
        kids.sort()
        for w in kids:
            if parent[w] >= 0:  # n - 1 edges with a cycle: a repeat, or a part unreached
                raise NotATreeError(
                    f"duplicate edge ({v}, {w})" if parent[w] == v else "edge list is disconnected"
                )
            parent[w] = v
        stack += kids
    del children, kids  # n + 1 lists that the tree does not keep
    if len(order) != n:
        raise NotATreeError("edge list is disconnected")
    parent[0] = 0
    order.reverse()
    return RootedTree(root, parent, degree, order)


class MatrixKind:
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    NORMALIZED_LAPLACIAN = "normalized"

    ALL = (ADJACENCY, LAPLACIAN, NORMALIZED_LAPLACIAN)


class SymmetricTreeMatrix:
    """Symmetric matrix supported on a tree: vertex weights + edge weights.

    ``diag`` and ``edge_weight`` are read-only tuples of n + 1 entries,
    indexed by vertex with slot 0 spare, kept as given: ``diag[v]`` is the
    diagonal entry of vertex v, ``edge_weight[v]`` the off-diagonal entry on
    the edge from v to its parent, nonzero but at the root and slot 0, where
    it is 0 (every entry off the tree is zero).  The sweeps also read the
    squared edge weights.  ``is_rational`` holds when every entry is an int
    or a Fraction, none a float; exact sweeps need it.  A matrix with a float
    entry is swept only in floats, so its other entries must lie in the float
    range.  Instances are immutable.
    """

    __slots__ = ("tree", "diag", "edge_weight", "is_rational", "_w2", "_dmin", "_dmax")

    def __init__(self, tree: RootedTree, diag: Sequence[Real], edge_weight: Sequence[Real]):
        root, size = tree.root, tree.n + 1
        self.tree = tree
        self.diag = diag = tuple(diag)
        self.edge_weight = weight = tuple(edge_weight)
        if len(diag) != size or len(weight) != size:
            raise BadVertexError(f"diag and edge_weight need n + 1 = {size} entries, slot 0 spare; "
                                 f"got {len(diag)} and {len(weight)}")
        if weight[0] or weight[root]:
            raise BadVertexError(f"edge_weight must be 0 in slot 0 and at the root {root}")
        if not (all(weight[1:root]) and all(weight[root + 1:])):
            v = next(v for v in range(1, size) if v != root and not weight[v])
            raise DomainError(f"edge weight at vertex {v} must be nonzero")
        entries = diag[1:]
        self._w2 = w2 = [w * w for w in weight]
        self._dmin, self._dmax = min(entries), max(entries)
        try:
            # a sum is a float when a term is, and not finite when a float term is not (or it overflows)
            dsum, wsum = sum(entries), sum(w2)
            self.is_rational = isinstance(dsum, (int, Fraction)) and isinstance(wsum, (int, Fraction))
            if not self.is_rational:  # swept in floats only: each entry must convert, and the
                float(self._dmin), float(self._dmax), float(wsum)  # extremes and the sum of w^2 >= 0 bound them
        except OverflowError:  # among floats: an int or Fraction beyond the float range, or an exact sum
            v = next((v for v in range(1, size) if max(abs(diag[v]), w2[v]) > sys.float_info.max), None)
            if v is not None:
                raise DomainError(f"entry at vertex {v} is beyond the float range among float entries") from None
            dsum, wsum, self.is_rational = sum(map(float, entries)), sum(map(float, w2)), False
        if isinstance(dsum, float) and not isfinite(dsum):
            for v, x in enumerate(entries, start=1):
                if isinstance(x, float) and not isfinite(x):
                    raise DomainError(f"diagonal entry at vertex {v} is not finite: {x!r}")
        if isinstance(wsum, float) and not isfinite(wsum):  # the sweeps divide w^2
            for v, w in enumerate(weight):
                if isinstance(w, float) and not isfinite(w * w):
                    raise DomainError(f"edge weight at vertex {v} is not finite when squared: {w!r}")

    @property
    def n(self) -> int:
        return self.tree.n

    def gershgorin(self) -> Tuple[float, float]:
        """Closed interval containing every eigenvalue."""
        radius = [0.0] * (self.n + 1)
        for v, (p, w) in enumerate(zip(self.tree.parent, map(abs, map(float, self.edge_weight)))):
            radius[v] += w  # each edge at both ends, in the order of its child; the root adds 0.0
            radius[p] += w
        diag, radius = self.diag[1:], radius[1:]
        return min(map(sub, diag, radius)), max(map(add, diag, radius))


class InertiaTriple(NamedTuple):
    """Eigenvalue counts of M relative to a shift: below, equal, above."""

    below: int
    equal: int
    above: int


def build_matrix(tree: RootedTree, kind: str) -> SymmetricTreeMatrix:
    """Adjacency, Laplacian, or normalized Laplacian of a tree.

    adjacency  : diag 0, edge weights 1
    laplacian  : diag degree(v), edge weights -1
    normalized : diag 1, edge weight -1/sqrt(deg(u)*deg(v))  (float weights)
    """
    size = tree.n + 1
    if kind == MatrixKind.ADJACENCY:
        diag: List[Real] = [0] * size
        weight: List[Real] = [1] * size
    elif kind == MatrixKind.LAPLACIAN:
        diag, weight = tree.degree, [-1] * size
    elif kind == MatrixKind.NORMALIZED_LAPLACIAN:
        deg = tree.degree
        diag = [1] * size
        weight = [-1.0 / sqrt(deg[v] * deg[p]) if p else 0 for v, p in enumerate(tree.parent)]
    else:
        raise DomainError(f"unknown matrix kind {kind!r}")
    weight[0] = weight[tree.root] = 0
    return SymmetricTreeMatrix(tree, diag, weight)


def _sweep(m: SymmetricTreeMatrix, alpha: Real, exact: bool, program: Optional[_BisectionProgram] = None,
           pivmin: Optional[float] = None) -> Tuple[List[Real], InertiaTriple]:
    """One congruence sweep of M - alpha*I, bottom-up, and its inertia.

    alpha  : the shift; each vertex starts at m_vv - alpha.
    exact  : sweep a rational M and alpha in Fractions, with tol = 0; else
             in floats, with tol = pivmin, or without it SWEEP_ZERO_TOL *
             max(1, max_v |m_vv - alpha|), at the smallest or the largest
             m_vv.  Both read the same lists: in a float sweep each entry
             is rounded to float where it first meets a float operand.
    program: the ``_bisection_program`` of M, read by float sweeps only;
             None steps every vertex.
    pivmin : bisection's zero bound, LAPACK dstebz's PIVMIN
             2^-1022 max(1, max w^2) times K, the largest degree.

    Vertices are processed in postorder.  A vertex subtracts the sum of
    w_c^2/a_c over its children, added up in postorder.  A vertex with a
    zero child instead takes the value -w^2/2 while the zero child becomes 2
    and the vertex's own parent edge is cut (it contributes nothing upward).
    Ties between several zero children go to the smallest vertex index.
    The root's parent is the spare slot 0, which takes its unused term.
    With a program and x_leaf = d_leaf - alpha outside [-tol, tol], the
    leaves are counted by the sign of x_leaf, each host starts its child sum
    at S_v / x_leaf, and only the program's order is stepped; the leaves
    keep no value.  (Within [-tol, tol] every leaf is zero, and every vertex
    is stepped.)  Above a chain bottom that took no zero-child branch,
    ``chain_orbit`` gives the chain's top value and the signs below it at
    once; the next segment, the chain's vertices u_1 .. u_L, is skipped,
    and they keep no value, only their count.  A zero bottom becomes 2 and
    u_1 -s/2 by the zero-child branch, which cuts u_2 off from u_1, so
    the orbit starts afresh at u_2.  Otherwise, and when the closed form is
    in doubt or its top value is a zero, that segment is stepped like any
    other.
      Bisection passes pivmin.  A value that divides then exceeds
    2^-1022 max(1, max w^2) K, so each term w^2/x is below 2^1022/K, a
    vertex's sum of at most K terms below 2^1022, and every value finite
    while each |d_v - alpha| < 2^1023; with x == 0 as the test, a subnormal
    x divides to inf, and two such children of opposite sign give nan.  A
    value within pivmin counted as zero moves one diagonal entry by at most
    pivmin, and with each rounding pushed into an entry (Kahan's argument
    for Sturm counts) the counts are the exact inertia of a nearby matrix.

    Returns the values (index v, slot 0 spare and 0) and the counts of final
    values below -tol, within [-tol, tol] and above tol.
    """
    if exact:
        alpha = _require_exact(m, alpha)
        tol, two, program = 0, Fraction(2), None
    else:
        two = 2.0
    order, parents = m.tree.postorder, m.tree._postorder_parent
    d, w2 = m.diag, m._w2
    a = [two - two] * len(d)  # the child sum of v, until v's value replaces it
    zero_child: Dict[int, int] = {}
    below = zeros = 0
    segments = [(0, len(order), None)]
    try:  # only a float sweep converts, and only an int or Fraction beyond the float range fails
        if not exact:
            alpha = float(alpha)
            if not isfinite(alpha):
                raise DomainError(f"shift alpha must be finite, got {alpha!r}")
            tol = SWEEP_ZERO_TOL * max(1.0, abs(m._dmax - alpha), abs(m._dmin - alpha)) if pivmin is None else pivmin
            if program is not None:
                x_leaf = program.leaf_diag - alpha
                if not -tol <= x_leaf <= tol:
                    order, parents, segments = program.order, program.parents, program.segments
                    for v, s in zip(program.hosts, program.sums):
                        a[v] = s / x_leaf
                    if x_leaf < 0:
                        below = program.leaves
        lo = -tol
        segments = iter(segments)
        for start, stop, chain in segments:
            for v, p in zip(order[start:stop], parents[start:stop]):
                if v in zero_child:
                    zc = zero_child[v]
                    a[zc] = two
                    x = a[v] = -w2[zc] / two
                    zeros -= two > tol
                    if x < lo:
                        below += 1
                    else:
                        zeros += 1
                    continue
                x = a[v] = d[v] - alpha - a[v]
                if lo <= x <= tol:
                    zeros += 1
                    if p not in zero_child or v < zero_child[p]:
                        zero_child[p] = v
                    continue
                if x < lo:
                    below += 1
                a[p] += w2[v] / x
            bottom = order[stop - 1]
            if chain is None or bottom in zero_child:
                continue
            length, cd, cs, s, top, top_parent = chain
            shifted, leaf_term = cd - alpha, cs / x_leaf
            ca, x0 = shifted - leaf_term, a[bottom]  # the chain maps x -> ca - s/x, from x0
            cut = lo <= x0 <= tol
            if cut:  # u_1 takes the zero-child branch, and u_2, cut off from it, starts afresh at ca
                x0, length = ca, length - 2
                if length < 1 or lo <= x0 <= tol:
                    continue
            # what ca carries besides its last rounding, derived in chain_orbit's docstring
            error = 2.0**-52 * (abs(shifted) + (program.leaves + 2) * abs(leaf_term)) if cs else 0.0
            orbit = chain_orbit(ca, s, x0, length, error)
            if orbit is not None and not lo <= orbit[0] <= tol:
                next(segments)  # the chain's vertices
                if cut:  # counted as stepped: the bottom becomes 2, u_1 -s/2, and u_2 is x0
                    a[bottom] = two
                    zeros += (-s / two >= lo) - (two > tol)
                    below += (-s / two < lo) + (x0 < lo)
                x = a[top] = orbit[0]
                below += orbit[1] + (x < lo)
                a[top_parent] += w2[top] / x
    except OverflowError:  # alpha is still an int or Fraction if it is the one beyond the range
        culprit = "an entry" if isinstance(alpha, float) else "the shift alpha"
        raise DomainError(f"{culprit} is beyond the float range: sweep the rational matrix exactly") from None
    return a, InertiaTriple(below, zeros, len(d) - 1 - below - zeros)


def _clear_floor(f: float, margin: float) -> Optional[int]:
    """floor(f) when no integer lies in [f - margin, f + margin], else None."""
    k = math.floor(f + margin)
    return k if k < math.ceil(f - margin) else None


def chain_orbit(a: float, s: float, x0: float, length: int, error: float = 0.0) -> Optional[Tuple[float, int]]:
    """x_L of x_j = a - s/x_{j-1} from x_0 = x0, and how many of x_1 .. x_{L-1} are negative.

    This is ``recurrence``'s phi with alpha = a and gamma = -s < 0, in O(1) for
    L = length >= 1; None when the float evaluation cannot be trusted.  The
    counts are those of the exact orbit from x0 of every a*, s* with
    |a - a*| <= u|a| + error and |s - s*| <= u s, u = 2^-53: a and s round
    them, and ``error`` bounds what a carries besides its own rounding (0
    when a = fl(d - alpha)).  Each operation errs by at most u relative,
    each libm call by one ulp <= 2u|result|.  Every relative error below is
    required to be at most 2^-10, so the first-order terms, summed and
    doubled, bound the whole error.
      The sweep's chains with leaf children pass a = fl(A - B), where
    A = fl(d - alpha), B = fl(S/x_leaf), x_leaf = fl(d_leaf - alpha) and S
    sums the k squared weights of a chain vertex's leaf children.  With K
    leaves in the tree, S errs by at most K u S: each float w^2 by u and
    the k - 1 float additions by (k - 1)u; an int or Fraction sum is exact
    and rounds once in the division.  So B errs from its exact value by
    (K + 2)u|B|, A by u|A|, and error = 2u(|A| + (K + 2)|B|).

    Oscillating family (a^2 < 4s).  With rho = sqrt(s), a = 2 rho cos(phi),
    phi in (0, pi), and omega such that x0 = rho sin(omega)/sin(omega - phi),
    x_j = rho sin(theta_j)/sin(theta_{j-1}) with theta_j = j phi + omega.
    x_j < 0 exactly when (theta_{j-1}, theta_j] holds a multiple of pi, so
    x_1 .. x_L hold floor(theta_L/pi) - floor(omega/pi) negative terms: the
    sign is constant between consecutive zeros and poles.
      D = (2rho - |a|)(2rho + |a|) = (2 rho sin phi)^2 is computed without
    cancellation.  Each factor errs by u(2rho + |a| + factor) + error
    <= 8u rho + error, so D by eps_D = (32u rho^2 + 4 rho error)/D + u
    (required <= 2^-10).  With delta = error/rho, y = sqrt(D) errs by
    eps_D/2 + u/2 <= (4u + delta/2)/sin^2 + u and a by u + error/|a|.
    atan2(y, a) moves by at most |ay|/(a^2 + y^2) (eps_a + eps_y)
    = |cos(phi)| sin(phi) (eps_a + eps_y), plus its ulp: |dphi|
    <= (13u + delta)/sin(phi).  omega = atan2(Y, X), Y = x0 sin(phi),
    X = x0 cos(phi) - rho: |dY|, |dX| - u rho - u|X| <= |x0| (|dphi| + 3u),
    and |X + iY| >= max(|x0|, rho) sin(phi), so |domega| <= (|dX| + |dY|)
    / |X + iY| + 2 pi u <= (41u + 2 delta)/sin^2(phi).  theta_L
    = L phi + omega and theta_{L-1} = theta_L - phi err by at most
    (L + 1)|dphi| + |domega| + u(L phi + |theta_L| + |theta_{L-1}|)
    <= 24Lu/sin + 64u/sin^2 + ((L + 1)/sin + 2/sin^2) delta =: E,
    and f = theta/pi by E/pi + 2u|f| (pi's rounding, the division); the
    window's ends f +- m round by u|f + m|.  So m = 2(E/pi + 4u|f|) for
    theta_L and theta_{L-1}, whose floors certify the signs of
    x_1 .. x_{L-1} and of x_L, and omega gets the same with
    E = (41u + 2 delta)/sin^2.
    Real fixed points (a^2 > 4s).  r1 = (a + sign(a) sqrt(a^2 - 4s))/2 and
    r2 = s/r1 share a's sign, |r2| < |r1|, and z = (x - r1)/(x - r2) obeys
    z_j = q^j z_0 with q = r2/r1 in (0, 1) (Moebius conjugacy).  x_j has the
    sign opposite to a exactly when z_j lies in (1, 1/q), a fundamental
    domain of z -> qz, so at most one term changes side: x_j for j in
    (t - 1, t) with t = log(z_0)/lam, lam = log(1/q), when z_0 > 0; x_j = 0
    at j = t - 1 and has a pole at j = t.  Only t near 1 .. L + 1 matters.
      With p = |a| - 2rho and P = |a| + 2rho, p P errs by
    (2uP + 2 error)/p + 3u (error moves p and P) and its root by
    eta = (uP + error)/p + 2u (required <= 2^-10); a errs by
    u + error/|a| <= eta, so r1 by eta + u, r2 by
    eta + 3u, y = sqrt(pP)/|r2| by 2eta + 4u and lam = log1p(y) by
    2eta + 6u, all relative.  x0 - r1 and x0 - r2 err by
    e1 = (eta + u)|r1|/|x0 - r1| + u and e2 = (eta + 3u)|r2|/|x0 - r2| + u
    (each required <= 1/2, where |log(1 + e)| <= 2|e|), so log(z_0) errs by
    2(e1 + e2 + u) + 2u|log z_0| and t by E = that/lam + |t|(2eta + 7u);
    m = 2(E + 2u|t|).  None where r2 underflows to 0.

    In both families floor(f) is trusted when [f - m, f + m] holds no
    integer, so x_L is nonzero in every such orbit.  The exact sweep's
    zero-child branch replaces a zero x_j by 2 and x_{j+1} by -s/2, the
    signs of x_j = 0+- and x_{j+1} = -+inf, so a zero inside the chain
    leaves the counts of the exact orbit.
    """
    u, rho = 2.0**-53, math.sqrt(s)
    big, small = 2 * rho + abs(a), 2 * rho - abs(a)
    if small > 0:
        d = small * big
        if 32 * u * s + 4 * rho * error > 2.0**-10 * d:
            return None
        y = math.sqrt(d)
        phi = math.atan2(y, a)
        sin = y / (2 * rho)
        omega = math.atan2(x0 * math.sin(phi), x0 * math.cos(phi) - rho)
        theta = length * phi + omega
        f0, f1, f2 = omega / math.pi, (theta - phi) / math.pi, theta / math.pi
        delta = error / rho
        e = (24 * length * u / sin + 64 * u / (sin * sin) + ((length + 1) / sin + 2 / (sin * sin)) * delta) / math.pi
        k0 = _clear_floor(f0, 2 * ((41 * u + 2 * delta) / (sin * sin) / math.pi + 4 * u * abs(f0)))
        k1 = _clear_floor(f1, 2 * (e + 4 * u * abs(f1)))
        k2 = _clear_floor(f2, 2 * (e + 4 * u * abs(f2)))
        if k0 is None or k1 is None or k2 is None:
            return None
        return rho * math.sin(theta) / math.sin(theta - phi), k1 - k0
    if small == 0 or u * big + error > 2.0**-11 * -small:  # eta > 2^-10, or a^2 = 4s
        return None
    eta = (u * big + error) / -small + 2 * u
    root = math.sqrt(-small * big)
    r1 = math.copysign((abs(a) + root) / 2, a)
    r2 = s / r1
    if x0 == r1 or x0 == r2 or not r2:
        return None
    e1 = (eta + u) * abs(r1 / (x0 - r1)) + u
    e2 = (eta + 3 * u) * abs(r2 / (x0 - r2)) + u
    if not (e1 <= 0.5 and e2 <= 0.5):
        return None
    lam = math.log1p(root / abs(r2))
    z0 = (x0 - r1) / (x0 - r2)
    flip = 0
    if z0 > 0:
        log_z = math.log(z0)
        t = log_z / lam
        err = (2 * (e1 + e2 + u) + 2 * u * abs(log_z)) / lam + abs(t) * (2 * eta + 7 * u)
        m = 2 * (err + 2 * u * abs(t))
        if 1 - m <= t <= length + 1 + m:
            k = _clear_floor(t, m)
            if k is None:
                return None
            flip = 1 <= k <= length
    z = z0 * math.exp(-length * lam)
    end = (r1 - r2 * z) / (1 - z)
    negatives = flip if a > 0 else length - flip
    return end, negatives - (end < 0)


class _BisectionProgram(NamedTuple):
    """What the float sweeps of one bisection step; see ``_bisection_program``."""

    leaf_diag: Real  # the diagonal entry that every leaf shares
    leaves: int  # how many leaves fold
    order: Tuple[int, ...]  # the postorder without its leaves
    parents: Tuple[int, ...]  # the parent of each vertex of order
    hosts: Tuple[int, ...]  # the vertices with leaf children, in postorder
    sums: Tuple[Real, ...]  # S_v of each host
    segments: List[tuple]  # (start, stop, chain) over order


def _bisection_program(m: SymmetricTreeMatrix) -> Optional[_BisectionProgram]:
    """M's inner tree, leaf sums and chains; None if M has no leaf or its leaves' diagonals differ.

    A leaf is a vertex of degree 1 other than the root.  When every leaf has
    the same diagonal entry d_leaf, every leaf's sweep value is
    x_leaf = d_leaf - alpha, so a float sweep with x_leaf nonzero counts the
    leaves at once and starts each host v, a vertex with leaf children, at
    S_v / x_leaf, where S_v sums the squared weights of its leaf children.
    It then steps only ``order``, the postorder without the leaves, which
    always holds the root.
    A chain is a run of L >= MIN_CHAIN vertices u_1 .. u_L of ``order``
    above a bottom vertex b: b is the only child of u_1 in ``order``, u_i
    that of u_{i+1}, and every u_i has the same key (d, S, s): its diagonal
    entry, its S and the squared weight of the edge to that child.  Its
    sweep from b's value is the orbit of x -> (d - alpha - S/x_leaf) - s/x,
    and its entry is (L, d, S, s, u_L, parent of u_L).  An only child
    directly precedes its parent in ``order``, so a chain is a stretch of
    one-child vertices with equal keys.  A bottom is never a chain vertex:
    where the key changes inside a stretch, the vertex there is stepped and
    becomes a bottom.  The segments cover ``order`` in order; one that ends
    at a bottom carries the chain's entry, the next holds its vertices.
    Every child precedes its parent in the postorder, so one pass over it
    has each vertex's S, children in ``order`` and key when it reaches it.
    """
    tree, d, w2 = m.tree, m.diag, m._w2
    degree, root = tree.degree, tree.root
    if tree.n == 1:  # the root alone: no leaf
        return None
    leaf_diag = d[tree.postorder[0]]  # the postorder starts at a leaf
    sums: List[Real] = [0] * len(d)
    children = [0] * len(d)  # by vertex: its children in order
    order, parents, hosts, segments = [], [], [], []
    start = bottom = 0
    key = None  # the key of the run that ends at order[-1]; None where order[-1] has no one child
    for v, p in zip(tree.postorder, tree._postorder_parent):
        if degree[v] == 1 and v != root:
            if d[v] != leaf_diag:
                return None
            sums[p] += w2[v]
            continue
        c = children[v]  # final: every child of v precedes it
        if c < degree[v] - (v != root):  # the children not in order are leaves
            hosts.append(v)
        k = (d[v], sums[v], w2[order[-1]]) if c == 1 else None  # the one child is order[-1]
        if k != key:  # the run that ends at order[-1], if any, ends for good
            i = len(order)
            if key is not None and i - 1 - bottom >= MIN_CHAIN:
                segments += [(start, bottom + 1, (i - 1 - bottom, *key, order[-1], parents[-1])), (bottom + 1, i, None)]
                start = i
            bottom, key = i - (key is None), k  # a stretch starts on v's child; a new key makes v the bottom
        children[p] += 1
        order.append(v)
        parents.append(p)
    i = len(order)
    if key is not None and i - 1 - bottom >= MIN_CHAIN:  # the last run ends at the root
        segments += [(start, bottom + 1, (i - 1 - bottom, *key, root, 0)), (bottom + 1, i, None)]
    elif start < i:
        segments.append((start, i, None))
    return _BisectionProgram(leaf_diag, tree.n - len(order), tuple(order), tuple(parents), tuple(hosts),
                             tuple(map(sums.__getitem__, hosts)), segments)


def _require_exact(m: SymmetricTreeMatrix, alpha: Real) -> Fraction:
    if not m.is_rational:
        raise DomainError("exact sweep needs a matrix with rational entries")
    if not isinstance(alpha, (int, Fraction)) or isinstance(alpha, bool):
        raise DomainError("exact sweep needs a rational shift alpha")
    return Fraction(alpha)


def _certified_sweep(m: SymmetricTreeMatrix,
                     alpha: Fraction) -> Optional[Tuple[List[float], List[float], InertiaTriple]]:
    """Float sweep values x_v of M - alpha*I, bounds e_v and the inertia, or None if a sign is in doubt.

    a_v is the exact value, hats mark inputs rounded to float, s = w^2,
    u = 2^-53 and |fl(y) - y| <= u|fl(y)| per operation (Higham, 2nd ed.,
    section 3.3).  While |x_c| > e_c >= |x_c - a_c|, |a_c| >= |x_c| - e_c > 0 and
        |s^/x_c - s/a_c| <= (s^ e_c + |s^ - s| |x_c|) / (|x_c| (|x_c| - e_c)).
    So e_v sums |alpha^ - alpha|, |d^_v - d_v|, u(|d^_v - alpha^| + |x_v|) and,
    per child, that error, u|fl(s^/x_c)| and u|partial sum|.  The terms are
    nonnegative, so rounding them loses at most a factor (1 - u)^k >= 1/F for
    k <= n + 9 operations; e_v is multiplied by F = 1 + 4(n + 10)u.  If every
    |x_v| > e_v, each a_v is nonzero with the sign of x_v, the exact sweep
    takes no zero-child branch, and the signs, counted as each is checked,
    are its inertia.  Sizes capped at 2^200 keep every operation finite;
    2^-200 added to each e_v covers underflow, which loses at most 2^-1075
    per operation, times 2^453 where it is divided by |x_c| (|x_c| - e_c)
    >= 2^-200 * 2^-253.
    """
    if max(-m._dmin, m._dmax, abs(alpha), max(m._w2)) > 2.0**200:
        return None
    entries = m.diag[1:]  # slot 0 is spare, and may hold anything
    d, s, fa = tuple(map(float, entries)), list(map(float, m._w2)), float(alpha)
    base = float(abs(Fraction(fa) - alpha)) + 2.0**-200
    ebound = [base] * len(m.diag) if d == entries else [  # d is a tuple: a list never equals one
        base, *(base + float(abs(Fraction(f) - x)) for f, x in zip(d, entries))]
    ds = [0.0] * len(s) if s == m._w2 else [float(abs(Fraction(f) - x)) for f, x in zip(s, m._w2)]
    u, grow = 2.0**-53, 1.0 + (m.n + 10) * 2.0**-51
    acc, x = [0.0] * len(m.diag), [0.0, *(f - fa for f in d)]
    below = 0
    for v, p in zip(m.tree.postorder, m.tree._postorder_parent):
        y = x[v]
        xv = x[v] = y - acc[v]
        ax = abs(xv)
        e = ebound[v] = (ebound[v] + u * (abs(y) + ax)) * grow
        if not ax > e:
            return None
        if xv < 0:
            below += 1
        q = s[v] / xv
        acc[p] += q
        ebound[p] += (s[v] * e + ds[v] * ax) / (ax * (ax - e)) + u * (abs(q) + abs(acc[p]))
    return x[1:], ebound[1:], InertiaTriple(below, 0, m.n - below)


def _exact_counts(m: SymmetricTreeMatrix, alpha: Real) -> Tuple[List[Real], Optional[List[float]], InertiaTriple]:
    """Sweep values of vertices 1..n of a rational M - alpha*I, their bounds and its exact inertia:
    ``_certified_sweep``'s where it decides every sign, else the ``Fraction`` sweep's values and None."""
    alpha = _require_exact(m, alpha)
    certified = _certified_sweep(m, alpha)
    if certified is not None:
        return certified
    values, counts = _sweep(m, alpha, True)
    return values[1:], None, counts


def diagonalize(m: SymmetricTreeMatrix, alpha: Real, exact: bool = False) -> Tuple[Real, ...]:
    """Final vertex values of the congruence sweep of M - alpha*I.

    The sign pattern of the returned values carries the inertia.  The sweep
    initializes every vertex to m_vv - alpha and processes vertices in
    postorder: a vertex with all (remaining) children nonzero subtracts
    sum(w_c^2 / a_c); a vertex with a zero child v_j instead becomes
    -w_j^2/2 while a(v_j) becomes 2 and the vertex's own parent edge is cut.
    The values form a tuple of n + 1 entries indexed by vertex, like the
    matrix's, with the spare slot 0 holding 0.  Exact sweeps return Fraction
    values, float sweeps floats.
    """
    return tuple(_sweep(m, alpha, exact)[0])


def locate(m: SymmetricTreeMatrix, alpha: Real, exact: bool = False) -> InertiaTriple:
    """Counts of eigenvalues of M below / equal to / above alpha, exact with ``exact`` (``_exact_counts``)."""
    if exact:
        return _exact_counts(m, alpha)[2]
    return _sweep(m, alpha, False)[1]


def _bisect(m: SymmetricTreeMatrix, tol: float, predicate) -> float:
    """Bisect M's Gershgorin interval; each mid whose counts satisfy ``predicate`` becomes the top."""
    if not tol > 0 or tol == inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    program = _bisection_program(m)
    try:
        lo, hi = m.gershgorin()
        pivmin = 2.0**-1022 * max(1.0, float(max(m._w2))) * max(m.tree.degree)  # see _sweep
    except OverflowError:  # an int or Fraction beyond the float range
        raise DomainError("an entry is beyond the float range: bisection needs float entries") from None
    while True:  # ends within ~2,100 halvings: the bracket's ends meet in floats at the latest
        mid = _midpoint(lo, hi)
        if hi - lo <= tol or mid == lo or mid == hi:  # mid == lo or hi: no float in between
            break
        if predicate(_sweep(m, mid, False, program, pivmin)[1]):
            hi = mid
        else:
            lo = mid
    return _midpoint(lo, hi)


def _midpoint(lo: float, hi: float) -> float:
    """(lo + hi)/2, halving each end first only where their sum overflows."""
    mid = 0.5 * (lo + hi)
    return mid if isfinite(mid) else 0.5 * lo + 0.5 * hi


def spectral_radius(m: SymmetricTreeMatrix, tol: float = 1e-10) -> float:
    """Largest eigenvalue, within tol, by bisection on the above-count."""
    return _bisect(m, tol, lambda counts: counts.above == 0)


def kth_eigenvalue(m: SymmetricTreeMatrix, k: int, tol: float = 1e-10) -> float:
    """k-th smallest eigenvalue (1-based), within tol, by bisection."""
    if not (1 <= k <= m.n):
        raise BadIndexError(f"k must lie in 1..{m.n}, got {k}")
    return _bisect(m, tol, lambda counts: counts.below >= k)


#: "u v" lines, the last one without a newline, and a leading "root k" line, with ids
#: of 1 to 18 ASCII digits, which int() cannot refuse; compiled on first use (``re``
#: caches them), so commands that read no tree file do not pay for it
_EDGE_LINES = (r"(?:[ \t]*[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*\r?\n)*"
               r"(?:[ \t]*[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*)?")
_ROOT_LINE = r"[ \t]*[Rr][Oo][Oo][Tt][ \t]+([0-9]{1,18})[ \t]*\r?\n"
PARSE_BLOCK = 1 << 16  # characters per block of the block parse, extended to a newline


def parse_tree_file(text: str, root: Optional[int] = None) -> RootedTree:
    """Tree from the text format: one "u v" edge per line, optional "root k".

    Blank lines and lines starting with "#" are ignored.  An explicit
    ``root`` argument wins over a root line; with neither, the root is the
    largest vertex id.  A usual file, "u v" lines after an optional leading
    root line, is read in blocks that end at a newline, each checked with
    one ``fullmatch`` (the regex engine's memory grows with the lines it
    matches at once) and split into ints.  Other text, and any id 0, goes
    to ``_read_lines``, whose errors name a line.
    """
    head, edge_lines = re.match(_ROOT_LINE, text), re.compile(_EDGE_LINES)
    file_root, pos = (int(head[1]), head.end()) if head else (None, 0)
    us, vs = [], []
    while pos < len(text):
        end = text.find("\n", pos + PARSE_BLOCK) + 1 or len(text)
        if not edge_lines.fullmatch(text, pos, end):
            break
        ints = list(map(int, text[pos:end].split()))
        us += ints[0::2]
        vs += ints[1::2]
        pos = end
    if pos < len(text) or file_root == 0 or 0 in us or 0 in vs:
        us, vs, file_root = _read_lines(text)
    if not us and file_root is None and root is None:
        raise NotATreeError("empty tree file")
    if root is None:
        root = file_root if file_root is not None else max(max(us, default=1), max(vs, default=1))
    return _orient(us, vs, root)


def _read_lines(text: str) -> Tuple[List[int], List[int], Optional[int]]:
    """(us, vs, root line's k or None), line by line; errors name their line."""
    us, vs = [], []
    file_root: Optional[int] = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0].lower() == "root":
            if len(parts) != 2:
                raise NotATreeError(f"line {ln}: expected 'root k'")
            if file_root is not None:
                raise NotATreeError(f"line {ln}: a second 'root' line")
            file_root = _parse_vertex(parts[1], ln)
            continue
        if len(parts) != 2:
            raise NotATreeError(f"line {ln}: expected 'u v', got {raw!r}")
        us.append(_parse_vertex(parts[0], ln))
        vs.append(_parse_vertex(parts[1], ln))
    return us, vs, file_root


def _parse_vertex(token: str, ln: int) -> int:
    """The id that ``token`` spells in ASCII digits after at most one '-'."""
    try:
        if not re.fullmatch(r"-?[0-9]+", token):  # int() alone reads '+3', '0_3' and other scripts' digits
            raise ValueError
        value = int(token)  # a ValueError too past int()'s digit limit
    except ValueError:
        raise BadVertexError(f"line {ln}: bad vertex id {token!r}") from None
    if value < 1:
        raise BadVertexError(f"line {ln}: vertex ids are 1-based, got {value}")
    return value
