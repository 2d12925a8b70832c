"""The one congruence sweep, float and exact, against a rule written out here."""

import random
from fractions import Fraction

import numpy as np

from treespec.oracle import random_tree
from treespec.treediag import (
    MatrixKind,
    SymmetricTreeMatrix,
    build_matrix,
    build_tree,
    diagonalize,
    locate,
)

N = 120


def path(n):
    return build_tree([(v, v + 1) for v in range(1, n)], root=1)


def star(n):
    return build_tree([(1, v) for v in range(2, n + 1)], root=1)


def caterpillar(n):
    s = n // 2
    edges = [(v, v + 1) for v in range(1, s)]
    edges += [((i - 1) % s + 1, s + i) for i in range(1, n - s + 1)]
    return build_tree(edges, root=1)


def broom(n):
    """A path from vertex 1 to a star of pendant 2-paths at its far end."""
    spine = n // 2
    edges = [(v, v + 1) for v in range(1, spine)]
    nxt = spine + 1
    while nxt + 1 <= n:
        edges += [(spine, nxt), (nxt, nxt + 1)]
        nxt += 2
    if nxt == n:
        edges.append((spine, n))
    return build_tree(edges, root=1)


SHAPES = {
    "path": path(N),
    "star": star(N),
    "caterpillar": caterpillar(N),
    "prufer": random_tree(N, seed=7),
    "broom": broom(N),
}

#: adjacency at 0 and +-1 and the Laplacian at 1 take the zero-child branch;
#: adjacency at 1e-11 has max|m_vv - alpha| < 1, where the threshold stays 1e-10
SHIFTS = {
    MatrixKind.ADJACENCY: (0.0, 1.0, -1.0, 0.37, 1e-11),
    MatrixKind.LAPLACIAN: (1.0, 2.0, 0.37),
    MatrixKind.NORMALIZED_LAPLACIAN: (1.0, 0.37),
}


def reference_sweep(m, alpha):
    """The float sweep rule over NumPy arrays, from the public tree API.

    Postorder, child-sum order in postorder, -0.5*w^2 and 2.0 on the
    zero-child branch, and the relative zero threshold, as documented.
    """
    n, tree = m.n, m.tree
    a = np.array([float(m.diag[v]) for v in range(1, n + 1)]) - alpha
    tol = 1e-10 * max(1.0, float(np.max(np.abs(a))))
    w2 = np.zeros(n)
    for v, w in m.edge_weight.items():
        w2[v - 1] = float(w) * float(w)
    acc = np.zeros(n)
    zero_child = np.full(n, -1)
    for v1 in tree.postorder:
        v = v1 - 1
        zc = zero_child[v]
        if zc >= 0:
            a[v] = -0.5 * w2[zc]
            a[zc] = 2.0
            continue
        a[v] -= acc[v]
        p1 = tree.parent(v1)
        if p1 is not None:
            p = p1 - 1
            if -tol <= a[v] <= tol:
                if zero_child[p] < 0 or v < zero_child[p]:
                    zero_child[p] = v
            else:
                acc[p] += w2[v] / a[v]
    return [float(x) for x in a], tol


def bits(values):
    return [float(x).hex() for x in values]


def test_float_sweep_bitwise_equals_reference_rule():
    zero_branch_cases = 0
    for name, tree in SHAPES.items():
        for kind, shifts in SHIFTS.items():
            m = build_matrix(tree, kind)
            for alpha in shifts:
                want, tol = reference_sweep(m, alpha)
                got = diagonalize(m, alpha)
                assert list(got) == list(range(1, m.n + 1))
                assert all(type(x) is float for x in got.values())
                assert bits(got.values()) == bits(want), (name, kind, alpha)
                below = sum(1 for x in want if x < -tol)
                equal = sum(1 for x in want if -tol <= x <= tol)
                assert tuple(locate(m, alpha)) == (below, equal, m.n - below - equal)
                zero_branch_cases += 2.0 in want
    assert zero_branch_cases >= 10  # the shifts above do reach the zero-child branch


def test_zero_child_tie_goes_to_smallest_vertex():
    # star adjacency at 0: every leaf is zero; leaf 2 wins, the others stay 0
    k = 7
    m = build_matrix(star(k + 1), MatrixKind.ADJACENCY)
    for alpha, exact in ((0.0, False), (0, True)):
        values = diagonalize(m, alpha, exact=exact)
        assert values[1] == Fraction(-1, 2) and values[2] == 2
        assert all(values[v] == 0 for v in range(3, k + 2))
        assert tuple(locate(m, alpha, exact=exact)) == (1, k - 1, 1)


def test_exact_diagonalize_returns_fractions():
    tree = star(5)
    diag = {v: 0 for v in range(1, 6)}
    weight = {v: 3 for v in range(2, 6)}
    m = SymmetricTreeMatrix(tree, diag, weight)
    values = diagonalize(m, 0, exact=True)
    assert all(type(x) is Fraction for x in values.values())
    assert values[1] == Fraction(-9, 2) and values[2] == Fraction(2)
    for name, tree in SHAPES.items():
        for kind, alpha in ((MatrixKind.ADJACENCY, 0), (MatrixKind.LAPLACIAN, 1),
                            (MatrixKind.ADJACENCY, Fraction(1, 3))):
            values = diagonalize(build_matrix(tree, kind), alpha, exact=True)
            assert all(type(x) is Fraction for x in values.values()), (name, kind, alpha)


def test_float_and_exact_inertia_agree_at_rational_shifts():
    shifts = [Fraction(p, q) for p, q in ((0, 1), (1, 1), (-1, 1), (1, 3), (-2, 7), (5, 2), (3, 1))]
    trees = list(SHAPES.values()) + [random_tree(n, seed=s) for s, n in enumerate((2, 9, 30, 61))]
    rng = random.Random(5)
    for tree in trees:
        for kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN):
            m = build_matrix(tree, kind)
            for alpha in shifts + [Fraction(rng.randint(-40, 40), rng.randint(1, 9))]:
                exact = locate(m, alpha, exact=True)
                assert locate(m, float(alpha)) == exact, (tree, kind, alpha)
                assert sum(exact) == m.n
