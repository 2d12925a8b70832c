"""Tests for tree construction, congruence sweeps, and inertia bisection."""

import math
import random
import re
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, compress, groupby
from operator import countOf, eq

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from treespec import treediag
from treespec.errors import BadIndexError, BadVertexError, DomainError, NotATreeError, TreespecError
from treespec.limits import StarlikeSpec, t_lmn
from treespec.oracle import random_tree
from treespec.signs import DoubleBroom, double_broom_layout
from treespec.treediag import (
    InertiaTriple,
    MatrixKind,
    RootedTree,
    SymmetricTreeMatrix,
    _bisection_program,
    build_matrix,
    build_tree,
    diagonalize,
    kth_eigenvalue,
    locate,
    parse_tree_file,
    spectral_radius,
)

from references import dense, dense_spectrum


def path_tree(n, root=None):
    return build_tree([(i, i + 1) for i in range(1, n)], root=root or n)


# ---------------------------------------------------------------------------
# construction


def test_build_tree_small():
    t = build_tree([(1, 2)], root=2)
    assert t.parent[1] == 2 and t.parent[2] == 0
    assert t.postorder == (1, 2)
    star = build_tree([(1, 4), (2, 4), (3, 4)], root=4)
    assert star.postorder == (1, 2, 3, 4)
    assert star.degree[4] == 3


def test_tree_holds_read_only_vertex_tuples():
    t = build_tree([(1, 4), (2, 4), (3, 2)], root=4)
    assert t.parent == (0, 4, 4, 2, 0) and t.degree == (0, 1, 2, 1, 2) and t.postorder == (1, 3, 2, 4)
    for field in (t.parent, t.degree, t.postorder):
        assert type(field) is tuple
        with pytest.raises(TypeError):
            field[1] = 0
    assert not any(hasattr(RootedTree, name) for name in ("children", "_children", "_parent", "_degree"))


def test_build_tree_single_vertex():
    t = build_tree([], root=1)
    assert t.n == 1 and t.postorder == (1,)


def test_build_tree_errors():
    with pytest.raises(NotATreeError):
        build_tree([(1, 2), (2, 3), (3, 1)], root=1)  # cycle
    with pytest.raises(NotATreeError):
        build_tree([(1, 2), (1, 2), (3, 4)], root=1)  # duplicate
    with pytest.raises(NotATreeError):
        build_tree([(1, 2), (3, 4)], root=1)  # disconnected
    with pytest.raises(NotATreeError):
        build_tree([(1, 1)], root=1)  # self-loop
    with pytest.raises(BadVertexError):
        build_tree([(0, 1)], root=1)
    with pytest.raises(BadVertexError):
        build_tree([(1, 2)], root=9)


def test_build_tree_error_classes():
    cases = [
        ([(1, 2), (2, 1), (3, 4)], 1, NotATreeError, "duplicate edge (1, 2)"),
        ([(1, 2), (2, 1), (3, 4)], 4, NotATreeError, "disconnected"),
        ([(1, True)], 1, BadVertexError, "True"),
        ([(0, 1)], 1, BadVertexError, "0"),
        ([(1, 2), (2.0, 3)], 1, BadVertexError, "2.0"),
        ([(1, 2), (3, 3)], 1, NotATreeError, "self-loop at vertex 3"),
        ([(1, 2), (2, 3), (1, 3)], 1, NotATreeError, "needs 2 edges, got 3"),
        ([(1, 2), (3, 4), (4, 5), (5, 3)], 1, NotATreeError, "disconnected"),
        ([(1, 2), (2, 3)], 4, BadVertexError, "root 4 outside 1..3"),
        ([(1, 2), (2, 3)], 0, BadVertexError, "root 0"),
        ([(1, 2)], True, BadVertexError, "root True"),
        ([(1, 2, 3)], 1, NotATreeError, "malformed edge"),
    ]
    for edges, root, exc, text in cases:
        with pytest.raises(exc) as info:
            build_tree(edges, root=root)
        assert text in str(info.value), (edges, root)
    with pytest.raises(NotATreeError, match="duplicate edge"):
        build_tree([(4, 3), (3, 5), (2, 3), (3, 2)], root=5)


@pytest.mark.parametrize("edges, root, exc, message", [
    ([(1, 2, 3)], 1, NotATreeError, "malformed edge (1, 2, 3)"),
    ([(1, 2), (2, 3, 4)], 1, NotATreeError, "malformed edge (2, 3, 4)"),
    ([(1,)], 1, NotATreeError, "malformed edge (1,)"),
    ([(1, True)], 1, BadVertexError, "vertex id must be a positive integer, got True"),
    ([(1, 2), (1.0, 3)], 1, BadVertexError, "vertex id must be a positive integer, got 1.0"),
    ([(0, 1)], 1, BadVertexError, "vertex id must be a positive integer, got 0"),
    ([(1, -1)], 1, BadVertexError, "vertex id must be a positive integer, got -1"),
    ([(1, 2), (2, "3")], 1, BadVertexError, "vertex id must be a positive integer, got '3'"),
    ([(2, 2)], 1, NotATreeError, "self-loop at vertex 2"),
    ([(1, 2), (2, 1), (3, 4)], 1, NotATreeError, "duplicate edge (1, 2)"),
    ([(1, 2), (2, 1), (3, 4)], 4, NotATreeError, "edge list is disconnected"),
    ([(1, 2), (2, 3), (1, 3)], 1, NotATreeError, "a tree on 3 vertices needs 2 edges, got 3"),
    ([(1, 2), (3, 4)], 1, NotATreeError, "a tree on 4 vertices needs 3 edges, got 2"),
    # the first bad edge names the error, whatever its kind
    ([(1, 2), (3, 3), (0, 4)], 1, NotATreeError, "self-loop at vertex 3"),
    ([(0, 2), (1, 2, 3)], 1, BadVertexError, "vertex id must be a positive integer, got 0"),
    ([(5, 5), (1, 2, 3)], 1, NotATreeError, "self-loop at vertex 5"),
    ([(True, 0)], 1, BadVertexError, "vertex id must be a positive integer, got True"),
    ([], 2, BadVertexError, "root 2 outside 1..1"),
    ([(1, 2)], 2.0, BadVertexError, "root 2.0 outside 1..2"),
])
def test_build_tree_first_error_messages(edges, root, exc, message):
    with pytest.raises(exc) as info:
        build_tree(edges, root=root)
    assert type(info.value) is exc and str(info.value) == message


def _shape_edges(shape, n, rng):
    """Edge lists of the five benchmark shapes on 1..n."""
    if shape == "path":
        return [(v, v + 1) for v in range(1, n)]
    if shape == "star":
        return [(1, v) for v in range(2, n + 1)]
    if shape == "caterpillar":
        s = n // 2
        return [(v, v + 1) for v in range(1, s)] + [((i - 1) % s + 1, s + i) for i in range(1, n - s + 1)]
    if shape == "prufer":
        return [(c, p) for c, p in random_tree(n, seed=rng.randrange(1000)).edges()]
    spine = n // 2  # double broom: two stars of pendant 2-paths joined by a path
    edges = [(v, v + 1) for v in range(1, spine)]
    ends = (1, spine)
    nxt = spine + 1
    while nxt < n:
        edges += [(ends[(nxt - spine) // 2 % 2], nxt), (nxt, nxt + 1)]
        nxt += 2
    if nxt == n:
        edges.append((spine, n))
    return edges


def _reference_rooting(edges, root):
    """Sorted recursive-order DFS over neighbour sets: parent, postorder, degree."""
    n = len(edges) + 1
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    parent = {root: None}
    postorder = []
    stack = [(root, iter(sorted(adj[root])))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w != parent[v]:
                parent[w] = v
                stack.append((w, iter(sorted(adj[w]))))
                break
        else:
            stack.pop()
            postorder.append(v)
    return parent, postorder, {v: len(a) for v, a in adj.items()}


@pytest.mark.parametrize("shape", ["path", "star", "caterpillar", "prufer", "broom"])
def test_build_tree_matches_reference_dfs(shape):
    rng = random.Random(shape)
    for n in (2, 3, 17, 300):
        edges = _shape_edges(shape, n, rng)
        assert len(edges) == n - 1
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        relabelled = [(perm[u - 1], perm[v - 1]) if rng.random() < 0.5 else (perm[v - 1], perm[u - 1])
                      for u, v in edges]
        rng.shuffle(relabelled)
        for root in {1, n, rng.randrange(1, n + 1)}:
            t = build_tree(relabelled, root=root)
            parent, postorder, degree = _reference_rooting(relabelled, root)
            assert t.n == n and t.root == root
            assert t.postorder == tuple(postorder)
            assert [t.parent[v] for v in range(1, n + 1)] == [parent[v] or 0 for v in range(1, n + 1)]
            assert [t.degree[v] for v in range(1, n + 1)] == [degree[v] for v in range(1, n + 1)]
            assert t.edges() == sorted((v, p) for v, p in parent.items() if p is not None)


# ---------------------------------------------------------------------------
# matrices


def test_build_matrix_kinds():
    p2 = path_tree(2)
    lap = build_matrix(p2, MatrixKind.LAPLACIAN)
    assert lap.diag == (0, 1, 1)
    assert lap.edge_weight == (0, -1, 0)
    p3 = path_tree(3)
    adj = build_matrix(p3, MatrixKind.ADJACENCY)
    assert adj.diag == (0, 0, 0, 0)
    assert adj.edge_weight == (0, 1, 1, 0)
    norm = build_matrix(p3, MatrixKind.NORMALIZED_LAPLACIAN)
    assert norm.diag[1:] == (1, 1, 1)
    assert norm.edge_weight[1] == pytest.approx(-1.0 / math.sqrt(2.0))
    assert not norm.is_rational and adj.is_rational and lap.is_rational
    assert build_matrix(build_tree([], root=1), MatrixKind.NORMALIZED_LAPLACIAN).is_rational
    with pytest.raises(TypeError):
        lap.diag[1] = 5  # read-only tuples
    with pytest.raises(TypeError):
        lap.edge_weight[1] = 5
    with pytest.raises(DomainError, match="unknown matrix kind 'bogus'"):
        build_matrix(p3, "bogus")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hand_built_matrix_refuses_non_finite_entries(bad):
    tree = path_tree(3)
    diag, weight = (0, 0.0, 0.0, 0.0), (0, 1.0, 1.0, 0)
    with pytest.raises(DomainError, match=r"diagonal entry at vertex 2 is not finite"):
        SymmetricTreeMatrix(tree, (0, 0.0, bad, 0.0), weight)
    with pytest.raises(DomainError, match=r"edge weight at vertex 1 is not finite"):
        SymmetricTreeMatrix(tree, diag, (0, bad, 1.0, 0))
    assert locate(SymmetricTreeMatrix(tree, diag, weight), 0.0) == (1, 1, 1)


def test_hand_built_matrix_refuses_weight_whose_square_overflows():
    # w^2 = inf in the sweeps: two such children sum to inf - inf = nan, counted as above
    with pytest.raises(DomainError, match=r"edge weight at vertex 1 is not finite when squared: 1e\+200"):
        SymmetricTreeMatrix(path_tree(3), (0, 0.0, 0.0, 0.0), (0, 1e200, 1.0, 0))


def test_hand_built_matrix_refuses_int_beyond_the_float_range_among_floats():
    # only float sweeps take a matrix with a float entry, and they would convert 10**400
    tree = path_tree(2)
    with pytest.raises(DomainError, match=r"entry at vertex 1 is beyond the float range"):
        SymmetricTreeMatrix(tree, (0, 10**400, 1.0), (0, 1, 0))
    with pytest.raises(DomainError, match=r"entry at vertex 1 is beyond the float range"):
        SymmetricTreeMatrix(tree, (0, 0, 0.5), (0, 10**200, 0))  # its square
    # each entry converts, only their exact sum does not: taken, in either order
    for diag in ((0, 10**308, 10**308, 0.5), (0, 0.5, 10**308, 10**308)):
        assert not SymmetricTreeMatrix(path_tree(3), diag, (0, 1, 1, 0)).is_rational


def test_hand_built_matrix_refuses_fraction_beyond_the_float_range_among_floats():
    with pytest.raises(DomainError, match=r"entry at vertex 1 is beyond the float range"):
        SymmetricTreeMatrix(path_tree(2), (0, Fraction(10**400, 3), 0.5), (0, 1, 0))


def test_exact_locate_reads_nothing_from_the_spare_slot():
    tree = path_tree(2)
    for spare in (10**400, Fraction(-(10**400), 3), 7):
        m = SymmetricTreeMatrix(tree, (spare, 1, 2), (0, 1, 0))
        assert locate(m, 0, exact=True) == (0, 0, 2)
        assert locate(m, 1, exact=True) == (1, 0, 1)  # eigenvalues (3 +- sqrt(5))/2
    assert locate(SymmetricTreeMatrix(tree, (0, 10**400, 2), (0, 1, 0)), 0, exact=True) == (0, 0, 2)


def test_float_sweeps_of_a_rational_matrix_beyond_the_float_range_are_domain_errors():
    tree = path_tree(2)
    huge_diag = SymmetricTreeMatrix(tree, (0, 10**400, 2), (0, 1, 0))
    huge_weight = SymmetricTreeMatrix(tree, (0, 0, 0), (0, 10**400, 0))
    for m in (huge_diag, huge_weight):
        with pytest.raises(DomainError, match=r"beyond the float range: sweep the rational matrix exactly"):
            locate(m, 0.0)
        with pytest.raises(DomainError, match=r"beyond the float range"):
            spectral_radius(m)
        with pytest.raises(DomainError, match=r"beyond the float range"):
            kth_eigenvalue(m, 1)
    assert locate(huge_weight, 0, exact=True) == (1, 0, 1)


def test_hand_built_matrix_checks_lengths_spare_slot_and_root():
    tree = path_tree(3)  # root 3
    diag, weight = (0, 0, 0, 0), (0, 1, 1, 0)
    with pytest.raises(BadVertexError, match=r"need n \+ 1 = 4 entries, slot 0 spare; got 3 and 4"):
        SymmetricTreeMatrix(tree, diag[1:], weight)
    with pytest.raises(BadVertexError, match=r"need n \+ 1 = 4 entries, slot 0 spare; got 4 and 5"):
        SymmetricTreeMatrix(tree, diag, weight + (0,))
    for bad in ((1, 1, 1, 0), (0, 1, 1, 1), (0.5, 1, 1, 0)):
        with pytest.raises(BadVertexError, match=r"edge_weight must be 0 in slot 0 and at the root 3"):
            SymmetricTreeMatrix(tree, diag, bad)
    with pytest.raises(DomainError, match=r"edge weight at vertex 2 must be nonzero"):
        SymmetricTreeMatrix(tree, diag, (0, 1, Fraction(0), 0))
    with pytest.raises(DomainError, match=r"edge weight at vertex 3 must be nonzero"):
        SymmetricTreeMatrix(path_tree(3, root=1), diag, (0, 0, 1, 0.0))
    m = SymmetricTreeMatrix(tree, [0, Fraction(1, 3), 2, 0], [0, 1, Fraction(-1, 2), 0])
    assert m.is_rational and m.diag == (0, Fraction(1, 3), 2, 0) and m.edge_weight == (0, 1, Fraction(-1, 2), 0)
    assert not SymmetricTreeMatrix(tree, (0, Fraction(1, 3), 0.5, 0), weight).is_rational
    assert not SymmetricTreeMatrix(tree, diag, (0, Fraction(1, 3), 0.5, 0)).is_rational


def test_dense_round_trip():
    t = random_tree(7, seed=3)
    m = build_matrix(t, MatrixKind.LAPLACIAN)
    d = dense(m)
    assert np.allclose(d, d.T)
    assert d.sum() == 0  # Laplacian rows sum to zero


# ---------------------------------------------------------------------------
# congruence sweep


def test_diagonalize_single_vertex():
    t = build_tree([], root=1)
    m = build_matrix(t, MatrixKind.ADJACENCY)
    assert diagonalize(m, 0.0) == (0, 0.0)
    assert locate(m, 0.0) == (0, 1, 0)


def test_diagonalize_p2_zero_child_branch():
    m = build_matrix(path_tree(2), MatrixKind.ADJACENCY)
    values = diagonalize(m, 0.0)
    assert values == (0, 2.0, -0.5)
    assert locate(m, 0.0) == (1, 0, 1)


def test_diagonalize_returns_a_vertex_tuple_with_zero_in_slot_0():
    trees = [random_tree(n, seed=seed) for seed, n in enumerate((1, 2, 5, 9, 30))] + [path_tree(40)]
    for t in trees:
        for kind in MatrixKind.ALL:
            m = build_matrix(t, kind)
            sweeps = [(alpha, False) for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0)]
            if m.is_rational:
                sweeps += [(alpha, True) for alpha in (0, 1, Fraction(1, 3), -2)]
            for alpha, exact in sweeps:
                values = diagonalize(m, alpha, exact=exact)
                assert type(values) is tuple and len(values) == t.n + 1 and values[0] == 0, (t, kind, alpha)
                if exact:
                    assert sign_counts(values[1:]) == locate(m, alpha, exact=True)


def test_zero_child_inside_the_zero_band():
    # the leaf's value 0 is a zero child of the root, whose value -w^2/2 = -5e-13
    # then lies within the float sweep's band and counts as a zero as well
    m = SymmetricTreeMatrix(build_tree([(1, 2)], root=2), (0, 0, 5), (0, Fraction(1, 10**6), 0))
    assert diagonalize(m, 0.0) == (0, 2.0, -5e-13)
    assert locate(m, 0.0) == (0, 1, 1)  # the eigenvalue -2e-13 lies within the band
    assert locate(m, 0, exact=True) == fraction_inertia(m, 0) == (1, 0, 1)


def test_float_sweep_at_a_shift_beyond_the_float_range_is_a_domain_error():
    m = build_matrix(build_tree([(1, 2)], root=2), MatrixKind.ADJACENCY)
    for alpha in (10**400, Fraction(10**400, 3), -(10**400)):
        for sweep in (locate, diagonalize):
            with pytest.raises(DomainError, match="the shift alpha is beyond the float range"):
                sweep(m, alpha)
    assert locate(m, 10**400, exact=True) == (2, 0, 0)


def test_p3_adjacency_inertia_at_one():
    m = build_matrix(path_tree(3), MatrixKind.ADJACENCY)
    assert locate(m, 1.0) == (2, 0, 1)
    assert len(diagonalize(m, 1.0)) == 4


def test_locate_below_gershgorin():
    for seed in range(5):
        t = random_tree(9, seed=seed)
        for kind in MatrixKind.ALL:
            m = build_matrix(t, kind)
            lo, _ = m.gershgorin()
            assert locate(m, lo - 1.0) == (0, 0, t.n)


def test_locate_half_below_average_degree():
    for seed in range(20):
        n = 5 + seed % 8
        t = random_tree(n, seed=seed)
        m = build_matrix(t, MatrixKind.LAPLACIAN)
        triple = locate(m, 2.0 - 2.0 / n)
        assert triple.below >= math.ceil(n / 2)


def test_locate_matches_oracle_counts():
    rng = random.Random(424242)
    for i in range(40):
        n = rng.randint(2, 12)
        t = random_tree(n, seed=5000 + i)
        for kind in MatrixKind.ALL:
            m = build_matrix(t, kind)
            evs = dense_spectrum(m, 1e-10)
            for _ in range(3):
                alpha = rng.uniform(min(evs) - 1.0, max(evs) + 1.0)
                if any(abs(alpha - e) < 1e-6 for e in evs):
                    continue
                want = (sum(e < alpha for e in evs), 0, sum(e > alpha for e in evs))
                assert tuple(locate(m, alpha)) == want


def test_exact_zero_eigenvalue_detection():
    for seed in range(25):
        t = random_tree(3 + seed % 10, seed=seed)
        lap = build_matrix(t, MatrixKind.LAPLACIAN)
        triple = locate(lap, 0, exact=True)
        assert triple.equal == 1  # connected: simple zero eigenvalue
        assert triple.below == 0


def test_exact_rational_eigenvalue():
    # P2 Laplacian spectrum is {0, 2}
    m = build_matrix(path_tree(2), MatrixKind.LAPLACIAN)
    assert locate(m, 2, exact=True) == (1, 1, 0)
    assert locate(m, Fraction(1, 3), exact=True) == (1, 0, 1)


def test_exact_mode_requires_rational():
    m = build_matrix(path_tree(3), MatrixKind.NORMALIZED_LAPLACIAN)
    with pytest.raises(DomainError):
        locate(m, 1, exact=True)
    m2 = build_matrix(path_tree(3), MatrixKind.ADJACENCY)
    with pytest.raises(DomainError):
        locate(m2, 0.5, exact=True)


def test_inertia_root_invariant():
    for seed in range(8):
        t = random_tree(9, seed=seed)
        edges = [(c, p) for c, p in t.edges()]
        shifts = [-1.3, 0.2, 1.7]
        reference = None
        for root in range(1, 10):
            m = build_matrix(build_tree(edges, root=root), MatrixKind.ADJACENCY)
            got = [locate(m, a) for a in shifts]
            if reference is None:
                reference = got
            assert got == reference


def test_below_count_monotone_in_alpha():
    t = random_tree(11, seed=77)
    m = build_matrix(t, MatrixKind.LAPLACIAN)
    shifts = sorted(random.Random(1).uniform(-1, 6) for _ in range(30))
    counts = [locate(m, a).below for a in shifts]
    assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# bisection


def test_non_finite_shift_and_tol_are_domain_errors():
    m = build_matrix(path_tree(4), MatrixKind.LAPLACIAN)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            locate(m, alpha)
        with pytest.raises(DomainError):
            diagonalize(m, alpha)
    for tol in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(DomainError):
            spectral_radius(m, tol)
        with pytest.raises(DomainError):
            kth_eigenvalue(m, 1, tol)


def test_spectral_radius_p2():
    m = build_matrix(path_tree(2), MatrixKind.ADJACENCY)
    assert spectral_radius(m, 1e-10) == pytest.approx(1.0, abs=1e-10)


def test_bisection_stops_when_the_midpoint_stops_moving(monkeypatch):
    # tol below the float spacing at sqrt(2): hi - lo <= tol never holds, and
    # the bracket stops shrinking after ~55 halvings of the Gershgorin interval
    import treespec.treediag as td

    calls = []
    sweep = td._sweep

    def counted(*args, **kwargs):
        calls.append(args[1])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(td, "_sweep", counted)
    m = build_matrix(path_tree(3), MatrixKind.ADJACENCY)
    assert abs(spectral_radius(m, 1e-300) - math.sqrt(2)) <= math.ulp(math.sqrt(2))
    assert len(calls) <= 60 and len(set(calls)) == len(calls)


def test_bisection_sweeps_stay_finite_where_leaves_are_subnormal(monkeypatch):
    # leaves +-2^-1030 under vertex 3: with x == 0 as the zero test they divide to
    # +inf and -inf, and vertex 3 to nan.  Below pivmin they are zeros, as if both
    # leaves' diagonal entries were 0
    tree = build_tree([(1, 3), (2, 3), (3, 4)], root=4)
    m = SymmetricTreeMatrix(tree, (0, 2.0**-1030, -(2.0**-1030), 0.0, 5.0), (0, 1, 1, 1, 0))
    leaves_at_zero = SymmetricTreeMatrix(tree, (0, 0, 0, 0, 5), m.edge_weight)
    sweep, calls = treediag._sweep, []

    def recorded(*args):
        values, counts = sweep(*args)
        calls.append((args, values))
        return values, counts

    monkeypatch.setattr(treediag, "_sweep", recorded)
    spectral_radius(m)
    for k in range(1, 5):
        kth_eigenvalue(m, k)
    assert calls and all(math.isfinite(x) for _, values in calls for x in values)
    assert {args[2:] for args, _ in calls} == {(False, None, pivmin(m))}  # the leaves differ: no program
    values, counts = sweep(m, 0.0, False, None, pivmin(m))  # bisection's sweep at the shift 0
    assert all(map(math.isfinite, values))
    assert counts == fraction_inertia(leaves_at_zero, 0) == (1, 1, 2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("random", "star", "path")), st.integers(2, 199), st.integers(0, 10**6))
def test_bisection_answers_lie_within_tol_of_eigvalsh(shape, n, seed):
    # the float counts are the exact inertia of a nearby matrix, so each answer lies
    # within tol of an eigenvalue of a matrix within a few n u g of M, and eigvalsh's
    # within about n u g; g = max |Gershgorin end| bounds the norm
    edges = {"random": random_tree(n, seed).edges(), "star": [(1, v) for v in range(2, n + 1)],
             "path": [(v, v + 1) for v in range(1, n)]}[shape]
    tol, tree = 1e-12, build_tree(edges, root=1 + seed % n)
    for kind in MatrixKind.ALL:
        m = build_matrix(tree, kind)
        eigs = np.linalg.eigvalsh(dense(m))
        bound = tol + 64 * n * 2.0**-53 * max(map(abs, m.gershgorin()))
        assert abs(spectral_radius(m, tol) - eigs[-1]) <= bound, kind
        for k in (1, n // 2, n):
            assert abs(kth_eigenvalue(m, k, tol) - eigs[k - 1]) <= bound, (kind, k)


def test_spectral_radius_matches_oracle():
    for seed in range(10):
        t = random_tree(2 + seed, seed=seed)
        for kind in MatrixKind.ALL:
            m = build_matrix(t, kind)
            want = max(dense_spectrum(m, 1e-10))
            assert spectral_radius(m, 1e-9) == pytest.approx(want, abs=2e-9)


def test_sweep_matches_tridiagonal_reference_at_1e5():
    # a random path matrix, rooted near the middle so that the sweep
    # eliminates from both ends inward while LAPACK's Sturm count runs 1..n
    n = 100_000
    rng = random.Random(2011)
    d = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    e = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) for _ in range(n - 1)]
    root = n // 2 + 7
    tree = build_tree([(i, i + 1) for i in range(1, n)], root=root)
    # edge (i, i + 1) belongs to its child, the end farther from the root
    weight = [0] + e[:root - 1] + [0] + e[root - 1:]
    m = SymmetricTreeMatrix(tree, [0] + d, weight)
    d, e = np.array(d), np.array(e)
    checks = 0
    for k in (1, 17, n // 3, n // 2, 3 * n // 4, n - 1):
        # lam[0], lam[1] are the k-th and (k+1)-th smallest eigenvalues
        lam = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(k - 1, k),
                               lapack_driver="stebz")
        if k == n // 3:
            assert abs(kth_eigenvalue(m, k) - lam[0]) <= 1e-10
        if lam[1] - lam[0] < 1e-8:
            continue
        assert locate(m, 0.5 * (lam[0] + lam[1])).below == k
        checks += 1
    assert checks >= 5


def test_kth_eigenvalue():
    m2 = build_matrix(path_tree(2), MatrixKind.ADJACENCY)
    assert kth_eigenvalue(m2, 1, 1e-10) == pytest.approx(-1.0, abs=1e-10)
    m3 = build_matrix(path_tree(3), MatrixKind.ADJACENCY)
    assert kth_eigenvalue(m3, 2, 1e-10) == pytest.approx(0.0, abs=1e-10)
    assert kth_eigenvalue(m3, 1, 1e-10) == pytest.approx(-math.sqrt(2), abs=1e-9)
    with pytest.raises(BadIndexError):
        kth_eigenvalue(m3, 4, 1e-10)
    with pytest.raises(BadIndexError):
        kth_eigenvalue(m3, 0, 1e-10)


def test_kth_eigenvalue_ordering():
    t = random_tree(10, seed=13)
    m = build_matrix(t, MatrixKind.LAPLACIAN)
    tol = 1e-9
    values = [kth_eigenvalue(m, k, tol) for k in range(1, 11)]
    for a, b in zip(values, values[1:]):
        assert a <= b + 2 * tol


def test_bisection_computes_the_gershgorin_interval_once(monkeypatch):
    calls = []

    def counted(real):
        def wrapper(m):
            calls.append((real.__name__, m))
            return real(m)
        return wrapper

    monkeypatch.setattr(SymmetricTreeMatrix, "gershgorin", counted(SymmetricTreeMatrix.gershgorin))
    monkeypatch.setattr(treediag, "_bisection_program", counted(_bisection_program))
    tree = random_tree(40, seed=3)
    for kind in MatrixKind.ALL:
        m = build_matrix(tree, kind)
        for bisect in (lambda: kth_eigenvalue(m, 5), lambda: spectral_radius(m)):
            answers = []
            for _ in range(2):  # a second bisection on the same matrix repeats the first
                answers.append(bisect().hex())
                assert sorted(calls) == [("_bisection_program", m), ("gershgorin", m)], kind
                calls.clear()
            assert answers[0] == answers[1], kind


# ---------------------------------------------------------------------------
# chains swept in closed form


@contextmanager
def chain_calls(min_chain=None):
    """Record, per closed-form chain call, whether it was trusted (else stepped).

    ``min_chain`` replaces treediag.MIN_CHAIN while the block runs.
    """
    calls = []
    real, saved = treediag.chain_orbit, treediag.MIN_CHAIN

    def recorded(*args):
        orbit = real(*args)
        calls.append(orbit is not None)
        return orbit

    treediag.chain_orbit = recorded
    if min_chain is not None:
        treediag.MIN_CHAIN = min_chain
    try:
        yield calls
    finally:
        treediag.chain_orbit, treediag.MIN_CHAIN = real, saved


def pivmin(m):
    """The zero bound of bisection's float sweeps: dstebz's PIVMIN times the largest degree."""
    return 2.0**-1022 * max(1.0, float(max(m._w2))) * max(m.tree.degree)


def contracted(m, alpha):
    """Counts of the float sweep at alpha on M's bisection program, as bisection sweeps."""
    return treediag._sweep(m, alpha, False, _bisection_program(m), pivmin(m))[1]


def stepped(m, alpha):
    """Counts of the float sweep at alpha with bisection's zero test and every vertex stepped."""
    return treediag._sweep(m, alpha, False, None, pivmin(m))[1]


def sign_counts(values):
    """How many values are below, equal to and above 0."""
    below, equal = sum(x < 0 for x in values), sum(x == 0 for x in values)
    return InertiaTriple(below, equal, len(values) - below - equal)


def fraction_inertia(m, alpha):
    return sign_counts(diagonalize(m, Fraction(alpha), exact=True)[1:])


def nearby(got, exact):
    """Whether float counts are the exact ones, or, at an eigenvalue, those of a shift beside it.

    A float sweep with bisection's zero test counts the exact inertia of a
    nearby matrix.  Sweeps that round differently (every vertex stepped,
    leaves folded, a chain in closed form) may move an eigenvalue at the
    shift to either side of it.
    """
    return got == exact or bool(exact.equal) and exact.below <= got.below <= exact.below + exact.equal \
        and exact.above <= got.above <= exact.above + exact.equal


def laplacian_pencil(tree, alpha):
    """L - alpha*D, rational, with the inertia of N - alpha*I = D^-1/2 (L - alpha*D) D^-1/2."""
    lap = build_matrix(tree, MatrixKind.LAPLACIAN)
    return SymmetricTreeMatrix(tree, [d * (1 - Fraction(alpha)) for d in lap.diag], lap.edge_weight)


def reference_program(m):
    """``_bisection_program`` as a byte mask, a regex and ``groupby`` find it.

    A vertex has a child exactly when its last child directly precedes it in
    postorder, so the leaves are found through the postorder; the one-child
    mask is built by vertex and read through ``order`` once, and each
    stretch of at least MIN_CHAIN one-child vertices is split where its key
    changes.
    """
    tree, w2 = m.tree, m._w2
    postorder, parents, degree, root = tree.postorder, tree._postorder_parent, tree.degree, tree.root
    if tree.n == 1:
        return None
    inner = b"\0" + bytes(map(eq, parents, postorder[1:]))  # by position
    leaf = inner.translate(bytes.maketrans(b"\0\1", b"\1\0"))
    d = list(m.diag)
    leaf_diag = set(map(d.__getitem__, compress(postorder, leaf)))
    if len(leaf_diag) != 1:
        return None
    order = tuple(compress(postorder, inner))
    sums = [0] * len(d)
    for c, p in zip(compress(postorder, leaf), compress(parents, leaf)):
        sums[p] += w2[c]
    only_child = list(map((2).__eq__, degree))
    only_child[root] = degree[root] == 1
    leaf_children = Counter(compress(parents, leaf))
    for p, k in leaf_children.items():
        only_child[p] = degree[p] - k == 1 + (p != root)
    one_child = bytes(map(only_child.__getitem__, order))
    segments = []
    start = 0
    for stretch in re.finditer(b"\x01{%d,}" % treediag.MIN_CHAIN, one_child):
        first, stop = stretch.span()
        run_order = order[first:stop]
        keys = zip(map(d.__getitem__, run_order), map(sums.__getitem__, run_order),
                   map(w2.__getitem__, order[first - 1:stop - 1]))
        end = first
        for key, run in groupby(keys):
            bottom = end - 1 if end == first else end
            end += countOf(run, key)
            if end - 1 - bottom >= treediag.MIN_CHAIN:
                top = order[end - 1]
                segments += [(start, bottom + 1, (end - 1 - bottom, *key, top, tree.parent[top])),
                             (bottom + 1, end, None)]
                start = end
    if start < len(order):
        segments.append((start, len(order), None))
    hosts = tuple(v for v in order if v in leaf_children)
    return treediag._BisectionProgram(leaf_diag.pop(), len(postorder) - len(order), order,
                                      tuple(compress(parents, inner)), hosts, tuple(map(sums.__getitem__, hosts)),
                                      segments)


def chain_heavy_edges(shape, a, b):
    """Edges of a tree made mostly of degree-2 runs; a, b >= 1 size its parts."""
    if shape == "path":
        return [(v, v + 1) for v in range(1, a + b)]
    if shape == "spider":  # T(l, a, b): three legs at a centre
        return t_lmn(StarlikeSpec(1 + b % 3, a, b)).edges()
    if shape == "broom":  # a path of 2a vertices with 2..5 pendant 2-paths at each end
        edges = [(v, v + 1) for v in range(1, 2 * a)]
        nxt = 2 * a + 1
        for star in (1, 2 * a):
            for _ in range(2 + b % 4):
                edges += [(star, nxt), (nxt, nxt + 1)]
                nxt += 2
        return edges
    spine = 2 + b % 5  # caterpillar whose spine vertices carry legs of a vertices
    edges = [(v, v + 1) for v in range(1, spine)]
    nxt = spine + 1
    for v in range(1, spine + 1):
        for prev in [v] + list(range(nxt, nxt + a - 1)):
            edges.append((prev, nxt))
            nxt += 1
    return edges


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(("path", "spider", "broom", "caterpillar")), st.integers(1, 40),
       st.integers(1, 40), st.integers(0, 10**6), st.sampled_from((MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN)),
       st.fractions(-3, 6, max_denominator=200), st.sampled_from((1, 2, treediag.MIN_CHAIN)))
# rooted at 3, the centre 5 takes the zero-child branch at alpha = 0 and is
# the bottom of the chain 5 -> 3: that chain must be stepped, not contracted
@example("spider", 1, 1, 2, MatrixKind.ADJACENCY, Fraction(0), 1)
# adjacency paths rooted at the end 1: leaf n folds into n - 1, the bottom, and
# n - 2 .. 1 are one run, whose top is the root; n = 40, and runs of
# MIN_CHAIN - 1 and MIN_CHAIN vertices
@example("path", 20, 20, 0, MatrixKind.ADJACENCY, Fraction(1, 2), treediag.MIN_CHAIN)
@example("path", 8, 9, 0, MatrixKind.ADJACENCY, Fraction(1, 2), treediag.MIN_CHAIN)
@example("path", 9, 9, 0, MatrixKind.ADJACENCY, Fraction(1, 2), treediag.MIN_CHAIN)
# the Laplacian of P8 has the eigenvalue 2, where the top of the chain in closed form is
# -1 within roundings: the root's value is not 0 but its sign is that of a shift beside 2
@example("path", 1, 7, 0, MatrixKind.LAPLACIAN, Fraction(2), 1)
def test_contracted_counts_equal_the_fraction_sweep(shape, a, b, root, kind, alpha, min_chain):
    edges = chain_heavy_edges(shape, a, b)
    tree = build_tree(edges, root=1 + root % (len(edges) + 1))
    shift = float(alpha)  # the float sweep's shift, exactly a dyadic rational
    with chain_calls(min_chain):
        m = build_matrix(tree, kind)
        assert _bisection_program(m) == reference_program(m)
        assert nearby(contracted(m, shift), fraction_inertia(m, shift))


def test_chain_program_finds_the_runs():
    n = 40
    path = build_tree([(v, v + 1) for v in range(1, n)], root=1)
    # adjacency: leaf n folds into n - 1, the bottom; n - 2 .. 1 are the
    # chain, with key (d, S, s) = (0, 0, 1).  Laplacian: the root's diagonal 1
    # ends the run of diagonal-2 vertices one step earlier.  The segment after
    # a chain's entry holds the chain's vertices
    program = _bisection_program(build_matrix(path, MatrixKind.ADJACENCY))
    assert program.order == tuple(range(n - 1, 0, -1)) and program.parents == (*range(n - 2, 0, -1), 0)
    assert (program.leaf_diag, program.leaves, program.hosts, program.sums) == (0, 1, (n - 1,), (1,))
    assert program.segments == [(0, 1, (n - 2, 0, 0, 1, 1, 0)), (1, n - 1, None)]
    assert _bisection_program(build_matrix(path, MatrixKind.LAPLACIAN)).segments == [
        (0, 1, (n - 3, 2, 0, 1, 2, 1)), (1, n - 2, None), (n - 2, n - 1, None)]
    # squared weights that underflow to 0.0: n - 1 is still the host, of the sum 0.0,
    # and the chain's key (0, 0, 0.0) equals what the spare slot 0 holds above the root
    tiny = SymmetricTreeMatrix(path, [0] * (n + 1), [0, 0] + [1e-200] * (n - 1))
    assert _bisection_program(tiny) == reference_program(tiny) == (
        0, 1, program.order, program.parents, (n - 1,), (0.0,), [(0, 1, (n - 2, 0, 0, 0.0, 1, 0)), (1, n - 1, None)])
    # no chain: a star keeps only its centre, and a random tree has no long run
    star = _bisection_program(build_matrix(build_tree([(1, v) for v in range(2, 60)], root=1), MatrixKind.ADJACENCY))
    assert star == (0, 58, (1,), (0,), (1,), (58,), [(0, 1, None)])
    program = _bisection_program(build_matrix(random_tree(60, seed=2), MatrixKind.ADJACENCY))
    assert program.segments == [(0, len(program.order), None)]
    # spider rooted at its centre: one chain per long leg, none for the short
    # one; each leg's leaf folds into the leg's bottom
    m = build_matrix(t_lmn(StarlikeSpec(2, 30, 45)), MatrixKind.LAPLACIAN)
    assert sorted(chain[0] for _, _, chain in _bisection_program(m).segments if chain) == [28, 43]
    # hairy caterpillar: spine 1 .. 20 rooted at 1, two leaves on each spine
    # vertex; 20 is the bottom and 19 .. 1, the root too, one chain of key (0, 2, 1)
    edges = [(v, v + 1) for v in range(1, 20)] + [(v, 20 + 2 * v - k) for v in range(1, 21) for k in (0, 1)]
    program = _bisection_program(build_matrix(build_tree(edges, root=1), MatrixKind.ADJACENCY))
    assert program.order == tuple(range(20, 0, -1)) and program.leaves == 40
    assert program.hosts == program.order and program.sums == (2,) * 20
    assert program.segments == [(0, 1, (19, 0, 2, 1, 1, 0)), (1, 20, None)]


def test_bisection_contracts_and_keeps_its_results(monkeypatch):
    trees = [build_tree(chain_heavy_edges(shape, 60, 7), root=1) for shape in ("path", "spider", "broom")]
    for tree in trees:
        for kind in MatrixKind.ALL:
            with monkeypatch.context() as patch:  # no program: every vertex stepped
                patch.setattr(treediag, "_bisection_program", lambda m: None)
                stepped = [spectral_radius(build_matrix(tree, kind)),
                           kth_eigenvalue(build_matrix(tree, kind), tree.n // 3)]
            with chain_calls() as calls:
                contracted = [spectral_radius(build_matrix(tree, kind)),
                              kth_eigenvalue(build_matrix(tree, kind), tree.n // 3)]
            assert contracted == stepped, (tree, kind)
            assert sum(calls) >= 0.9 * len(calls) > 0, (tree, kind)


def test_shifts_at_rational_eigenvalues_are_stepped():
    # P17 and P35 have eigenvalues 0 and +-1, each a zero at the top of the
    # chain from the far leaf: at 0 the leaf itself is zero, at +-1 the phase
    # of the top lies on a multiple of pi
    for n in (17, 35):
        m = build_matrix(build_tree([(v, v + 1) for v in range(1, n)], root=1), MatrixKind.ADJACENCY)
        for alpha in (0.0, 1.0, -1.0):
            with chain_calls() as calls:
                got = contracted(m, alpha)
            assert got == fraction_inertia(m, alpha) and got.equal == 1, (n, alpha)
            assert not any(calls), (n, alpha)
    # the Laplacian of P18 has eigenvalues 1, 2 and 3 (2 - 2cos(k pi/18))
    m = build_matrix(build_tree([(v, v + 1) for v in range(1, 18)], root=1), MatrixKind.LAPLACIAN)
    for alpha in (1.0, 2.0, 3.0):
        assert contracted(m, alpha) == fraction_inertia(m, alpha) == (
            sum(2 - 2 * math.cos(k * math.pi / 18) < alpha - 1e-9 for k in range(18)), 1,
            sum(2 - 2 * math.cos(k * math.pi / 18) > alpha + 1e-9 for k in range(18)))


def test_normalized_laplacian_chain():
    # the normalized Laplacian of P_n has eigenvalues 1 - cos(k pi/(n - 1))
    n = 60
    m = build_matrix(build_tree([(v, v + 1) for v in range(1, n)], root=1),
                     MatrixKind.NORMALIZED_LAPLACIAN)
    eigs = [1 - math.cos(k * math.pi / (n - 1)) for k in range(n)]
    with chain_calls() as calls:
        for k in range(n - 1):
            assert contracted(m, 0.5 * (eigs[k] + eigs[k + 1])) == (k + 1, 0, n - k - 1)
    assert sum(calls) >= 0.9 * (n - 1)  # the extreme shifts sit near a^2 = 4s, and are stepped
    assert kth_eigenvalue(m, 17) == pytest.approx(eigs[16], abs=1e-9)


def test_contracted_counts_equal_locate():
    shifts = {
        MatrixKind.ADJACENCY: (0.0, 1.0, -1.0, 0.37, 1e-11, 1.9, 2.05),
        MatrixKind.LAPLACIAN: (0.0, 1.0, 2.0, 0.37, 3.99, 4.2),
        MatrixKind.NORMALIZED_LAPLACIAN: (1.0, 0.37, 1.5),
    }
    rng = random.Random(9)
    trees = [build_tree(_shape_edges(shape, 120, rng), root=1)
             for shape in ("path", "star", "caterpillar", "prufer", "broom")]
    trees += [build_tree(chain_heavy_edges(shape, 50, 9), root=3) for shape in ("spider", "caterpillar")]
    with chain_calls() as calls:
        for tree in trees:
            for kind, alphas in shifts.items():
                m = build_matrix(tree, kind)
                for a in alphas:
                    got, want = contracted(m, a), stepped(m, a)
                    exact = fraction_inertia(m, a) if m.is_rational else want
                    # 1e-11 is within locate's zero band of the adjacency eigenvalue 0, not bisection's
                    assert nearby(got, exact) and nearby(want, exact), (tree, kind, a)
                    # the two roundings part only where the shift is an eigenvalue: the Laplacian
                    # eigenvalue 2 of the path, the broom and the second caterpillar
                    assert got == want or exact.equal, (tree, kind, a)
    assert any(calls)


# ---------------------------------------------------------------------------
# leaves folded into their parents


def leafy_edges(shape, a, b):
    """Edges of a tree made mostly of leaves; a >= 0 and b >= 1 size its parts."""
    if shape == "star":  # a leaves on the centre 1: n = 1 and n = 2 at a = 0 and 1
        return [(1, v) for v in range(2, a + 2)]
    if shape == "double star":  # S(a, b): centres 1 and 2 with a and b leaves
        return [(1, 2)] + [(1, v) for v in range(3, a + 3)] + [(2, v) for v in range(a + 3, a + b + 3)]
    if shape == "double broom":  # the path 1 .. a + 2 with b leaves at each end
        end = a + 2
        return ([(v, v + 1) for v in range(1, end)] + [(1, v) for v in range(end + 1, end + b + 1)]
                + [(end, v) for v in range(end + b + 1, end + 2 * b + 1)])
    if shape == "prufer":  # a random tree with a leaf on each of its vertices
        tree = random_tree(a + 1, seed=b)
        return tree.edges() + [(v, tree.n + v) for v in range(1, tree.n + 1)]
    # hairy caterpillar: the spine 1 .. a + 1, each vertex with 1-3 leaves: 3 on
    # every one when b % 3 == 0, else a count that changes every MIN_CHAIN + 4 vertices
    spine = a + 1
    edges = [(v, v + 1) for v in range(1, spine)]
    for v in range(1, spine + 1):
        for _ in range(3 - (v // (treediag.MIN_CHAIN + 4) * b) % 3):
            edges.append((v, len(edges) + 2))
    return edges


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("star", "double star", "double broom", "prufer", "hairy caterpillar")),
       st.integers(0, 40), st.integers(1, 12), st.integers(0, 10**6), st.sampled_from(MatrixKind.ALL),
       st.integers(-7 * 64, 9 * 64), st.sampled_from((1, 2, treediag.MIN_CHAIN)),
       st.sampled_from(("as built", "uneven", "mixed")))
# every leaf is zero at the leaf diagonal (0, and 1 for the Laplacian): every vertex stepped
@example("star", 7, 1, 0, MatrixKind.ADJACENCY, 0, 1, "as built")
@example("hairy caterpillar", 30, 2, 0, MatrixKind.LAPLACIAN, 64, 2, "as built")
# S(4, 4) at 2: vertex 2 with its four folded leaves is zero, and 1 takes the zero-child branch
@example("double star", 4, 4, 0, MatrixKind.ADJACENCY, 128, 1, "as built")
# one leaf's diagonal moved: the leaves differ, and nothing folds
@example("double broom", 3, 2, 0, MatrixKind.LAPLACIAN, 96, 1, "uneven")
@example("star", 0, 1, 0, MatrixKind.LAPLACIAN, 0, 1, "as built")  # n = 1
@example("star", 1, 1, 0, MatrixKind.ADJACENCY, 64, 1, "as built")  # n = 2
@example("star", 1, 1, 1, MatrixKind.NORMALIZED_LAPLACIAN, 32, 1, "as built")  # n = 2, rooted at the leaf
# spine 1 .. 20 with 3 leaves each, at 1: the chain's map has a = -1 + 3 = 2 = 2 sqrt(s), and is refused
@example("hairy caterpillar", 19, 3, 0, MatrixKind.ADJACENCY, 64, treediag.MIN_CHAIN, "as built")
# the leaves' diagonals 1.0, Fraction(1) and 1 are equal: they fold, with the first leaf's 1.0
@example("star", 7, 1, 0, MatrixKind.LAPLACIAN, 32, 1, "mixed")
def test_program_counts_equal_the_fraction_sweep(shape, a, b, root, kind, alpha64, min_chain, leaf_diags):
    edges = leafy_edges(shape, a, b)
    tree = build_tree(edges, root=1 + root % (len(edges) + 1))
    m = build_matrix(tree, kind)
    leaves = [v for v in range(1, tree.n + 1) if tree.degree[v] == 1 and v != tree.root]
    if leaf_diags != "as built" and len(leaves) > 1:  # a hand-built matrix
        diag = list(m.diag)
        if leaf_diags == "uneven":  # the leaves' diagonals differ
            diag[leaves[-1]] += 1
        else:  # the leaves' diagonals as a float, a Fraction and an int in turn
            for i, v in enumerate(leaves):
                diag[v] = (float, Fraction, int)[i % 3](diag[v])
        m = SymmetricTreeMatrix(tree, diag, m.edge_weight)
        assert (_bisection_program(m) is None) == (leaf_diags == "uneven")
    shift = alpha64 / 64  # the float sweep's shift, exactly a dyadic rational
    with chain_calls(min_chain):
        program = _bisection_program(m)
        assert program == reference_program(m)
        if program is not None:
            assert program.leaf_diag is m.diag[tree.postorder[0]]
        got = contracted(m, shift)
    if m.is_rational:
        want = fraction_inertia(m, shift)
    elif program is None:  # nothing folds: the stepped sweep's own arithmetic
        want = stepped(m, shift)
    elif kind == MatrixKind.NORMALIZED_LAPLACIAN:  # n > 1
        want = fraction_inertia(laplacian_pencil(tree, shift), 0)
    else:  # leaves that hold the built entries as floats
        want = fraction_inertia(build_matrix(tree, kind), shift)
    assert nearby(got, want)
    if (shape, a, b, kind, alpha64) == ("double star", 4, 4, MatrixKind.ADJACENCY, 128):
        assert got == (9, 0, 1)


def test_a_refused_hairy_chain_is_stepped():
    # spine 1 .. 20 rooted at 1, three leaves on each: at alpha = 1, x_leaf = -1 and the
    # chain 19 .. 1 maps x -> 2 - 1/x, the double root a^2 = 4s that chain_orbit refuses
    m = build_matrix(build_tree(leafy_edges("hairy caterpillar", 19, 3), root=1), MatrixKind.ADJACENCY)
    assert [chain[:4] for _, _, chain in _bisection_program(m).segments if chain] == [(19, 0, 3, 1)]
    with chain_calls() as calls:
        assert contracted(m, 1.0) == fraction_inertia(m, 1) == locate(m, 1.0)
    assert calls == [False]
    with chain_calls() as calls:  # off the double root the same chain is taken in one step
        assert contracted(m, 0.75) == fraction_inertia(m, Fraction(3, 4))
    assert calls == [True]


def test_leaf_chains_pass_a_bound_on_the_error_of_their_a(monkeypatch):
    # chain_orbit certifies every a* with |a - a*| <= u|a| + error; the exact a* of a
    # chain with leaves is (d - alpha) - S*/(d_leaf - alpha), S* the exact sum of
    # its leaf children's squared weights
    calls = []

    def recorded(a, s, x0, length, error=0.0):
        calls.append((a, error))
        return real(a, s, x0, length, error)

    real = treediag.chain_orbit
    monkeypatch.setattr(treediag, "chain_orbit", recorded)
    tree = build_tree(leafy_edges("hairy caterpillar", 40, 3), root=1)
    leaves = [v for v in range(2, tree.n + 1) if tree.degree[v] == 1]
    beyond_one_rounding = 0
    for kind in MatrixKind.ALL:
        m = build_matrix(tree, kind)
        (chain,) = [chain for _, _, chain in _bisection_program(m).segments if chain]
        top, d_leaf = chain[4], Fraction(m.diag[leaves[0]])
        exact_sum = sum(Fraction(m.edge_weight[c]) ** 2 for c in leaves if tree.parent[c] == top)
        calls.clear()
        for alpha in (-2.375, -0.3, 0.1, 0.7, 1.9, 2.6, 4.1, 6.05):
            start = len(calls)
            contracted(m, alpha)
            a_exact = Fraction(chain[1]) - Fraction(alpha) - exact_sum / (d_leaf - Fraction(alpha))
            for a, error in calls[start:]:
                miss = abs(Fraction(a) - a_exact) - Fraction(2.0**-53) * abs(Fraction(a))
                assert error > 0 and miss <= Fraction(error), (kind, alpha)
                beyond_one_rounding += miss > 0
        assert len(calls) >= 6, kind
    assert beyond_one_rounding  # the one rounding that chains without leaves assume would not do


def test_a_zero_bottom_starts_the_orbit_at_the_second_chain_vertex():
    # adjacency paths rooted at 1: leaf n folds into n - 1, whose value -a - 1/(-a)
    # is 0 at a = +-1; the bottom n - 1 becomes 2, n - 2 takes -1/2, and the
    # chain runs on from n - 3, which starts afresh at -a.  +-1 are eigenvalues of
    # P_n when 3 divides n + 1: then the top is zero, and the chain is stepped
    for n in (40, 41, 100):
        m = build_matrix(build_tree([(v, v + 1) for v in range(1, n)], root=1), MatrixKind.ADJACENCY)
        for alpha in (1.0, -1.0):
            with chain_calls() as calls:
                assert contracted(m, alpha) == fraction_inertia(m, alpha) == locate(m, alpha), (n, alpha)
            assert calls == [(n + 1) % 3 != 0], (n, alpha)


def reference_bisect(m, tol, predicate):
    """Bisection as ``_bisect`` runs it, with the midpoint 0.5 * (lo + hi), its zero test and every vertex stepped."""
    lo, hi = m.gershgorin()
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            break
        if predicate(stepped(m, mid)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_bisection_answers_equal_the_stepped_reference_bitwise():
    rng = random.Random(19)
    trees = [build_tree([(1, v) for v in range(2, 3001)], root=1), build_tree([(1, v) for v in range(2, 3001)], root=2),
             build_tree(_shape_edges("caterpillar", 1200, rng), root=1),
             build_tree(leafy_edges("hairy caterpillar", 299, 1), root=1),
             build_tree(leafy_edges("hairy caterpillar", 249, 2), root=250),
             random_tree(1500, seed=7), build_tree(leafy_edges("double star", 600, 400), root=1),
             build_tree(leafy_edges("double broom", 200, 300), root=1),
             build_tree(_shape_edges("broom", 800, rng), root=1), double_broom_layout(DoubleBroom(30, 20, 25, 40)).tree,
             t_lmn(StarlikeSpec(1, 300, 300)),
             # one chain whose top is the root, and a root inside a chain; legs of
             # MIN_CHAIN - 1 .. MIN_CHAIN + 1 vertices, whose runs above the leaf
             # and the bottom are two shorter, and runs of that many
             path_tree(3000, root=1), path_tree(3000, root=1500),
             t_lmn(StarlikeSpec(15, 16, 17)), t_lmn(StarlikeSpec(17, 18, 19))]
    for tree in trees:
        n = tree.n
        for kind in MatrixKind.ALL:
            m = build_matrix(tree, kind)
            got = [spectral_radius(m).hex()] + [kth_eigenvalue(m, k).hex() for k in (1, n // 3, n)]
            want = [reference_bisect(m, 1e-10, lambda c: c.above == 0).hex()]
            want += [reference_bisect(m, 1e-10, lambda c: c.below >= k).hex() for k in (1, n // 3, n)]
            assert got == want, (tree, kind)


def test_the_midpoint_of_a_bracket_whose_sum_overflows():
    m = SymmetricTreeMatrix(build_tree([(1, 2)], root=2), (0, 1e308, 1.5e308), (0, 1.0, 0))
    assert m.gershgorin() == (1e308 - 1, 1.5e308 + 1) and m.gershgorin()[0] + m.gershgorin()[1] == math.inf
    assert spectral_radius(m) == pytest.approx(1.5e308, rel=1e-9)
    assert kth_eigenvalue(m, 1) == pytest.approx(1e308, rel=1e-9)
    # a finite sum keeps the midpoint 0.5 * (lo + hi), bit for bit: halving the
    # ends first would round the subnormal 2^-1075 + 2^-1075 to 0
    assert treediag._midpoint(-3.0, 1e-300) == 0.5 * (-3.0 + 1e-300)
    assert treediag._midpoint(5e-324, 5e-324) == 5e-324
    assert treediag._midpoint(-1e308, -1.5e308) == -1.25e308


def test_closed_form_spectra_of_a_path_at_1e5():
    n = 100_000
    tree = build_tree([(v, v + 1) for v in range(1, n)], root=1)
    adjacency = build_matrix(tree, MatrixKind.ADJACENCY)
    laplacian = build_matrix(tree, MatrixKind.LAPLACIAN)
    with chain_calls() as calls:
        for k in (1, 2, 777, n // 3, n // 2 + 1, n - 1, n):
            # the k-th smallest: 2cos((n + 1 - k) pi/(n + 1)) and 2 - 2cos((k - 1) pi/n)
            assert kth_eigenvalue(adjacency, k) == pytest.approx(
                2 * math.cos((n + 1 - k) * math.pi / (n + 1)), abs=1e-9), k
            assert kth_eigenvalue(laplacian, k) == pytest.approx(
                2 - 2 * math.cos((k - 1) * math.pi / n), abs=1e-9), k
    assert sum(calls) >= 0.95 * len(calls)


# ---------------------------------------------------------------------------
# file format


def test_parse_tree_file():
    text = "# a path\n1 2\n\n2 3  # trailing comment\nroot 1\n"
    t = parse_tree_file(text)
    assert t.n == 3 and t.root == 1
    t2 = parse_tree_file(text, root=2)
    assert t2.root == 2
    t3 = parse_tree_file("1 2\n2 3\n")
    assert t3.root == 3  # defaults to the largest id


def test_parse_tree_file_errors():
    with pytest.raises(NotATreeError):
        parse_tree_file("1 2 3\n")
    with pytest.raises(BadVertexError):
        parse_tree_file("1 x\n")
    with pytest.raises(NotATreeError):
        parse_tree_file("")


def test_parse_tree_file_line_errors():
    cases = [
        ("1 2\n0 3\n", BadVertexError, "line 2: vertex ids are 1-based, got 0"),
        ("1 2\n2 x\n", BadVertexError, "line 2: bad vertex id 'x'"),
        # int() reads each of these as some vertex: 3, 3, 3, 3 and 2
        ("1 2\n2 0_3", BadVertexError, "line 2: bad vertex id '0_3'"),
        ("1 2\n2 +3", BadVertexError, "line 2: bad vertex id '+3'"),
        ("1 2\n2 \u0663", BadVertexError, "line 2: bad vertex id '\u0663'"),
        ("1 2\n2 \uff13", BadVertexError, "line 2: bad vertex id '\uff13'"),
        ("root \u0662\n1 2\n2 3", BadVertexError, "line 1: bad vertex id '\u0662'"),
        ("1 2\n2 -3\n", BadVertexError, "line 2: vertex ids are 1-based, got -3"),
        ("root 2 3\n1 2\n", NotATreeError, "line 1: expected 'root k'"),
        ("ROOT x\n1 2\n", BadVertexError, "line 1: bad vertex id 'x'"),
        ("root 0\n1 2\n", BadVertexError, "line 1: vertex ids are 1-based, got 0"),
        ("1 2\n3 # c\n", NotATreeError, "line 2: expected 'u v', got '3 # c'"),
        ("1 2\n2 3 4\n", NotATreeError, "line 2: expected 'u v', got '2 3 4'"),
        ("# nothing\n\n", NotATreeError, "empty tree file"),
    ]
    for text, exc, message in cases:
        with pytest.raises(exc) as info:
            parse_tree_file(text)
        assert str(info.value) == message, text


def test_parse_tree_file_root_line_and_comments():
    t = parse_tree_file("  ROOT 2 # the middle\n1 2#a\n\n# only a comment\n\t3   2 \n")
    assert (t.n, t.root, t.postorder) == (3, 2, (1, 3, 2))
    assert parse_tree_file("", root=1).n == 1


def test_a_second_root_line_is_an_error():
    for text, ln in (("1 2\n2 3\nroot 2\nroot 3\n", 4), ("root 2\n1 2\n2 3\n# c\nROOT 2\n", 5)):
        with pytest.raises(NotATreeError) as info:
            parse_tree_file(text)
        assert str(info.value) == f"line {ln}: a second 'root' line"
    with pytest.raises(NotATreeError, match="line 2: a second 'root' line"):
        parse_tree_file("root 1\nroot 1\n1 2\n", root=2)


@contextmanager
def line_walker_only():
    """parse_tree_file with every text sent to the line walker."""
    saved = treediag._EDGE_LINES, treediag._ROOT_LINE
    treediag._EDGE_LINES = treediag._ROOT_LINE = re.compile(r"(?!)")
    try:
        yield
    finally:
        treediag._EDGE_LINES, treediag._ROOT_LINE = saved


def parse_outcome(text, root=None):
    """(root, parent list, postorder) of the parsed tree, or the error's type and message."""
    try:
        tree = parse_tree_file(text, root=root)
    except TreespecError as exc:
        return type(exc), str(exc)
    return tree.root, tree.parent, tree.postorder


def assert_parses_as_the_line_walker(text, root=None):
    got = parse_outcome(text, root)
    with line_walker_only():
        assert got == parse_outcome(text, root), text[:200]


def edge_lines(n, seed, rng):
    """Canonical "u v" lines of a seeded tree, in shuffled order and orientation."""
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in random_tree(n, seed=seed).edges()]
    rng.shuffle(lines)
    return lines


PERTURBATIONS = ("crlf", "tab", "blank", "comment", "root", "zeros", "arabic", "three", "zero",
                 "negative", "self-loop", "duplicate", "disconnect", "long")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.integers(0, 10**6), st.randoms(use_true_random=False),
       st.sampled_from(("", "root", "ROOT", "Root")), st.lists(st.sampled_from(PERTURBATIONS), max_size=3),
       st.one_of(st.none(), st.integers(1, 31)))
def test_both_parse_paths_agree(n, seed, rng, head, perturbations, root):
    lines = edge_lines(n, seed, rng)
    if head:
        lines.insert(0, f"{head} {rng.randint(1, n)}")
    for kind in perturbations:
        i = rng.randrange(len(lines) + 1)
        if kind == "blank":
            lines.insert(i, rng.choice(("", "  ", "\t")))
        elif kind == "comment":
            lines.insert(i, rng.choice(("# a comment", "1 2 # an edge")))
        elif kind == "root":
            lines.insert(i, f"{rng.choice(('root', 'ROOT', 'rOoT'))} {rng.randint(0, n)}")
        elif kind == "three":
            lines.insert(i, "1 2 3")
        elif kind == "self-loop":
            lines.insert(i, f"{n} {n}")
        elif kind == "duplicate" and len(lines) > 1:
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif kind == "disconnect" and n > 3:  # n - 1 edges, one of them repeated
            lines[rng.randrange(len(lines))] = lines[rng.randrange(len(lines))]
        elif kind == "long":
            lines.insert(i, f"{n + 1} {10 ** 19}")
        elif lines:
            j = rng.randrange(len(lines))
            u, _, rest = lines[j].partition(" ")
            lines[j] = {"tab": f"{u}\t {rest}", "zeros": f"00{u} {rest}", "arabic": f"{u} {rest}٣",
                        "zero": f"0 {rest}", "negative": f"{u} -{rest}"}.get(kind, lines[j])
    text = "\n".join(lines) + rng.choice(("\n", ""))
    if "crlf" in perturbations:
        text = text.replace("\n", "\r\n")
    assert_parses_as_the_line_walker(text, root)


def test_usual_files_skip_the_line_walker(monkeypatch):
    texts = ["1 2\n2 3\n", "root 2\r\n1 2\r\n 2\t3 \r\n3 4", "RooT 004\n004 0003\n1 3\n2 3\n", "",
             "\n".join(["root 9"] + edge_lines(60_000, 5, random.Random(4))) + "\n"]
    assert len(texts[-1]) > 10 * treediag.PARSE_BLOCK
    with line_walker_only():
        want = [parse_outcome(text) for text in texts]
    monkeypatch.setattr(treediag, "_read_lines", lambda text: pytest.fail("line walker called"))
    assert [parse_outcome(text) for text in texts] == want


def test_a_bad_line_in_a_later_block_names_its_line():
    lines = edge_lines(100_000, 6, random.Random(6))
    assert len("\n".join(lines)) > 2**20
    ends = accumulate(len(line) + 1 for line in lines)
    k = next(i for i, end in enumerate(ends) if end > 1.5 * treediag.PARSE_BLOCK)  # in the second block
    text = "\n".join(lines[:k] + ["7 x"] + lines[k:]) + "\n"
    assert parse_outcome(text) == (BadVertexError, f"line {k + 1}: bad vertex id 'x'")
    assert_parses_as_the_line_walker(text)
    assert_parses_as_the_line_walker("\n".join(lines))
