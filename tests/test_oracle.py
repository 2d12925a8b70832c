"""Tests for the dense spectral reference and the seeded random tree generator."""

import math
import random
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treespec import cli
from treespec.cli import run
from treespec.errors import DomainError
from treespec.oracle import _prufer_parents, random_tree
from treespec.treediag import MatrixKind, SymmetricTreeMatrix, build_matrix, build_tree, locate

from references import SIZE_LIMIT, dense_spectrum


def path_tree(n):
    return build_tree([(i, i + 1) for i in range(1, n)], root=n)


def test_p2_adjacency_spectrum():
    spec = dense_spectrum(build_matrix(path_tree(2), MatrixKind.ADJACENCY))
    assert spec == pytest.approx((-1.0, 1.0), abs=1e-10)


def test_p3_adjacency_spectrum():
    spec = dense_spectrum(build_matrix(path_tree(3), MatrixKind.ADJACENCY))
    assert spec == pytest.approx((-math.sqrt(2), 0.0, math.sqrt(2)), abs=1e-10)


def test_p3_laplacian_spectrum():
    spec = dense_spectrum(build_matrix(path_tree(3), MatrixKind.LAPLACIAN))
    assert spec == pytest.approx((0.0, 1.0, 3.0), abs=1e-10)


def test_trace_identity():
    for seed in range(10):
        t = random_tree(2 + seed, seed=seed)
        for kind in MatrixKind.ALL:
            m = build_matrix(t, kind)
            spec = dense_spectrum(m, 1e-10)
            assert sum(spec) == pytest.approx(
                sum(float(m.diag[v]) for v in range(1, t.n + 1)), abs=t.n * 1e-10
            )


def test_laplacian_psd_and_normalized_range():
    for seed in range(10):
        t = random_tree(3 + seed, seed=100 + seed)
        lap = dense_spectrum(build_matrix(t, MatrixKind.LAPLACIAN), 1e-10)
        assert -1e-10 <= lap[0] <= 1e-10
        norm = dense_spectrum(build_matrix(t, MatrixKind.NORMALIZED_LAPLACIAN), 1e-10)
        assert norm[0] >= -1e-10
        assert norm[-1] <= 2.0 + 1e-10


def test_adjacency_spectrum_symmetric():
    # trees are bipartite, so the adjacency spectrum mirrors around zero
    for seed in range(10):
        t = random_tree(4 + seed, seed=200 + seed)
        evs = dense_spectrum(build_matrix(t, MatrixKind.ADJACENCY), 1e-10)
        for lo, hi in zip(evs, reversed(evs)):
            assert lo == pytest.approx(-hi, abs=1e-9)


def test_gaps_match_sweep_counts():
    # an independent check of the dense spectrum: the congruence sweep's
    # count below the midpoint of every gap wider than 1e-8
    gaps = 0
    for seed in range(15):
        t = random_tree(3 + seed, seed=300 + seed)
        for kind in MatrixKind.ALL:
            m = build_matrix(t, kind)
            evs = dense_spectrum(m, 1e-12)
            for k in range(1, len(evs)):
                if evs[k] - evs[k - 1] > 1e-8:
                    assert locate(m, 0.5 * (evs[k - 1] + evs[k])).below == k, (seed, kind, k)
                    gaps += 1
    assert gaps >= 300


def test_closed_form_spectra_at_size_limit():
    n = SIZE_LIMIT
    path = dense_spectrum(build_matrix(path_tree(n), MatrixKind.LAPLACIAN))
    want = sorted(2.0 - 2.0 * math.cos(k * math.pi / n) for k in range(n))
    assert max(abs(a - b) for a, b in zip(path, want)) <= 1e-10
    star_tree = build_tree([(v, n) for v in range(1, n)], root=n)
    star = dense_spectrum(build_matrix(star_tree, MatrixKind.LAPLACIAN))
    want = [0.0] + [1.0] * (n - 2) + [float(n)]
    assert max(abs(a - b) for a, b in zip(star, want)) <= 1e-10


def test_tol_below_lapack_bound_is_domain_error():
    # P3 with weights 1e8: Gershgorin gives g = 2e8, so n*u*g is about 6.7e-8
    m = SymmetricTreeMatrix(path_tree(3), (0, 0, 0, 0), (0, 1e8, 1e8, 0))
    bound = 3 * 2.0**-53 * 2e8
    for tol in (1e-10, 0.99 * bound):
        with pytest.raises(DomainError, match="below the LAPACK error bound"):
            dense_spectrum(m, tol)
    spec = dense_spectrum(m, bound)
    assert spec == pytest.approx((-math.sqrt(2) * 1e8, 0.0, math.sqrt(2) * 1e8), abs=1e-6)


def test_size_limit():
    t = path_tree(SIZE_LIMIT + 1)
    with pytest.raises(ValueError, match=f"n <= {SIZE_LIMIT}, got {SIZE_LIMIT + 1}"):
        dense_spectrum(build_matrix(t, MatrixKind.ADJACENCY))


def test_tol_must_be_positive_and_finite():
    m = build_matrix(random_tree(6, 1), MatrixKind.LAPLACIAN)
    for tol in (math.nan, math.inf, 0.0, -1e-10):
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            dense_spectrum(m, tol)


def test_random_tree_small_cases():
    t1 = random_tree(1, seed=0)
    assert t1.n == 1
    t2 = random_tree(2, seed=123)
    assert t2.n == 2 and t2.edges() == [(1, 2)]


def test_random_tree_deterministic():
    a = random_tree(8, seed=42)
    b = random_tree(8, seed=42)
    assert a.edges() == b.edges()
    c = random_tree(8, seed=43)
    assert a.edges() != c.edges()


def test_random_tree_rooted_at_n():
    for n in (3, 6, 11):
        t = random_tree(n, seed=7)
        assert t.root == n


def test_random_tree_covers_all_shapes():
    # the three labeled trees on 3 vertices all occur across seeds
    seen = set()
    for seed in range(60):
        t = random_tree(3, seed=seed)
        seen.add(tuple(sorted(tuple(sorted(e)) for e in t.edges())))
    assert len(seen) == 3


def heap_prufer_edges(seq, n):
    """Reference decoding: pop the smallest leaf from a heap and join it to the
    next sequence value; the last two leaves form the last edge (n >= 2)."""
    degree = [1] * (n + 1)
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapify(leaves)
    edges = []
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


def heap_prufer_parents(seq, n):
    """The heap decoding as a parent list: each leaf maps to its partner, and
    the last pair's smaller vertex to n."""
    parent = [0] * (n + 1)
    if n > 1:
        *pairs, (u, v) = heap_prufer_edges(seq, n)
        for leaf, partner in pairs:
            parent[leaf] = partner
        parent[min(u, v)] = n
    return parent


@st.composite
def prufer_sequences(draw):
    n = draw(st.integers(1, 300))
    return draw(st.lists(st.integers(1, n), min_size=max(n - 2, 0), max_size=max(n - 2, 0))), n


@settings(max_examples=300, deadline=None)
@given(prufer_sequences())
@example(([], 1))
@example(([], 2))
@example(([2], 3))
@example(([4] * 6, 8))  # a star
@example((list(range(2, 10)), 10))  # a path, increasing
@example((list(range(8, 0, -1)), 10))  # a path, decreasing
@example(([5, 1, 1, 2, 2], 7))  # partners fall below the scan pointer twice
def test_linear_decoding_equals_the_heap_decoding(case):
    seq, n = case
    assert _prufer_parents(seq, n) == heap_prufer_parents(seq, n)


def test_partners_below_the_pointer():
    # 3->5, 4->1, 5->1, 1->2, 6->2, 2->7: vertices 1 and 2 become leaves behind the scan
    assert _prufer_parents([5, 1, 1, 2, 2], 7) == [0, 2, 7, 5, 1, 1, 2, 0]


#: where randrange's rejection loop runs most (n = 2^k + 1) and least (n = 2^k)
REJECTION_CASES = [(n, seed) for n in (2, 3, 4, 5, 8, 9, 64, 65, 1024, 1025) for seed in range(6)]


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 5), (3, 1), (4, 2), (17, 3), (300, 4), (5000, 5)]
                         + [case for case in REJECTION_CASES
                            if case not in {(2, 5), (3, 1), (4, 2)}])
def test_random_tree_is_the_heap_decoding_oriented(n, seed):
    rng = random.Random(seed)
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    want = build_tree(heap_prufer_edges(seq, n) if n > 1 else [], root=n)
    got = random_tree(n, seed)
    assert (got.parent, got.degree, got.postorder) == (want.parent, want.degree, want.postorder)
    assert got.root == n


@pytest.mark.parametrize("n", [1, 2, 3, 50, 50000])
def test_cli_prints_the_edges_of_random_tree(capsys, n):
    assert run(["random-tree", "--n", str(n), "--seed", "7"]) == 0
    want = "".join(f"{child} {parent}\n" for child, parent in random_tree(n, 7).edges())
    assert capsys.readouterr().out == want


def test_cli_writes_random_tree_lines_in_blocks(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 4)
    for n in range(1, 15):  # n - 1 lines: none, part of a block, whole blocks and a rest
        assert run(["random-tree", "--n", str(n), "--seed", "7"]) == 0
        want = "".join(f"{child} {parent}\n" for child, parent in random_tree(n, 7).edges())
        assert capsys.readouterr().out == want
