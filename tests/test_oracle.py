"""Tests for the dense spectral oracle and the seeded random tree generator."""

import math

import pytest

from treespec.errors import DomainError, SizeLimitError
from treespec.oracle import SIZE_LIMIT, dense_spectrum, random_tree
from treespec.treediag import MatrixKind, SymmetricTreeMatrix, build_matrix, build_tree, locate


def path_tree(n):
    return build_tree([(i, i + 1) for i in range(1, n)], root=n)


def test_p2_adjacency_spectrum():
    spec = dense_spectrum(build_matrix(path_tree(2), MatrixKind.ADJACENCY))
    assert spec.eigenvalues == pytest.approx((-1.0, 1.0), abs=1e-10)


def test_p3_adjacency_spectrum():
    spec = dense_spectrum(build_matrix(path_tree(3), MatrixKind.ADJACENCY))
    assert spec.eigenvalues == pytest.approx((-math.sqrt(2), 0.0, math.sqrt(2)), abs=1e-10)


def test_p3_laplacian_spectrum():
    spec = dense_spectrum(build_matrix(path_tree(3), MatrixKind.LAPLACIAN))
    assert spec.eigenvalues == pytest.approx((0.0, 1.0, 3.0), abs=1e-10)


def test_trace_identity():
    for seed in range(10):
        t = random_tree(2 + seed, seed=seed)
        for kind in MatrixKind.ALL:
            m = build_matrix(t, kind)
            spec = dense_spectrum(m, 1e-10)
            assert sum(spec.eigenvalues) == pytest.approx(
                sum(float(m.diag[v]) for v in range(1, t.n + 1)), abs=t.n * 1e-10
            )


def test_laplacian_psd_and_normalized_range():
    for seed in range(10):
        t = random_tree(3 + seed, seed=100 + seed)
        lap = dense_spectrum(build_matrix(t, MatrixKind.LAPLACIAN), 1e-10)
        assert -1e-10 <= lap.eigenvalues[0] <= 1e-10
        norm = dense_spectrum(build_matrix(t, MatrixKind.NORMALIZED_LAPLACIAN), 1e-10)
        assert norm.eigenvalues[0] >= -1e-10
        assert norm.eigenvalues[-1] <= 2.0 + 1e-10


def test_adjacency_spectrum_symmetric():
    # trees are bipartite, so the adjacency spectrum mirrors around zero
    for seed in range(10):
        t = random_tree(4 + seed, seed=200 + seed)
        evs = dense_spectrum(build_matrix(t, MatrixKind.ADJACENCY), 1e-10).eigenvalues
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
            evs = dense_spectrum(m, 1e-12).eigenvalues
            for k in range(1, len(evs)):
                if evs[k] - evs[k - 1] > 1e-8:
                    assert locate(m, 0.5 * (evs[k - 1] + evs[k])).below == k, (seed, kind, k)
                    gaps += 1
    assert gaps >= 300


def test_closed_form_spectra_at_size_limit():
    n = SIZE_LIMIT
    path = dense_spectrum(build_matrix(path_tree(n), MatrixKind.LAPLACIAN)).eigenvalues
    want = sorted(2.0 - 2.0 * math.cos(k * math.pi / n) for k in range(n))
    assert max(abs(a - b) for a, b in zip(path, want)) <= 1e-10
    star_tree = build_tree([(v, n) for v in range(1, n)], root=n)
    star = dense_spectrum(build_matrix(star_tree, MatrixKind.LAPLACIAN)).eigenvalues
    want = [0.0] + [1.0] * (n - 2) + [float(n)]
    assert max(abs(a - b) for a, b in zip(star, want)) <= 1e-10


def test_tol_below_lapack_bound_is_domain_error():
    # P3 with weights 1e8: Gershgorin gives g = 2e8, so n*u*g is about 6.7e-8
    m = SymmetricTreeMatrix(path_tree(3), (0, 0, 0, 0), (0, 1e8, 1e8, 0))
    bound = 3 * 2.0**-53 * 2e8
    for tol in (1e-10, 0.99 * bound):
        with pytest.raises(DomainError, match="below the LAPACK error bound"):
            dense_spectrum(m, tol)
    spec = dense_spectrum(m, bound).eigenvalues
    assert spec == pytest.approx((-math.sqrt(2) * 1e8, 0.0, math.sqrt(2) * 1e8), abs=1e-6)


def test_size_limit():
    t = path_tree(SIZE_LIMIT + 1)
    with pytest.raises(SizeLimitError):
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
