"""Tests for starlike trees and their spectral-radius limits."""

import math

import pytest

from treespec.limits import (
    StarlikeSpec,
    adjacency_limit_gap,
    guo_constant,
    laplacian_limit_gap,
    shearer_constant,
    t_lmn,
)
from treespec.oracle import dense_spectrum
from treespec.recurrence import RecurrenceParams, iterate
from treespec.treediag import MatrixKind, build_matrix, spectral_radius


def radius(spec, kind, tol=1e-10):
    return spectral_radius(build_matrix(t_lmn(spec), kind), tol)


def test_t_lmn_shapes():
    star = t_lmn(StarlikeSpec(1, 1, 1))
    assert star.n == 4
    assert star.degree[star.root] == 3
    t122 = t_lmn(StarlikeSpec(1, 2, 2))
    assert t122.n == 6
    t = t_lmn(StarlikeSpec(1, 5, 5))
    assert t.n == 12
    leaf_count = sum(1 for v in range(1, 13) if t.degree[v] == 1)
    assert leaf_count == 3


def test_small_starlike_radii():
    # arm pattern (1,2,2) peaks at sqrt(2+sqrt(3)); (1,3,3) is the first to reach 2
    assert radius(StarlikeSpec(1, 2, 2), MatrixKind.ADJACENCY, 1e-11) == pytest.approx(
        math.sqrt(2.0 + math.sqrt(3.0)), abs=1e-10
    )
    assert radius(StarlikeSpec(1, 3, 3), MatrixKind.ADJACENCY, 1e-11) == pytest.approx(
        2.0, abs=1e-10
    )


def test_shearer_constant_identities():
    value = shearer_constant()
    assert (value * value - 2.0) ** 2 == pytest.approx(5.0, abs=1e-12)
    assert 2.0 < value < 2.1214
    # center equation at the limit: -lam - 1/z1 - 2/theta = 0 with z1 = -lam
    theta = (-value - math.sqrt(value * value - 4.0)) / 2.0
    assert -value + 1.0 / value - 2.0 / theta == pytest.approx(0.0, abs=1e-12)


def test_guo_constant_identities():
    value = guo_constant()
    assert value == pytest.approx(4.382975767, abs=1e-9)
    eps = value - 2.0
    assert abs(eps ** 3 - 4.0 * eps - 4.0) <= 1e-12
    # simple real root: the cubic changes sign around eps
    low, high = eps - 0.1, eps + 0.1
    assert (low ** 3 - 4 * low - 4) < 0 < (high ** 3 - 4 * high - 4)
    cbrt = (54.0 + 6.0 * math.sqrt(33.0)) ** (1.0 / 3.0)
    assert value == pytest.approx(cbrt / 3.0 + 4.0 / cbrt + 2.0, abs=1e-14)


def test_adjacency_gaps_positive_and_decreasing():
    gaps = [adjacency_limit_gap(n, 1e-10) for n in range(2, 26)]
    assert all(g > 0 for g in gaps)
    for a, b in zip(gaps, gaps[1:]):
        assert b < a
    for n in (5, 10, 20):
        assert adjacency_limit_gap(n, 1e-10) > 0
    assert adjacency_limit_gap(60, 1e-10) <= 1e-8


def test_adjacency_radii_below_upper_bound():
    for n in range(2, 30):
        assert shearer_constant() - adjacency_limit_gap(n, 1e-10) < 2.1214


def test_laplacian_gaps_and_window():
    gaps = [laplacian_limit_gap(n, 1e-9) for n in range(2, 13)]
    assert all(g > 0 for g in gaps)
    for a, b in zip(gaps, gaps[1:]):
        assert b < a
    assert laplacian_limit_gap(60, 1e-9) <= 1e-6
    for n in range(2, 21):
        mu = guo_constant() - laplacian_limit_gap(n, 1e-9)
        assert 4.0 < mu <= 5.0


def test_laplacian_radii_increasing():
    # the Laplacian sequence converges like 3.38^-n, so consecutive radii
    # are indistinguishable in float64 beyond n ~ 25; certify the strict
    # increase on the resolvable prefix
    values = [guo_constant() - laplacian_limit_gap(n, 1e-10) for n in range(2, 14)]
    for a, b in zip(values, values[1:]):
        assert a < b


def test_radius_matches_oracle_small_arms():
    for n_arm in range(1, 11):
        spec = StarlikeSpec(1, n_arm, n_arm)
        m = build_matrix(t_lmn(spec), MatrixKind.ADJACENCY)
        want = max(dense_spectrum(m, 1e-10).eigenvalues)
        assert spectral_radius(m, 1e-10) == pytest.approx(want, abs=2e-10)


def test_center_residual_at_radius():
    """The arm orbit balances at the center when the shift is the radius."""
    for n_arm in range(3, 21):
        lam = shearer_constant() - adjacency_limit_gap(n_arm, 1e-10)
        orbit = iterate(RecurrenceParams(-lam, -1.0), -lam, n_arm).values
        z1, zn = orbit[0], orbit[-1]
        assert abs(-lam - 1.0 / z1 - 2.0 / zn) <= 1e-6
