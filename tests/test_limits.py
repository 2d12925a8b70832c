"""Tests for starlike trees and their spectral-radius limits."""

import math
from fractions import Fraction
from math import isqrt

import pytest

from treespec.cli import run
from treespec.errors import DomainError
from treespec.limits import (
    _ADJACENCY,
    _LAPLACIAN,
    StarlikeSpec,
    _centre_gap,
    _gap_step,
    adjacency_limit_gap,
    guo_constant,
    laplacian_limit_gap,
    shearer_constant,
    t_lmn,
)
from treespec.recurrence import RecurrenceParams, iterate
from treespec.treediag import MatrixKind, _sweep, build_matrix, spectral_radius

from references import dense_spectrum


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


# "indistinguishable beyond n ~ 25" below describes the bisected radii; the
# command answers those rows from the centre equation (see the tests after it)
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
        want = max(dense_spectrum(m, 1e-10))
        assert spectral_radius(m, 1e-10) == pytest.approx(want, abs=2e-10)


def test_center_residual_at_radius():
    """The arm orbit balances at the center when the shift is the radius."""
    for n_arm in range(3, 21):
        lam = shearer_constant() - adjacency_limit_gap(n_arm, 1e-10)
        orbit = iterate(RecurrenceParams(-lam, -1.0), -lam, n_arm).values
        z1, zn = orbit[0], orbit[-1]
        assert abs(-lam - 1.0 / z1 - 2.0 / zn) <= 1e-6


GAPS = {MatrixKind.ADJACENCY: (adjacency_limit_gap, shearer_constant, _ADJACENCY),
        MatrixKind.LAPLACIAN: (laplacian_limit_gap, guo_constant, _LAPLACIAN)}

#: bits of the dyadic brackets of the limits: the Laplacian gap at n_arm = 200
#: is 1.0e-106, about 2^-352
BITS = 600


def limit_bracket(kind):
    """Dyadic bounds lo < w_inf < hi, 2^-599 apart, of w_inf = lambda_inf (adjacency) or
    e = lambda_inf - 2 (Laplacian), from integer arithmetic alone."""
    one = 1 << BITS
    if kind == MatrixKind.ADJACENCY:  # sqrt(2 + sqrt(5)), with floor(sqrt(5) 2^BITS) = r5
        r5 = isqrt(5 << 2 * BITS)
        lo, hi = isqrt((2 << 2 * BITS) + r5 * one), isqrt((2 << 2 * BITS) + (r5 + 1) * one) + 1
    else:  # the root of x^3 - 4x - 4 in (2, 3), by bisection
        lo, hi = 2 * one, 3 * one
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mid**3 - 4 * mid * one * one - 4 * one**3 < 0:
                lo = mid
            else:
                hi = mid
    return Fraction(lo, one), Fraction(hi, one)


def above_count(kind, n_arm, w):
    """Eigenvalues of T(1, n_arm, n_arm) above lambda = w (adjacency) or 2 + w (Laplacian), w > 2.

    Above the arms' spectrum every arm value is negative, so the count is 1
    exactly when the centre value d_c - lambda - 1/x_1 - 2/x_n is positive.
    x_n = a/b comes from exact integer powering of the arm's transfer matrix
    M = [[-P, -Q], [Q, 0]], (a, b) -> M (a, b), w = P/Q, from x_0 = inf
    (adjacency) or 1, in the Cayley-Hamilton form M^k = f M + g I.
    """
    p, q = w.numerator, w.denominator
    f, g = 0, 1
    for bit in bin(n_arm)[2:]:
        f, g = 2 * f * g - f * f * p, g * g - f * f * q * q  # squared: M^2 = -P M - Q^2 I
        if bit == "1":
            f, g = g - f * p, -f * q * q  # times M
    b0 = 0 if kind == MatrixKind.ADJACENCY else 1
    a, b = f * (-p - q * b0) + g, f * q + g * b0
    # F = k - w - 1/x_1 - 2b/a with x_1 = -P1/Q: k = 0, P1 = P or k = 1, P1 = P + Q
    k, p1 = (0, p) if kind == MatrixKind.ADJACENCY else (1, p + q)
    numerator = (k * q - p) * p1 * a + q * q * a - 2 * b * q * p1
    return int(numerator != 0 and (numerator > 0) == (p1 * a > 0))  # F > 0, as Q > 0


def dyadic(x, step, up):
    """x rounded up or down to a multiple of step = 2^-k."""
    return (math.ceil(x / step) if up else math.floor(x / step)) * step


@pytest.mark.parametrize("kind", GAPS)
def test_limit_brackets_hold_the_constants(kind):
    lo, hi = limit_bracket(kind)
    assert 0 < hi - lo <= Fraction(2, 1 << BITS)
    if kind == MatrixKind.ADJACENCY:
        assert (lo * lo - 2) ** 2 < 5 < (hi * hi - 2) ** 2
    else:
        assert lo**3 - 4 * lo - 4 < 0 < hi**3 - 4 * hi - 4
    # the solver's constant hi + lo, within 2^-105 of the limit
    family = GAPS[kind][2]
    assert abs(Fraction(family.hi) + Fraction(family.lo) - lo) <= Fraction(family.hi) / 2**105


@pytest.mark.parametrize("kind", GAPS)
def test_powering_counts_match_the_exact_sweep(kind):
    lo, _ = limit_bracket(kind)
    shift = 0 if kind == MatrixKind.ADJACENCY else 2
    for n_arm in (4, 9, 30):
        m = build_matrix(t_lmn(StarlikeSpec(1, n_arm, n_arm)), kind)
        for gap in (Fraction(1, 10**3), Fraction(1, 10**6), Fraction(1, 10**9), Fraction(1, 10**14)):
            w = lo - gap
            assert above_count(kind, n_arm, w) == _sweep(m, w + shift, True)[1].above


@pytest.mark.parametrize("kind", GAPS)
def test_centre_gaps_are_certified_by_exact_counts(kind):
    """Every gap the centre equation answers, n_arm 1..200, lies within 1e-12 relative of the truth."""
    lo, hi = limit_bracket(kind)
    eps = Fraction(1, 10**12)
    answered = []
    for n_arm in range(1, 201):
        solved = _centre_gap(GAPS[kind][2], n_arm)
        if solved is None or solved[1] > 1e-12:
            continue
        delta = Fraction(solved[0])
        # a coarser dyadic toward the root keeps the test points' integers short
        step = Fraction(1, 2 ** (4 + math.ceil(1 / (delta * eps)).bit_length()))
        assert above_count(kind, n_arm, dyadic(hi - delta * (1 + eps), step, True)) == 1, n_arm
        assert above_count(kind, n_arm, dyadic(lo - delta * (1 - eps), step, False)) == 0, n_arm
        answered.append(n_arm)
    first = 17 if kind == MatrixKind.ADJACENCY else 7  # every row that switches
    assert set(range(first, 201)) <= set(answered)


@pytest.mark.parametrize("kind", GAPS)
@pytest.mark.parametrize("tol", [None, 1e-8])
def test_gaps_positive_and_decreasing_to_200(kind, tol):
    gap = GAPS[kind][0]
    gaps = [gap(n_arm) if tol is None else gap(n_arm, tol) for n_arm in range(1, 201)]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("kind", GAPS)
@pytest.mark.parametrize("tol", [1e-10, 1e-8, 1e-12, 1e-4])
def test_rows_below_the_switch_are_the_bisection(kind, tol):
    """A row takes the centre equation's gap wherever its bound is at most 1e-12
    relative, whatever tol: from n_arm 17 (adjacency) or 7 (Laplacian) on.  Every
    row before the switch is the bisection within tol."""
    gap, constant, family = GAPS[kind]
    first = 17 if kind == MatrixKind.ADJACENCY else 7
    for n_arm in range(1, 41):
        solved = _centre_gap(family, n_arm)
        if n_arm >= first:
            assert solved[1] <= 1e-12 and gap(n_arm, tol) == solved[0], n_arm
        else:
            assert solved is None or solved[1] > 1e-12, n_arm
            m = build_matrix(t_lmn(StarlikeSpec(1, n_arm, n_arm)), kind)
            assert gap(n_arm, tol) == constant() - spectral_radius(m, tol), n_arm


@pytest.mark.parametrize("kind, first_refused", [(MatrixKind.LAPLACIAN, 581),
                                                 (MatrixKind.ADJACENCY, 1468)])
def test_gaps_below_the_float_range_are_refused(capsys, kind, first_refused):
    gap, _, family = GAPS[kind]
    last = _centre_gap(family, first_refused - 1)
    assert last[1] <= 1e-12 and gap(first_refused - 1) == last[0] >= 2.0**-1022
    for n_arm in (first_refused, first_refused + 1, 10**9):
        with pytest.raises(DomainError, match=f"n_arm = {n_arm}"):
            gap(n_arm)
    capsys.readouterr()
    for fmt in ("csv", "json"):
        # the table keeps the rows before the first refused n_arm, then exits 3 naming it
        assert run(["--format", fmt, "limit", "--family", kind, "--n-max", str(first_refused - 1)]) == 0
        answered = capsys.readouterr().out
        for n_max in (first_refused, first_refused + 1):
            assert run(["--format", fmt, "limit", "--family", kind, "--n-max", str(n_max)]) == 3
            out, err = capsys.readouterr()
            assert out == answered and err == f"error: n_arm = {first_refused}: " \
                "the gap to the limit is below the normal float range\n"


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.inf, math.nan])
def test_switched_rows_check_tol_too(tol):
    for gap in (adjacency_limit_gap, laplacian_limit_gap):
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            gap(60, tol)


def test_gap_step_slope_bounds_the_derivative():
    """slope bounds |d log h/d delta|, measured by differences of h."""
    for family in (_ADJACENCY, _LAPLACIAN):
        for n_arm in (1, 3, 12, 40, 150, 300):
            for delta in (0.0, 1e-8, 1e-5, 1e-3, 3e-2):
                here, there = _gap_step(family, delta, n_arm), _gap_step(family, delta + 1e-9, n_arm)
                if here and there:
                    assert abs(math.log(there[0] / here[0])) / 1e-9 <= here[2]
