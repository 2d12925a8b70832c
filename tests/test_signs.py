"""Tests for the alternating-sign analytics of the pendant-path orbit."""

import math
import random
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treespec.signs as signs_module
from treespec import treediag
from treespec.errors import DomainError, OutOfDomainError, PatternNotFoundError, PreconditionViolatedError
from treespec.recurrence import RecurrenceParams, forbidden_initials, solve, zeros_and_poles
from treespec.signs import (
    BroomSigma,
    DoubleBroom,
    PendantConfig,
    RootSign,
    _b_pairs,
    _b_power,
    _broom_hypotheses,
    _scan,
    b_at,
    b_sequence,
    build_report,
    double_broom_layout,
    double_broom_sigma,
    double_broom_tree,
    h_function,
    in_domain,
    j_star,
    k0,
    mlas,
    mlas_direct,
    mlas_lower_bound,
    omega_r,
    period_n,
    phi_n,
    r0,
    star_up,
)
from treespec.treediag import MatrixKind, build_matrix, locate


# ---------------------------------------------------------------------------
# the b orbit


def test_b1_exact_value():
    cfg = PendantConfig(19, 2)
    assert cfg.x1 == Fraction(2, 19) - 1
    assert cfg.x2 > 1
    assert cfg.b1 == Fraction(-3979, 7505)


def test_b_sequence_signs_and_r0_consistency():
    orbit = b_sequence(PendantConfig(19, 2), 11, exact=True)
    signs = [v > 0 for v in orbit.values]
    assert signs == [False, True] * 5 + [True]


def test_b_sequence_r0_is_plain_path_start():
    cfg = PendantConfig(19, 0)
    orbit = b_sequence(cfg, 1, exact=True)
    assert orbit.values[0] == Fraction(2, 19) - 1


def test_b_far_value_large_n():
    # first positive odd-index element for n=183, r=1 sits at index 143
    value = float(b_at(PendantConfig(183, 1), 143))
    assert value == pytest.approx(0.0096876957, rel=1e-6)


def test_b_at_matches_fraction_orbit():
    # the integer-pair scan against the independent Fraction route
    rng = random.Random(20200501)
    cases = [(n, 0) for n in (8, 9, 300)] + [(n, n // 4) for n in (8, 300)]
    for _ in range(25):
        n = rng.randrange(8, 301)
        cases.append((n, rng.randrange(0, n // 4 + 1)))
    for n, r in cases:
        cfg = PendantConfig(n, r)
        js = [1, 2, 3 * n] + [rng.randrange(1, 3 * n + 1) for _ in range(4)]
        values = b_sequence(cfg, max(js), exact=True).values
        for j in js:
            assert b_at(cfg, j) == values[j - 1], (n, r, j)
    for j in (0, -1):
        with pytest.raises(DomainError, match="count must be positive"):
            b_at(PendantConfig(19, 2), j)


def _p_adic_prime(n):
    """The smallest odd prime dividing n, or 2 when n is a power of 2."""
    odd = n >> _valuation(n, 2)
    if odd == 1:
        return 2
    return next((p for p in range(3, math.isqrt(odd) + 1, 2) if odd % p == 0), odd)


def _valuation(k, p):
    v = 0
    while k % p == 0:
        k, v = k // p, v + 1
    return v


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 10**6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@example((4, 0))
@example((4, 1))
@example((8, 2))
@example((4096, 1))
@example((4096, 4096))
@example((3, 0))
@example((5, 1))
@example((7919, 1979))
@example((999983, 3))
@example((8014, 2))
def test_b1_is_no_forbidden_initial(nr):
    # b_{k+1} = 0 iff b_1 = psi^k(0), and every psi^k(0) is a p-adic integer
    # (the signs module docstring), while b_1 is not
    n, r = nr
    b1, p = PendantConfig(n, r).b1, _p_adic_prime(n)
    v = _valuation(b1.numerator, p) - _valuation(b1.denominator, p)
    assert v == (1 - _valuation(n, 2) if p == 2 else -_valuation(n, p)) < 0
    assert b1 not in forbidden_initials(RecurrenceParams(Fraction(2, n), Fraction(-1)), 40)


def test_no_exact_b_j_is_zero():
    # the exact walk over mlas_direct's 4n-term window, r one past the k_0 domain's n // 4
    for n in range(3, 121):
        for r in range(n // 4 + 2):
            assert all(p for p, _ in islice(_b_pairs(PendantConfig(n, r)), 4 * n)), (n, r)


# ---------------------------------------------------------------------------
# the certified scan and the powered pairs


def test_powered_pairs_equal_the_linear_walk():
    rng = random.Random(20261018)
    cases = [(8, 0), (8, 2), (9, 1), (64, 16), (300, 75)]
    cases += [(n, rng.randrange(0, n // 4 + 1)) for n in (rng.randrange(8, 301) for _ in range(20))]
    for n, r in cases:
        cfg = PendantConfig(n, r)
        walk = list(islice(_b_pairs(cfg), 3 * n))
        values = b_sequence(cfg, 3 * n, exact=True).values
        js = list(range(1, 18)) + [3 * n] + [rng.randrange(1, 3 * n + 1) for _ in range(6)]
        for j in js:
            assert _b_power(cfg, j) == walk[j - 1], (n, r, j)
            assert b_at(cfg, j) == values[j - 1], (n, r, j)


def within(x, e, p, q):
    """|x - p/q| <= e < |x| for floats x, e and ints p, q > 0, without a gcd."""
    fx, fe = Fraction(x), Fraction(e)
    dx, de = fx.denominator, fe.denominator
    gap = abs(fx.numerator * q - p * dx) * de
    return gap <= fe.numerator * q * dx and fe < abs(fx)


def documented_bound(cfg, x, e):
    """The bound of ``_scan``'s docstring, summed exactly from the pass's own floats."""
    u, tiny = Fraction(1, 2**53), Fraction(2.0**-200)
    da = abs(Fraction(2 / cfg.n) - Fraction(2, cfg.n))
    want = [abs(Fraction(x[0]) - cfg.b1) + tiny]
    for xj, ej, xk in zip(x, e, x[1:]):
        assert xk == 2 / cfg.n - 1.0 / xj
        ax, fe = abs(Fraction(xj)), Fraction(ej)
        want.append(da + tiny + fe / (ax * (ax - fe))
                    + u * (abs(Fraction(1.0 / xj)) + abs(Fraction(xk))))
    return want


def check_scan(cfg, count):
    """Every certified term of the first ``count`` has b_j's sign, lies within its
    bound, and that bound covers the documented one; returns the certified count."""
    scanned = list(islice(_scan(cfg), count))
    x = [v for v, _ in scanned]
    e = [b for _, b in scanned]
    for (xj, ej), (p, q) in zip(scanned, _b_pairs(cfg)):
        assert (xj > 0) == (p > 0) and p != 0
        assert within(xj, ej, p, q)
    for ej, want in zip(e, documented_bound(cfg, x, e)):
        assert Fraction(ej) >= want
    return len(scanned)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 300), st.integers(0, 90))
def test_certified_signs_are_exact_signs(n, r):
    assert check_scan(PendantConfig(n, r), min(3 * n, 500)) > 0


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 200), st.integers(-10**6, 10**6).filter(bool), st.integers(3, 40),
       st.booleans())
def test_starts_that_graze_zero(n, k, digits, early):
    # b_1 = n/2 + k/10^digits makes b_2 graze 0; one step earlier, b_1 next to
    # 2n/(4 - n^2) makes b_3 graze 0 with b_1 < 0, where mlas_direct scans
    half = Fraction(n, 2) + Fraction(k, 10**digits)
    b1 = 1 / (Fraction(2, n) - half) if early else half
    cfg = SimpleNamespace(n=n, r=0, b1=b1)
    certified = check_scan(cfg, 40)
    walk = list(islice(_b_pairs(cfg), 40))
    for j in (1, 2, 3, 4, 5, 17, 40):
        assert b_at(cfg, j) == Fraction(*walk[j - 1])
    if early and b1 < 0:
        assert mlas_direct(cfg) == walk_mlas(cfg)
    if digits > 30:
        assert certified == (2 if early else 1)  # the fallback decided


def walk_mlas(cfg):
    """mlas_direct by the exact walk alone."""
    for j, (p, _) in enumerate(islice(_b_pairs(cfg), 4 * cfg.n), 1):
        if j % 2 == 1 and p > 0:
            return j - 1
    raise AssertionError("no positive odd-index term")


def test_a_term_equal_to_its_bound_stays_uncertain():
    # b_1 = x, a float: e_1 = 2^-200 F whatever x is.  Walk x up from 2^-200;
    # the first certified x must be the float just above its bound.
    x = 2.0**-200
    for _ in range(100):  # F = 1 + 44u puts the bound 22 floats above 2^-200
        if scanned := list(islice(_scan(SimpleNamespace(n=8, r=0, b1=Fraction(x))), 1)):
            break
        x = math.nextafter(x, 1.0)
    assert scanned[0][0] == x and math.nextafter(scanned[0][1], 1.0) == x


def test_orbits_at_the_bottom_of_the_float_range():
    # with n = 2^200 and b_1 = 2^150 every term is near 2^-150 and the 2^-200
    # floor outweighs the rounding terms; at n = 2^1100, 2/n underflows to 0.0
    for n in (2**200, 2**1100):
        for b1 in (Fraction(2**150), Fraction(-3, 2**190), Fraction(7, 5)):
            assert check_scan(SimpleNamespace(n=n, r=0, b1=b1), 6) == 6


def test_starts_beyond_the_float_range():
    # r = 10^320: b_1 ~ 4r/n overflows a float; the exact walk takes over
    cfg = PendantConfig(40, 10**320)
    assert list(islice(_scan(cfg), 5)) == []
    assert b_at(cfg, 3) == b_sequence(cfg, 3, exact=True).values[2]
    with pytest.raises(PatternNotFoundError, match="> 0: no alternating prefix"):
        mlas_direct(cfg)


def test_r0_exact_and_bounds():
    assert r0(8) == Fraction(57, 28)
    for n in range(7, 201):
        assert Fraction(n, 4) < r0(n)


def test_b1_negative_iff_r_below_threshold():
    for n in range(3, 201):
        cutoff = math.floor(r0(n))
        for r in range(0, n + 1):
            assert (PendantConfig(n, r).b1 < 0) == (r <= cutoff)


# ---------------------------------------------------------------------------
# phase, period


def test_period_values():
    assert period_n(7) == pytest.approx(2.20084, abs=1e-5)
    assert period_n(19) == pytest.approx(2.069368956, abs=1e-8)
    assert 2.0 < period_n(1000) < 2.002


def test_period_decreasing_to_two():
    values = [period_n(n) for n in range(3, 1001)]
    for a, b in zip(values, values[1:]):
        assert b < a
    assert values[-1] - 2.0 < 2e-3
    assert all(v > 2.0 for v in values)


def test_omega_r_reference_and_window():
    assert omega_r(PendantConfig(19, 2)) == pytest.approx(-0.9898518437, abs=1e-9)
    for n in range(8, 101):
        for r in range(1, n // 4 + 1):
            w = omega_r(PendantConfig(n, r))
            assert -math.pi / 2 < w < -math.pi / 4


def test_omega_r_decreasing_in_r():
    for n in (8, 19, 60, 100):
        values = [omega_r(PendantConfig(n, r)) for r in range(1, n // 4 + 1)]
        for a, b in zip(values, values[1:]):
            assert b < a


def test_omega_r_zero_pendants_is_half_phase():
    for n in (8, 19, 100):
        assert omega_r(PendantConfig(n, 0)) == pytest.approx(-phi_n(n) / 2.0, abs=1e-12)


def test_omega_r_domain():
    with pytest.raises(OutOfDomainError):
        omega_r(PendantConfig(7, 1))
    with pytest.raises(OutOfDomainError):
        omega_r(PendantConfig(19, 5))
    assert not in_domain(19, 5) and in_domain(19, 4)


# ---------------------------------------------------------------------------
# k0, j*, mlas


def test_k0_worked_values():
    assert k0(PendantConfig(19, 2)) == 4
    assert 4.51 < h_function(19, 2, 0) < 4.52
    assert k0(PendantConfig(183, 1)) == 70
    assert k0(PendantConfig(183, 45)) == 1


def test_h_sign_pattern():
    for n in range(8, 101):
        for r in range(1, n // 4 + 1):
            assert h_function(n, r, -1) > 0
            assert h_function(n, r, 0) > 0
            assert h_function(n, r, 1) < 0


def test_j_star_worked_value_and_window():
    cfg = PendantConfig(19, 2)
    assert j_star(cfg) == pytest.approx(0.6867, abs=5e-5)
    assert math.floor((1.0 - j_star(cfg)) / (period_n(19) - 2.0)) == 4 == k0(cfg)
    for n in (8, 23, 77):
        for r in range(1, n // 4 + 1):
            js = j_star(PendantConfig(n, r))
            assert 0.0 < js < period_n(n)


def test_j_star_is_first_positive_zero_of_extension():
    for n, r in ((19, 2), (31, 4), (64, 9)):
        cfg = PendantConfig(n, r)
        sol = solve(cfg.params(exact=False), float(cfg.b1))
        zeros, _ = zeros_and_poles(sol, 0.0, period_n(n) + 1.0)
        first = min(z for z in zeros if z > 0)
        assert first == pytest.approx(j_star(cfg), abs=1e-9)


def test_mlas_worked_values():
    assert [mlas(PendantConfig(19, r)) for r in (1, 2, 3, 4)] == [12, 10, 8, 4]
    assert mlas(PendantConfig(183, 26)) == 76
    assert mlas(PendantConfig(183, 29)) == 64
    assert mlas(PendantConfig(19, 0)) == mlas(PendantConfig(19, 1)) + 2


def test_mlas_direct_worked_values():
    assert mlas_direct(PendantConfig(19, 2), 40) == 10
    assert mlas_direct(PendantConfig(183, 1), 800) == 142
    assert mlas_direct(PendantConfig(19, 4), 80) == 4
    orbit = b_sequence(PendantConfig(19, 2), 11, exact=True)
    assert orbit.values[10] > 0  # index 11 is the first positive odd entry


def test_mlas_direct_pattern_not_found():
    # r beyond the sign threshold starts positive: no alternating prefix
    assert PendantConfig(19, 5).b1 > 0
    with pytest.raises(PatternNotFoundError) as exc:
        mlas_direct(PendantConfig(19, 5))
    assert str(exc.value) == "b_1(n=19, r=5) = 25/1501 > 0: no alternating prefix"
    with pytest.raises(PatternNotFoundError) as exc:
        mlas_direct(PendantConfig(183, 1), j_max=10)  # window too short
    assert str(exc.value) == "no positive odd-index term within j <= 10 for (n=183, r=1)"


def test_formula_matches_scan_on_sample():
    for n in (8, 9, 12, 19, 40, 83):
        for r in range(1, n // 4 + 1):
            cfg = PendantConfig(n, r)
            assert mlas(cfg) == mlas_direct(cfg)


def test_alternation_content():
    for n, r in ((8, 1), (19, 2), (50, 7), (120, 30)):
        cfg = PendantConfig(n, r)
        k = k0(cfg)
        orbit = b_sequence(cfg, 2 * k + 3, exact=True)
        assert orbit.completed
        for i in range(0, k + 1):
            assert orbit.values[2 * i] < 0      # b_{2k+1}
            assert orbit.values[2 * i + 1] > 0  # b_{2k+2}
        assert orbit.values[2 * k + 2] > 0      # b_{2k0+3}


def test_mlas_lower_bound():
    assert mlas_lower_bound(PendantConfig(183, 1)) == 142 == mlas(PendantConfig(183, 1))
    assert mlas_lower_bound(PendantConfig(183, 44)) == 2
    assert mlas_lower_bound(PendantConfig(19, 1)) == 12 == mlas(PendantConfig(19, 1))
    for n in (8, 16, 45, 100):
        for r in range(1, n // 4 + 1):
            cfg = PendantConfig(n, r)
            assert mlas_lower_bound(cfg) <= mlas(cfg)


def test_build_report_fields():
    report = build_report(PendantConfig(19, 2))
    assert report.mlas == 2 * report.k0 + 2 == 10
    assert report.period > 2.0
    assert -math.pi / 2 < report.omega_r < -math.pi / 4
    assert report.lower_bound <= report.mlas


# ---------------------------------------------------------------------------
# double brooms


def test_double_broom_tree_structure():
    b = DoubleBroom(r=3, q=2, p=2, R=2)
    assert b.n == 19
    layout = double_broom_layout(b)
    t = layout.tree
    assert t.n == 19
    assert t.degree[layout.root] == 2
    assert t.degree[layout.left_star] == 4   # r + 1
    assert t.degree[layout.right_star] == 3  # R + 1
    small = DoubleBroom(r=1, q=1, p=1, R=1)
    assert small.n == 9
    assert double_broom_tree(small).n == 9


@pytest.mark.parametrize("r, R", [(1, 1), (1, 4), (4, 1), (3, 3), (6, 2)])
def test_double_broom_layout_is_the_oriented_tree(r, R):
    """The closed-form layout equals build_tree's orientation of its edges (DoubleBroom
    needs r, q, p, R >= 1, so r = 0 and R = 0 do not arise)."""
    for q in (1, 2, 5):
        for p in (1, 3, 4):
            layout = double_broom_layout(DoubleBroom(r=r, q=q, p=p, R=R))
            got = layout.tree
            edges = [(v, u) for v, u in enumerate(got.parent) if u]
            want = treediag.build_tree(edges, root=layout.root)
            assert (got.n, got.root, got.parent, got.degree, got.postorder, got._postorder_parent) == (
                want.n, want.root, want.parent, want.degree, want.postorder, want._postorder_parent)
            assert type(got.parent) is tuple and type(got.postorder) is tuple


def test_double_broom_sigma_example():
    result = double_broom_sigma(DoubleBroom(r=3, q=2, p=2, R=2))
    assert result.sigma == 9
    assert result.root_sign is RootSign.NEGATIVE
    assert result.hypotheses_met
    assert tuple(result.inertia) == (10, 0, 9)


def test_double_broom_sigma_matches_sweep():
    for b in (
        DoubleBroom(1, 1, 1, 1),
        DoubleBroom(2, 1, 1, 2),
        DoubleBroom(2, 2, 3, 3),
        DoubleBroom(4, 2, 2, 3),
        DoubleBroom(3, 3, 3, 3),
    ):
        result = double_broom_sigma(b)
        lap = build_matrix(double_broom_tree(b), MatrixKind.LAPLACIAN)
        direct = locate(lap, 2 - Fraction(2, b.n), exact=True)
        assert result.sigma == direct.above
        assert result.sigma in (b.n // 2, b.n // 2 + 1)


def test_double_broom_sigma_fallback():
    # r = 4 >= floor((15-1)/4) = 3 breaks the side-count hypotheses
    result = double_broom_sigma(DoubleBroom(r=4, q=1, p=1, R=1))
    assert not result.hypotheses_met
    assert result.sigma == result.inertia.above


#: 7 * 7 * 8 * 8 = 3,136 brooms, 1,531 of them outside the side-counting hypotheses
BROOM_GRID = [DoubleBroom(r, q, p, R) for r in range(1, 8) for R in range(1, 8)
              for q in range(1, 9) for p in range(1, 9)]


def _exact_root_and_inertia(b):
    layout = double_broom_layout(b)
    lap = build_matrix(layout.tree, MatrixKind.LAPLACIAN)
    values, inertia = treediag._sweep(lap, 2 - Fraction(2, b.n), True)
    return values[layout.root], inertia


@pytest.fixture(scope="module")
def broom_grid_reference():
    """The split of each grid broom from the exact sweep's inertia and root value."""
    reference = {}
    for b in BROOM_GRID:
        root_value, inertia = _exact_root_and_inertia(b)
        # 2 - 2/n (n odd) is no algebraic integer, so no eigenvalue of an integer matrix
        assert root_value != 0, b
        sign = RootSign.POSITIVE if root_value > 0 else RootSign.NEGATIVE
        reference[b] = BroomSigma(inertia.above, sign, _broom_hypotheses(b), inertia)
    assert sum(not r.hypotheses_met for r in reference.values()) == 1531
    return reference


def _count_exact_sweeps(monkeypatch):
    calls, sweep = [], treediag._sweep
    monkeypatch.setattr(treediag, "_sweep", lambda *args: calls.append(args) or sweep(*args))
    return calls


def test_double_broom_sigma_certified_on_a_grid(monkeypatch, broom_grid_reference):
    def exact_sweep(*args):
        raise AssertionError("the certified sweep left a sign in doubt")

    monkeypatch.setattr(treediag, "_sweep", exact_sweep)  # every grid broom is certified in floats
    for b in BROOM_GRID:
        assert double_broom_sigma(b) == broom_grid_reference[b], b


def test_double_broom_sigma_exact_path_on_a_grid(monkeypatch, broom_grid_reference):
    monkeypatch.setattr(treediag, "_certified_sweep", lambda m, alpha: None)
    calls = _count_exact_sweeps(monkeypatch)
    for b in BROOM_GRID:
        assert double_broom_sigma(b) == broom_grid_reference[b], b
    assert len(calls) == len(BROOM_GRID)


@pytest.mark.parametrize("doubt", [
    lambda terms: ((x, abs(x) * 0.999) for x, _ in terms),  # the formula's interval holds 0
    lambda terms: islice(terms, 2),  # a sign in doubt at b_3
], ids=["interval-holds-zero", "scan-stops-early"])
def test_double_broom_sigma_doubtful_formula_goes_exact(monkeypatch, broom_grid_reference, doubt):
    # only the terms rerun, exactly: the certified root interval decides with them
    monkeypatch.setattr(signs_module, "_scan", lambda cfg: doubt(_scan(cfg)))
    calls = _count_exact_sweeps(monkeypatch)
    terms = []
    monkeypatch.setattr(signs_module, "b_at", lambda cfg, j: terms.append((cfg, j)) or b_at(cfg, j))
    brooms = [b for b in BROOM_GRID[::7] if b.q > 1 and b.p > 1]
    for b in brooms:
        terms.clear()
        assert double_broom_sigma(b) == broom_grid_reference[b], b
        want = [(PendantConfig(b.n, b.r), 2 * b.q), (PendantConfig(b.n, b.R), 2 * b.p)]
        assert terms == (want if broom_grid_reference[b].hypotheses_met else []), b
    assert calls == [] and sum(broom_grid_reference[b].hypotheses_met for b in brooms) > 0


def test_double_broom_cross_check_catches_a_shifted_scan(monkeypatch):
    b = DoubleBroom(r=3, q=2, p=2, R=2)
    # b_4 moves from 4.45 and 2.62 to 5.45 and 3.62: the formula keeps its
    # sign, and so the predicted count, but leaves the root's interval
    monkeypatch.setattr(signs_module, "_scan", lambda cfg: ((x + 1.0, e) for x, e in _scan(cfg)))
    with pytest.raises(RuntimeError, match="side counting disagrees"):
        double_broom_sigma(b)


def test_double_broom_exact_check_catches_a_shifted_b_at(monkeypatch):
    monkeypatch.setattr(treediag, "_certified_sweep", lambda m, alpha: None)
    monkeypatch.setattr(signs_module, "b_at", lambda cfg, j: b_at(cfg, j) + 1)
    with pytest.raises(RuntimeError, match="side counting disagrees"):
        double_broom_sigma(DoubleBroom(r=3, q=2, p=2, R=2))


def test_double_broom_root_value_is_the_formula_exactly():
    brooms = [b for b in BROOM_GRID if max(b.r, b.R) <= 4 and max(b.q, b.p) <= 5 and _broom_hypotheses(b)]
    assert len(brooms) > 100
    for b in brooms:
        root_value, inertia = _exact_root_and_inertia(b)
        left, right = b_at(PendantConfig(b.n, b.r), 2 * b.q), b_at(PendantConfig(b.n, b.R), 2 * b.p)
        formula = Fraction(2, b.n) - 1 / left - 1 / right
        assert formula == root_value, b
        assert inertia.above == b.r + b.R + b.q + b.p + (formula > 0)


# ---------------------------------------------------------------------------
# star-up


def test_star_up_chain_keeps_sigma():
    layout = double_broom_layout(DoubleBroom(r=3, q=2, p=2, R=2))
    d = 2 - Fraction(2, 19)

    def sigma(tree):
        return locate(build_matrix(tree, MatrixKind.LAPLACIAN), d, exact=True).above

    chain = [layout.tree]
    for star in (layout.right_star, layout.left_star, layout.right_star):
        chain.append(star_up(chain[-1], star))
    assert [t.n for t in chain] == [19, 19, 19, 19]
    assert [sigma(t) for t in chain] == [9, 9, 9, 9]
    # final tree: both stars carry 4 pendant 2-paths through one middle vertex
    degrees = sorted(chain[-1].degree[v] for v in range(1, 20))
    assert degrees == [1] * 8 + [2] * 9 + [5, 5]


def test_star_up_moves_one_path_pair():
    layout = double_broom_layout(DoubleBroom(r=3, q=2, p=2, R=2))
    before = layout.tree
    after = star_up(before, layout.right_star)
    assert after.n == before.n
    assert after.degree[layout.right_star] == before.degree[layout.right_star] + 1
    removed = set(map(frozenset, (e for e in _undirected(before)))) - set(
        map(frozenset, _undirected(after))
    )
    added = set(map(frozenset, _undirected(after))) - set(map(frozenset, _undirected(before)))
    assert len(removed) == 1 and len(added) == 1


def _undirected(tree):
    return [tuple(sorted(e)) for e in tree.edges()]


def _adjacency(tree):
    adj = {v: set() for v in range(1, tree.n + 1)}
    for u, v in tree.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _pendant_2paths(adj, v):
    return sum(1 for w in adj[v] if len(adj[w]) == 2 and any(len(adj[x]) == 1 for x in adj[w]))


def _distance(adj, source, target):
    seen, frontier, steps = {source}, [source], 0
    while target not in seen:
        frontier = [w for v in frontier for w in adj[v] if w not in seen]
        seen.update(frontier)
        steps += 1
    return steps


def test_star_up_property_on_random_double_brooms():
    rng = random.Random(8)
    rewrites = 0
    for _ in range(60):
        b = DoubleBroom(r=rng.randint(1, 4), q=rng.randint(1, 6), p=rng.randint(1, 6),
                        R=rng.randint(1, 4))
        layout = double_broom_layout(b)
        for star, other, r in ((layout.left_star, layout.right_star, b.r),
                               (layout.right_star, layout.left_star, b.R)):
            tree = layout.tree
            while True:
                before = _adjacency(tree)
                try:
                    after_tree = star_up(tree, star)
                except PreconditionViolatedError:
                    # a fresh broom's path is long enough: only the pendant budget stops it
                    assert tree is not layout.tree or r > b.n // 4 - 1
                    break
                rewrites += 1
                after = _adjacency(after_tree)
                assert after_tree.n == b.n and len(after_tree.edges()) == b.n - 1
                assert _pendant_2paths(after, star) == _pendant_2paths(before, star) + 1
                assert _distance(after, star, other) == _distance(before, star, other) - 2
                changed = {v: len(after[v]) - len(before[v]) for v in before
                           if len(after[v]) != len(before[v])}
                new_leaf = [v for v in changed if v != star]
                assert changed[star] == 1 and len(new_leaf) == 1
                assert (len(before[new_leaf[0]]), len(after[new_leaf[0]])) == (2, 1)
                tree = after_tree
    assert rewrites > 100


def test_domain_checks():
    # k0 and its kin need n >= 8 and 1 <= r <= n/4; omega_r also takes r = 0
    for n in range(3, 41):
        for r in range(0, n // 4 + 3):
            cfg = PendantConfig(n, r)
            for fn, lo in ((k0, 1), (mlas_lower_bound, 1), (omega_r, 0)):
                if n >= 8 and lo <= r <= n // 4:
                    fn(cfg)
                else:
                    with pytest.raises(OutOfDomainError, match="outside"):
                        fn(cfg)
    for fn in (r0, phi_n):
        with pytest.raises(OutOfDomainError, match=">= 3"):
            fn(2)


def test_star_up_preconditions():
    from treespec.treediag import build_tree

    layout = double_broom_layout(DoubleBroom(r=3, q=2, p=2, R=2))
    with pytest.raises(PreconditionViolatedError):
        star_up(layout.tree, layout.root)  # two non-pendant neighbors
    # path neighbor with degree 3: no clean two-vertex segment to remove
    branchy = build_tree([(1, 2), (2, 3), (1, 4), (4, 5), (4, 6), (5, 7), (6, 8)], root=1)
    with pytest.raises(PreconditionViolatedError):
        star_up(branchy, 1)
    # pendant budget exhausted: r = 4 > floor(19/4) - 1
    full = double_broom_layout(DoubleBroom(r=4, q=2, p=1, R=2))
    assert full.tree.n == 19
    with pytest.raises(PreconditionViolatedError):
        star_up(full.tree, full.left_star)
    for star in (0, 20):
        with pytest.raises(PreconditionViolatedError, match="outside 1..19"):
            star_up(layout.tree, star)
    # on the path 1 .. 4 the two vertices after star 1 end at the leaf 4
    with pytest.raises(PreconditionViolatedError, match="anchor 4 must not be a leaf"):
        star_up(build_tree([(1, 2), (2, 3), (3, 4)], root=1), 1)
