"""Tests for the map x_{j+1} = alpha + gamma/x_j and its closed forms."""

import inspect
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from treespec.errors import (
    DomainError,
    NoContinuousExtensionError,
    UnsupportedOperationError,
)
from treespec.recurrence import (
    DELTA_TOL,
    POLE,
    POLE_TOL,
    ZERO_TOL,
    AlternatingSolution,
    ConstantSolution,
    LocalBehavior,
    Pole,
    RecurrenceParams,
    SolutionKind,
    Type1Solution,
    Type2Solution,
    Type3Solution,
    classify,
    fixed_points,
    forbidden_initials,
    iterate,
    local_behavior,
    period,
    psi_apply,
    phi_apply,
    reverse_initial,
    solve,
    zeros_and_poles,
)
from treespec.treediag import chain_orbit

LAMBDA_STAR = math.sqrt(2.0 + math.sqrt(5.0))


def pole_distance(sol, j, lo, hi):
    """Distance from j to the nearest pole of the continuous extension."""
    try:
        _, poles = zeros_and_poles(sol, lo, hi)
    except (NoContinuousExtensionError, UnsupportedOperationError):
        return math.inf
    if not poles:
        return math.inf
    return min(abs(j - q) for q in poles)


# ---------------------------------------------------------------------------
# phi, psi


def test_phi_worked_values():
    p = RecurrenceParams(2, -1)
    assert phi_apply(p, Fraction(3, 4)) == Fraction(2, 3)
    assert phi_apply(p, 1) == 1
    assert phi_apply(p, Fraction(1, 2)) == 0


def test_phi_rejects_zero():
    with pytest.raises(DomainError):
        phi_apply(RecurrenceParams(2.0, -1.0), 0.0)


def test_psi_worked_values():
    p = RecurrenceParams(2, -1)
    assert psi_apply(p, 0) == Fraction(1, 2)
    assert psi_apply(p, Fraction(2, 3)) == Fraction(3, 4)
    q = RecurrenceParams(-3, -1)
    assert psi_apply(q, phi_apply(q, -3)) == -3


def test_psi_rejects_alpha():
    with pytest.raises(DomainError):
        psi_apply(RecurrenceParams(2.0, -1.0), 2.0)


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        p = RecurrenceParams(rng.uniform(-4, 4), rng.uniform(0.2, 4) * rng.choice((-1, 1)))
        t = rng.uniform(-5, 5)
        if abs(t) < 1e-3 or abs(t - p.alpha) < 1e-3:
            continue
        assert phi_apply(p, psi_apply(p, t)) == pytest.approx(t, rel=1e-12, abs=1e-12)
        assert psi_apply(p, phi_apply(p, t)) == pytest.approx(t, rel=1e-12, abs=1e-12)


def test_gamma_zero_rejected():
    with pytest.raises(DomainError):
        RecurrenceParams(1.0, 0.0)


# ---------------------------------------------------------------------------
# classification and fixed points


def test_classify_worked_cases():
    c1 = classify(RecurrenceParams(1.0, -0.25))
    assert c1.kind is SolutionKind.TYPE1 and c1.delta == 0.0
    c2 = classify(RecurrenceParams(-3, -1))
    assert c2.kind is SolutionKind.TYPE2 and c2.delta == 5
    c3 = classify(RecurrenceParams(Fraction(2, 7), Fraction(-1)))
    assert c3.kind is SolutionKind.TYPE3
    assert c3.delta == Fraction(4, 49) - 4


def test_classify_exact_vs_tolerance():
    # exactly zero discriminant stays TYPE1 under the exact backend
    assert classify(RecurrenceParams(Fraction(1), Fraction(-1, 4))).kind is SolutionKind.TYPE1
    # a float discriminant inside the tolerance band also lands in TYPE1
    assert classify(RecurrenceParams(1.0, -0.25 + 1e-14)).kind is SolutionKind.TYPE1


def test_classify_exact_ignores_tolerance_band():
    # an exact discriminant of +-4e-14 is not zero, though |delta| <= DELTA_TOL
    tiny = Fraction(1, 10**14)
    assert classify(RecurrenceParams(Fraction(1), Fraction(-1, 4) + tiny)).kind is SolutionKind.TYPE2
    assert classify(RecurrenceParams(Fraction(1), Fraction(-1, 4) - tiny)).kind is SolutionKind.TYPE3


def test_fixed_points():
    assert fixed_points(RecurrenceParams(2.0, -1.0)) == [1.0]
    roots = fixed_points(RecurrenceParams(-LAMBDA_STAR, -1.0))
    assert roots[0] == pytest.approx(-1.27202, abs=1e-5)
    assert roots[1] == pytest.approx(-0.786145, abs=1e-5)
    assert fixed_points(RecurrenceParams(2.0 / 7.0, -1.0)) == []
    # delta = alpha^2 + 4 gamma overflows, the roots do not; an exact delta
    # beyond the float range takes the same scaled form
    assert fixed_points(RecurrenceParams(1e200, 1.0)) == pytest.approx([-1e-200, 1e200], rel=1e-15)
    assert fixed_points(RecurrenceParams(1.0, 1e308)) == pytest.approx([-1e154, 1e154], rel=1e-15)
    for params in (RecurrenceParams(10**200, 1), RecurrenceParams(Fraction(10**200), Fraction(1))):
        assert fixed_points(params) == [-1e-200, 1e200]


def test_nan_delta_takes_its_kind_from_the_scaled_discriminant():
    # alpha^2 is inf and 4 gamma is -inf, so the float delta is NaN
    params = RecurrenceParams(1e308, -9e307)
    cls = classify(params)
    assert math.isnan(cls.delta) and cls.kind is SolutionKind.TYPE2
    assert fixed_points(params) == pytest.approx([0.9, 1e308], rel=1e-15)
    with pytest.raises(DomainError, match=r"computed delta is not finite \(nan\)"):
        solve(params, 1.0)
    # alpha^2 = -4 gamma = 2^1024: a double root; -4 gamma = 2^1025: complex roots
    double = RecurrenceParams(2.0**512, -(2.0**1022))
    assert classify(double).kind is SolutionKind.TYPE1 and fixed_points(double) == [2.0**511]
    assert classify(RecurrenceParams(2.0**512, -(2.0**1023))).kind is SolutionKind.TYPE3


@pytest.mark.parametrize("alpha, gamma, x1", [(3e-6, -2.001e-12, 1.5e-6), (3.0, -2.001, 1.5),
                                                (3e6, -2.001e12, 1.5e6)])
def test_float_classification_does_not_depend_on_scale(alpha, gamma, x1):
    # one map at three scales: delta = 0.996 s^2 lies below DELTA_TOL at s = 1e-6
    params = RecurrenceParams(alpha, gamma)
    assert classify(params).kind is SolutionKind.TYPE2
    sol = solve(params, x1)
    assert sol.variant == "type2"
    exact = iterate(RecurrenceParams(Fraction(alpha), Fraction(gamma)), Fraction(x1), 6).values
    for j, want in enumerate(exact, start=1):
        assert sol.eval(j) == pytest.approx(float(want), rel=1e-12), j


def test_fixed_points_satisfy_phi():
    rng = random.Random(11)
    for _ in range(200):
        p = RecurrenceParams(rng.uniform(-4, 4), rng.uniform(0.2, 4) * rng.choice((-1, 1)))
        for t in fixed_points(p):
            assert abs(phi_apply(p, t) - t) <= 1e-12 * max(1.0, abs(t))


# ---------------------------------------------------------------------------
# forbidden initial values and orbits


def test_forbidden_initials_exact():
    p = RecurrenceParams(Fraction(2), Fraction(-1))
    assert forbidden_initials(p, 4) == [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5)]
    assert forbidden_initials(RecurrenceParams(1, 1), 1) == [-1]


def test_forbidden_initials_hit_alpha():
    # psi(0) = 1 = alpha, so the second backward step is undefined
    with pytest.raises(DomainError):
        forbidden_initials(RecurrenceParams(Fraction(1), Fraction(-1)), 2)


def test_backward_orbit_errors_name_their_start():
    p = RecurrenceParams(Fraction(1), Fraction(-1))  # psi(0) = 1 = alpha
    cases = [
        (lambda: forbidden_initials(p, 2), "backward orbit of 0 hits t = alpha after 1 steps"),
        (lambda: reverse_initial(p, 0, 3), "backward orbit from x_r hits t = alpha after 1 steps"),
        (lambda: reverse_initial(p, 1, 2), "backward orbit from x_r hits t = alpha after 0 steps"),
    ]
    for call, message in cases:
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message
    assert reverse_initial(p, 0, 2) == 1 and forbidden_initials(p, 1) == [1]
    # counts and ranges below their bounds
    sol = solve(RecurrenceParams(1.0, -0.25), 0.3)
    for call in (lambda: iterate(p, 2, 0), lambda: forbidden_initials(p, 0),
                 lambda: reverse_initial(p, 2, 0), lambda: zeros_and_poles(sol, 1, 1)):
        with pytest.raises(DomainError):
            call()


def test_forbidden_initial_orbit_dies_at_predicted_step():
    p = RecurrenceParams(Fraction(2), Fraction(-1))
    starts = forbidden_initials(p, 12)
    for k, x1 in enumerate(starts, start=1):
        orbit = iterate(p, x1, k + 5)
        assert orbit.hit_zero_step == k + 1
        assert len(orbit.values) == k + 1
        assert orbit.values[-1] == 0


def test_iterate_fixed_point_and_zero_hit():
    p = RecurrenceParams(2, -1)
    assert iterate(p, 1, 5).values == (1, 1, 1, 1, 1)
    orbit = iterate(p, Fraction(3, 4), 10)
    assert orbit.hit_zero_step == 4
    assert orbit.values == (Fraction(3, 4), Fraction(2, 3), Fraction(1, 2), Fraction(0))
    float_orbit = iterate(RecurrenceParams(2.0, -1.0), 0.75, 10)
    assert float_orbit.hit_zero_step == 4
    assert len(float_orbit.values) == 4
    # a zero on the last requested term
    assert iterate(RecurrenceParams(1, -1), 1, 2) == ((Fraction(1), Fraction(0)), 2)


def test_float_orbit_matches_reference_rule():
    # x_{j+1} = alpha + gamma / x_j in IEEE doubles, stopping at |x| <= 1e-12
    for alpha, gamma, x1 in ((2.0, -1.0, 0.75), (0.2, -1.0, -0.9), (1.3, 0.7, 2.0)):
        want = [x1]
        while len(want) < 200 and abs(want[-1]) > 1e-12:
            want.append(alpha + gamma / want[-1])
        orbit = iterate(RecurrenceParams(alpha, gamma), x1, 200)
        assert [x.hex() for x in orbit.values] == [x.hex() for x in want]
        assert all(type(x) is float for x in orbit.values)
        hit = len(want) if abs(want[-1]) <= 1e-12 else None
        assert orbit.hit_zero_step == hit


def test_iterate_rejects_zero_start():
    with pytest.raises(DomainError):
        iterate(RecurrenceParams(2.0, -1.0), 0.0, 5)


# ---------------------------------------------------------------------------
# closed forms


def test_solve_type1_worked_example():
    x1 = 0.5 * (1.0 + 1.0 / (-5.0 + math.sqrt(2)))
    sol = solve(RecurrenceParams(1.0, -0.25), x1)
    assert isinstance(sol, Type1Solution)
    assert sol.theta == 0.5
    assert sol.beta == pytest.approx(-6.0 + math.sqrt(2), abs=1e-12)
    assert sol.eval(4.0) == pytest.approx(-math.sqrt(2) / 4.0, abs=1e-12)
    assert sol.eval(6.0 - math.sqrt(2)) is POLE


def test_solve_type2_worked_example():
    sol = solve(RecurrenceParams(-LAMBDA_STAR, -1.0), -LAMBDA_STAR)
    assert isinstance(sol, Type2Solution)
    assert sol.beta == pytest.approx(-1.0, abs=1e-12)
    assert sol.theta * sol.theta_prime == pytest.approx(1.0, abs=1e-12)
    assert sol.theta + sol.theta_prime == pytest.approx(-LAMBDA_STAR, abs=1e-12)


def test_type2_eval_overflow_is_domain_error():
    # fixed points that overflowed: theta inf and beta nan; and a beta that
    # overflowed with q > 0, whose pole test would take log(0)
    overflowed = Type2Solution(theta=math.inf, theta_prime=-math.inf, beta=math.nan)
    # roots +-1e154 of an overflowed delta: x1 = 1 is lost in beta*q^j + 1, so solve refuses
    with pytest.raises(DomainError, match=r"delta is not finite \(inf\)"):
        solve(RecurrenceParams(1.0, 1e308), 1.0)
    for sol in (overflowed, Type2Solution(theta=2.0, theta_prime=1.0, beta=-math.inf)):
        with pytest.raises(DomainError, match="a float overflowed"):
            sol.eval(2.0)
        with pytest.raises(DomainError, match="a float overflowed"):
            zeros_and_poles(sol, 0.0, 10.0)
    # a subnormal beta has lost the bits that beta*q^j needs once q^j is huge
    sol = solve(RecurrenceParams(1e150, 1e-10), -1e150)
    assert 0.0 < sol.beta < sys.float_info.min
    with pytest.raises(DomainError, match="beta underflowed"):
        sol.eval(1.0)
    with pytest.raises(DomainError, match="beta underflowed"):
        zeros_and_poles(sol, 0.0, 10.0)
    # a zero denominator is still a pole (q = -2, integer j only)
    assert Type2Solution(theta=2.0, theta_prime=-1.0, beta=-1.0).eval(0.0) is POLE


def test_eval_at_a_non_finite_j():
    sols = [solve(RecurrenceParams(*params), x1) for params, x1 in [
        ((3.0, -2.0), 2.0),  # the fixed point 2: constant
        ((2.0, -1.0), 3.0),  # type1
        ((3.0, -2.0), 3.0),  # type2, q = 2
        ((1.0, 2.0), 5.0),  # type2, q = -2: integer j only
        ((1.0, -1.0), 3.0),  # type3
        ((0.0, -5.0), 5.0),  # alternating: integer j only
    ]]
    assert [sol.variant for sol in sols] == ["constant", "type1", "type2", "type2", "type3", "alternating"]
    for sol in sols:
        with pytest.raises(DomainError, match="needs a number j, got nan"):
            sol.eval(math.nan)
    for sol in (sols[3], sols[5]):
        for j in (math.inf, -math.inf):
            with pytest.raises(NoContinuousExtensionError, match="only at integer j"):
                sol.eval(j)


def test_type2_eval_at_an_infinite_j_where_q_is_1_names_the_cause():
    # solve never builds theta = theta' as type2; by hand, j * log q is inf * 0
    sol = Type2Solution(1.0, 1.0, 0.5)
    assert sol.base == 1.0 and sol.eval(7.0) == 1.0
    for j in (math.inf, -math.inf):
        with pytest.raises(DomainError) as exc:
            sol.eval(j)
        assert str(exc.value) == (f"closed form is undefined at j = {j!r}: "
                                  f"q = theta/theta' is 1, so j * log q is {j!r} * 0")


def test_type2_fixed_point_below_the_float_range_is_domain_error():
    # float gamma has |gamma| > ZERO_TOL, so -gamma/theta stays nonzero; an
    # exact gamma or delta can round to 0.0
    for alpha in (Fraction(3), Fraction(0)):
        p = RecurrenceParams(alpha, Fraction(1, 10**400))
        assert classify(p).kind is SolutionKind.TYPE2
        with pytest.raises(DomainError, match="underflowed to 0.0"):
            solve(p, Fraction(1))


def _signed_power_of_ten(lo, hi):
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(
        lambda t: t[0] * 10.0 ** t[1])


TYPE2_CASES = st.one_of(
    st.tuples(_signed_power_of_ten(-3, 5), _signed_power_of_ten(-4, 4), _signed_power_of_ten(-3, 4)),
    # |gamma| << alpha^2, where (alpha - sign(alpha) sqrt(delta))/2 would cancel
    st.tuples(_signed_power_of_ten(1, 6), _signed_power_of_ten(-14, -4), _signed_power_of_ten(-3, 4))
    .map(lambda t: (t[0], t[0] * t[0] * t[1], t[2])),
)


@settings(max_examples=500, deadline=None)
@given(TYPE2_CASES)
@example((443765.57125321275, -11338162.501529632, 0.0010162529684633376))
# theta/theta' = -1e309 overflows, and q^2 = 1e310 does: beta*q^j from logarithms
@example((1e150, 1e-9, 9.900990099009902e149))
@example((1e154, -1e153, 100.1))
def test_type2_closed_form_matches_the_exact_orbit(case):
    alpha, gamma, x1 = case
    assume(abs(gamma) > ZERO_TOL)
    p = RecurrenceParams(alpha, gamma)
    assume(classify(p).kind is SolutionKind.TYPE2)
    sol = solve(p, x1)
    assert isinstance(sol, Type2Solution)
    theta, theta_prime = sol.theta, sol.theta_prime
    assert theta > theta_prime
    assert fixed_points(p) == [theta_prime, theta]
    orbit = iterate(RecurrenceParams(Fraction(alpha), Fraction(gamma)), Fraction(x1), 3)
    # a relative change of u in theta, theta' or x1 moves beta*q^j by u*start
    # relative and x_j by that times |x_j - theta||x_j - theta'|/|theta - theta'|:
    # j next to a pole, or x1 next to a root, is ill-conditioned in any float form
    start = (abs(theta_prime) + abs(x1)) / abs(theta_prime - x1) + (abs(x1) + abs(theta)) / abs(x1 - theta)
    for j, ref in enumerate(orbit.values, start=1):
        x = float(ref)
        scale = max(1.0, abs(theta), abs(theta_prime), abs(x))
        if start * abs(x - theta) * abs(x - theta_prime) > 1e5 * abs(theta - theta_prime) * scale:
            continue
        got = sol.eval(float(j))
        assert got is not POLE and abs(got - x) <= 1e-9 * scale, (j, got, ref)


def test_solve_alternating():
    sol = solve(RecurrenceParams(0.0, -1.0), 5.0)
    assert isinstance(sol, AlternatingSolution)
    assert [sol.eval(j) for j in (1, 2, 3, 4)] == [5.0, -0.2, 5.0, -0.2]
    with pytest.raises(NoContinuousExtensionError):
        sol.eval(1.5)


def test_solve_constant_at_fixed_points():
    p = RecurrenceParams(-3.0, -1.0)
    for t in fixed_points(p):
        sol = solve(p, t)
        assert isinstance(sol, ConstantSolution)
        assert sol.eval(17.3) == t
    sol1 = solve(RecurrenceParams(2.0, -1.0), 1.0)
    assert isinstance(sol1, ConstantSolution)


def test_solve_rejects_zero_start():
    with pytest.raises(DomainError):
        solve(RecurrenceParams(2.0, -1.0), 0.0)


def test_closed_form_matches_iteration():
    """eval(solve(...), j) reproduces the orbit away from poles."""
    rng = random.Random(20260810)
    worst = 0.0
    for _ in range(300):
        alpha = rng.uniform(-3, 3)
        gamma = rng.uniform(-3, 3)
        while abs(gamma) < 1e-3:
            gamma = rng.uniform(-3, 3)
        x1 = rng.uniform(-3, 3)
        while abs(x1) < 1e-3:
            x1 = rng.uniform(-3, 3)
        p = RecurrenceParams(alpha, gamma)
        sol = solve(p, x1)
        orbit = iterate(p, x1, 40)
        for j, ref in enumerate(orbit.values, start=1):
            if pole_distance(sol, j, 0.0, 41.0) <= 1e-3:
                continue
            try:
                got = sol.eval(float(j))
            except NoContinuousExtensionError:
                continue
            if isinstance(got, Pole):
                continue
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# sample(js) against the per-point evaluators it replaced


def _reference_type2_den(sol, j):
    q, sign = sol.base, math.copysign(1.0, sol.beta)
    if q < 0.0:
        if abs(j) == math.inf or abs(j - round(j)) > POLE_TOL:
            raise NoContinuousExtensionError("theta/theta' < 0: solution defined only at integer j")
        j = round(j)
        sign = -sign if j % 2 else sign
    if sys.float_info.min <= abs(q) <= sys.float_info.max:
        try:
            return sol.beta * (math.exp(j * math.log(q)) if q > 0.0 else q ** j) + 1.0
        except OverflowError:
            pass
    try:
        return sign * math.exp(math.log(abs(sol.beta)) + j * sol._log_base) + 1.0
    except OverflowError:
        return sign * math.inf


def reference_eval(sol, j):
    """The closed form at one j as each family's eval computed it before sample(js):
    every value that does not depend on j is recomputed for each j."""
    if j != j:
        raise DomainError(f"closed form needs a number j, got {j!r}")
    if sol.variant == "constant":
        return sol.theta
    if sol.variant == "type1":
        den = sol.beta + j
        if abs(den) <= POLE_TOL:
            return POLE
        return sol.theta * (1.0 + 1.0 / den)
    if sol.variant == "type2":
        sol._require_normal()
        if sol.base > 0.0 and sol.beta < 0.0:
            pole_j = math.log(-1.0 / sol.beta) / sol._log_base
            if abs(j - pole_j) <= POLE_TOL:
                return POLE
        den = _reference_type2_den(sol, j)
        if math.isnan(den):
            raise DomainError(f"closed form is undefined at j = {j!r}: q = theta/theta' is 1, "
                              f"so j * log q is {j!r} * 0")
        if den == 0.0:
            return POLE
        if math.isinf(den):
            return sol.theta
        return sol.theta + (sol.theta_prime - sol.theta) / den
    if sol.variant == "type3":
        arg = j * sol.phi_angle + sol.omega
        u = (arg - math.pi / 2.0) / math.pi
        if not math.isfinite(u):
            raise DomainError(f"closed form is not finite at j = {j!r}: a float overflowed")
        if abs(j) * math.ulp(sol.phi_angle) + math.ulp(arg) > POLE_TOL * sol.phi_angle:
            raise DomainError(f"phase j*phi + omega at j = {j!r} is below float resolution")
        dist_j = abs(u - round(u)) * math.pi / sol.phi_angle
        if dist_j <= POLE_TOL:
            return POLE
        return sol.rho * (math.cos(sol.phi_angle) - math.sin(sol.phi_angle) * math.tan(arg))
    if abs(j) == math.inf or abs(j - round(j)) > POLE_TOL:
        raise NoContinuousExtensionError("alternating solution is defined only at integer j")
    return sol.x1 if round(j) % 2 == 1 else sol.gamma / sol.x1


def _grid(start, step, count):
    return [start + i * step for i in range(count)]


@st.composite
def _sample_cases(draw):
    """A closed form from solve, of each family, and js: a grid, arbitrary floats, or
    the family's zeros and poles and their neighbours."""
    variant = draw(st.sampled_from(("constant", "type1", "type2", "type3", "alternating")))
    alpha = 0.0 if variant == "alternating" else draw(st.floats(-8, 8).filter(lambda a: abs(a) > 1e-3))
    d = draw(st.floats(1e-3, 30))
    gamma = -(alpha / 2) ** 2 + {"type1": 0.0, "type3": -d, "alternating": -d}.get(variant, d)
    assume(abs(gamma) > ZERO_TOL)
    p = RecurrenceParams(alpha, gamma)
    x1 = draw(st.floats(-30, 30).filter(lambda x: abs(x) > 1e-6))
    if variant == "constant":
        x1 = draw(st.sampled_from(fixed_points(p)))
    sol = solve(p, x1)
    assume(variant in ("constant", "alternating") or sol.variant == variant)
    lo = draw(st.integers(-40, 40)) / 4
    js = draw(st.one_of(
        st.builds(_grid, st.just(lo), st.sampled_from((1.0, 0.5, 0.25, 0.01, 0.3)), st.integers(0, 60)),
        st.lists(st.floats(), max_size=12),
    ))
    if draw(st.booleans()):
        try:
            marks = sum(zeros_and_poles(sol, lo - 20.0, lo + 20.0), [])
        except (NoContinuousExtensionError, DomainError):
            marks = []
        js += [m + k * 1e-9 for m in marks[:4] for k in (-2, -1, 0, 1, 2)]
        js += [math.nextafter(m, math.inf) for m in marks[:4]]
    return sol, js


#: families built by hand from any floats, which solve never makes (theta = 0, an infinite
#: phi, a nan beta): sample must fail where and as the reference fails
_HAND_BUILT = st.tuples(st.one_of(
    st.builds(ConstantSolution, st.floats()),
    st.builds(Type1Solution, st.floats(), st.floats()),
    st.builds(Type2Solution, st.floats(), st.floats(), st.floats()),
    st.builds(Type3Solution, st.floats(), st.floats(), st.floats()),
    st.builds(AlternatingSolution, st.floats(), st.floats()),
), st.lists(st.floats(), max_size=8))


_TYPE3 = solve(RecurrenceParams(1.0, -1.0), 0.3)


def _bits(value):
    return value if value is POLE else float(value).hex()


@settings(max_examples=300, deadline=None)
@given(st.one_of(_sample_cases(), _HAND_BUILT))
# type 2 with q = 2 > 0 through its pole at j = 3 (the orbit from 2/3 hits zero at x_2)
@example((solve(RecurrenceParams(3.0, -2.0), 2 / 3), _grid(0.0, 0.25, 21)))
# q = -2 < 0: an integer grid evaluates, a half-integer one stops at j = 0.5
@example((solve(RecurrenceParams(1.0, 2.0), 0.7), _grid(-3.0, 1.0, 10)))
@example((solve(RecurrenceParams(1.0, 2.0), 0.7), _grid(0.0, 0.5, 10)))
# type 3 where the phase test starts to refuse (j ~ 2619006.5 for phi = pi/3)
@example((_TYPE3, _grid(2619000.0, 0.5, 30)))
# type 1 through its pole at j = 0.5, type 3 at its poles, and a nan j after a pole
@example((solve(RecurrenceParams(2.0, -1.0), 3.0), _grid(0.0, 0.25, 5)))
@example((_TYPE3, zeros_and_poles(_TYPE3, 0.0, 10.0)[1]))
@example((solve(RecurrenceParams(2.0, -1.0), 3.0), [0.5, math.nan, 2.0]))
# hand-built: an infinite phi, theta = 0 (log|q| raises, after the check of a nan j) and
# q = -2 with beta*q^0 + 1 = 0 exactly
@example((Type3Solution(1.0, math.inf, 0.0), [2.0]))
@example((Type2Solution(0.0, -1.0, 0.5), [math.nan]))
@example((Type2Solution(2.0, -1.0, -1.0), [0.0, 1.0]))
def test_sample_equals_the_reference_eval(case):
    sol, js = case
    want, error = [], None
    for j in js:
        try:
            want.append(reference_eval(sol, j))
        except Exception as exc:  # sample must raise the same type and message at this j
            error = exc
            break
    assert [_bits(v) for v in sol.sample(js[:len(want)])] == [_bits(v) for v in want]
    assert [_bits(sol.eval(j)) for j in js[:len(want)][:3]] == [_bits(v) for v in want[:3]]
    if error is not None:
        with pytest.raises(type(error)) as info:
            sol.sample(js)
        assert type(info.value) is type(error) and str(info.value) == str(error)
        with pytest.raises(type(error)):
            sol.eval(js[len(want)])


# ---------------------------------------------------------------------------
# zeros, poles, period


def test_zeros_and_poles_type1():
    x1 = 0.5 * (1.0 + 1.0 / (-5.0 + math.sqrt(2)))
    sol = solve(RecurrenceParams(1.0, -0.25), x1)
    zeros, poles = zeros_and_poles(sol, 0.0, 10.0)
    assert len(zeros) == 1 and len(poles) == 1
    assert zeros[0] == pytest.approx(5.0 - math.sqrt(2), abs=1e-12)
    assert poles[0] == pytest.approx(6.0 - math.sqrt(2), abs=1e-12)


def test_eval_answers_pole_inside_the_window_around_a_pole():
    # type 2, q = 2 and beta = -1/4: the pole at j = 2, where den = 1 - 2^(j - 2) is
    # -3.47e-10 at 2 + 5e-10, which without the window would give x_j ~ 2.9e9
    sol = Type2Solution(theta=2.0, theta_prime=1.0, beta=-0.25)
    assert sol.eval(2.0 + 5e-10) is POLE
    # type 3: x_1 = 0.5 under x -> 1 - 1/x, whose first pole in [0, 10] is j = 2.5
    sol = solve(RecurrenceParams(1.0, -1.0), 0.5)
    _, poles = zeros_and_poles(sol, 0.0, 10.0)
    assert poles[0] == pytest.approx(2.5, abs=1e-12)
    for j in (poles[0], poles[0] + 5e-10, poles[0] - 5e-10):
        assert sol.eval(j) is POLE


def test_zeros_and_poles_constant_and_unsupported():
    assert zeros_and_poles(ConstantSolution(0.5), -5.0, 5.0) == ([], [])
    with pytest.raises(NoContinuousExtensionError):
        zeros_and_poles(AlternatingSolution(5.0, -1.0), 0.0, 10.0)
    # alpha = 0, gamma > 0 gives theta/theta' = -1: no real extension
    sol = solve(RecurrenceParams(0.0, 4.0), 1.0)
    assert isinstance(sol, Type2Solution) and sol.base < 0
    with pytest.raises(NoContinuousExtensionError):
        zeros_and_poles(sol, 0.0, 10.0)


def test_sign_constant_between_marks():
    """eval keeps one sign strictly between consecutive zeros/poles."""
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        alpha = rng.uniform(-3, 3)
        gamma = rng.uniform(-3, 3)
        x1 = rng.uniform(-3, 3)
        if abs(gamma) < 1e-2 or abs(x1) < 1e-2:
            continue
        sol = solve(RecurrenceParams(alpha, gamma), x1)
        try:
            zeros, poles = zeros_and_poles(sol, 0.0, 12.0)
        except NoContinuousExtensionError:
            continue
        marks = sorted([0.0, 12.0] + zeros + poles)
        if len(marks) == 2:
            continue
        checked += 1
        for a, b in zip(marks, marks[1:]):
            if b - a < 1e-6:
                continue
            signs = set()
            for i in range(1, 60):
                j = a + (b - a) * i / 60.0
                v = sol.eval(j)
                if isinstance(v, Pole) or abs(v) < 1e-9:
                    continue
                signs.add(v > 0)
            assert len(signs) <= 1, (alpha, gamma, x1, a, b)


def test_period_values_and_errors():
    sol7 = solve(RecurrenceParams(2.0 / 7.0, -1.0), 2.0 / 7.0 - 1.0)
    assert period(sol7) == pytest.approx(2.20084, abs=1e-5)
    sol19 = solve(RecurrenceParams(2.0 / 19.0, -1.0), 2.0 / 19.0 - 1.0)
    assert period(sol19) == pytest.approx(2.069368956, abs=1e-8)
    for n in range(3, 200):
        soln = solve(RecurrenceParams(2.0 / n, -1.0), 2.0 / n - 1.0)
        assert period(soln) > 2.0
    with pytest.raises(UnsupportedOperationError):
        period(ConstantSolution(1.0))


def test_type3_periodicity():
    sol = solve(RecurrenceParams(2.0 / 19.0, -1.0), 2.0 / 19.0 - 1.0)
    p = period(sol)
    rng = random.Random(5)
    kept = 0
    while kept < 100:
        j = rng.uniform(0.0, 50.0)
        if pole_distance(sol, j, -1.0, 60.0) <= 1e-3 or pole_distance(sol, j + p, -1.0, 60.0) <= 1e-3:
            continue
        a, b = sol.eval(j), sol.eval(j + p)
        assert not isinstance(a, Pole) and not isinstance(b, Pole)
        assert abs(a - b) <= 1e-9
        kept += 1


def test_type3_eval_refuses_phases_below_float_resolution():
    sol = solve(RecurrenceParams(1.0, -1.0), 0.3)
    assert isinstance(sol, Type3Solution)
    for j in (1e6, -1e6, 123456.5):
        assert sol.eval(j) is POLE or math.isfinite(sol.eval(j))
    for j in (1e17, -1e17, 1e308):
        with pytest.raises(DomainError, match="below float resolution"):
            sol.eval(j)


# ---------------------------------------------------------------------------
# chains: the orbit of x -> a - s/x in closed form


def exact_chain(a, s, x0, length):
    """x_1 .. x_L of the sweep along a chain from x0, in exact arithmetic.

    A zero x_j takes the sweep's zero-child branch: x_j becomes 2, x_{j+1}
    is -s/2 and x_{j+2} starts afresh at a.
    """
    a, s, x = Fraction(a), Fraction(s), Fraction(x0)
    values, cut = [], False
    for _ in range(length):
        if cut:
            x, cut = a, False
        elif x == 0:
            values[-1] = Fraction(2)
            x, cut = -s / 2, True
        else:
            x = a - s / x
        values.append(x)
    return values


def check_chain(a, s, x0, length):
    """chain_orbit against exact_chain; True when the closed form was trusted."""
    orbit = chain_orbit(a, s, x0, length)
    if orbit is None:
        return False
    end, inner = orbit
    values = exact_chain(a, s, x0, length)
    assert values[-1] != 0 and (end < 0) == (values[-1] < 0), (a, s, x0, length)
    assert inner == sum(v < 0 for v in values[:-1]), (a, s, x0, length)
    assert end == pytest.approx(float(values[-1]), rel=1e-6), (a, s, x0, length)
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(-96, 96), st.sampled_from((1, 0.25, 2, 0.5625, 1e-4)), st.integers(-64, 64),
       st.integers(1, 60))
def test_chain_orbit_agrees_with_the_exact_orbit(a32, s, x16, length):
    if x16:
        check_chain(a32 / 32, s, x16 / 16, length)


@settings(max_examples=300, deadline=None)
@given(st.integers(-96, 96), st.sampled_from((1, 0.25, 2, 0.5625, 1e-4)), st.integers(-64, 64),
       st.integers(1, 60), st.sampled_from((1e-12, 1e-6, 1e-4, 1e-3)))
def test_chain_orbit_counts_hold_for_every_a_within_its_error(a32, s, x16, length, error):
    # a trusted answer is that of the exact orbit of each a* with |a - a*| <= u|a| + error
    a, x0 = a32 / 32, x16 / 16
    orbit = chain_orbit(a, s, x0, length, error) if x16 else None
    if orbit is None:
        return
    end, inner = orbit
    reach = abs(Fraction(a)) * Fraction(2.0**-53) + Fraction(error)
    for a_star in (Fraction(a) - reach, Fraction(a) + reach):
        values = exact_chain(a_star, s, x0, length)
        assert values[-1] != 0 and (end < 0) == (values[-1] < 0), (a, s, x0, length, error)
        assert inner == sum(v < 0 for v in values[:-1]), (a, s, x0, length, error)

def test_chain_orbit_steps_at_exact_zeros():
    # orbits that hit 0 exactly: a = -1 and a = 1 with s = 1 at j = 1, 4, 7, ...
    # (oscillating, period 3); a = 6, s = 4 from 3/4 at j = 2 (real fixed
    # points).  A zero at the top or just below it must leave the chain
    # stepped.  The oscillating closed form still counts across a zero further
    # down; with real fixed points that zero puts the crossing index on an
    # integer, and the chain is stepped.
    cases = [(-1.0, 1.0, -1.0, {j for j in range(1, 60) if j % 3 == 1}),
             (1.0, 1.0, 1.0, {j for j in range(1, 60) if j % 3 == 1}),
             (6.0, 4.0, 0.75, {2}), (4.0, 2.0, 0.5, {1}), (-4.0, 2.0, -0.5, {1})]
    for a, s, x0, zeros in cases:
        trusted = 0
        for length in range(1, 50):
            if length in zeros or length - 1 in zeros:
                assert chain_orbit(a, s, x0, length) is None, (a, s, x0, length)
            else:
                trusted += check_chain(a, s, x0, length)
        assert trusted >= 10 or a * a > 4 * s, (a, s, x0)


def test_chain_orbit_counts_both_families():
    # path adjacency at alpha: a = -alpha, s = 1, from the leaf x0 = a; the
    # counts are those of P_{L+1}, whose eigenvalues are 2cos(k pi/(L + 2))
    rng = random.Random(17)
    for _ in range(200):
        alpha, length = rng.uniform(-2.5, 2.5), rng.randint(1, 400)
        orbit = chain_orbit(-alpha, 1.0, -alpha, length)
        if orbit is None:
            continue
        eigs = [2 * math.cos(k * math.pi / (length + 2)) for k in range(1, length + 2)]
        below = sum(e < alpha for e in eigs)
        assert orbit[1] + (orbit[0] < 0) + (-alpha < 0) == below, (alpha, length)
    for bad in ((2.0, 1.0, 0.5, 3), (-2.0, 1.0, 0.5, 3), (4.0, 5e-324, 1.0, 3), (4.0, 0.0, 1.0, 3)):
        assert chain_orbit(*bad) is None  # the double root a^2 = 4s, and r2 = s/r1 underflowed to 0


# ---------------------------------------------------------------------------
# reversal and local behavior


def test_reverse_initial_identity_and_exact():
    p = RecurrenceParams(2, -1)
    assert reverse_initial(p, 7, 1) == 7
    pe = RecurrenceParams(Fraction(2), Fraction(-1))
    x1 = reverse_initial(pe, Fraction(0), 5)
    assert x1 == Fraction(4, 5)
    orbit = iterate(pe, x1, 6)
    assert orbit.hit_zero_step == 5


def test_reverse_initial_recovers_power_coefficient():
    """Starting from x_{r+2} = -2/lam the solved coefficient is (theta^2)^(-r-3)."""
    lam = 3.0
    p = RecurrenceParams(-lam, -1.0)
    for r in (4, 5, 6):
        x1 = reverse_initial(p, -2.0 / lam, r + 2)
        sol = solve(p, x1)
        assert isinstance(sol, Type2Solution)
        expect = (sol.theta ** 2) ** (-r - 3)
        assert sol.beta == pytest.approx(expect, rel=1e-9)


def test_local_behavior():
    p = RecurrenceParams(0.0, -1.0)
    assert local_behavior(p, 1.0) is LocalBehavior.NEUTRAL
    assert local_behavior(p, -1.0) is LocalBehavior.NEUTRAL
    assert local_behavior(p, -1.27202) is LocalBehavior.ATTRACTING
    assert local_behavior(p, 0.5) is LocalBehavior.REPELLING
    with pytest.raises(DomainError):
        local_behavior(p, 0.0)


def test_classify_and_local_behavior_use_the_module_tolerances():
    assert list(inspect.signature(classify).parameters) == ["params"]
    assert list(inspect.signature(local_behavior).parameters) == ["params", "t"]
    # float delta = 1 + 4 gamma on both sides of the edge of DELTA_TOL
    for delta, kind in ((DELTA_TOL / 2, SolutionKind.TYPE1), (-DELTA_TOL / 2, SolutionKind.TYPE1),
                        (4 * DELTA_TOL, SolutionKind.TYPE2), (-4 * DELTA_TOL, SolutionKind.TYPE3)):
        assert classify(RecurrenceParams(1.0, (delta - 1.0) / 4)).kind is kind, delta
    # |phi'(1)| = |gamma| on both sides of the edge of ZERO_TOL
    for gap, behavior in ((ZERO_TOL / 2, LocalBehavior.NEUTRAL), (-ZERO_TOL / 2, LocalBehavior.NEUTRAL),
                          (4 * ZERO_TOL, LocalBehavior.REPELLING),
                          (-4 * ZERO_TOL, LocalBehavior.ATTRACTING)):
        assert local_behavior(RecurrenceParams(0.0, -(1.0 + gap)), 1.0) is behavior, gap


def test_type2_monotone_attraction():
    """From x1 = -lam the orbit climbs monotonically to the smaller root.

    Step counts per lam keep the remaining gap far above float spacing, so
    the strict inequalities stay meaningful.
    """
    for lam, steps in ((2.1, 30), (2.5, 18), (3.0, 12), (4.0, 10)):
        p = RecurrenceParams(-lam, -1.0)
        theta = (-lam - math.sqrt(lam * lam - 4.0)) / 2.0
        orbit = iterate(p, -lam, steps).values
        for a, b in zip(orbit, orbit[1:]):
            assert a < b < theta
            assert abs(b - theta) < abs(a - theta)
