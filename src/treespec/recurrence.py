"""Closed-form and iterative treatment of the map x_{j+1} = alpha + gamma / x_j.

The map phi(t) = alpha + gamma/t (gamma != 0) generates every vertex-value
sequence produced by sweeping a path of a tree during congruence
diagonalization.  This module provides:

* orbits of phi with early stop when a term hits zero,
* the inverse map psi(t) = gamma/(t - alpha) and the "forbidden" initial
  values psi^k(0) whose forward orbit dies after k steps,
* the discriminant classification delta = alpha^2 + 4*gamma and the closed
  forms of the three solution families it selects,
* evaluation of those closed forms at arbitrary real j, including pole
  detection, zero/pole enumeration on an interval, and the period of the
  oscillating family,
* reversal of the recursion (recovering x_1 from a later value) and the
  attracting/repelling character of points under phi.

Arithmetic is generic: pass ``float`` for IEEE-double computation or
``int``/``fractions.Fraction`` for exact rational orbits (sign and zero
tests are then exact).  The trigonometric closed form of the oscillating
family is float-only.
"""

from __future__ import annotations

import itertools
import math
import sys
from enum import Enum
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import (
    DomainError,
    NoContinuousExtensionError,
    UnsupportedOperationError,
)

Real = Union[int, float, Fraction]

#: |x| at or below this counts as zero in float arithmetic.
ZERO_TOL = 1e-12

#: |delta| at or below this selects the double-root family in float mode.
DELTA_TOL = 1e-12

#: eval() reports a pole when j is within this distance of an asymptote.
POLE_TOL = 1e-9


def _is_exact(*values: Real) -> bool:
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values)


def _is_zero(value: Real) -> bool:
    if isinstance(value, (int, Fraction)):
        return value == 0
    return -ZERO_TOL <= value <= ZERO_TOL


class _Params(NamedTuple):
    alpha: Real
    gamma: Real


class RecurrenceParams(_Params):
    """The pair (alpha, gamma) defining phi(t) = alpha + gamma/t."""

    __slots__ = ()

    def __new__(cls, alpha: Real, gamma: Real) -> RecurrenceParams:
        if _is_zero(gamma):
            raise DomainError("gamma must be nonzero")
        return super().__new__(cls, alpha, gamma)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # ``_replace`` calls it: both check

    @property
    def exact(self) -> bool:
        """True when both parameters are int/Fraction (exact backend)."""
        return _is_exact(self.alpha, self.gamma)


class SolutionKind(Enum):
    TYPE1 = "type1"  # delta == 0, double root
    TYPE2 = "type2"  # delta > 0, two real roots
    TYPE3 = "type3"  # delta < 0, complex pair


class DeltaClass(NamedTuple):
    """Discriminant delta = alpha^2 + 4*gamma and the family it selects."""

    delta: Real
    kind: SolutionKind


class Pole:
    """Marker value returned by eval() at a vertical asymptote: the one instance is POLE."""

    def __repr__(self) -> str:
        return "Pole"


POLE = Pole()


class OrbitResult(NamedTuple):
    """A finite prefix of an orbit of phi.

    ``hit_zero_step`` is the 1-based index of the terminating zero value
    (the orbit then has exactly that many entries), or None when all
    requested values were produced.
    """

    values: Tuple[Real, ...]
    hit_zero_step: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.hit_zero_step is None


# ---------------------------------------------------------------------------
# the map, its inverse, and orbits


def phi_apply(params: RecurrenceParams, t: Real) -> Real:
    """phi(t) = alpha + gamma/t.  Raises DomainError at t = 0.

    Exact inputs (int/Fraction throughout) give an exact Fraction result.
    """
    if _is_zero(t):
        raise DomainError("phi is undefined at t = 0")
    if _is_exact(params.alpha, params.gamma, t):
        return Fraction(params.alpha) + Fraction(params.gamma) / Fraction(t)
    return params.alpha + params.gamma / t


def psi_apply(params: RecurrenceParams, t: Real) -> Real:
    """psi(t) = gamma/(t - alpha), the inverse of phi.  Undefined at t = alpha."""
    if _is_zero(t - params.alpha):
        raise DomainError("psi is undefined at t = alpha")
    if _is_exact(params.alpha, params.gamma, t):
        return Fraction(params.gamma) / (Fraction(t) - Fraction(params.alpha))
    return params.gamma / (t - params.alpha)


def classify(params: RecurrenceParams) -> DeltaClass:
    """Discriminant class of the recurrence.

    With exact parameters the sign test is exact.  In float mode the test
    reads delta/c^2, c = max(|alpha|, 2 sqrt|gamma|), which scaling the
    orbit (alpha by k, gamma by k^2) leaves alone and which stays finite
    where delta overflows or is NaN: |delta/c^2| <= DELTA_TOL selects the
    double-root family.
    """
    alpha, gamma = params.alpha, params.gamma
    delta = sign = alpha * alpha + 4 * gamma
    if not params.exact:
        c = max(abs(alpha), 2 * math.sqrt(abs(gamma)))
        sign = (alpha / c) ** 2 + 4 * (gamma / c / c)
        sign = 0 if abs(sign) <= DELTA_TOL else sign
    if sign == 0:
        kind = SolutionKind.TYPE1
    elif sign > 0:
        kind = SolutionKind.TYPE2
    else:
        kind = SolutionKind.TYPE3
    return DeltaClass(delta=delta, kind=kind)


def fixed_points(params: RecurrenceParams) -> List[float]:
    """Real solutions of phi(t) = t, i.e. of t^2 - alpha*t - gamma = 0, ascending.

    One entry for a double root, empty when the roots are complex.
    """
    cls = classify(params)
    alpha = float(params.alpha)
    if cls.kind is SolutionKind.TYPE1:
        return [alpha / 2.0]
    if cls.kind is SolutionKind.TYPE3:
        return []
    return sorted(_real_roots(params, cls.delta))


def _real_roots(params: RecurrenceParams, delta: Real) -> Tuple[float, float]:
    """The two real fixed points, as floats, when delta > 0; the larger first.

    The root of larger magnitude adds alpha and sqrt(delta) of one sign; the
    other is the product -gamma over it, so neither cancels (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 1.8).
    Where delta overflowed or is NaN, the larger root is
    c(a + sign(alpha) sqrt(a^2 + g)) with c = max(|alpha|/2, sqrt|gamma|),
    a = alpha/2c and g = gamma/c^2.
    """
    alpha, gamma = float(params.alpha), float(params.gamma)
    try:
        sq = math.sqrt(float(delta))
    except OverflowError:  # an exact delta beyond the float range
        sq = math.inf
    if not math.isfinite(sq):
        c = max(abs(alpha) / 2.0, math.sqrt(abs(gamma)))
        half = alpha / 2.0 / c
        big = c * (half + math.copysign(math.sqrt(half * half + gamma / c / c), alpha))
    else:
        big = alpha / 2.0 + math.copysign(sq, alpha) / 2.0
    other = -gamma / big if big else 0.0  # an exact delta below the float range
    return (big, other) if big > other else (other, big)


def forbidden_initials(params: RecurrenceParams, count: int) -> List[Real]:
    """[psi(0), psi^2(0), ..., psi^count(0)].

    Starting the forward iteration at psi^k(0) reaches 0 after exactly k
    applications of phi.  Raises DomainError if the backward orbit hits
    t = alpha (psi undefined there).
    """
    if count < 1:
        raise DomainError("count must be positive")
    zero: Real = Fraction(0) if params.exact else 0.0
    return list(itertools.islice(_backward_orbit(params, zero, "of 0"), count))


def _backward_orbit(params: RecurrenceParams, t: Real, start: str) -> Iterator[Real]:
    """psi(t), psi^2(t), ...; ``start`` names t in the DomainError raised at t = alpha."""
    for k in itertools.count():
        try:
            t = psi_apply(params, t)
        except DomainError as exc:
            raise DomainError(f"backward orbit {start} hits t = alpha after {k} steps") from exc
        yield t


def iterate(params: RecurrenceParams, x1: Real, count: int) -> OrbitResult:
    """Orbit x_1, phi(x_1), ..., up to ``count`` values.

    Stops early with ``hit_zero_step`` set when a term is zero (exactly, in
    the rational backend; within ZERO_TOL in float mode).  x_1 = 0 raises.
    """
    if count < 1:
        raise DomainError("count must be positive")
    if _is_zero(x1):
        raise DomainError("initial value x1 must be nonzero")
    exact = _is_exact(params.alpha, params.gamma, x1)
    num = Fraction if exact else float
    x, alpha, gamma = num(x1), num(params.alpha), num(params.gamma)
    values: List[Real] = [x]
    for j in range(1, count):
        # _is_zero inline: its isinstance test is an ABC check for every float term
        if (x == 0) if exact else (-ZERO_TOL <= x <= ZERO_TOL):
            return OrbitResult(tuple(values), hit_zero_step=j)
        x = alpha + gamma / x
        values.append(x)
    if _is_zero(x):
        return OrbitResult(tuple(values), hit_zero_step=count)
    return OrbitResult(tuple(values))


def reverse_initial(params: RecurrenceParams, x_r: Real, r: int) -> Real:
    """The unique x_1 whose forward orbit reaches x_r after r-1 steps.

    Equals psi^{r-1}(x_r).  Raises DomainError if a backward iterate lands
    on t = alpha.
    """
    if r < 1:
        raise DomainError("r must be a positive integer")
    t = x_r
    for t in itertools.islice(_backward_orbit(params, x_r, "from x_r"), r - 1):
        pass
    return t


class LocalBehavior(Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    NEUTRAL = "neutral"


def local_behavior(params: RecurrenceParams, t: Real) -> LocalBehavior:
    """Character of a point under phi: |phi'(t)| = |gamma|/t^2 against 1, within ZERO_TOL."""
    if _is_zero(t):
        raise DomainError("phi' is undefined at t = 0")
    ratio = abs(float(params.gamma)) / float(t) ** 2
    if abs(ratio - 1.0) <= ZERO_TOL:
        return LocalBehavior.NEUTRAL
    if ratio < 1.0:
        return LocalBehavior.ATTRACTING
    return LocalBehavior.REPELLING


# ---------------------------------------------------------------------------
# closed forms: a family is named by its ``variant``; its sample(js) evaluates the continuous
# extension at each real j of a sequence (integer j >= 1 reproduces the orbit), POLE within
# POLE_TOL of an asymptote, in one loop that computes what does not depend on j once, and
# raises at the first j that fails a check; eval(j) is the sample of the one point j


def _not_a_number(j: float) -> DomainError:
    return DomainError(f"closed form needs a number j, got {j!r}")


def _eval(sol: ClosedFormSolution, j: float) -> Union[float, Pole]:
    return sol.sample((j,))[0]


class ConstantSolution(NamedTuple):
    """x_j = theta for all j (x_1 was a fixed point)."""

    variant = "constant"
    eval = _eval
    theta: float

    def sample(self, js: Sequence[float]) -> List[Union[float, Pole]]:
        for j in js:
            if j != j:  # a nan j, the only value unequal to itself
                raise _not_a_number(j)
        return [self.theta] * len(js)


class Type1Solution(NamedTuple):
    """Double-root family: x_j = theta * (1 + 1/(beta + j)), theta = alpha/2."""

    variant = "type1"
    eval = _eval
    theta: float
    beta: float

    def sample(self, js: Sequence[float]) -> List[Union[float, Pole]]:
        theta, beta, out = self.theta, self.beta, []
        for j in js:
            if j != j:
                raise _not_a_number(j)
            den = beta + j
            out.append(POLE if abs(den) <= POLE_TOL else theta * (1.0 + 1.0 / den))
        return out


class Type2Solution(NamedTuple):
    """Two-real-roots family: x_j = theta + (theta' - theta)/(beta*q^j + 1).

    theta, theta_prime are the fixed points (theta the larger), and
    q = theta/theta_prime.  The continuous extension exists only for q > 0;
    for q < 0 only integer j are meaningful.  sample and zeros_and_poles raise
    DomainError when theta, theta' or beta overflowed, or beta underflowed.
    """

    variant = "type2"
    eval = _eval
    theta: float
    theta_prime: float
    beta: float

    @property
    def base(self) -> float:
        return self.theta / self.theta_prime

    @property
    def _log_base(self) -> float:
        """log|q|; from the roots' logarithms when q is not a normal float (where |log q| > 708)."""
        q = abs(self.base)
        normal = sys.float_info.min <= q <= sys.float_info.max
        return math.log(q) if normal else math.log(abs(self.theta)) - math.log(abs(self.theta_prime))

    def _require_normal(self) -> None:
        """DomainError when solve overflowed theta, theta' or beta, or left beta without 53 bits."""
        if not all(map(math.isfinite, (self.theta, self.theta_prime, self.beta))):
            raise DomainError(f"{self!r} is not finite: a float overflowed")
        if abs(self.beta) < sys.float_info.min:
            raise DomainError(f"{self!r}: beta underflowed below the normal float range")

    def sample(self, js: Sequence[float]) -> List[Union[float, Pole]]:
        """The denominator beta*q^j + 1 comes from logarithms once q or q^j leaves the float range."""
        if not js:
            return []
        if js[0] != js[0]:  # the first j's own check comes before the family's
            raise _not_a_number(js[0])
        self._require_normal()
        theta, theta_prime, beta, q, log_q = self.theta, self.theta_prime, self.beta, self.base, self._log_base
        pole_j = math.log(-1.0 / beta) / log_q if q > 0.0 and beta < 0.0 else math.nan
        normal = sys.float_info.min <= abs(q) <= sys.float_info.max
        sign, log_beta, out = math.copysign(1.0, beta), math.log(abs(beta)), []
        for j in js:
            if j != j:
                raise _not_a_number(j)
            if abs(j - pole_j) <= POLE_TOL:
                out.append(POLE)
                continue
            k, s = j, sign
            if q < 0.0:
                if abs(j) == math.inf or abs(j - round(j)) > POLE_TOL:
                    raise NoContinuousExtensionError("theta/theta' < 0: solution defined only at integer j")
                k = round(j)
                s = -sign if k % 2 else sign
            try:
                den = beta * (math.exp(k * log_q) if q > 0.0 else q ** k) + 1.0 if normal else None
            except OverflowError:
                den = None
            if den is None:
                try:
                    den = s * math.exp(log_beta + k * log_q) + 1.0
                except OverflowError:
                    den = s * math.inf
            if math.isnan(den):  # an infinite j where q is 1: nothing overflowed
                raise DomainError(f"closed form is undefined at j = {j!r}: q = theta/theta' is 1, "
                                  f"so j * log q is {j!r} * 0")
            out.append(POLE if den == 0.0 else theta if math.isinf(den) else theta + (theta_prime - theta) / den)
        return out


class Type3Solution(NamedTuple):
    """Complex-pair family: x_j = rho*(cos(phi) - sin(phi)*tan(j*phi + omega)).

    rho = sqrt(-gamma) > 0, phi_angle in (0, pi), omega normalized into
    (-pi/2, pi/2] (tan is pi-periodic, so the representative is free).
    sample raises DomainError where the phase j*phi + omega carries a rounding
    error, |j| ulp(phi) + ulp(j*phi + omega), above POLE_TOL*phi: there the
    pole test would be decided by rounding (|j| up to 1e6 stays well below).
    """

    variant = "type3"
    eval = _eval
    rho: float
    phi_angle: float
    omega: float

    def sample(self, js: Sequence[float]) -> List[Union[float, Pole]]:
        rho, phi, omega = self.rho, self.phi_angle, self.omega
        turn = phi if abs(phi) < math.inf else 0.0  # an infinite phi fails the test of u at every j
        cos_phi, sin_phi, ulp_phi, resolution = math.cos(turn), math.sin(turn), math.ulp(phi), POLE_TOL * phi
        pi, half_pi, isfinite, ulp, tan, out = math.pi, math.pi / 2.0, math.isfinite, math.ulp, math.tan, []
        for j in js:
            if j != j:
                raise _not_a_number(j)
            arg = j * phi + omega
            # distance in j to the nearest solution of arg = pi/2 (mod pi)
            u = (arg - half_pi) / pi
            if not isfinite(u):  # an overflowed phi or omega, or a huge j
                raise DomainError(f"closed form is not finite at j = {j!r}: a float overflowed")
            if abs(j) * ulp_phi + ulp(arg) > resolution:
                raise DomainError(f"phase j*phi + omega at j = {j!r} is below float resolution")
            out.append(POLE if abs(u - round(u)) * pi / phi <= POLE_TOL else rho * (cos_phi - sin_phi * tan(arg)))
        return out


class AlternatingSolution(NamedTuple):
    """alpha = 0, gamma < 0: x_j alternates x_1, gamma/x_1, x_1, ...

    No continuous extension; only integer j are meaningful.
    """

    variant = "alternating"
    eval = _eval
    x1: float
    gamma: float

    def sample(self, js: Sequence[float]) -> List[Union[float, Pole]]:
        out = []
        for j in js:
            if j != j:
                raise _not_a_number(j)
            if abs(j) == math.inf or abs(j - round(j)) > POLE_TOL:
                raise NoContinuousExtensionError("alternating solution is defined only at integer j")
            out.append(self.x1 if round(j) % 2 == 1 else self.gamma / self.x1)
        return out


ClosedFormSolution = Union[ConstantSolution, Type1Solution, Type2Solution, Type3Solution, AlternatingSolution]


def _normalize_half_pi(omega: float) -> float:
    """Reduce an omega <= fl(pi/2) mod pi into (-pi/2, pi/2]: ``solve``'s omega =
    -phi + atan(.), phi in (0, pi], never exceeds fl(pi/2), and fmod keeps its sign."""
    omega = math.fmod(omega, math.pi)
    if omega <= -math.pi / 2.0:
        omega += math.pi
    return omega


def solve(params: RecurrenceParams, x1: Real) -> ClosedFormSolution:
    """Closed form of the orbit starting at x1, per the discriminant class.

    Computed in IEEE double (exact inputs are converted).  Initial values
    whose orbit hits zero still get a closed form; the breakdown surfaces
    later, via iterate() or a pole of eval().
    """
    if _is_zero(x1):
        raise DomainError("initial value x1 must be nonzero")
    cls = classify(params)
    # an overflowed or NaN delta puts a root beyond 1e154, which loses a moderate x1 in
    # beta*q^j + 1: alpha 1, gamma 1e308, x1 1 would give x_1 = 0.0 and a pole at x_2 = 1e308
    if isinstance(cls.delta, float) and not math.isfinite(cls.delta):
        raise DomainError(f"computed delta is not finite ({cls.delta!r}): a float overflowed")
    alpha = float(params.alpha)
    gamma = float(params.gamma)
    xf = float(x1)
    if cls.kind is SolutionKind.TYPE1:
        theta = alpha / 2.0
        if xf == theta:
            return ConstantSolution(theta)
        beta = -1.0 + theta / (xf - theta)
        return Type1Solution(theta=theta, beta=beta)
    if cls.kind is SolutionKind.TYPE2:
        theta, theta_prime = _real_roots(params, cls.delta)
        if theta == 0.0 or theta_prime == 0.0:  # gamma != 0: only exact parameters underflow
            raise DomainError(f"fixed points {theta!r} and {theta_prime!r}: one underflowed to 0.0 in floats")
        if xf == theta or xf == theta_prime:
            return ConstantSolution(xf)
        beta = (theta_prime / theta) * ((theta_prime - xf) / (xf - theta))
        return Type2Solution(theta=theta, theta_prime=theta_prime, beta=beta)
    if alpha == 0.0:
        return AlternatingSolution(x1=xf, gamma=gamma)
    rho = math.sqrt(-gamma)
    phi = math.atan2(math.sqrt(-float(cls.delta)), alpha)  # (0, pi)
    omega = -phi + math.atan(
        math.cos(phi) / math.sin(phi) - (xf / rho) / math.sin(phi)
    )
    return Type3Solution(rho=rho, phi_angle=phi, omega=_normalize_half_pi(omega))


def period(sol: ClosedFormSolution) -> float:
    """Period pi/phi of the oscillating family; other variants have none."""
    if not isinstance(sol, Type3Solution):
        raise UnsupportedOperationError("period is defined only for the oscillating family")
    return math.pi / sol.phi_angle


def zeros_and_poles(
    sol: ClosedFormSolution, j_lo: float, j_hi: float
) -> Tuple[List[float], List[float]]:
    """All real zeros and poles of the continuous extension in [j_lo, j_hi].

    Both lists ascend; between consecutive listed points the sign of eval is
    constant.  Raises NoContinuousExtensionError for the alternating variant
    and for the two-real-roots family with negative base.
    """
    if j_lo >= j_hi:
        raise DomainError("need j_lo < j_hi")

    def within(points: List[float]) -> List[float]:
        return sorted(p for p in points if j_lo <= p <= j_hi)

    if isinstance(sol, ConstantSolution):
        return [], []
    if isinstance(sol, Type1Solution):
        return within([-sol.beta - 1.0]), within([-sol.beta])
    if isinstance(sol, Type2Solution):
        sol._require_normal()
        if sol.base <= 0.0:
            raise NoContinuousExtensionError("theta/theta' < 0: no real continuous extension")
        # beta*q^j = -1 at the pole; x_j = 0 where beta*q^(j+1) = -1, one step before it
        poles = [math.log(-1.0 / sol.beta) / sol._log_base] if sol.beta < 0.0 else []
        return within([p - 1.0 for p in poles]), within(poles)
    if isinstance(sol, Type3Solution):
        phi, omega = sol.phi_angle, sol.omega

        def grid(shift: float) -> List[float]:
            # all j with j*phi + omega + shift = pi/2 (mod pi) in range
            start = (math.pi / 2.0 - omega - shift) / phi
            step = math.pi / phi
            m_lo = math.ceil((j_lo - start) / step - 1e-12)
            m_hi = math.floor((j_hi - start) / step + 1e-12)
            return [start + m * step for m in range(m_lo, m_hi + 1)]

        return within(grid(phi)), within(grid(0.0))
    raise NoContinuousExtensionError(
        "alternating solution has no continuous extension"
    )
