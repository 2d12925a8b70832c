"""Spectral-radius limit points of the starlike trees T_{l,m,n}.

T_{l,m,n} joins one endpoint of each of three paths (l, m and n vertices)
to a common center.  As the two long arms of T_{1,n,n} grow, the adjacency
spectral radius increases to sqrt(2 + sqrt(5)) and the Laplacian spectral
radius to 2 + e where e is the real root of x^3 - 4x - 4.  The limit
constants are hard-coded from their algebraic closed forms.

The gap delta = lambda_inf - lambda_n solves the centre equation.  With
w = lambda (adjacency) or lambda - 2 (Laplacian), each long arm sweeps the
paper's recurrence x_{j+1} = -w - 1/x_j (alpha = -w, gamma = -1) from
x_0 = inf (adjacency) or x_0 = 1 (Laplacian), the short arm gives x_1, and
the centre value is F_n = d_c - lambda - 1/x_1 - 2/x_n.  For w > 2, above
the arms' spectrum, every arm value is negative, F_n > 0 exactly when an
eigenvalue lies above lambda, and the orbit is type 2: s = sqrt((w-2)(w+2)),
theta = -(w + s)/2, theta theta' = 1, q = 1/theta^2 and z_n = q^n z_0.  So
    F_n - F_inf = 2(x_n - theta)/(theta x_n), x_n - theta from
    ``_mobius.type2_offset``, and F_inf(w_inf - delta) = delta c, where
    c = (w_inf + w)(s^2 + 2 + sqrt 5)/(w(1 + ws)) (adjacency: 1 - w^2 s^2
    = -(w - w_inf)(w + w_inf)(w^2 - 2 + sqrt 5)) and
    c = (w + 2)(s^2 + e(w + e))/((w + 1)((w + 2) + (w + 1)s)) (Laplacian:
    (w + 2)^2 - (w + 1)^2 s^2 = -(w + 2)(w^3 - 4w - 4)),
none of which cancels.  delta is the fixed point of h = -(F_n - F_inf)/c,
iterated from 0.  ``_gap_step`` bounds each step's relative error by E,
about 7|n log q| u + 100u (u = 2^-53), summing the first-order errors of
its operations and of w_inf = hi + lo.  d log h/d delta is 2n/s (from
z_n, as d log q/dw = -2/s) plus the terms of s, theta, x_n, z_0 and c, each
a few w/s^2 at most while w <= 2.4: slope = (2n + 16 + 8w/s)/s bounds it.
Where L = 2 delta slope <= 2^-6 and the last step moves by at most E
delta, the iterate lies within E(1 + 4L) of the root.

A row returns that delta when its bound is at most 1e-12 relative.  Every
other row bisects T_{1,n,n} within tol by inertia, and its gap is the
constant minus that radius.  A gap below the normal float range (Laplacian
n_arm >= 581, adjacency n_arm >= 1468) raises DomainError.
"""

from __future__ import annotations

import math
import sys
from typing import List, NamedTuple, Optional, Tuple

from ._mobius import U, type2_offset
from .errors import DomainError, OutOfDomainError
from .treediag import MatrixKind, RootedTree, build_matrix, build_tree, spectral_radius

#: 2 + sqrt(5), within u of it
_TWO_PLUS_SQRT5 = 2.0 + math.sqrt(5.0)


class _Arms(NamedTuple):
    l: int
    m: int
    n_arm: int


class StarlikeSpec(_Arms):
    """Arm lengths (vertex counts) of a starlike tree; center has degree 3."""

    __slots__ = ()

    def __new__(cls, l: int, m: int, n_arm: int) -> StarlikeSpec:
        for name, v in zip(cls._fields, (l, m, n_arm)):
            if not isinstance(v, int) or v < 1:
                raise OutOfDomainError(f"{name} must be a positive integer, got {v!r}")
        return super().__new__(cls, l, m, n_arm)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # ``_replace`` calls it: both check

    @property
    def n(self) -> int:
        return self.l + self.m + self.n_arm + 1


def t_lmn(spec: StarlikeSpec) -> RootedTree:
    """The starlike tree, rooted at the center.

    Arms are labeled leaf-inward: 1..l, l+1..l+m, l+m+1..l+m+n; the center
    is the last vertex.
    """
    edges: List[Tuple[int, int]] = []
    center = spec.n
    start = 1
    for length in (spec.l, spec.m, spec.n_arm):
        for v in range(start, start + length - 1):
            edges.append((v, v + 1))
        edges.append((start + length - 1, center))
        start += length
    return build_tree(edges, root=center)


def shearer_constant() -> float:
    """sqrt(2 + sqrt(5)): the adjacency limit, and the density threshold
    above which every real is a limit point of spectral radii."""
    return math.sqrt(2.0 + math.sqrt(5.0))


def guo_constant() -> float:
    """2 + e with e the unique real root of x^3 - 4x - 4, via the cubic
    closed form e = c/3 + 4/c, c = (54 + 6*sqrt(33))^(1/3)."""
    c = (54.0 + 6.0 * math.sqrt(33.0)) ** (1.0 / 3.0)
    return 2.0 + c / 3.0 + 4.0 / c


class _Family(NamedTuple):
    """A family's centre equation in w = lambda (adjacency) or w = lambda - 2 (Laplacian)."""

    kind: str
    limit: float  # lambda_inf as the command prints it: radius = limit - gap
    hi: float  # w at the limit is hi + lo, within 2^-105 of it
    lo: float


_ADJACENCY = _Family(MatrixKind.ADJACENCY, shearer_constant(), 2.0581710272714924, -1.2008095778424995e-16)
_LAPLACIAN = _Family(MatrixKind.LAPLACIAN, guo_constant(), 2.3829757679062373, 1.64226551074538e-16)


def _limit_gap(family: _Family, n_arm: int, tol: float) -> float:
    """The family's gap at n_arm: the switch rule of the module docstring."""
    spec = StarlikeSpec(1, n_arm, n_arm)
    if not tol > 0 or tol == math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    solved = _centre_gap(family, n_arm)
    if solved is not None:
        delta, bound = solved
        if delta < sys.float_info.min:
            raise DomainError(f"n_arm = {n_arm}: the gap to the limit is below the normal float range")
        if bound <= 1e-12:
            return delta
    return family.limit - spectral_radius(build_matrix(t_lmn(spec), family.kind), tol)


def _centre_gap(family: _Family, n_arm: int) -> Optional[Tuple[float, float]]:
    """The gap delta as the root of the centre equation, and a bound on its relative error.

    None where the iteration leaves the type-2 side or does not settle.
    """
    delta = 0.0
    for _ in range(12):
        step = _gap_step(family, delta, n_arm)
        if step is None:
            return None
        new, err, slope = step
        if new < sys.float_info.min:  # z_n may be subnormal too, and its bound void
            return new, math.inf
        if abs(new - delta) <= err * new:
            lip = 2 * max(new, delta) * slope
            return (new, err * (1 + 4 * lip)) if lip <= 2.0**-6 else None
        delta = new
    return None


def _gap_step(family: _Family, delta: float, n_arm: int) -> Optional[Tuple[float, float, float]]:
    """-(F_n - F_inf)/(F_inf/delta) at w_inf - delta, its relative error bound, and d log/d delta."""
    hi, lo = family.hi, family.lo
    rest = lo - delta
    wm2 = (hi - 2.0) + rest  # hi - 2 is exact
    if not wm2 > 0:
        return None
    w = hi + rest
    wp2 = w + 2.0
    e_wm2 = U + (U * abs(rest) + 2.0**-105 * hi) / wm2
    e_w = U + (U * abs(rest) + 2.0**-105 * hi) / w
    sq = wm2 * wp2
    e_sq = e_wm2 + e_w + 2 * U
    s = math.sqrt(sq)
    e_s = e_sq / 2 + U
    theta = -0.5 * (w + s)
    e_theta = max(e_w, e_s) + U
    y = 0.5 * (wm2 + s)  # |theta| - 1
    log_q = -2.0 * math.log1p(y)  # q = theta'/theta = 1/theta^2
    e_log_q = max(e_wm2, e_s) + 3 * U
    if family.kind == MatrixKind.ADJACENCY:  # x_1 = -w: x_0 = inf, z_0 = 1
        z0, e_z0 = 1.0, 0.0
        c = (hi + w) * (sq + _TWO_PLUS_SQRT5) / (w * (1.0 + w * s))
        e_c = (e_w + 2 * U) + (max(e_sq, 2 * U) + U) + (e_w + e_w + e_s + 3 * U) + 2 * U
    else:  # x_1 = -w - 1: x_0 = 1
        num, den = wp2 + s, wp2 - s
        z0 = num / den
        e_z0 = (max(e_w + U, e_s) + U) + (((e_w + U) * wp2 + e_s * s) / den + U) + U
        c = wp2 * (sq + hi * (w + hi)) / ((w + 1.0) * (wp2 + (w + 1.0) * s))
        e_c = (e_w + U) + (max(e_sq, e_w + 3 * U) + U) + (e_w + U) + (e_w + e_s + 3 * U) + 3 * U
    g, e_g = type2_offset(-s, log_q, z0, n_arm, e_s, e_log_q, e_z0)
    x = theta + g
    e_x = (e_theta * -theta + e_g * -g) / -x + U
    d = 2.0 * g / (theta * x)  # F_n - F_inf
    e_d = e_g + e_theta + e_x + 3 * U
    return -d / c, (e_d + e_c + U) * (1 + 2.0**-7), (2 * n_arm + 16 + 8 * w / s) / s


def adjacency_limit_gap(n_arm: int, tol: float = 1e-10) -> float:
    """sqrt(2 + sqrt(5)) minus the adjacency spectral radius of T_{1,n,n}.

    From the centre equation where its bound is at most 1e-12 relative, else
    bisected within tol; see the module docstring."""
    return _limit_gap(_ADJACENCY, n_arm, tol)


def laplacian_limit_gap(n_arm: int, tol: float = 1e-9) -> float:
    """(2 + e) minus the Laplacian spectral radius of T_{1,n,n}, found as
    ``adjacency_limit_gap`` finds its gap."""
    return _limit_gap(_LAPLACIAN, n_arm, tol)
