"""Alternating-sign analytics of the pendant-path recurrence.

Sweeping the Laplacian of an n-vertex tree at the average degree
d = 2 - 2/n produces, along a pendant path, the orbit of
phi(t) = 2/n - 1/t.  A generalized pendant path (a path whose far end
carries r pendant 2-vertex paths) starts this orbit at

    b_1(r) = x_1 + r*(1 - 1/x_2),   x_1 = 2/n - 1,  x_2 = 2/n - 1/x_1,

and the signs of b_1, b_2, ... decide how many path eigenvalues sit below
or above the average.  This module computes the threshold r_0 below which
b_1 < 0, the oscillation period and phase of the orbit, the exact largest k
with b_{2k+1} < 0 (k_0), the maximum length of the alternating -,+ pattern
(mlas = 2*k_0 + 2) with its closed-form lower bound, and the eigenvalue
split of double-broom trees, cross-checked against the congruence sweep.

Sign-critical quantities (b values, r_0, broom root values) are exact or
certified: the signs of b_j come from a float scan with a certified error
bound, falling back to exact rational arithmetic where a sign is in doubt,
and exact b_j from integer pairs.  The trigonometric phase/period formulas
are float.

No b_j is 0, for any n >= 3 and r >= 0, so every b_j is defined and may be
reached by powering (_b_power).  phi has the inverse psi(t) = n/(2 - nt), so
b_{k+1} = 0 exactly when b_1 = psi^k(0).  Take p an odd prime dividing n, or
p = 2 when n = 2^a (a >= 2).  For odd p, nt lies in pZ_p for t in the p-adic
integers Z_p, so 2 - nt is a unit and psi maps Z_p into itself; for p = 2,
psi(t) = 2^(a-1)/(1 - 2^(a-1) t) maps Z_2 into 2^(a-1) Z_2.  Either set holds
0, so v_p(psi^k(0)) >= 0 for every k.  But b_1 = N/(nc) with
c = n^2 + 2n - 4 and N = (2 - n)c + 4rn(n - 1):
  - p odd: N = -8 and c = -4 (mod p), so v_p(b_1) = -v_p(n) < 0;
  - p = 2: v_2(c) = 2, v_2((2 - n)c) = 3 and v_2(4rn(n - 1)) >= a + 2 > 3,
    so v_2(b_1) = 3 - (a + 2) = 1 - a < 0.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Tuple, Union

from .errors import DomainError, OutOfDomainError, PatternNotFoundError, PreconditionViolatedError

if TYPE_CHECKING:  # imported where they run: mlas loads neither, broom no recurrence
    from .recurrence import OrbitResult, RecurrenceParams
    from .treediag import InertiaTriple, RootedTree


class _Pendant(NamedTuple):
    n: int
    r: int


class PendantConfig(_Pendant):
    """Tree order n (>= 3) and pendant 2-path count r (>= 0)."""

    __slots__ = ()

    def __new__(cls, n: int, r: int) -> PendantConfig:
        if not isinstance(n, int) or n < 3:
            raise OutOfDomainError(f"n must be an integer >= 3, got {n!r}")
        if not isinstance(r, int) or r < 0:
            raise OutOfDomainError(f"r must be a nonnegative integer, got {r!r}")
        return super().__new__(cls, n, r)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # ``_replace`` calls it: both check

    @property
    def x1(self) -> Fraction:
        return Fraction(2, self.n) - 1

    @property
    def x2(self) -> Fraction:
        return Fraction(2, self.n) - 1 / self.x1

    @property
    def b1(self) -> Fraction:
        """x1 + r (1 - 1/x2) = x1 + 4r(n - 1)/c with c = n^2 + 2n - 4, as one Fraction."""
        n, c = self.n, self.n * self.n + 2 * self.n - 4
        return Fraction((2 - n) * c + 4 * self.r * n * (n - 1), n * c)

    def params(self, exact: bool = True) -> RecurrenceParams:
        from .recurrence import RecurrenceParams

        if exact:
            return RecurrenceParams(Fraction(2, self.n), Fraction(-1))
        return RecurrenceParams(2.0 / self.n, -1.0)


def in_domain(n: int, r: int) -> bool:
    """True for n >= 8 and 1 <= r <= floor(n/4), where the k_0 formula holds."""
    return n >= 8 and 1 <= r <= n // 4


def _check_domain(cfg: PendantConfig, allow_r0: bool = False) -> None:
    lo = 0 if allow_r0 else 1
    if not in_domain(cfg.n, max(cfg.r, 1) if allow_r0 else cfg.r):
        raise OutOfDomainError(
            f"(n={cfg.n}, r={cfg.r}) outside n >= 8, {lo} <= r <= floor(n/4)"
        )


def b_sequence(cfg: PendantConfig, count: int, exact: bool = False) -> OrbitResult:
    """First ``count`` values of b_j: b_1 as above, b_{j+1} = 2/n - 1/b_j."""
    from .recurrence import iterate

    if exact:
        return iterate(cfg.params(exact=True), cfg.b1, count)
    return iterate(cfg.params(exact=False), float(cfg.b1), count)


def _b_pairs(cfg: PendantConfig) -> Iterator[Tuple[int, int]]:
    """b_1, b_2, ... as unreduced integer pairs (P, Q), b_j = P/Q, Q > 0.

    One step, 2/n - Q/P = (2P - nQ)/(nP), takes no gcd.
    """
    n = cfg.n
    p, q = cfg.b1.numerator, cfg.b1.denominator
    while True:
        yield p, q
        p, q = 2 * p - n * q, n * p
        if q < 0:
            p, q = -p, -q


def _scan(cfg: PendantConfig) -> Iterator[Tuple[float, float]]:
    """b_1, b_2, ... in floats with error bounds (x_j, e_j), |x_j - b_j| <= e_j < |x_j|.

    Ends before the first term whose sign is in doubt (|x_j| <= e_j), so every
    yielded x_j has the sign of b_j.  x_{j+1} = fl(fl(2/n) - fl(1/x_j)) is the
    one-child case of treediag._certified_sweep, whose docstring derives the
    bound: the weight square is 1, the partial sum 0 + q is exact, and the
    vertex value fl(2/n) is rounded once.  So
        e_1     = (|fl(b_1) - b_1| + 2^-200) F,
        e_{j+1} = (|fl(2/n) - 2/n| + 2^-200 + e_j / (|x_j| (|x_j| - e_j))
                   + u |fl(1/x_j)| + u |x_{j+1}|) F,
    with u = 2^-53 and the sweep's F at one child, 1 + 44u (k <= 10
    operations).  |b_1| <= 2^200 keeps the sweep's size cap.
    """
    b1, n = cfg.b1, cfg.n
    if abs(b1) > 2**200:
        return
    a, x = 2 / n, float(b1)
    base = float(abs(Fraction(a) - Fraction(2, n))) + 2.0**-200
    u, grow = 2.0**-53, 1.0 + 11 * 2.0**-51
    e = (float(abs(Fraction(x) - b1)) + 2.0**-200) * grow
    while True:
        ax = abs(x)
        if not ax > e:
            return
        yield x, e
        q = 1.0 / x
        y = a - q
        e = (base + e / (ax * (ax - e)) + u * (abs(q) + abs(y))) * grow
        x = y


def _b_power(cfg: PendantConfig, j: int) -> Tuple[int, int]:
    """(P_j, Q_j) of _b_pairs, found as M^(j-1) (P_1, Q_1) with M = [[2, -n], [n, 0]].

    Valid at every j, since no b_j is 0 (see the module docstring).
    M^k = a M + c I, since M^2 = 2M - n^2 I, so a square is
    (2a(a + c), (c - na)(c + na)), two big products, and a step (2a + c, -n^2 a).  _b_pairs flips signs to keep
    Q > 0; M is linear, so one flip at the end gives the same pair.
    """
    n = cfg.n
    a, c = 0, 1
    for bit in bin(j - 1)[2:]:
        a, c = 2 * a * (a + c), (c - n * a) * (c + n * a)
        if bit == "1":
            a, c = 2 * a + c, -n * n * a
    p1, q1 = cfg.b1.numerator, cfg.b1.denominator
    p, q = a * (2 * p1 - n * q1) + c * p1, a * n * p1 + c * q1
    return (p, q) if q > 0 else (-p, -q)


def b_at(cfg: PendantConfig, j: int) -> Fraction:
    """Exact value of b_j (1-based)."""
    if j < 1:
        raise DomainError("count must be positive")
    return Fraction(*_b_power(cfg, j))


def r0(n: int) -> Fraction:
    """Exact threshold (n-2)(n^2+2n-4) / (4n(n-1)); b_1(r) < 0 iff r <= floor(r0)."""
    if not isinstance(n, int) or n < 3:
        raise OutOfDomainError(f"n must be an integer >= 3, got {n!r}")
    return Fraction((n - 2) * (n * n + 2 * n - 4), 4 * n * (n - 1))


def phi_n(n: int) -> float:
    """Rotation angle per step: arctan(sqrt(n^2 - 1)), in (0, pi/2)."""
    if n < 3:
        raise OutOfDomainError(f"n must be >= 3, got {n}")
    return math.atan(math.sqrt(n * n - 1.0))


def period_n(n: int) -> float:
    """Oscillation period pi / arctan(sqrt(n^2 - 1)); always > 2, -> 2 as n grows."""
    return math.pi / phi_n(n)


def omega_r(cfg: PendantConfig) -> float:
    """Phase offset of the b orbit.

    omega_r = arctan((1 - n*b_1)/sqrt(n^2-1)) - arctan(sqrt(n^2-1)); lies in
    (-pi/2, -pi/4) on the domain and decreases strictly in r.  r = 0 is
    allowed and recovers the plain-path phase -phi/2.
    """
    _check_domain(cfg, allow_r0=True)
    n = cfg.n
    root = math.sqrt(n * n - 1.0)
    return math.atan((1.0 - n * float(cfg.b1)) / root) - math.atan(root)


def h_function(n: int, r: int, m: int) -> float:
    """Candidate count H(n, r, m) = 1/(P-2) + (omega_r - arctan(cot phi))/(phi (P-2)) - m P/(P-2).

    m indexes the period branch; m = 0 recovers the first positive zero and
    hence the true k_0.  Sign pattern on the domain: H > 0 for m in {-1, 0}
    and H < 0 for m = 1.
    """
    cfg = PendantConfig(n, r)
    _check_domain(cfg)
    phi = phi_n(n)
    p = period_n(n)
    omega = omega_r(cfg)
    gap = p - 2.0
    return 1.0 / gap + (omega - math.atan(1.0 / math.tan(phi))) / (phi * gap) - m * p / gap


def k0(cfg: PendantConfig) -> int:
    """Largest k with b_{2k+1} < 0: floor of H(n, r, 0)."""
    _check_domain(cfg)
    return math.floor(h_function(cfg.n, cfg.r, 0))


def j_star(cfg: PendantConfig) -> float:
    """First positive zero of the continuous extension of j -> b_j."""
    _check_domain(cfg)
    phi = phi_n(cfg.n)
    return (math.atan(1.0 / math.tan(phi)) - omega_r(cfg)) / phi


def mlas(cfg: PendantConfig) -> int:
    """Maximum length of the alternating -,+ prefix of b_j: 2*k_0 + 2.

    r = 0 means the plain path orbit x_j, whose alternating prefix exceeds
    the r = 1 value by 2.
    """
    if cfg.r == 0:
        return mlas(PendantConfig(cfg.n, 1)) + 2
    return 2 * k0(cfg) + 2


def mlas_direct(cfg: PendantConfig, j_max: Optional[int] = None) -> int:
    """mlas by scanning the signs of b_j; the certificate for mlas().

    The signs come from the certified float scan; if one is in doubt before
    the answer, the exact walk of integer pairs rescans from b_1.  Returns
    (first positive odd index) - 1.  Raises PatternNotFoundError when
    b_1 > 0 (no alternating prefix exists) or when the scan exhausts ``j_max``
    (default 4n).
    """
    limit = 4 * cfg.n if j_max is None else j_max
    if cfg.b1 > 0:
        raise PatternNotFoundError(
            f"b_1(n={cfg.n}, r={cfg.r}) = {cfg.b1} > 0: no alternating prefix"
        )
    for terms in ((x for x, _ in _scan(cfg)), (p for p, _ in _b_pairs(cfg))):
        j = 0
        for j, v in enumerate(islice(terms, max(limit, 0)), 1):
            if j % 2 == 1 and v > 0:
                return j - 1
        if j >= limit:
            break
    raise PatternNotFoundError(
        f"no positive odd-index term within j <= {limit} for (n={cfg.n}, r={cfg.r})"
    )


def mlas_lower_bound(cfg: PendantConfig) -> int:
    """Closed-form lower bound max(2*floor(pi/8*(n-2)) - 4*(r-1), 2)."""
    _check_domain(cfg)
    raw = 2 * math.floor(math.pi / 8.0 * (cfg.n - 2)) - 4 * (cfg.r - 1)
    return max(raw, 2)


class MlasReport(NamedTuple):
    """All alternating-sign analytics for one (n, r) pair."""

    n: int
    r: int
    period: float
    phi_angle: float
    omega_r: float
    j_star: float
    k0: int
    mlas: int
    lower_bound: int


def build_report(cfg: PendantConfig) -> MlasReport:
    _check_domain(cfg)
    return MlasReport(
        n=cfg.n,
        r=cfg.r,
        period=period_n(cfg.n),
        phi_angle=phi_n(cfg.n),
        omega_r=omega_r(cfg),
        j_star=j_star(cfg),
        k0=k0(cfg),
        mlas=mlas(cfg),
        lower_bound=mlas_lower_bound(cfg),
    )


# ---------------------------------------------------------------------------
# double brooms and the star-up transform


class _Broom(NamedTuple):
    r: int
    q: int
    p: int
    R: int


class DoubleBroom(_Broom):
    """Two star vertices with r and R pendant 2-paths, joined through paths
    of 2q and 2p vertices that meet at a degree-2 root; n = 2r+2R+2q+2p+1."""

    __slots__ = ()

    def __new__(cls, r: int, q: int, p: int, R: int) -> DoubleBroom:
        for name, v in zip(cls._fields, (r, q, p, R)):
            if not isinstance(v, int) or v < 1:
                raise OutOfDomainError(f"{name} must be a positive integer, got {v!r}")
        return super().__new__(cls, r, q, p, R)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # ``_replace`` calls it: both check

    @property
    def n(self) -> int:
        return 2 * self.r + 2 * self.R + 2 * self.q + 2 * self.p + 1


class BroomLayout(NamedTuple):
    tree: RootedTree
    root: int
    left_star: int
    right_star: int


def double_broom_layout(b: DoubleBroom) -> BroomLayout:
    """Deterministic labeling: left pendants 1..2r (leaf, inner pairs), left
    path 2r+1..2r+2q star-first, root, right path root+1.. adjacent-first,
    right pendants last (inner, leaf pairs).

    The tree is written down directly, as ``build_tree`` would orient it:
    its postorder is 1..root-1, the right pendant pairs leaf first, the
    right path from its star back to root+1, and the root."""
    from .treediag import RootedTree

    n, left_star = b.n, 2 * b.r + 1
    root = left_star + 2 * b.q
    right_star = root + 2 * b.p
    ids = list(range(n + 1))  # one int object per vertex, shared by parent and postorder
    parent = [0] * (n + 1)  # by vertex; slot 0 and the root hold 0
    parent[1:left_star:2] = ids[2:left_star:2]  # leaf -> inner
    parent[2:left_star:2] = [left_star] * b.r  # inner -> star
    parent[left_star:root] = ids[left_star + 1:root + 1]
    parent[root + 1:right_star + 1] = ids[root:right_star]
    parent[right_star + 1::2] = [right_star] * b.R
    parent[right_star + 2::2] = ids[right_star + 1:n:2]
    degree = [2] * (n + 1)
    degree[0] = 0
    degree[1:left_star:2] = [1] * b.r  # the leaves
    degree[right_star + 2::2] = [1] * b.R
    degree[left_star], degree[right_star] = b.r + 1, b.R + 1
    pendants = [0] * (2 * b.R)
    pendants[::2] = ids[right_star + 2::2]
    pendants[1::2] = ids[right_star + 1:n:2]
    postorder = ids[1:root] + pendants + ids[right_star:root - 1:-1]
    return BroomLayout(RootedTree(root, parent, degree, postorder), root, left_star, right_star)


def double_broom_tree(b: DoubleBroom) -> RootedTree:
    """The double-broom tree, rooted at its central degree-2 vertex."""
    return double_broom_layout(b).tree


class RootSign(Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"


class BroomSigma(NamedTuple):
    """Eigenvalue split of a double broom at the average degree.

    sigma counts Laplacian eigenvalues strictly above 2 - 2/n; root_sign is
    the sign of the root's final sweep value; hypotheses_met records whether
    the closed-form side counting applied (when False the result comes from
    the congruence sweep alone).
    """

    sigma: int
    root_sign: RootSign
    hypotheses_met: bool
    inertia: InertiaTriple


def _broom_hypotheses(b: DoubleBroom) -> bool:
    n = b.n
    return (  # r, R < (n - 1) // 4 puts both in the k_0 domain: n >= 9 and r <= n // 4
        max(b.r, b.R) < (n - 1) // 4
        and 2 * b.q <= mlas_lower_bound(PendantConfig(n, b.r))
        and 2 * b.p <= mlas_lower_bound(PendantConfig(n, b.R))
    )


def double_broom_sigma(b: DoubleBroom) -> BroomSigma:
    """sigma(T) and the root sign, exact.

    When the side-counting hypotheses hold, the root value equals
    2/n - 1/b_{2q}(r) - 1/b_{2p}(R) and sigma is r+R+q+p plus one when that
    value is positive; the congruence sweep cross-checks the count (and is
    the fallback when the hypotheses fail).  One call of treediag's
    ``_exact_counts``, the sweep of ``locate(exact=True)``, gives the
    inertia and the root value with its bound, and b_{2q}, b_{2p} come from
    ``_scan``.  Where the formula's sign is in doubt, ``b_at`` reruns only
    the terms, with intervals of radius 0: no broom root value is 0, so the
    root's interval, certified or exact, decides the rule with them.
    """
    from .treediag import MatrixKind, _exact_counts, build_matrix

    layout = double_broom_layout(b)
    values, bounds, inertia = _exact_counts(build_matrix(layout.tree, MatrixKind.LAPLACIAN), 2 - Fraction(2, b.n))
    x_root, hypotheses = values[layout.root - 1], _broom_hypotheses(b)
    e_root = 0 if bounds is None else bounds[layout.root - 1]
    if bounds is not None:  # a certified root value: the terms from the certified scan first
        result = _broom_split(b, x_root, e_root, inertia, hypotheses,
                              lambda cfg, j: next(islice(_scan(cfg), j - 1, None), None))
        if result is not None:
            return result
    return _broom_split(b, x_root, e_root, inertia, hypotheses, lambda cfg, j: (b_at(cfg, j), 0))


def _broom_split(b: DoubleBroom, x_root: Union[float, Fraction], e_root: float, inertia: InertiaTriple,
                 hypotheses: bool, term: Callable[[PendantConfig, int], Optional[tuple]]) -> Optional[BroomSigma]:
    """The split from the sweep's root value x_root, its bound e_root, its inertia and b_j as ``term``.

    ``term`` gives b_j as (x, e) with |b_j - x| <= e < |x|, or None; then
    |1/b_j - 1/x| <= e / (|x| (|x| - e)), summed in exact arithmetic.  The
    formula's interval must meet the root's; it is in doubt (None) when it holds
    0 or a term is None.  For odd n no sweep value at 2 - 2/n is 0
    (2 - 2/n is no algebraic integer), so the root has a sign, and exact
    terms (e = 0; no b_j is 0) are never in doubt.
    """
    n = b.n
    x_root, e_root = Fraction(x_root), Fraction(e_root)
    if hypotheses:
        centre, radius = Fraction(2, n), Fraction(0)
        for side, j in ((b.r, 2 * b.q), (b.R, 2 * b.p)):
            t = term(PendantConfig(n, side), j)
            if t is None:
                return None
            x, e = map(Fraction, t)
            centre -= 1 / x
            radius += e / (abs(x) * (abs(x) - e))
        meets = abs(centre - x_root) <= radius + e_root
        if meets and abs(centre) <= radius:
            return None
        predicted = b.r + b.R + b.q + b.p + (centre > 0)
        if not meets or predicted != inertia.above:
            raise RuntimeError(
                f"side counting disagrees with the sweep for {b}: "
                f"formula {float(centre)} +- {float(radius):.3g} vs root {float(x_root)} +- "
                f"{float(e_root):.3g}, predicted {predicted} vs above {inertia.above}"
            )
    sign = RootSign.POSITIVE if x_root > 0 else RootSign.NEGATIVE
    return BroomSigma(sigma=inertia.above, root_sign=sign, hypotheses_met=hypotheses, inertia=inertia)


def star_up(tree: RootedTree, star: int) -> RootedTree:
    """Shorten the pendant path at ``star`` by two vertices and give the star
    one more pendant 2-path.

    ``star`` must carry only pendant 2-paths plus exactly one path neighbor,
    the path must run through two degree-2 vertices before reaching anything
    else, and that anchor must not be a leaf.  Vertex ids and count are
    preserved: the two removed path vertices become the new pendant 2-path.
    The neighbours come from ``tree.parent`` in O(n), which the rebuild costs anyway.
    """
    from .treediag import build_tree

    n = tree.n
    if not (1 <= star <= n):
        raise PreconditionViolatedError(f"star vertex {star} outside 1..{n}")
    parent, deg = tree.parent, tree.degree
    child_sum = [0] * (n + 1)
    for v, p in enumerate(parent):
        child_sum[p] += v

    def across(v: int, u: int) -> int:
        """The neighbor other than u of a degree-2 vertex v (the root's parent is 0)."""
        return parent[v] + child_sum[v] - u

    around = [v for v in range(1, n + 1) if parent[v] == star or v == parent[star]]
    others = [w for w in around if deg[w] != 2 or deg[across(w, star)] != 1]
    if len(others) != 1:
        raise PreconditionViolatedError(
            f"star {star} must have exactly one non-pendant neighbor, found {len(others)}"
        )
    r = len(around) - 1
    if r > n // 4 - 1:
        raise PreconditionViolatedError(
            f"star {star} already carries r = {r} > floor(n/4) - 1 pendant 2-paths"
        )
    a = others[0]
    if deg[a] != 2:
        raise PreconditionViolatedError(f"path vertex {a} must have degree 2")
    bv = across(a, star)
    if deg[bv] != 2:
        raise PreconditionViolatedError(f"path vertex {bv} must have degree 2")
    c = across(bv, a)
    if deg[c] < 2:
        raise PreconditionViolatedError(f"path anchor {c} must not be a leaf")
    edges = tree.edges()
    edges.remove((bv, c) if parent[bv] == c else (c, bv))
    return build_tree(edges + [(star, c)], root=tree.root)
