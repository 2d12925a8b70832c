"""The one congruence sweep, float and exact, against a rule written out here."""

import random
from fractions import Fraction
from math import isqrt, nextafter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treespec.oracle import random_tree
from treespec.treediag import (
    InertiaTriple,
    MatrixKind,
    SymmetricTreeMatrix,
    build_matrix,
    build_tree,
    _certified_sweep,
    diagonalize,
    locate,
    spectral_radius,
)

N = 120


def path(n):
    return build_tree([(v, v + 1) for v in range(1, n)], root=1)


def star(n):
    return build_tree([(1, v) for v in range(2, n + 1)], root=1)


def caterpillar(n):
    s = n // 2
    edges = [(v, v + 1) for v in range(1, s)]
    edges += [((i - 1) % s + 1, s + i) for i in range(1, n - s + 1)]
    return build_tree(edges, root=1)


def broom(n):
    """A path from vertex 1 to a star of pendant 2-paths at its far end."""
    spine = n // 2
    edges = [(v, v + 1) for v in range(1, spine)]
    nxt = spine + 1
    while nxt + 1 <= n:
        edges += [(spine, nxt), (nxt, nxt + 1)]
        nxt += 2
    if nxt == n:
        edges.append((spine, n))
    return build_tree(edges, root=1)


SHAPES = {
    "path": path(N),
    "star": star(N),
    "caterpillar": caterpillar(N),
    "prufer": random_tree(N, seed=7),
    "broom": broom(N),
}

#: adjacency at 0 and +-1 and the Laplacian at 1 take the zero-child branch;
#: adjacency at 1e-11 has max|m_vv - alpha| < 1, where the threshold stays 1e-10
SHIFTS = {
    MatrixKind.ADJACENCY: (0.0, 1.0, -1.0, 0.37, 1e-11),
    MatrixKind.LAPLACIAN: (1.0, 2.0, 0.37),
    MatrixKind.NORMALIZED_LAPLACIAN: (1.0, 0.37),
}


def reference_sweep(m, alpha):
    """The float sweep rule over NumPy arrays, from the public tree API.

    Postorder, child-sum order in postorder, -0.5*w^2 and 2.0 on the
    zero-child branch, and the relative zero threshold, as documented.
    """
    n, tree = m.n, m.tree
    a = np.array([float(x) for x in m.diag[1:]]) - alpha
    tol = 1e-10 * max(1.0, float(np.max(np.abs(a))))
    w2 = np.array([float(w) * float(w) for w in m.edge_weight[1:]])
    acc = np.zeros(n)
    zero_child = np.full(n, -1)
    for v1 in tree.postorder:
        v = v1 - 1
        zc = zero_child[v]
        if zc >= 0:
            a[v] = -0.5 * w2[zc]
            a[zc] = 2.0
            continue
        a[v] -= acc[v]
        p1 = tree.parent[v1]
        if p1:
            p = p1 - 1
            if -tol <= a[v] <= tol:
                if zero_child[p] < 0 or v < zero_child[p]:
                    zero_child[p] = v
            else:
                acc[p] += w2[v] / a[v]
    return [float(x) for x in a], tol


def bits(values):
    return [float(x).hex() for x in values]


def test_float_sweep_bitwise_equals_reference_rule():
    zero_branch_cases = 0
    for name, tree in SHAPES.items():
        for kind, shifts in SHIFTS.items():
            m = build_matrix(tree, kind)
            for alpha in shifts:
                want, tol = reference_sweep(m, alpha)
                got = diagonalize(m, alpha)
                assert len(got) == m.n + 1 and got[0] == 0
                assert all(type(x) is float for x in got[1:])
                assert bits(got[1:]) == bits(want), (name, kind, alpha)
                below = sum(1 for x in want if x < -tol)
                equal = sum(1 for x in want if -tol <= x <= tol)
                assert tuple(locate(m, alpha)) == (below, equal, m.n - below - equal)
                zero_branch_cases += 2.0 in want
    assert zero_branch_cases >= 10  # the shifts above do reach the zero-child branch


@pytest.mark.parametrize("kind", MatrixKind.ALL)
@pytest.mark.parametrize("name", sorted(SHAPES))
@settings(max_examples=8, deadline=None)
@given(st.one_of(st.sampled_from((0.0, 1.0, -1.0, 2.0)), st.floats(-4.0, 8.0)))
def test_a_matrix_rebuilt_from_its_tuples_answers_alike(name, kind, alpha):
    m = build_matrix(SHAPES[name], kind)
    copy = SymmetricTreeMatrix(m.tree, m.diag, m.edge_weight)
    assert copy.is_rational == m.is_rational == (kind != MatrixKind.NORMALIZED_LAPLACIAN)
    assert bits(diagonalize(copy, alpha)[1:]) == bits(diagonalize(m, alpha)[1:])
    assert locate(copy, alpha) == locate(m, alpha)
    assert spectral_radius(copy).hex() == spectral_radius(m).hex()
    if m.is_rational:
        exact = Fraction(alpha)
        assert diagonalize(copy, exact, exact=True) == diagonalize(m, exact, exact=True)
        assert locate(copy, exact, exact=True) == locate(m, exact, exact=True)


def test_zero_child_tie_goes_to_smallest_vertex():
    # star adjacency at 0: every leaf is zero; leaf 2 wins, the others stay 0
    k = 7
    m = build_matrix(star(k + 1), MatrixKind.ADJACENCY)
    for alpha, exact in ((0.0, False), (0, True)):
        values = diagonalize(m, alpha, exact=exact)
        assert values[1] == Fraction(-1, 2) and values[2] == 2
        assert all(values[v] == 0 for v in range(3, k + 2))
        assert tuple(locate(m, alpha, exact=exact)) == (1, k - 1, 1)


def test_exact_diagonalize_returns_fractions():
    tree = star(5)
    m = SymmetricTreeMatrix(tree, (0, 0, 0, 0, 0, 0), (0, 0, 3, 3, 3, 3))
    values = diagonalize(m, 0, exact=True)
    assert all(type(x) is Fraction for x in values[1:])
    assert values[1] == Fraction(-9, 2) and values[2] == Fraction(2)
    for name, tree in SHAPES.items():
        for kind, alpha in ((MatrixKind.ADJACENCY, 0), (MatrixKind.LAPLACIAN, 1),
                            (MatrixKind.ADJACENCY, Fraction(1, 3))):
            values = diagonalize(build_matrix(tree, kind), alpha, exact=True)
            assert all(type(x) is Fraction for x in values[1:]), (name, kind, alpha)


def test_float_and_exact_inertia_agree_at_rational_shifts():
    shifts = [Fraction(p, q) for p, q in ((0, 1), (1, 1), (-1, 1), (1, 3), (-2, 7), (5, 2), (3, 1))]
    trees = list(SHAPES.values()) + [random_tree(n, seed=s) for s, n in enumerate((2, 9, 30, 61))]
    rng = random.Random(5)
    for tree in trees:
        for kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN):
            m = build_matrix(tree, kind)
            for alpha in shifts + [Fraction(rng.randint(-40, 40), rng.randint(1, 9))]:
                exact = fraction_inertia(m, alpha)
                assert locate(m, float(alpha)) == exact, (tree, kind, alpha)
                assert locate(m, alpha, exact=True) == exact, (tree, kind, alpha)
                assert sum(exact) == m.n


def sign_counts(values):
    """How many values are below, equal to and above 0."""
    below, equal = sum(x < 0 for x in values), sum(x == 0 for x in values)
    return InertiaTriple(below, equal, len(values) - below - equal)


def fraction_inertia(m, alpha):
    """Inertia of the pure Fraction sweep, the reference of the exact locate."""
    return sign_counts(diagonalize(m, alpha, exact=True)[1:])


def documented_bounds(m, alpha, x, e):
    """The bound of ``_certified_sweep``'s docstring, summed exactly.

    The float values are recomputed here and must equal ``x``; the child
    terms use the bounds ``e`` the pass returned for the children.
    """
    u, tree, fa = Fraction(1, 2**53), m.tree, float(alpha)
    w2 = [w * w for w in m.edge_weight]

    def rounding(value):
        return abs(Fraction(float(value)) - value)

    acc, want = {}, {}
    for v in tree.postorder:
        y = float(m.diag[v]) - fa
        assert x[v - 1] == y - acc.get(v, 0.0)
        ax = abs(Fraction(x[v - 1]))
        want[v] = (want.get(v, 0) + rounding(alpha) + rounding(m.diag[v])
                   + u * (abs(Fraction(y)) + ax) + Fraction(2.0**-200))
        p = tree.parent[v]
        if p:
            s, ev = float(w2[v]), Fraction(e[v - 1])
            q = s / x[v - 1]
            acc[p] = acc.get(p, 0.0) + q
            want[p] = (want.get(p, 0) + (s * ev + rounding(w2[v]) * ax) / (ax * (ax - ev))
                       + u * (abs(Fraction(q)) + abs(Fraction(acc[p]))))
    return [want[v] for v in range(1, m.n + 1)]


def check_certified(m, alpha):
    """Exact locate against the Fraction sweep; a certified pass also against its bound."""
    want = fraction_inertia(m, alpha)
    assert locate(m, alpha, exact=True) == want
    certified = _certified_sweep(m, alpha)
    if certified is None:
        return False
    x, e, counts = certified
    assert counts == sign_counts(x) == want
    exact = diagonalize(m, alpha, exact=True)[1:]
    for xv, ev, av, bound in zip(x, e, exact, documented_bounds(m, alpha, x, e)):
        assert abs(Fraction(xv) - av) <= Fraction(ev) < abs(Fraction(xv))
        assert Fraction(ev) >= bound
    return True


shifts = st.fractions(-8, 40, max_denominator=10**6)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.integers(0, 10**6),
       st.sampled_from((MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN)), shifts)
def test_exact_locate_equals_fraction_sweep(n, seed, kind, alpha):
    check_certified(build_matrix(random_tree(n, seed=seed), kind), alpha)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 16), st.integers(0, 10**6), shifts)
def test_exact_locate_on_rational_entries(n, seed, alpha):
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 600), rng.randint(1, 60))

    tree = random_tree(n, seed=seed)
    diag = [0] + [entry() for v in range(1, n + 1)]
    weight = [0] + [entry() if v != tree.root else 0 for v in range(1, n + 1)]
    check_certified(SymmetricTreeMatrix(tree, diag, weight), alpha)


def test_certified_pass_covers_most_random_shifts():
    rng, certified = random.Random(11), 0
    for trial in range(40):
        m = build_matrix(random_tree(rng.randint(2, 60), seed=trial), MatrixKind.LAPLACIAN)
        certified += check_certified(m, Fraction(rng.randint(-100, 900), rng.randint(1, 97)))
    assert certified >= 36


def test_shift_at_an_eigenvalue_falls_back():
    p3 = build_matrix(path(3), MatrixKind.ADJACENCY)
    star_laplacian = build_matrix(star(8), MatrixKind.LAPLACIAN)
    for m, alpha, want in ((p3, 0, (1, 1, 1)), (star_laplacian, 1, (1, 6, 1))):
        assert _certified_sweep(m, Fraction(alpha)) is None
        assert tuple(locate(m, alpha, exact=True)) == want == fraction_inertia(m, alpha)


def test_shifts_that_round_to_one_float_keep_their_own_counts():
    # sqrt(2) to 40 digits, +- 1e-30: both shifts round to float(sqrt(2)), and an
    # eigenvalue sqrt(2) + K lies between them.  With K = 2^20 the float sweep at
    # that float is accurate to ~1e-16, so only the shift's own rounding error,
    # ~1e-10, leaves the middle sign in doubt.
    r = Fraction(isqrt(2 * 10**80), 10**40)
    for k in (0, 2**20):
        m = SymmetricTreeMatrix(path(3), (0, k, k, k), (0, 0, 1, 1))
        low, high = k + r - Fraction(1, 10**30), k + r + Fraction(1, 10**30)
        assert float(low) == float(high)
        assert locate(m, low, exact=True) == fraction_inertia(m, low) == (2, 0, 1)
        assert locate(m, high, exact=True) == fraction_inertia(m, high) == (3, 0, 0)


def test_shifts_beyond_float_range():
    m = build_matrix(path(3), MatrixKind.ADJACENCY)
    assert _certified_sweep(m, Fraction(10**400)) is None
    for alpha, want in ((10**400, (3, 0, 0)), (-(10**400), (0, 0, 3)), (Fraction(1, 10**400), (2, 0, 1))):
        assert locate(m, alpha, exact=True) == fraction_inertia(m, alpha) == want


def test_entries_that_are_not_floats():
    # 1/3 rounds to a float 1.85e-17 below it: at the float just below that,
    # the leaf's float value is 5.55e-17 where the exact one is 7.4e-17, and
    # the root's float value has the wrong sign.  2**60 + 1 rounds to 2**60:
    # a leaf value of 256 where the exact one is 257 flips the root's sign.
    third = Fraction(1, 3)
    tree = build_tree([(1, 2), (2, 3)], root=2)
    m = SymmetricTreeMatrix(tree, (0, third, 3 * 10**14, 2**60 + 1), (0, Fraction(1, 7), 0, 1))
    alpha = Fraction(nextafter(float(third), 0.0))
    assert locate(m, alpha, exact=True) == fraction_inertia(m, alpha) == (0, 0, 3)
    top = 2**60 - 256
    m = SymmetricTreeMatrix(build_tree([(1, 2)], root=2), (0, 2**60 + 1, top + Fraction(2, 513)), (0, 1, 0))
    assert locate(m, top, exact=True) == fraction_inertia(m, top) == (0, 0, 2)
    for alpha in (third, Fraction(1, 7), top, Fraction(10**15, 3)):
        check_certified(m, alpha)


def test_entries_below_the_float_range():
    # the leaf's 1.02 * 2^-1075 rounds to 2^-1074, and its rounding error to
    # 0.0; with the weight 2^-500 the root's float value is 2^73 where the
    # exact one is 2^73 * (3 - 4/1.02) < 0
    tree = build_tree([(1, 2)], root=2)
    m = SymmetricTreeMatrix(tree, (0, Fraction(51, 50 * 2**1075), 3 * 2**73), (0, Fraction(1, 2**500), 0))
    assert locate(m, 0, exact=True) == fraction_inertia(m, 0) == (1, 0, 1)


def test_a_value_equal_to_its_bound_stays_uncertain():
    # one vertex: d = 1 + 2^-54 rounds to 1 and the shift to 1 - 2^-53, so the
    # float value is x = 2^-53.  The bound grows with the shift's rounding error
    # da; the last certified bound must be the float just below x.
    m = SymmetricTreeMatrix(build_tree([], root=1), (0, 1 + Fraction(1, 2**54)), (0, 0))
    x, da, last = 2.0**-53, 2.0**-54 * (1 - 1e-13), None
    while (certified := _certified_sweep(m, Fraction(1 - x) + Fraction(da))) is not None:
        assert certified[0] == [x] and certified[2] == (0, 0, 1)
        last, da = certified[1][0], nextafter(da, 1.0)
    assert last is not None and last < x and nextafter(last, 1.0) == x
