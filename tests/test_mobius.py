"""Tests for the closed forms of x -> alpha + gamma/x in ``treespec._mobius``."""

import math
from fractions import Fraction

import pytest

from treespec._mobius import U, type2_offset


@pytest.mark.parametrize("theta, theta2, x0", [
    (Fraction(-3), Fraction(-1, 2), Fraction(7)),
    (Fraction(5), Fraction(2), Fraction(-1, 3)),
    (Fraction(-7, 2), Fraction(-1, 3), Fraction(1)),
    (Fraction(4), Fraction(15, 4), Fraction(10**6)),
    (Fraction(-9, 8), Fraction(-1, 1000), Fraction(-1, 999)),
])
def test_type2_offset_within_its_bound(theta, theta2, x0):
    """x_j - theta against the exact orbit, for fixed points theta, theta' (gamma < 0)."""
    alpha, gamma = theta + theta2, -theta * theta2
    q = float(theta2 / theta)
    log_q = math.log(q)
    z0 = (x0 - theta) / (x0 - theta2)
    x, answered = x0, 0
    for j in range(1, 400):
        x = alpha + gamma / x
        exact = x - theta
        value, bound = type2_offset(float(theta - theta2), log_q, float(z0), j,
                                    U, U / abs(log_q) + 2 * U, U)
        if bound == math.inf:
            continue
        assert abs(Fraction(value) - exact) <= Fraction(bound) * abs(exact), j
        answered += 1
    assert answered >= 20


def test_type2_offset_refuses_the_pole_and_underflow():
    assert type2_offset(1.0, math.log(0.5), 2.0, 1, 0.0, U, 0.0) == (math.inf, math.inf)
    _, bound = type2_offset(1.0, math.log(0.5), 1.0, 1100, 0.0, U, 0.0)
    assert bound == math.inf
