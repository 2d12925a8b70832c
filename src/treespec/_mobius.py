"""Closed forms of the orbit of x -> alpha + gamma/x, with relative error bounds.

The pieces that several modules need in one place.  Imports no treespec
module, so a module can use it without loading another.
"""

from __future__ import annotations

import math
from typing import Tuple

#: unit roundoff of float64
U = 2.0**-53


def type2_offset(diff: float, log_q: float, z0: float, j: int,
                 err_diff: float, err_log_q: float, err_z0: float) -> Tuple[float, float]:
    """x_j - theta of a type-2 orbit, and a bound on its relative error.

    theta and theta' are the fixed points of x -> alpha + gamma/x, with
    |theta'| < |theta|, q = theta'/theta in (0, 1) and diff = theta - theta'.
    By the Moebius conjugacy z = (x - theta)/(x - theta'), z_j = q^j z_0, and
        x_j - theta = z_j (theta - theta')/(1 - z_j),
    which takes the difference from z_j and never subtracts x_j from theta.
    The arguments round diff, log q and z_0 with relative errors err_diff,
    err_log_q and err_z0.
      t = j log q errs by |t|(err_log_q + u) absolute, u = 2^-53, which
    moves exp(t) by that much relative; exp adds one ulp (2u) and the
    product z_j = z_0 exp(t) one rounding, so z_j errs by
    e_z = err_z0 + |t|(err_log_q + u) + 3u.  1 - z_j errs by
    |z_j| e_z/|1 - z_j| + u, and the product and quotient by 2u more.  While
    the sum of these first-order terms is at most 2^-10, it times
    1 + 2^-7 bounds the whole error; otherwise, where q^j or z_j is not a
    normal float and at the pole z_j = 1, the bound is inf.  So the error
    grows as |j log q| u.
    """
    t = j * log_q
    power = math.exp(t)
    z = z0 * power
    ez = err_z0 + abs(t) * (err_log_q + U) + 3 * U
    w = 1.0 - z
    if w == 0:  # x_j is the pole
        return math.inf, math.inf
    err = ez + err_diff + abs(z / w) * ez + 3 * U
    if not (err <= 2.0**-10 and min(power, abs(z)) >= 2.0**-1022):
        return z * diff / w, math.inf
    return z * diff / w, err * (1 + 2.0**-7)
