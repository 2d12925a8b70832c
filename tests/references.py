"""References the tests check treespec against, kept out of the package.

The dense spectra come from LAPACK's symmetric eigensolver
(``numpy.linalg.eigvalsh``), which shares nothing with the congruence sweep
it checks.  The pendant-path orbit b_1, b_2, ... is iterated step by step by
``recurrence.iterate``, which shares nothing with ``signs``' powering and
certified scan.
"""

import math
from fractions import Fraction

import numpy as np

from treespec.errors import DomainError
from treespec.recurrence import OrbitResult, RecurrenceParams, iterate

#: dense_spectrum refuses larger instances (misuse guard)
SIZE_LIMIT = 512

#: default eigenvalue tolerance of dense_spectrum
DEFAULT_TOL = 1e-10


def dense(m) -> np.ndarray:
    """The tree matrix m as a dense float array."""
    d = np.zeros((m.n, m.n))
    for v in range(1, m.n + 1):
        d[v - 1, v - 1] = float(m.diag[v])
    for v, p in m.tree.edges():
        d[v - 1, p - 1] = d[p - 1, v - 1] = float(m.edge_weight[v])
    return d


def dense_spectrum(m, tol: float = DEFAULT_TOL) -> tuple:
    """Every eigenvalue of the tree matrix m within tol, ascending.

    ``numpy.linalg.eigvalsh`` computes each eigenvalue to within
    n*u*||M||_2 with u = 2**-53 (LAPACK Users' Guide, section 4.7, taking
    p(n) = n).  The bound uses g = max(|lo|, |hi|) of ``m.gershgorin()``,
    which is at least ||M||_2, and a tol below n*u*g is refused.
    """
    if m.n > SIZE_LIMIT:
        raise ValueError(f"dense reference limited to n <= {SIZE_LIMIT}, got {m.n}")
    if not tol > 0 or tol == math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    lo, hi = m.gershgorin()
    bound = m.n * 2.0**-53 * max(abs(lo), abs(hi))
    if tol < bound:
        raise DomainError(f"tol {tol!r} is below the LAPACK error bound n*u*||M|| = {bound!r}")
    return tuple(map(float, np.linalg.eigvalsh(dense(m))))


def pendant_params(cfg, exact: bool = True) -> RecurrenceParams:
    """The step b_{j+1} = 2/n - 1/b_j of a signs.PendantConfig's orbit."""
    if exact:
        return RecurrenceParams(Fraction(2, cfg.n), Fraction(-1))
    return RecurrenceParams(2.0 / cfg.n, -1.0)


def b_sequence(cfg, count: int, exact: bool = False) -> OrbitResult:
    """First ``count`` values of b_j, iterated from b_1 in Fractions or in floats."""
    start = cfg.b1 if exact else float(cfg.b1)
    return iterate(pendant_params(cfg, exact), start, count)
