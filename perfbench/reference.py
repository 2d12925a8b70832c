"""Reference answers that do not come from treespec, and the output checks.

Sources, by question:
  inertia counts       a congruence sweep kept here (float, re-run in
                       60-digit decimals when a value comes near zero; exact
                       Fractions for rational shifts), or
                       numpy.linalg.eigvalsh for trees of at most DENSE_MAX
  radius / eigen --k   an inertia certificate from that sweep (the answer is
                       within --tol iff the counts at answer -/+ tol bracket
                       it), plus a value from scipy.linalg.eigh_tridiagonal
                       (paths), closed forms (stars) or eigvalsh (small trees)
  random-tree          a Pruefer decoder written here, following the
                       documented sequence convention
  mlas                 mlas == mlas_direct, and an integer recurrence scan
                       of the signs of b_j written here
  broom                an exact Fraction sweep at 2 - 2/n written here;
                       below + equal + above = n
  limit                eigvalsh of each T(1, m, m); gaps positive and
                       decreasing; the limit constants from numpy.roots
  solve / plot-data    the orbit iterated here; the closed form at integer j

Float answers are compared within the requested --tol (or a relative
1e-9 for orbit values), never byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from workloads import Command, Tree, Workload, double_broom, prufer_decode

#: trees up to this size get dense eigvalsh references
DENSE_MAX = 2000

#: a float sweep value this close to zero (relative) triggers a re-run in
#: PRECISE_DIGITS-digit decimal arithmetic
NEAR_ZERO = 1e-8
PRECISE_DIGITS = 60


def _weights(matrix: str, deg: List[int], one):
    """(diagonal(v), squared edge weight(u, v)) of the matrix kind, in the
    number type of ``one``."""
    if matrix == "adjacency":
        return (lambda v: 0 * one), (lambda u, v: one)
    if matrix == "laplacian":
        return (lambda v: deg[v] * one), (lambda u, v: one)
    if matrix == "normalized":
        return (lambda v: one), (lambda u, v: one / (deg[u] * deg[v]))
    raise ValueError(matrix)


class TreeRef:
    """Sweep order and cached spectra of one generated tree."""

    def __init__(self, tree: Tree):
        self.tree = tree
        self.adj = tree.neighbors()
        self.deg = [len(a) for a in self.adj]
        root = tree.root - 1
        parent = [-1] * tree.n
        order = [root]
        seen = [False] * tree.n
        seen[root] = True
        for v in order:  # BFS; grows while iterating
            for w in self.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    order.append(w)
        if len(order) != tree.n:
            raise ValueError(f"{tree.name} is not connected")
        self.order = order[::-1]  # children before parents
        self.parent = parent
        self._dense: Dict[str, np.ndarray] = {}

    def inertia(self, matrix: str, alpha, one=1.0) -> Tuple[Tuple[int, int, int], float]:
        """(below, equal, above) of M - alpha*I, and min |value| / scale.

        The arithmetic is that of ``one`` and ``alpha``: float, Fraction
        (exact) or Decimal.  Jacobs-Trevisan rule: a vertex with a zero child
        takes -w^2/2, the zero child takes 2, and the vertex's own parent
        edge is dropped.
        """
        diag, w2 = _weights(matrix, self.deg, one)
        d = [diag(v) - alpha for v in range(self.tree.n)]
        scale = max(1.0, max(abs(float(x)) for x in d))
        zero_child = [-1] * self.tree.n
        parent = self.parent
        for v in self.order:
            c = zero_child[v]
            if c >= 0:
                d[v] = -w2(c, v) / 2
                d[c] = 2 * one
                continue
            p = parent[v]
            if p >= 0:
                if d[v] == 0:
                    zero_child[p] = v
                else:
                    d[p] -= w2(v, p) / d[v]
        below = sum(1 for x in d if x < 0)
        equal = sum(1 for x in d if x == 0)
        nearest = min(abs(float(x)) for x in d) / scale
        return (below, equal, self.tree.n - below - equal), nearest

    def counts(self, matrix: str, alpha: float) -> Tuple[int, int, int]:
        """Inertia at a float shift: a float sweep, re-run in high precision
        when a value comes near zero.  (An exact Fraction re-run would take
        minutes on long paths: the fractions grow at every level.)"""
        triple, nearest = self.inertia(matrix, alpha)
        if nearest < NEAR_ZERO:
            with localcontext() as ctx:
                ctx.prec = PRECISE_DIGITS
                triple, _ = self.inertia(matrix, Decimal(alpha), Decimal(1))
        return triple

    def sparse(self, matrix: str) -> scipy.sparse.csr_matrix:
        n = self.tree.n
        rows, cols, vals = [], [], []
        deg = self.deg
        for u, v in self.tree.edges:
            u, v = u - 1, v - 1
            w = {"adjacency": 1.0, "laplacian": -1.0,
                 "normalized": -1.0 / math.sqrt(deg[u] * deg[v])}[matrix]
            rows += [u, v]
            cols += [v, u]
            vals += [w, w]
        diag = {"adjacency": [0.0] * n, "laplacian": [float(x) for x in deg],
                "normalized": [1.0] * n}[matrix]
        rows += list(range(n))
        cols += list(range(n))
        vals += diag
        return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def dense_spectrum(self, matrix: str) -> np.ndarray:
        if matrix not in self._dense:
            self._dense[matrix] = np.linalg.eigvalsh(self.sparse(matrix).toarray())
        return self._dense[matrix]

    def eigenvalue(self, matrix: str, k: int) -> Optional[float]:
        """k-th smallest eigenvalue (1-based) from a method other than the
        sweep, where one is cheap; None otherwise."""
        t, n = self.tree, self.tree.n
        if n <= DENSE_MAX:
            return float(self.dense_spectrum(matrix)[k - 1])
        if t.shape == "path" and matrix in ("adjacency", "laplacian"):
            diag = np.zeros(n) if matrix == "adjacency" else np.array(
                [1.0] + [2.0] * (n - 2) + [1.0])
            off = np.full(n - 1, 1.0 if matrix == "adjacency" else -1.0)
            vals = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True,
                                                 select="i", select_range=(k - 1, k - 1))
            return float(vals[0])
        if t.shape == "star":
            if matrix == "adjacency":
                spec = [-math.sqrt(n - 1)] + [0.0] * (n - 2) + [math.sqrt(n - 1)]
            elif matrix == "laplacian":
                spec = [0.0] + [1.0] * (n - 2) + [float(n)]
            else:
                spec = [0.0] + [1.0] * (n - 2) + [2.0]
            return spec[k - 1]
        if t.shape == "prufer" and k == n:
            val = scipy.sparse.linalg.eigsh(self.sparse(matrix), k=1, which="LA",
                                            return_eigenvectors=False, tol=1e-13)
            return float(val[0])
        return None


def _expect(cond: bool, msg: str) -> Optional[str]:
    return None if cond else msg


class Checker:
    """Checks one workload's outputs; references are computed once each."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self._trees: Dict[str, TreeRef] = {}

    def tree(self, name: str) -> TreeRef:
        if name not in self._trees:
            self._trees[name] = TreeRef(self.wl.trees[name])
        return self._trees[name]

    def check(self, cmd: Command, out: str) -> Optional[str]:
        """None when ``out`` is a correct answer to ``cmd``, else why not."""
        try:
            return getattr(self, "_check_" + cmd.kind)(cmd, cmd.ref, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable output: {exc!r}"

    # -- tree commands -------------------------------------------------------

    def _locate(self, cmd: Command, ref: dict, out: str, exact: bool) -> Optional[str]:
        got = json.loads(out)
        t = self.tree(cmd.tree)
        if exact:
            expected, _ = t.inertia(ref["matrix"], Fraction(ref["alpha"]), Fraction(1))
        elif t.tree.n <= DENSE_MAX:
            spec = t.dense_spectrum(ref["matrix"])
            alpha = float(ref["alpha"])
            gap = float(np.min(np.abs(spec - alpha)))
            if gap < 1e-9:
                expected = t.counts(ref["matrix"], alpha)
            else:
                below = int(np.sum(spec < alpha))
                expected = (below, 0, t.tree.n - below)
        else:
            expected = t.counts(ref["matrix"], float(ref["alpha"]))
        triple = (got["below"], got["equal"], got["above"])
        return _expect(got["n"] == t.tree.n and triple == tuple(expected),
                       f"counts {triple} != reference {tuple(expected)}")

    def _check_locate(self, cmd, ref, out):
        return self._locate(cmd, ref, out, exact=False)

    def _check_locate_exact(self, cmd, ref, out):
        return self._locate(cmd, ref, out, exact=True)

    def _bracket(self, cmd: Command, ref: dict, value: float, k: int) -> Optional[str]:
        """value is within tol of the k-th smallest eigenvalue."""
        t = self.tree(cmd.tree)
        tol, matrix = ref["tol"], ref["matrix"]
        below_lo, _, _ = t.counts(matrix, value - tol)
        below_hi, equal_hi, _ = t.counts(matrix, value + tol)
        if not (below_lo < k <= below_hi + equal_hi):
            return (f"eigenvalue {k} not within tol {tol} of {value!r}: "
                    f"{below_lo} below {value - tol!r}, {below_hi + equal_hi} up to {value + tol!r}")
        exact = t.eigenvalue(matrix, k)
        if exact is not None and abs(exact - value) > tol:
            return f"{value!r} differs from reference {exact!r} by more than {tol}"
        return None

    def _check_radius(self, cmd, ref, out):
        got = json.loads(out)
        return self._bracket(cmd, ref, got["radius"], self.tree(cmd.tree).tree.n)

    def _check_eigen(self, cmd, ref, out):
        got = json.loads(out)
        if got["k"] != ref["k"]:
            return f"k {got['k']} != {ref['k']}"
        return self._bracket(cmd, ref, got["eigenvalue"], ref["k"])

    # -- random trees --------------------------------------------------------

    def _check_random_tree(self, cmd, ref, out):
        n, seed = ref["n"], ref["seed"]
        rng = random.Random(seed)
        seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
        expected = {frozenset(e) for e in prufer_decode(seq, n)}
        got = set()
        for line in out.splitlines():
            u, v = line.split()
            got.add(frozenset((int(u), int(v))))
        lines = len(out.splitlines())
        return _expect(lines == n - 1 and got == expected,
                       f"edge set differs from the decoded Pruefer sequence ({lines} lines)")

    # -- analytics -----------------------------------------------------------

    @staticmethod
    def _b_signs(n: int, r: int, upto: int) -> Tuple[Optional[int], float, float]:
        """First odd j with b_j > 0 (None if none up to ``upto``), b_{j-1}, b_j.

        b_j = N_j / (n N_{j-1}) with N_{j+1} = 2 N_j - n^2 N_{j-1}: integer
        arithmetic, independent of treespec's Fraction orbit.
        """
        x1 = Fraction(2, n) - 1
        x2 = Fraction(2, n) - 1 / x1
        b1 = x1 + r * (1 - 1 / x2)
        older, prev, cur = None, b1.denominator, n * b1.numerator  # N_{j-2}, N_{j-1}, N_j
        for j in range(1, upto + 1):
            if j > 1:
                older, prev, cur = prev, cur, 2 * cur - n * n * prev
            if j % 2 == 1 and (cur > 0) == (prev > 0) and cur != 0:
                before = prev / (n * older) if j > 1 else math.nan
                return j, before, cur / (n * prev)
        return None, math.nan, math.nan

    def _check_mlas(self, cmd, ref, out):
        n = ref["n"]
        rows = [json.loads(line) for line in out.splitlines()]
        rs = list(range(1, ref["table"] + 1)) if ref["table"] else [ref["r"]]
        if [row["r"] for row in rows] != rs:
            return f"rows for r = {[row['r'] for row in rows]}, expected {rs}"
        for row in rows:
            first, b_before, b_first = self._b_signs(n, row["r"], 4 * n)
            if first is None:
                return f"reference scan found no positive odd b_j for r={row['r']}"
            mlas = first - 1
            k0 = row["k0"]
            checks = (
                (row["n"] == n, "n"),
                (row["mlas"] == row["mlas_direct"] == mlas, f"mlas {row['mlas']}/{row['mlas_direct']} vs {mlas}"),
                (row["mlas"] == 2 * k0 + 2, "mlas != 2 k0 + 2"),
                (row["lower_bound"] <= row["mlas"], "lower bound above mlas"),
                (math.isclose(row["b_2k0_2"], b_before, rel_tol=1e-12), "b_2k0_2"),
                (math.isclose(row["b_2k0_3"], b_first, rel_tol=1e-12), "b_2k0_3"),
            )
            for ok, what in checks:
                if not ok:
                    return f"r={row['r']}: {what}"
        return None

    def _check_broom(self, cmd, ref, out):
        got = json.loads(out)
        edges, root = double_broom(ref["r"], ref["q"], ref["p"], ref["rr"])
        n = len(edges) + 1
        t = TreeRef(Tree("broom", "broom", n, edges, root))
        expected, _ = t.inertia("laplacian", 2 - Fraction(2, n), Fraction(1))
        triple = (got["below"], got["equal"], got["above"])
        return _expect(
            got["n"] == n and triple == expected and sum(triple) == n
            and got["sigma"] == expected[2],
            f"n={got['n']} counts {triple} sigma {got['sigma']} vs reference n={n} {expected}")

    def _check_limit(self, cmd, ref, out):
        lines = out.splitlines()
        if lines[0] != "n_arm,radius,gap" or len(lines) != ref["n_max"] + 1:
            return "bad header or row count"
        if ref["family"] == "adjacency":
            target = math.sqrt(2 + math.sqrt(5))
        else:
            roots = np.roots([1.0, 0.0, -4.0, -4.0])
            target = 2 + float(max(r.real for r in roots if abs(r.imag) < 1e-12))
        tol = ref["tol"]
        last_gap = math.inf
        for m, line in enumerate(lines[1:], start=1):
            n_arm, radius, gap = line.split(",")
            radius, gap = float(radius), float(gap)
            edges = [(1, 2)]  # centre 1, arms of 1, m and m vertices
            nxt = 3
            for _ in range(2):
                prev = 1
                for _ in range(m):
                    edges.append((prev, nxt))
                    prev, nxt = nxt, nxt + 1
            t = TreeRef(Tree("starlike", "starlike", nxt - 1, edges, 1))
            exact = float(t.dense_spectrum(ref["family"])[-1])
            if int(n_arm) != m or abs(radius - exact) > tol:
                return f"n_arm={n_arm}: radius {radius!r} vs reference {exact!r}"
            if abs(radius + gap - target) > 1e-12 or gap <= -tol or gap > last_gap + tol:
                return f"n_arm={n_arm}: gap {gap!r} not positive and decreasing toward {target!r}"
            last_gap = gap
        return None

    @staticmethod
    def _orbit(alpha: float, gamma: float, x1: float, count: int) -> List[float]:
        xs = [x1]
        while len(xs) < count:
            xs.append(alpha + gamma / xs[-1])
        return xs

    def _check_solve(self, cmd, ref, out):
        got = json.loads(out)
        a, g, x1 = ref["alpha"], ref["gamma"], ref["x1"]
        xs = self._orbit(a, g, x1, ref["count"])
        if len(got["orbit"]) != len(xs):
            return f"orbit has {len(got['orbit'])} terms, expected {len(xs)}"
        for j, (u, v) in enumerate(zip(got["orbit"], xs), start=1):
            if not math.isclose(u, v, rel_tol=1e-9, abs_tol=1e-12):
                return f"x_{j} = {u!r}, reference {v!r}"
        j = int(ref["eval"])
        value = got["eval"]["value"]
        if value is None or not math.isclose(value, xs[j - 1], rel_tol=1e-9):
            return f"closed form at j={j} gives {value!r}, orbit {xs[j - 1]!r}"
        return _expect(math.isclose(got["delta"], a * a + 4 * g, rel_tol=1e-12), "delta")

    def _check_plot_data(self, cmd, ref, out):
        lines = out.splitlines()
        expected_rows = int((ref["to"] - ref["from"]) / ref["step"] + 1e-9) + 1
        if lines[0] != "j,value,is_pole" or len(lines) != expected_rows + 1:
            return f"{len(lines) - 1} rows, expected {expected_rows}"
        xs = self._orbit(ref["alpha"], ref["gamma"], ref["x1"], int(ref["to"]) + 1)
        checked = 0
        for line in lines[1:]:
            j, value, pole = line.split(",")
            j = float(j)
            jr = round(j)
            if abs(j - jr) > 1e-9 or jr < 1 or pole != "0":
                continue
            x = xs[jr - 1]
            # near a pole the closed form and the iteration legitimately part
            if abs(x) > 1e6 or (jr > 1 and abs(xs[jr - 2]) < 1e-6):
                continue
            if not math.isclose(float(value), x, rel_tol=1e-6, abs_tol=1e-9):
                return f"value at j={jr} is {value}, orbit gives {x!r}"
            checked += 1
        return _expect(checked > 0, "no integer sample to check")
