"""Seeded inputs and command lists of the three workloads.

Every input is generated here, from the seed alone, without calling
treespec: the tree shapes, their vertex labelling, the shifts and the
parameters of the analytics commands.  A change to treespec therefore
cannot change what the benchmark feeds it.

Workloads (each also carries one small "probe" command for every
subcommand its main list lacks, so that every end-to-end metric is
measured on every workload):

bisect     radius and eigen --k on five shapes at n = 8000.  The float
           sweep dominates: ~30 sweeps per query, against one parse/build.
ingest     one float locate per shape at n = 5e4, rotating the matrix
           kinds, plus random-tree at the same n.  Parse, build_tree and
           build_matrix dominate; the single sweep barely matters.
analytics  exact locate at n = 1e4 (quadratic Fraction sweeps on paths),
           mlas --direct, an mlas table, brooms, both limit families (many
           sweeps of tiny trees), solve and plot-data (short commands,
           where start-up matters).
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

WORKLOADS = ("bisect", "ingest", "analytics")

SHAPES = ("path", "star", "caterpillar", "prufer", "broom")

PROBE_REPEAT = 2

#: per-subcommand end-to-end metric of each command kind
METRIC_OF = {
    "locate": "locate_s",
    "locate_exact": "locate_exact_s",
    "radius": "radius_s",
    "eigen": "eigen_s",
    "mlas": "mlas_s",
    "broom": "broom_s",
    "limit": "limit_s",
    "random_tree": "random_tree_s",
    "solve": "recurrence_s",
    "plot_data": "recurrence_s",
}

#: input sizes; "tiny" is for the self-test only
SIZES = {
    "full": dict(
        bisect_n=8_000, ingest_n=50_000, exact_n=10_000, probe_n=800,
        mlas_n=8_000, table_n=400, table_rows=100, broom_big=(50, 300, 300, 50),
        limit_n=60, probe_limit_n=12, probe_mlas_n=300, orbit_count=5_000,
        plot_to=200.0,
    ),
    "tiny": dict(
        bisect_n=60, ingest_n=200, exact_n=60, probe_n=30,
        mlas_n=60, table_n=40, table_rows=5, broom_big=(2, 4, 4, 2),
        limit_n=5, probe_limit_n=3, probe_mlas_n=40, orbit_count=50,
        plot_to=10.0,
    ),
}


@dataclass
class Tree:
    """A generated tree in canonical labels 1..n (references use these)."""

    name: str
    shape: str
    n: int
    edges: List[Tuple[int, int]]
    root: int
    path: str = ""  # file written for treespec (relabelled)

    def neighbors(self) -> List[List[int]]:
        """0-based adjacency lists."""
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u - 1].append(v - 1)
            adj[v - 1].append(u - 1)
        return adj


@dataclass
class Command:
    """One treespec invocation with the data its reference check needs."""

    kind: str  # key of METRIC_OF
    argv: List[str]
    ref: dict
    tree: str = ""  # Tree.name for tree commands
    repeat: int = 1  # runs per pass

    @property
    def metric(self) -> str:
        return METRIC_OF[self.kind]


@dataclass
class Workload:
    name: str
    seed: int
    trees: Dict[str, Tree] = field(default_factory=dict)
    commands: List[Command] = field(default_factory=list)
    input_hashes: Dict[str, str] = field(default_factory=dict)

    def setup_items(self) -> List[Tuple[str, str]]:
        """Distinct (tree file, matrix kind) pairs the tree commands load."""
        seen: Dict[Tuple[str, str], None] = {}
        for c in self.commands:
            if c.tree:
                seen[(self.trees[c.tree].path, c.ref["matrix"])] = None
        return list(seen)


# ---------------------------------------------------------------------------
# shapes (canonical labels; root chosen for the depth profile)


def path_tree(n: int) -> Tuple[List[Tuple[int, int]], int]:
    """n levels: rooted at an end."""
    return [(v, v + 1) for v in range(1, n)], 1


def star_tree(n: int) -> Tuple[List[Tuple[int, int]], int]:
    """1 level: rooted at the centre."""
    return [(1, v) for v in range(2, n + 1)], 1


def caterpillar_tree(n: int) -> Tuple[List[Tuple[int, int]], int]:
    """Spine 1..n/2, one leaf per spine vertex; rooted at a spine end."""
    s = n // 2
    edges = [(v, v + 1) for v in range(1, s)]
    edges += [((i - 1) % s + 1, s + i) for i in range(1, n - s + 1)]
    return edges, 1


def prufer_tree(n: int, rng: random.Random) -> Tuple[List[Tuple[int, int]], int]:
    """Uniform labelled tree from a seeded Pruefer sequence; about sqrt(n) levels."""
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    return prufer_decode(seq, n), n


def prufer_decode(seq: List[int], n: int) -> List[Tuple[int, int]]:
    """Smallest-leaf-first decoding of a Pruefer sequence over 1..n."""
    if n == 1:
        return []
    degree = [1] * (n + 1)
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def double_broom(r: int, q: int, p: int, rr: int) -> Tuple[List[Tuple[int, int]], int]:
    """Two stars with r and rr pendant 2-paths, joined through paths of 2q
    and 2p vertices that meet at a degree-2 root; n = 2(r + rr + q + p) + 1.

    Each star is the far end of its path; the root is vertex 1.
    """
    edges: List[Tuple[int, int]] = []
    nxt = 2
    for length, pendants in ((2 * q, r), (2 * p, rr)):
        prev = 1
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        star = prev
        for _ in range(pendants):
            edges.append((star, nxt))
            edges.append((nxt, nxt + 1))
            nxt += 2
    return edges, 1


def broom_tree(n: int) -> Tuple[List[Tuple[int, int]], int]:
    """Double broom of about n vertices: long paths under two stars."""
    r = max(1, n // 40)
    q = max(1, (n - 1 - 4 * r) // 4)
    return double_broom(r, q, q, r)


def make_tree(name: str, shape: str, n: int, rng: random.Random) -> Tree:
    if shape == "path":
        edges, root = path_tree(n)
    elif shape == "star":
        edges, root = star_tree(n)
    elif shape == "caterpillar":
        edges, root = caterpillar_tree(n)
    elif shape == "prufer":
        edges, root = prufer_tree(n, rng)
    elif shape == "broom":
        edges, root = broom_tree(n)
    else:
        raise ValueError(shape)
    return Tree(name, shape, len(edges) + 1, edges, root)


def write_tree(tree: Tree, directory: str, rng: random.Random) -> str:
    """Write the tree under a seeded random relabelling and line order, with
    an explicit root line; returns the file text."""
    perm = list(range(1, tree.n + 1))
    rng.shuffle(perm)
    lines = [f"{perm[u - 1]} {perm[v - 1]}" for u, v in tree.edges]
    rng.shuffle(lines)
    text = f"root {perm[tree.root - 1]}\n" + "\n".join(lines) + "\n"
    tree.path = os.path.join(directory, f"{tree.name}.txt")
    with open(tree.path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


# ---------------------------------------------------------------------------
# commands


def _gershgorin_hi(tree: Tree, matrix: str) -> float:
    maxdeg = max(len(a) for a in tree.neighbors())
    return {"adjacency": maxdeg, "laplacian": 2 * maxdeg, "normalized": 2}[matrix]


def bisect_tol(tree: Tree, matrix: str) -> float:
    """Nine significant digits of the spectral scale.

    The float sweep treats values within 1e-10 of its own scale as zero, so
    an absolute --tol below that is not attainable; 1e-9 of the Gershgorin
    bound is, and costs about 30 sweeps per query on every shape.
    """
    return float(f"{1e-9 * max(1.0, _gershgorin_hi(tree, matrix)):.3g}")


def _tree_cmd(kind: str, tree: Tree, matrix: str, extra: List[str], ref: dict) -> Command:
    sub = "locate" if kind == "locate_exact" else kind
    argv = [sub, "--tree", tree.path, "--matrix", matrix] + extra
    return Command(kind, argv, dict(ref, matrix=matrix), tree=tree.name)


def radius_cmd(tree: Tree, matrix: str) -> Command:
    tol = bisect_tol(tree, matrix)
    return _tree_cmd("radius", tree, matrix, ["--tol", repr(tol)], {"tol": tol})


def eigen_cmd(tree: Tree, matrix: str, k: int) -> Command:
    tol = bisect_tol(tree, matrix)
    return _tree_cmd("eigen", tree, matrix, ["--k", str(k), "--tol", repr(tol)],
                     {"tol": tol, "k": k})


def float_locate_cmd(tree: Tree, matrix: str, rng: random.Random) -> Command:
    lo, hi = {"adjacency": (-1.5, 1.5), "laplacian": (0.1, 3.9), "normalized": (0.1, 1.9)}[matrix]
    alpha = f"{rng.uniform(lo, hi):.6f}"
    return _tree_cmd("locate", tree, matrix, [f"--alpha={alpha}"], {"alpha": alpha})


def exact_locate_cmd(tree: Tree, matrix: str, rng: random.Random) -> Command:
    # A fixed denominator and a narrow numerator range keep the Fraction
    # sizes, hence the cost, alike across seeds.
    lo, hi = {"adjacency": (20, 26), "laplacian": (30, 36)}[matrix]
    alpha = str(Fraction(rng.randrange(lo, hi), 19))
    # "--alpha=-4/19": argparse would take a separate "-4/19" for an option
    return _tree_cmd("locate_exact", tree, matrix, [f"--alpha={alpha}", "--exact"],
                     {"alpha": alpha})


def mlas_cmd(n: int, r: int, table: int = 0) -> Command:
    argv = ["mlas", "--n", str(n), "--direct"]
    argv += ["--table", str(table)] if table else ["--r", str(r)]
    return Command("mlas", argv, {"n": n, "r": r, "table": table})


def broom_cmd(r: int, q: int, p: int, rr: int) -> Command:
    argv = ["broom", "--r", str(r), "--q", str(q), "--p", str(p), "--rr", str(rr)]
    return Command("broom", argv, {"r": r, "q": q, "p": p, "rr": rr})


def limit_cmd(family: str, n_max: int) -> Command:
    tol = 1e-8
    argv = ["limit", "--family", family, "--n-max", str(n_max), "--tol", repr(tol)]
    return Command("limit", argv, {"family": family, "n_max": n_max, "tol": tol})


def random_tree_cmd(n: int, seed: int) -> Command:
    return Command("random_tree", ["random-tree", "--n", str(n), "--seed", str(seed)],
                   {"n": n, "seed": seed})


def solve_cmd(rng: random.Random, count: int) -> Command:
    # two real fixed points (a^2 + 4g > 0) and a positive start: the orbit
    # stays positive and converges, so float comparisons are well posed
    alpha = round(rng.uniform(2.0, 4.0), 4)
    gamma = round(rng.uniform(0.5, 3.0), 4)
    x1 = round(rng.uniform(0.2, 2.0), 4)
    j = float(rng.randrange(2, 40))
    argv = ["solve", "--alpha", repr(alpha), "--gamma", repr(gamma), "--x1", repr(x1),
            "--count", str(count), "--eval", repr(j)]
    return Command("solve", argv, {"alpha": alpha, "gamma": gamma, "x1": x1,
                                   "count": count, "eval": j})


def plot_data_cmd(rng: random.Random, j_to: float) -> Command:
    # complex fixed points (a^2 + 4g < 0): the oscillating family, with poles
    alpha = round(rng.uniform(0.05, 0.5), 4)
    x1 = round(rng.uniform(-0.9, -0.1), 4)
    step = 0.01
    argv = ["plot-data", "--alpha", repr(alpha), "--gamma", "-1.0", "--x1", repr(x1),
            "--from", "0.0", "--to", repr(j_to), "--step", repr(step)]
    return Command("plot_data", argv, {"alpha": alpha, "gamma": -1.0, "x1": x1,
                                       "from": 0.0, "to": j_to, "step": step})


def _probes(present: set, sz: dict, rng: random.Random, add_tree) -> List[Command]:
    """One small command for every command kind the main list lacks, run
    PROBE_REPEAT times per pass: a single short command is mostly start-up,
    whose noise needs more samples than one per pass."""
    out: List[Command] = []
    probe = None
    if not {"locate", "locate_exact", "radius", "eigen"} <= present:
        probe = add_tree("probe", "prufer", sz["probe_n"])
    if "locate" not in present:
        out.append(float_locate_cmd(probe, "normalized", rng))
    if "locate_exact" not in present:
        out.append(exact_locate_cmd(probe, "laplacian", rng))
    if "radius" not in present:
        out.append(radius_cmd(probe, "adjacency"))
    if "eigen" not in present:
        out.append(eigen_cmd(probe, "laplacian", rng.randrange(1, probe.n + 1)))
    if "random_tree" not in present:
        out.append(random_tree_cmd(2 * sz["probe_n"], rng.randrange(1 << 30)))
    if "mlas" not in present:
        out.append(mlas_cmd(sz["probe_mlas_n"], 1))
    if "broom" not in present:
        out.append(broom_cmd(3, 2, 2, 2))
    if "limit" not in present:
        out.append(limit_cmd("laplacian", sz["probe_limit_n"]))
    if "solve" not in present:
        out.append(solve_cmd(rng, 50))
    if "plot_data" not in present:
        out.append(plot_data_cmd(rng, 5.0))
    for cmd in out:
        cmd.repeat = PROBE_REPEAT
    return out


def build(name: str, seed: int, directory: str, size: str = "full") -> Workload:
    """Generate the workload's inputs under ``directory`` and its commands."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    sz = SIZES[size]
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(name, seed)

    def add_tree(tag: str, shape: str, n: int) -> Tree:
        tree = make_tree(f"{tag}-{shape}", shape, n, rng)
        text = write_tree(tree, directory, rng)
        wl.trees[tree.name] = tree
        wl.input_hashes[tree.name] = hashlib.sha256(text.encode()).hexdigest()[:16]
        return tree

    cmds = wl.commands
    if name == "bisect":
        kinds = ("laplacian", "adjacency")
        for i, shape in enumerate(SHAPES):
            tree = add_tree("bisect", shape, sz["bisect_n"])
            cmds.append(radius_cmd(tree, kinds[i % 2]))
            cmds.append(eigen_cmd(tree, kinds[(i + 1) % 2], rng.randrange(1, tree.n + 1)))
    elif name == "ingest":
        kinds = ("adjacency", "laplacian", "normalized")
        for i, shape in enumerate(SHAPES):
            tree = add_tree("ingest", shape, sz["ingest_n"])
            cmds.append(float_locate_cmd(tree, kinds[i % 3], rng))
        cmds.append(random_tree_cmd(sz["ingest_n"], rng.randrange(1 << 30)))
    else:
        kinds = ("adjacency", "laplacian")
        for i, shape in enumerate(SHAPES):
            tree = add_tree("exact", shape, sz["exact_n"])
            cmds.append(exact_locate_cmd(tree, kinds[i % 2], rng))
        cmds.append(mlas_cmd(sz["mlas_n"] + rng.randrange(0, 50), rng.randrange(1, 4)))
        cmds.append(mlas_cmd(sz["table_n"], 0, table=sz["table_rows"]))
        cmds.append(broom_cmd(rng.randrange(2, 4), 2, 2, rng.randrange(2, 4)))
        r, q, p, rr = sz["broom_big"]
        cmds.append(broom_cmd(r + rng.randrange(0, 3), q + rng.randrange(0, 3),
                              p + rng.randrange(0, 3), rr + rng.randrange(0, 3)))
        cmds.append(limit_cmd("adjacency", sz["limit_n"]))
        cmds.append(limit_cmd("laplacian", sz["limit_n"]))
        cmds.append(solve_cmd(rng, sz["orbit_count"]))
        cmds.append(plot_data_cmd(rng, sz["plot_to"]))
    cmds.extend(_probes({c.kind for c in cmds}, sz, rng, add_tree))
    argv_text = "\n".join(" ".join(c.argv) for c in cmds).replace(directory, "")
    wl.input_hashes["commands"] = hashlib.sha256(argv_text.encode()).hexdigest()[:16]
    return wl
