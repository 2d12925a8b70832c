"""Command-line interface.

Subcommands:
  solve        classification, closed-form constants, iterates, optional eval
  plot-data    CSV samples (j, value, is_pole) of the continuous extension
  locate       eigenvalue counts of a tree matrix relative to a shift
  radius       spectral radius by inertia bisection
  eigen        k-th smallest eigenvalue by inertia bisection
  mlas         alternating-sign report rows for (n, r)
  broom        eigenvalue split of a double broom at the average degree
  limit        convergence table of starlike spectral radii toward the limit
  random-tree  edge list of a seeded uniform random labeled tree

Each subcommand takes only the --format values it prints, listed as its
``formats`` in _build_parser; the first is its default.  Each handler
imports the library modules it runs, so a command loads only those.

Exit codes: 0 success, 2 usage error (a --format the subcommand does not
print is one), 3 domain error, 1 when stdout is closed before the output is
written (a broken pipe; nothing goes to stderr).  Diagnostics go to stderr,
data to stdout.  Identical argv produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Optional, Sequence

from .errors import DomainError, TreespecError

#: the --matrix choices: treediag.MatrixKind.ALL, restated so that the parser
#: needs no treediag (tests pin the two together)
_MATRIX_KINDS = ("adjacency", "laplacian", "normalized")

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

#: a negative number argparse would take for an option: "-4/19", "-1e-3", "-inf"
_NEGATIVE_VALUE_RE = re.compile(r"^-(\.?\d|inf$|infinity$|nan$)", re.IGNORECASE)

#: lines of random-tree per write: the output is never held whole
_LINES_PER_WRITE = 65536

#: argparse dests whose option is spelled differently
_OPTION_OF = {"eval_j": "--eval", "j_from": "--from", "j_to": "--to"}


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats, JSON for dicts and lists, plain
    str otherwise; ValueError for inf or nan."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value!r} is not finite")
        return repr(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value, default=str, allow_nan=False)
    return str(value)


def _require_finite_output(obj, field: str = "") -> None:
    """Reject inf and nan anywhere in a payload; the message names the field."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise DomainError(f"computed {field} is not finite ({obj!r}): a float overflowed")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _require_finite_output(value, f"{field}.{key}" if field else key)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _require_finite_output(value, f"{field}[{i}]")


def _parse_shift(text: str, exact: bool):
    """--alpha as a Fraction with --exact, else a float ('p/q' rounded once)."""
    from fractions import Fraction

    try:
        if _RATIONAL_RE.match(text.strip()):
            value = Fraction(text)
            return value if exact else float(value)
        if not exact:
            return float(text)
    except ZeroDivisionError:
        raise DomainError(f"--alpha {text!r} divides by zero") from None
    except OverflowError:
        raise DomainError(f"--alpha {text!r} is too large for a float") from None
    except ValueError:
        raise _UsageError(f"--alpha must be a number, got {text!r}") from None
    raise TreespecError(
        f"--exact requires a rational shift written as 'p/q' or an integer, got {text!r}"
    )


def _require_finite(args) -> None:
    """Reject inf and nan in every float option."""
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            option = _OPTION_OF.get(dest, "--" + dest.replace("_", "-"))
            raise DomainError(f"{option} must be finite, got {value!r}")


def _load_matrix(args):
    from . import treediag

    try:
        with open(args.tree, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read tree file {args.tree!r}: {exc}") from exc
    tree = treediag.parse_tree_file(text, root=getattr(args, "root", None))
    return treediag.build_matrix(tree, args.matrix)


class _UsageError(Exception):
    pass


#: the one field renamed on output: a solution's or report's phi_angle prints as phi
_RENAMED = {"phi_angle": "phi"}


def _fields(obj) -> dict:
    """A library record (a NamedTuple) as an output row, in field order."""
    return {_RENAMED.get(key, key): value for key, value in obj._asdict().items()}


def _print(args, rows: list, header: Sequence[str] = ()) -> None:
    """Print rows in the chosen format: JSON lines, CSV or ``key: value`` text.

    CSV prints ``header`` over tuple rows, or the keys of dict rows over their
    values: scalars ("" for an empty one), one ``%s`` template per row, which
    writes a float as _fmt does.  Every format renders all rows before it
    prints.  JSON and text stop at an inf or nan, CSV is searched for one;
    only then are the rows walked to name its field in the DomainError,
    since a walk of every row costs about as much as rendering it.
    """
    fmt = args.format or args.formats[0]
    if fmt == "csv" and not header:
        header, rows = tuple(rows[0]), [tuple(row.values()) for row in rows]
    try:
        if fmt == "json":
            lines = [json.dumps(row, default=str, allow_nan=False) for row in rows]
        elif fmt == "csv":
            line = ",".join(["%s"] * len(header))
            lines = [",".join(header)] + [line % row for row in rows]
        else:
            lines = [f"{key}: {_fmt(value)}" for row in rows for key, value in row.items()]
    except ValueError:
        for row in rows:
            _require_finite_output(row)
        raise
    text = "\n".join(lines)
    if fmt == "csv" and ("inf" in text or "nan" in text):
        for row in rows:
            _require_finite_output(dict(zip(header, row)))
    print(text)


def _cmd_solve(args) -> int:
    from . import recurrence

    params = recurrence.RecurrenceParams(args.alpha, args.gamma)
    cls = recurrence.classify(params)
    sol = recurrence.solve(params, args.x1)
    payload = {
        "alpha": args.alpha,
        "gamma": args.gamma,
        "x1": args.x1,
        "delta": float(cls.delta),
        "kind": cls.kind.value,
        "fixed_points": recurrence.fixed_points(params),
        "solution": {"variant": sol.variant, **_fields(sol)},
    }
    orbit = None
    if args.count is not None:
        orbit = recurrence.iterate(params, args.x1, args.count)
        payload["orbit"] = [float(v) for v in orbit.values]
    if args.eval_j is not None:
        value = sol.eval(args.eval_j)
        payload["eval"] = {
            "j": args.eval_j,
            "value": None if isinstance(value, recurrence.Pole) else value,
            "is_pole": isinstance(value, recurrence.Pole),
        }
    if orbit is not None and not orbit.completed:
        payload["hit_zero_step"] = orbit.hit_zero_step
        _print(args, [payload])
        print(f"error: orbit hit zero at step {orbit.hit_zero_step}", file=sys.stderr)
        return 3
    _print(args, [payload])
    return 0


def _cmd_plot_data(args) -> int:
    from . import recurrence

    if args.step <= 0:
        raise _UsageError("--step must be positive")
    span = (args.j_to - args.j_from) / args.step
    if not math.isfinite(span):
        raise _UsageError(f"(--to - --from)/--step overflows to {span!r}")
    params = recurrence.RecurrenceParams(args.alpha, args.gamma)
    sol = recurrence.solve(params, args.x1)
    _require_finite_output(_fields(sol))
    # j = from + i*step up to --to within the rounding of the ends, ulp(from) + ulp(to): in
    # steps for the count (at most half of one, as a step within them places no sample), and
    # past --to for the last j
    ends = math.ulp(args.j_from) + math.ulp(args.j_to)
    count = int(span + 1e-9 + min(ends / args.step, 0.5)) + 1
    js = [args.j_from + i * args.step for i in range(count)]
    while js and js[-1] > args.j_to + 1e-12 + ends:
        js.pop()
    pole = recurrence.POLE
    rows = [(j, "", 1) if value is pole else (j, value, 0) for j, value in zip(js, sol.sample(js))]
    _print(args, rows, header=("j", "value", "is_pole"))
    return 0


def _cmd_locate(args) -> int:
    from . import treediag

    matrix = _load_matrix(args)
    alpha = _parse_shift(args.alpha, args.exact)
    triple = treediag.locate(matrix, alpha, exact=args.exact)
    _print(args, [{
        "n": matrix.n,
        "matrix": args.matrix,
        "alpha": str(alpha) if args.exact else alpha,
        "exact": bool(args.exact),
        **triple._asdict(),
    }])
    return 0


def _cmd_radius(args) -> int:
    from . import treediag

    matrix = _load_matrix(args)
    value = treediag.spectral_radius(matrix, args.tol)
    _print(args, [{"n": matrix.n, "matrix": args.matrix, "tol": args.tol, "radius": value}])
    return 0


def _cmd_eigen(args) -> int:
    from . import treediag

    matrix = _load_matrix(args)
    value = treediag.kth_eigenvalue(matrix, args.k, args.tol)
    _print(args, [{"n": matrix.n, "matrix": args.matrix, "k": args.k, "tol": args.tol,
                   "eigenvalue": value}])
    return 0


def _mlas_row(n: int, r: int, direct: bool) -> dict:
    """The report, and mlas_direct with --direct."""
    from . import signs

    cfg = signs.PendantConfig(n, r)
    row = _fields(signs.build_report(cfg))
    if direct:
        row["mlas_direct"] = signs.mlas_direct(cfg)
    return row


def _cmd_mlas(args) -> int:
    if args.table is not None:
        if args.table < 1 or args.table > args.n // 4:
            raise _UsageError(f"--table must lie in 1..floor(n/4) = {args.n // 4}")
        rs = range(1, args.table + 1)
    else:
        rs = [args.r]
    _print(args, [_mlas_row(args.n, r, args.direct) for r in rs])
    return 0


def _cmd_broom(args) -> int:
    from . import signs

    broom = signs.DoubleBroom(r=args.r, q=args.q, p=args.p, R=args.rr)
    result = signs.double_broom_sigma(broom)
    _print(args, [{
        **_fields(broom),
        "n": broom.n,
        "sigma": result.sigma,
        "root_sign": result.root_sign.value,
        "hypotheses_met": result.hypotheses_met,
        "cross_check": "ok" if result.hypotheses_met else "fallback-locate",
        **result.inertia._asdict(),
    }])
    return 0


def _cmd_limit(args) -> int:
    from . import limits

    if args.n_max < 1:
        raise _UsageError("--n-max must be >= 1")
    if args.family == "adjacency":
        target, gap = limits.shearer_constant(), limits.adjacency_limit_gap
    else:
        target, gap = limits.guo_constant(), limits.laplacian_limit_gap
    tol = {} if args.tol is None else {"tol": args.tol}
    rows = []
    try:
        for n_arm in range(1, args.n_max + 1):
            g = gap(n_arm, **tol)
            rows.append({"n_arm": n_arm, "radius": target - g, "gap": g})
    except DomainError:  # the rows answered so far print, then the refusal exits 3
        if rows:
            _print(args, rows)
        raise
    _print(args, rows)
    return 0


def _cmd_random_tree(args) -> int:
    from . import oracle

    parent = oracle.random_parents(args.n, args.seed)
    # the lines of random_tree(n, seed).edges(), sorted by child, a block at a time
    for start in range(1, args.n, _LINES_PER_WRITE):
        block = range(start, min(start + _LINES_PER_WRITE, args.n))
        sys.stdout.write("\n".join([f"{v} {parent[v]}" for v in block]))
        # a write of its own, as print makes: on an unbuffered stdout (python -u) a
        # closed pipe cuts a block short without an error, and this write raises one
        sys.stdout.write("\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treespec",
        description="Rational recurrence closed forms and tree eigenvalue location.",
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default=None,
                        help="output format (default depends on the subcommand)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="closed form and orbit of x_{j+1} = a + g/x_j")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--x1", type=float, required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--eval", dest="eval_j", type=float, default=None)
    p.set_defaults(func=_cmd_solve, formats=("json", "text"))

    p = sub.add_parser("plot-data", help="sample the continuous extension")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--x1", type=float, required=True)
    p.add_argument("--from", dest="j_from", type=float, required=True)
    p.add_argument("--to", dest="j_to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(func=_cmd_plot_data, formats=("csv",))

    locate, radius, eigen = (sub.add_parser(name, help=f"{name} on a tree matrix")
                             for name in ("locate", "radius", "eigen"))
    for p, fn in ((locate, _cmd_locate), (radius, _cmd_radius), (eigen, _cmd_eigen)):
        p.add_argument("--tree", required=True, help="edge-list file, one 'u v' per line")
        p.add_argument("--matrix", choices=_MATRIX_KINDS, required=True)
        p.add_argument("--root", type=int, default=None,
                       help="override the root vertex (default: file root line or n)")
        p.set_defaults(func=fn, formats=("json", "text"))
    locate.add_argument("--alpha", required=True, help="shift; 'p/q' allowed with --exact")
    locate.add_argument("--exact", action="store_true",
                        help="exact rational sweep (rational matrices only)")
    for p in (radius, eigen):
        p.add_argument("--tol", type=float, default=1e-10)
    eigen.add_argument("--k", type=int, required=True)

    p = sub.add_parser("mlas", help="alternating-sign report for (n, r)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--direct", action="store_true",
                   help="also run the exact sign-scan certificate")
    p.add_argument("--table", type=int, default=None, metavar="RMAX",
                   help="emit rows for r = 1..RMAX")
    p.set_defaults(func=_cmd_mlas, formats=("json", "csv"))

    p = sub.add_parser("broom", help="double-broom eigenvalue split")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--rr", type=int, required=True, help="pendant count R of the right star")
    p.set_defaults(func=_cmd_broom, formats=("json", "text"))

    p = sub.add_parser(
        "limit", help="starlike spectral radius convergence table",
        description="Spectral radius of T(1, n, n) and its gap to the limit, n = 1..N. A row "
                    "takes the gap from the centre equation wherever its bound is at most 1e-12 "
                    "relative (adjacency n >= 17, Laplacian n >= 7, whatever tol); the rest bisect "
                    "within tol. The first gap below the normal float range (adjacency n = 1468, "
                    "Laplacian n = 581) ends the table: the rows before it print, then it exits 3.")
    p.add_argument("--family", choices=("adjacency", "laplacian"), required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--tol", type=float, default=None,
                   help="bisection tolerance of the rows the centre equation does not answer "
                        "(default 1e-10 adjacency, 1e-9 Laplacian)")
    p.set_defaults(func=_cmd_limit, formats=("csv", "json"))

    p = sub.add_parser("random-tree", help="seeded uniform random labeled tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_random_tree, formats=())

    return parser


def _bind_negative_values(argv: Sequence[str]) -> list:
    """Write "--opt -4/19" as "--opt=-4/19".

    argparse reads a token as a negative value only when it looks like
    "-4" or "-0.5"; "-4/19", "-1e-3" or "-inf" after an option would be
    taken for an option of its own.
    """
    out: list = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and prev != "--" and "=" not in prev \
                and _NEGATIVE_VALUE_RE.match(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_bind_negative_values(sys.argv[1:] if argv is None else argv))
        if args.format not in (None, *args.formats):
            parser.error(f"{args.command} prints {' or '.join(args.formats) or 'an edge list'},"
                         f" not --format {args.format}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _require_finite(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TreespecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    """Run with sys.argv; a reader that closes stdout early ends the run with exit 1."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe of the signal module's docs: no traceback, and no second
        # error when Python flushes stdout at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
