"""Traced in-process run of a workload's command list.

Run with PYTHONPATH pointing at treespec's src/:

    python3 perfbench/trace_child.py SPEC.json

SPEC holds {"commands": [argv, ...], "seconds": s}.  The run imports
treespec.cli (timed), then alternates untraced and traced passes of
``treespec.cli.run(argv)`` over the commands, at least one of each, and
starts no pass it expects to end after ``seconds``.  A traced pass wraps
the public function of each layer from outside the package: the module
attribute and every other name in the package bound to the same function
(``from .treediag import locate`` and the like) are replaced.  Each wrapper appends a span (name, start, end, parent,
size) to a list in memory; the spans are written with the outputs as one
JSON line on stdout when the run ends.  No file of treespec is changed.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import treespec.cli  # noqa: E402  (timed: this is the CLI's import cost)

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import treespec  # noqa: E402
from treespec import cli, limits, oracle, recurrence, signs, treediag  # noqa: E402

MODULES = (treespec, cli, treediag, recurrence, signs, limits, oracle)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _sweep_label(args, kwargs):
    exact = _arg(args, kwargs, 2, "exact", False)
    return "treediag.sweep_exact" if exact else "treediag.sweep_float"


def _matrix_n(args, kwargs):
    return getattr(args[0], "n", 0) if args else 0


#: (module, function, span name or callable giving it, size of the work or None)
TARGETS = (
    (treediag, "parse_tree_file", "treediag.parse", None),
    (treediag, "build_tree", "treediag.build_tree", None),
    (treediag, "build_matrix", "treediag.build_matrix", None),
    (treediag, "locate", _sweep_label, _matrix_n),
    (treediag, "diagonalize", _sweep_label, _matrix_n),
    (treediag, "spectral_radius", "treediag.bisect", None),
    (treediag, "kth_eigenvalue", "treediag.bisect", None),
    (recurrence, "iterate", "recurrence.iterate", lambda a, k: _arg(a, k, 2, "count", 0)),
    (recurrence, "solve", "recurrence.solve", None),
    (signs, "b_at", "signs.b_at", lambda a, k: _arg(a, k, 1, "j", 0)),
    (signs, "mlas_direct", "signs.mlas_direct", None),
    (signs, "build_report", "signs.report", None),
    (signs, "double_broom_sigma", "signs.broom", None),
    (limits, "adjacency_limit_gap", "limits.gap", None),
    (limits, "laplacian_limit_gap", "limits.gap", None),
    (oracle, "random_tree", "oracle.random_tree", None),
)


class Tracer:
    """Span recorder; install() swaps the wrappers in, uninstall() back out."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._swaps: list = []  # (module, name, original, wrapper)
        for mod, attr, label, size in TARGETS:
            original = getattr(mod, attr, None)
            if original is None:
                print(f"trace: {mod.__name__}.{attr} not found, layer left unmeasured",
                      file=sys.stderr)
                continue
            wrapper = self._wrap(original, label, size)
            for m in MODULES:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._swaps.append((m, name, original, wrapper))

    def _wrap(self, fn, label, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, size(args, kwargs) if size else 0)

        return wrapper

    def install(self):
        for m, name, _, wrapper in self._swaps:
            setattr(m, name, wrapper)

    def uninstall(self):
        for m, name, original, _ in self._swaps:
            setattr(m, name, original)

    def root(self, fn, *args):
        """Run fn under a root span named "cli"."""
        return self._wrap(fn, "cli", None)(*args)


def run_command(argv, runner):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = runner(argv)
        except Exception:  # a traceback is a failed command, not a failed run
            traceback.print_exc()
            code = 1
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    commands, seconds = spec["commands"], spec["seconds"]
    tracer = Tracer()
    passes = []
    outputs = [{} for _ in commands]  # distinct (code, stdout) -> [count, stderr]
    start = time.perf_counter()
    traced = False
    last = 0.0
    while len(passes) < 2 or time.perf_counter() - start + last <= seconds:
        pass_start = time.perf_counter()
        tracer.spans.clear()
        if traced:
            tracer.install()
            runner = functools.partial(tracer.root, cli.run)
        else:
            runner = cli.run
        walls = []
        try:
            for i, argv in enumerate(commands):
                wall, code, out, err = run_command(argv, runner)
                walls.append(wall)
                slot = outputs[i].setdefault(json.dumps([code, out]), [0, err])
                slot[0] += 1
        finally:
            tracer.uninstall()
        passes.append({"traced": traced, "wall": walls,
                       "spans": list(tracer.spans) if traced else []})
        last = time.perf_counter() - pass_start
        traced = not traced
    result = {
        "import_s": IMPORT_S,
        "numba": getattr(treespec, "NUMBA_ENABLED", None),
        "passes": passes,
        "outputs": [[json.loads(k) + v for k, v in o.items()] for o in outputs],
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
