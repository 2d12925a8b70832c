"""Set-up cost of one fresh process, as every tree command pays it.

Run with PYTHONPATH pointing at treespec's src/:

    python3 perfbench/setup_child.py '[["tree.txt", "laplacian"], ...]'

Times ``import treespec.cli``, then parse_tree_file + build_matrix of every
(tree file, matrix kind) pair given, and prints one JSON object.
"""

import json
import sys
import time

_t0 = time.perf_counter()
import treespec.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0

import treespec  # noqa: E402
from treespec import treediag  # noqa: E402


def main(items) -> None:
    start = time.perf_counter()
    for path, kind in items:
        with open(path, encoding="utf-8") as fh:
            tree = treediag.parse_tree_file(fh.read())
        treediag.build_matrix(tree, kind)
    build_s = time.perf_counter() - start
    print(json.dumps({"import_s": IMPORT_S, "build_s": build_s,
                      "numba": getattr(treespec, "NUMBA_ENABLED", None)}))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
