"""Test-session settings, applied before any test module imports NumPy.

OpenBLAS starts one thread per core for each ``eigvalsh`` call; on a small
machine under load that makes a 512x512 call tens of times slower.  One
thread keeps the dense reference fast.  An explicit setting wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
