"""metroq: simulate and verify sequential, classical-parallel and
entangled-parallel phase-estimation strategies at desk scale."""

import os

# One OpenBLAS thread unless the caller chose a count.  metroq's largest BLAS
# call is a (2, 2) x (2, 2048) product and its matmul stacks are at most 64x64,
# all below OpenBLAS's threading threshold, so the worker pool OpenBLAS starts
# when numpy loads never gets work; yet it cost ~40 % of a cold metroq
# process's CPU time on a 2-core host (median 0.25 -> 0.15 s for `verify
# --n-max 12` and `noon --n 12`).  Importing any metroq module runs this first,
# so it holds whenever a metroq module is imported before numpy; once numpy is
# loaded it has no effect.
if not any(var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                         "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
