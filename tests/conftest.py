"""Shared setup of the test suite.

The wall-clock bounds in test_acceptance.py measure the code, so the BLAS
runs on one thread: on a small machine with other work running, a
multi-threaded BLAS stalls the many small SVDs and solves of a fit. The
variable must be set before numpy is imported; an explicit setting wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
