"""Benchmark entry point.

    python3 bench/run.py --workload {ula4-paper,panels3-csv,ula16-sdr,all} \
        --seed N --seconds S --trace {0,1}

The BLAS/OpenMP thread pools are pinned here, before NumPy loads, so every
run uses the same thread count.  See README.md for workloads and metrics.
"""

import os
import sys

BLAS_THREADS = 1
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def main() -> int:
    for var in THREAD_ENV_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import harness  # imports NumPy, so only after pinning

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
