import os

# One BLAS thread at load: the test matrices are small enough that BLAS thread
# spin-up would dominate otherwise (and timings get noisy). This fixes only the
# count that code outside the pool stages runs with, such as planning; the
# calibration walk, eval's held-out walk and the slot refits are pool stages
# that set their own count at run time (see pipeline._pool_stage), never above
# this one, and restore it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
