import os

# One BLAS thread per slot worker, the scripts' setup: the pipeline then runs
# one slot worker per CPU (see pipeline._worker_count). The test matrices are
# small enough that BLAS thread spin-up would dominate otherwise (and timings
# get noisy). test_pipeline sets and unsets these variables to exercise both
# the pool and the serial path.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
