"""Post-training low-rank compression of dense weight matrices.

Factorizes weight matrices by truncated SVD, compensates the truncation error
with alternating least-squares refits against each slot's calibration Gram
matrix (of its inputs, or of its outputs when the slot is wide), and allocates per-layer retention ratios from input/output
similarity scores.
"""

from .allocation import (
    BlockPlan,
    CompressionPlan,
    assign_ratios,
    build_plan,
    normalize_importance,
)
from .calibration import BucketedCalib, Calibration, gram_accumulate, stack_of_batch
from .compensation import LossTrace, compensate
from .errors import (
    BudgetError,
    DegenerateImportance,
    FormatError,
    IoError,
    LowrankError,
    ManifestMismatch,
    NumericalError,
    RankError,
    ShapeError,
)
from .linalg import EighFactors, LowRankPair, eigh_full, rank_for_retention
from .model import (
    ModelHandle,
    gen_synthetic,
    load_calibration,
    load_model,
    save_calibration,
    save_model,
)
from .pipeline import (
    EvalReport,
    PipelineConfig,
    calibrate,
    calibrate_file,
    compress_model,
    eval_compression,
    plan_compression,
    split_calibration,
)

__version__ = "0.1.0"
