"""Per-clip encoder lambda tuning and subjective/objective quality analytics."""

from .backends import (
    EncodeRequest,
    EncodeResult,
    EncoderBackend,
    LambdaMultipliers,
    ProcessBackend,
    SyntheticBackend,
    SyntheticModel,
    build_rd_curve,
    synthetic_encode,
)
from .bd import BdResult, SavingsResult, bd_quality, bd_rate, bitrate_savings, default_anchors
from .correlation import CorrelationReport, LogisticParams, correlate, fit_logistic5
from .curves import (
    PchipInterpolant,
    RdCurve,
    RdPoint,
    build_curve,
    enforce_monotone,
    pchip_fit,
    write_curve_json,
)
from .optimizer import (
    CostEvaluation,
    EncodeCache,
    OptimizationConfig,
    OptimizationTrace,
    evaluate_cost,
    optimize_clip,
)
from .subjective import (
    MosTable,
    ScoreMatrix,
    ScoreTable,
    ScreeningReport,
    SubjectModel,
    bt500_screen,
    build_score_matrix,
    compute_dmos,
    compute_mos,
    read_pairing_csv,
    read_scores_csv,
    recover_mle,
)

__version__ = "0.1.0"
