"""DTW joint-position metrics, Procrustes alignment, and eval reports."""

from .dtw import DtwResult, dtw
from .evaluate import (
    EvalReport,
    METRIC_CONVENTIONS,
    SampleEval,
    dtw_joint_metrics,
    evaluate_split,
    frame_jpe,
    frame_pa_jpe,
    reconstruction_pa_mpjpe,
    save_report,
)
from .procrustes import SimilarityTransform, procrustes_align

__all__ = [
    "DtwResult",
    "EvalReport",
    "METRIC_CONVENTIONS",
    "SampleEval",
    "SimilarityTransform",
    "dtw",
    "dtw_joint_metrics",
    "evaluate_split",
    "frame_jpe",
    "frame_pa_jpe",
    "procrustes_align",
    "reconstruction_pa_mpjpe",
    "save_report",
]
