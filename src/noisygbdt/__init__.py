"""Gradient-boosted decision trees for tabular classification with label-noise
injection, per-instance noise detection, and in-training correction."""

from .data_ingest import Dataset, SplitSpec, load_csv, preprocess, prepare
from .noise import (TransitionMatrix, inject, matrix_for, pair_matrix,
                    symmetric_matrix)
from .gbdt import (BoostConfig, Booster, Tree, TrainResult, build_tree,
                   grad_hess, probabilities, train)
from .dynamics import DynamicsLog, EpochRecord
from .detect import (Gmm1D, NoiseScores, aum_scores, confcorr_scores,
                     fit_gmm_1d, gradient_scores, lrt_scores)
from .correct import NoiseHandler, apply_relabel, apply_removal
from .metrics_report import (RunReport, classification_metrics,
                             detection_metrics, prediction_type_counts,
                             write_report)

__version__ = "0.1.0"

__all__ = [
    "BoostConfig", "Booster", "Dataset", "DynamicsLog", "EpochRecord",
    "Gmm1D", "NoiseHandler", "NoiseScores", "RunReport",
    "SplitSpec", "TrainResult", "TransitionMatrix", "Tree", "apply_relabel",
    "apply_removal", "aum_scores", "build_tree", "classification_metrics",
    "confcorr_scores", "detection_metrics", "fit_gmm_1d", "grad_hess",
    "gradient_scores", "inject", "load_csv", "lrt_scores", "matrix_for",
    "pair_matrix", "prediction_type_counts", "prepare", "preprocess",
    "probabilities", "symmetric_matrix", "train", "write_report",
]
