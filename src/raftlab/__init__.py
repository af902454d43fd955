"""Desk-scale laboratory for self-distillation objectives.

A minimal tape-based autodiff core drives a two-view student/teacher model
with attract-only, attract+cross, and attract-repel objectives, and the
verify module numerically certifies the structural claims relating them:
an upper bound between the objectives, an exact mirror correspondence
between attract and repel training runs, and a rank criterion telling
collapse-free fixed points from forced collapse.
"""

__version__ = "0.1.0"

from .data import (
    AugmentationSpec,
    Dataset,
    PositiveBatch,
    SyntheticBlobsSpec,
    ViewAugmentation,
    make_blobs,
)
from .errors import RaftLabError
from .evaluate import EvalReport, ProbeConfig, linear_evaluation, metrics_report
from .losses import LossConfig, LossParts, objective_terms
from .model import (
    ModelParams,
    NetworkSpec,
    forward_online,
    forward_target,
    init_params,
    load_checkpoint,
    mirror_predictor,
    save_checkpoint,
)
from .tape import Tape, Tensor, constant
from .train import MetricsRecord, TrainConfig, train_run

__all__ = [
    "__version__",
    "AugmentationSpec",
    "Dataset",
    "EvalReport",
    "LossConfig",
    "LossParts",
    "MetricsRecord",
    "ModelParams",
    "NetworkSpec",
    "PositiveBatch",
    "ProbeConfig",
    "RaftLabError",
    "SyntheticBlobsSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "ViewAugmentation",
    "constant",
    "forward_online",
    "forward_target",
    "init_params",
    "linear_evaluation",
    "load_checkpoint",
    "make_blobs",
    "metrics_report",
    "mirror_predictor",
    "objective_terms",
    "save_checkpoint",
    "train_run",
]
