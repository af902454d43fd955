"""Post-training measurement: linear probing and geometry metrics.
Everything here treats parameter snapshots as frozen.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tape as T
from .data import AugmentationSpec, Dataset, draw_augmented_pairs
from .errors import ConfigError, ContractError, EvalError
from .losses import (
    COLLAPSE_UNIFORMITY_THRESHOLD,
    DEFAULT_UNIFORMITY_T,
    align_loss,
    uniform_loss,
)
from .model import ModelParams, forward_online
from .optim import AdamState, adam_step

_EXPORT_CHUNK = 1024


@dataclass(frozen=True)
class ProbeConfig:
    """Multinomial-logistic probe trained with Adam on frozen features."""

    learning_rate: float = 5e-4
    epochs: int = 100
    batch_size: int = 32
    holdout_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate: got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs: need >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: need >= 1, got {self.batch_size}")
        if not 0 < self.holdout_fraction < 1:
            raise ConfigError(
                f"holdout_fraction: must lie in (0, 1), got {self.holdout_fraction}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed: need >= 0, got {self.seed}")


@dataclass(frozen=True)
class ProbeResult:
    accuracy: float
    weights: np.ndarray
    bias: np.ndarray


def train_probe(features: np.ndarray, labels: np.ndarray, cfg: ProbeConfig) -> ProbeResult:
    """Fit the linear classifier on a deterministic split and score the
    held-out fraction."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    if labels.shape != (n,):
        raise ContractError(
            f"labels shape {labels.shape} does not match {n} feature rows"
        )
    if np.unique(labels).size < 2:
        raise EvalError("probe: dataset has fewer than two classes")
    n_classes = int(labels.max()) + 1
    d = features.shape[1]

    split_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    perm = split_rng.permutation(n)
    n_hold = max(1, int(round(cfg.holdout_fraction * n)))
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
    if train_idx.size == 0:
        raise EvalError("probe: holdout fraction leaves no training rows")

    flat = np.zeros(d * n_classes + n_classes)
    w, b = flat[: d * n_classes].reshape(d, n_classes), flat[d * n_classes :]
    # Each backward pass writes the gradients of w and b into their views of `grad`.
    grad = np.empty_like(flat)
    gw, gb = grad[: d * n_classes].reshape(d, n_classes), grad[d * n_classes :]
    state = AdamState.init(flat)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 12]))
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(train_idx)
        for lo in range(0, order.size, cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            tp = T.Tape()
            x = T.constant(features[batch])
            logits = T.matmul(x, tp.leaf(w, grad=gw), tp.leaf(b, grad=gb))
            tp.backward(T.softmax_cross_entropy(logits, labels[batch]))
            adam_step(flat, grad, state, cfg.learning_rate)

    pred = np.argmax(features[hold_idx] @ w + b, axis=1)
    accuracy = float(np.mean(pred == labels[hold_idx]))
    return ProbeResult(accuracy=accuracy, weights=w, bias=b)


def _chunked_output(params: ModelParams, x: np.ndarray, index: int) -> np.ndarray:
    # Output `index` of forward_online, computed in chunks as constants.
    outs = []
    for lo in range(0, x.shape[0], _EXPORT_CHUNK):
        outs.append(forward_online(params, x[lo : lo + _EXPORT_CHUNK])[index].data)
    return np.concatenate(outs, axis=0)


def backbone_features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Frozen backbone output h."""
    return _chunked_output(params, x, 0)


def projector_outputs(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Frozen normalized projector output z."""
    return _chunked_output(params, x, 1)


def linear_evaluation(params: ModelParams, dataset: Dataset, cfg: ProbeConfig | None = None) -> float:
    """Linear evaluation protocol: probe accuracy on frozen backbone
    features over a deterministic 80/20 split."""
    cfg = cfg or ProbeConfig()
    feats = backbone_features(params, dataset.samples)
    return train_probe(feats, dataset.labels, cfg).accuracy


@dataclass(frozen=True)
class EvalReport:
    """Probe accuracy plus representation geometry for one snapshot."""

    probe_accuracy: float
    align: float
    uniformity: float
    collapsed: bool
    sample_count: int
    probe: ProbeConfig

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def metrics_report(
    params: ModelParams,
    dataset: Dataset,
    aug: AugmentationSpec,
    sample_count: int,
    probe: ProbeConfig | None = None,
    uniformity_t: float = DEFAULT_UNIFORMITY_T,
) -> EvalReport:
    """Alignment over fresh positive pairs, uniformity of z over the raw
    rows of the same draw, collapse flag, and probe accuracy."""
    if sample_count < 2:
        raise ContractError(f"sample_count: need >= 2, got {sample_count}")
    probe = probe or ProbeConfig()
    raw, batch = draw_augmented_pairs(dataset, aug, sample_count, seed=aug.seed)
    _, _, p1 = forward_online(params, batch.x1)
    _, _, p2 = forward_online(params, batch.x2)
    align = align_loss(p1, p2).item()
    z = projector_outputs(params, raw)
    uni = uniform_loss(T.constant(z), uniformity_t).item()
    accuracy = linear_evaluation(params, dataset, probe)
    return EvalReport(
        probe_accuracy=accuracy,
        align=align,
        uniformity=uni,
        collapsed=bool(uni > COLLAPSE_UNIFORMITY_THRESHOLD),
        sample_count=sample_count,
        probe=probe,
    )

