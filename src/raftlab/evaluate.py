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
from .losses import COLLAPSE_UNIFORMITY_THRESHOLD, align_loss, uniform_loss
from .model import ModelParams, backbone_output, encode, forward_online
from .optim import AdamState, adam_step

_EXPORT_CHUNK = 1024

# Training settings of the linear probe, shared by every evaluation.
PROBE_LEARNING_RATE = 5e-4
PROBE_EPOCHS = 100
PROBE_BATCH_SIZE = 32
PROBE_HOLDOUT_FRACTION = 0.2


@dataclass(frozen=True)
class ProbeConfig:
    """Seed of the multinomial-logistic probe trained with Adam on frozen
    features; it picks the holdout split and the batch order."""

    seed: int = 0

    def __post_init__(self):
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
    # min and max, not np.unique, which imports numpy.ma on NumPy 2.
    if n == 0 or labels.min() == labels.max():
        raise EvalError("probe: dataset has fewer than two classes")
    n_classes = int(labels.max()) + 1
    d = features.shape[1]

    split_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    perm = split_rng.permutation(n)
    n_hold = max(1, int(round(PROBE_HOLDOUT_FRACTION * n)))
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]  # two classes leave a training row

    flat = np.zeros(d * n_classes + n_classes)
    w, b = flat[: d * n_classes].reshape(d, n_classes), flat[d * n_classes :]
    # Each backward pass writes the gradients of w and b into their views of `grad`.
    grad = np.empty_like(flat)
    gw, gb = grad[: d * n_classes].reshape(d, n_classes), grad[d * n_classes :]
    state = AdamState.init(flat)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 12]))
    for _ in range(PROBE_EPOCHS):
        order = shuffle_rng.permutation(train_idx)
        for lo in range(0, order.size, PROBE_BATCH_SIZE):
            batch = order[lo : lo + PROBE_BATCH_SIZE]
            tp = T.Tape()
            x = T.constant(features[batch])
            logits = T.matmul(x, tp.leaf(w, grad=gw), tp.leaf(b, grad=gb))
            tp.backward(T.softmax_cross_entropy(logits, labels[batch]))
            adam_step(flat, grad, state, PROBE_LEARNING_RATE)

    pred = np.argmax(features[hold_idx] @ w + b, axis=1)
    accuracy = float(np.mean(pred == labels[hold_idx]))
    return ProbeResult(accuracy=accuracy, weights=w, bias=b)


def _chunked(output, x: np.ndarray) -> np.ndarray:
    # output(rows).data for x's rows, _EXPORT_CHUNK rows at a time; a lone
    # chunk is returned as it is, not copied.
    parts = [output(x[lo : lo + _EXPORT_CHUNK]).data
             for lo in range(0, x.shape[0], _EXPORT_CHUNK)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def backbone_features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Frozen backbone output h; runs the backbone only."""
    return _chunked(lambda rows: backbone_output(params, rows), x)


def projector_outputs(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Frozen normalized projector output z; runs no predictor."""
    return _chunked(lambda rows: T.l2_normalize(encode(params, rows)), x)


def _predictor_outputs(params: ModelParams, x: np.ndarray) -> np.ndarray:
    # Frozen normalized predictor output p.
    return _chunked(lambda rows: forward_online(params, rows)[1], x)


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
) -> EvalReport:
    """Alignment over fresh positive pairs, uniformity of z over the raw
    rows of the same draw, collapse flag, and probe accuracy."""
    if sample_count < 2:
        raise ContractError(f"sample_count: need >= 2, got {sample_count}")
    probe = probe or ProbeConfig()
    raw, batch = draw_augmented_pairs(dataset, aug, sample_count, seed=aug.seed)
    p1 = _predictor_outputs(params, batch.x1)
    p2 = _predictor_outputs(params, batch.x2)
    align = align_loss(p1, p2).item()
    del p1, p2  # before the uniformity measure's n x n buffer
    uni = uniform_loss(projector_outputs(params, raw)).item()
    accuracy = linear_evaluation(params, dataset, probe)
    return EvalReport(
        probe_accuracy=accuracy,
        align=align,
        uniformity=uni,
        collapsed=bool(uni > COLLAPSE_UNIFORMITY_THRESHOLD),
        sample_count=sample_count,
        probe=probe,
    )

