"""The K-step training loop shared by all three objectives.

One step is: sample a positive-pair batch, run both views, stacked into one
batch, through the online network and the teacher, assemble the configured
objective, backprop, update the online parameters with SGD or Adam, then move
the teacher by EMA. The parameters, optimizer state and gradient live in flat
vectors that each step updates in place.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import tape as T
from .data import AugmentationSpec, Dataset, batches_per_epoch, sample_positive_batch
from .errors import ConfigError, RaftLabError, TrainingDivergedError
from .losses import (
    COLLAPSE_UNIFORMITY_THRESHOLD,
    LossConfig,
    objective_terms,
    uniform_loss,
)
from .model import (
    ModelParams,
    NetworkSpec,
    bind_params,
    ema_update,
    forward_online,
    forward_target,
    init_params,
    save_checkpoint,
    split_views,
    stack_views,
)
from .optim import AdamState, adam_step, sgd_step

OPTIMIZERS = ("sgd", "adam")

DEFAULT_LEARNING_RATE = 3e-4
DEFAULT_EMA_TAU = 0.996


@dataclass(frozen=True)
class TrainConfig:
    """Everything train_run needs apart from the dataset itself.

    master_seed alone determines the run: it derives the parameter init
    stream and re-seeds the augmentation streams (the seed field inside
    `augmentation` is overridden).
    """

    network: NetworkSpec
    loss: LossConfig = field(default_factory=LossConfig)
    augmentation: AugmentationSpec = field(default_factory=AugmentationSpec)
    steps: int = 2000
    batch_size: int = 64
    optimizer: str = "adam"
    learning_rate: float = DEFAULT_LEARNING_RATE
    ema_tau: float = DEFAULT_EMA_TAU
    master_seed: int = 0
    log_every: int = 50
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps: need >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: need >= 1, got {self.batch_size}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(
                f"optimizer: unknown value {self.optimizer!r}, expected one of {OPTIMIZERS}"
            )
        if self.log_every < 1:
            raise ConfigError(f"log_every: need >= 1, got {self.log_every}")
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint_every: need >= 0, got {self.checkpoint_every}"
            )
        if self.master_seed < 0:
            raise ConfigError(f"master_seed: need >= 0, got {self.master_seed}")
        # Written so that NaN fails both.
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate: must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.ema_tau <= 1.0:
            raise ConfigError(f"ema_tau: must lie in [0, 1], got {self.ema_tau}")


@dataclass(frozen=True)
class MetricsRecord:
    """One logged snapshot of the training state.

    loss_align / loss_cross_model are the plain geometric components
    regardless of objective; uniformity is measured on the current
    batch's view-1 z.
    """

    step: int
    epoch: int
    loss_total: float
    loss_align: float
    loss_cross_model: float
    uniformity: float
    collapsed: bool

    def to_json_line(self) -> str:
        return json.dumps(asdict(self))


def derived_seeds(master_seed: int) -> tuple[int, int]:
    """(init_seed, aug_seed): the parameter-init and augmentation stream
    seeds train_run derives from master_seed."""
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 1000]))
    init_seed, aug_seed = (int(s) for s in rng.integers(0, 2**63, size=2))
    return init_seed, aug_seed


def _diagnostic_dump(step: int, error: RaftLabError, parts, params: ModelParams) -> dict:
    """What divergence_dump.json holds: the failed step, the error, the loss
    terms when the step got as far as a loss, and the parameter norms."""
    dump = {"step": step, "error": type(error).__name__, "message": str(error)}
    if parts is not None:
        dump.update(
            loss_total=float(parts.total.data),
            loss_align=float(parts.align.data),
            loss_cross_model=float(parts.cross.data),
        )
    dump["param_norms"] = {
        name: float(np.linalg.norm(arr)) for name, arr in params.values.items()
    }
    return dump


def train_run(
    cfg: TrainConfig,
    dataset: Dataset,
    out_dir=None,
    initial_params: ModelParams | None = None,
    step_callback: Callable[[int, ModelParams, dict[str, np.ndarray]], None] | None = None,
) -> tuple[ModelParams, list[MetricsRecord]]:
    """Run exactly cfg.steps optimization steps and return the final
    parameters plus the metrics log.

    With out_dir set, writes metrics.jsonl as it goes, periodic checkpoints
    when checkpoint_every > 0, and checkpoint_final.ckpt at the end. A
    RaftLabError raised inside a step (a non-finite loss raises
    TrainingDivergedError) first writes divergence_dump.json and
    checkpoint_last_good.ckpt, the parameters the failed step started from,
    then propagates.
    initial_params overrides the seeded init (shapes must match cfg.network).
    step_callback observes (step, params, grads) once per step, after the
    step's update: `params` is a read-only ModelParams over the run's own
    parameter vector and `grads` read-only named views of its gradient
    vector. Every call gets the same two objects, the next step overwrites
    what they show, and a write through either raises ValueError, so a
    callback copies what it keeps.
    """
    if cfg.network.input_dim != dataset.dim:
        raise ConfigError(
            f"network.input_dim: {cfg.network.input_dim} disagrees with the data "
            f"dimension {dataset.dim}"
        )
    if cfg.batch_size > len(dataset):
        raise ConfigError(
            f"batch_size: {cfg.batch_size} exceeds dataset size {len(dataset)}"
        )
    init_seed, aug_seed = derived_seeds(cfg.master_seed)
    aug = replace(cfg.augmentation, seed=aug_seed)
    if initial_params is None:
        initial_params = init_params(cfg.network, init_seed)
    elif initial_params.spec != cfg.network:
        raise ConfigError("initial_params: spec does not match cfg.network")
    # The run updates its own copy in place; the caller's stays as it was.
    params = initial_params.clone()
    opt_state = AdamState.init(params.trainable) if cfg.optimizer == "adam" else None
    # Every backward pass writes the leaf gradients into their views of `grad`.
    grad = np.empty_like(params.trainable)
    grad_views = params.trainable_views(grad)
    # Every step's tape draws its matrices from this one workspace, so a
    # step allocates none once the first full-size step has run. Each new
    # tape overwrites the previous step's outputs and gradients.
    workspace = T.Workspace()
    ema_scratch = np.empty_like(params.teacher)
    # What step_callback sees: the live vectors, through read-only views.
    seen_flat = params.flat.view()
    seen_flat.flags.writeable = False
    seen_params = ModelParams(params.spec, seen_flat)
    seen_grad = grad.view()
    seen_grad.flags.writeable = False
    seen_grads = params.trainable_views(seen_grad)

    out_path = Path(out_dir) if out_dir is not None else None
    dump_path = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        dump_path = out_path / "divergence_dump.json"
    records: list[MetricsRecord] = []
    bpe = batches_per_epoch(len(dataset), cfg.batch_size)

    metrics_fh = open(out_path / "metrics.jsonl", "w") if out_path is not None else None
    try:
        for k in range(1, cfg.steps + 1):
            # This step's loss terms, once computed, for the dump.
            step_parts = None
            try:
                batch = sample_positive_batch(dataset, aug, cfg.batch_size, k - 1)
                # Both views go through each network as one stacked batch.
                x, n = stack_views(batch.x1, batch.x2)
                tp = T.Tape(workspace)
                leaves = bind_params(tp, params, grad_views)
                z_pre, p = forward_online(params, x, leaves=leaves)
                zbar = forward_target(params, x)
                parts = objective_terms(cfg.loss, *split_views(p, n), *split_views(zbar, n))
                step_parts = parts
                loss_val = float(parts.total.data)
                if not math.isfinite(loss_val):
                    raise TrainingDivergedError(
                        f"loss became non-finite ({loss_val}) at step {k}",
                        step=k,
                        dump_path=dump_path,
                    )
                tp.backward(parts.total)
            except RaftLabError as exc:
                # Nothing has been updated yet: params are the last good state.
                if out_path is not None:
                    dump = _diagnostic_dump(k, exc, step_parts, params)
                    dump_path.write_text(json.dumps(dump, indent=2))
                    save_checkpoint(params, out_path / "checkpoint_last_good.ckpt")
                raise

            if cfg.optimizer == "sgd":
                sgd_step(params.trainable, grad, cfg.learning_rate)
            else:
                adam_step(params.trainable, grad, opt_state, cfg.learning_rate)
            ema_update(params, cfg.ema_tau, ema_scratch)

            if step_callback is not None:
                step_callback(k, seen_params, seen_grads)

            if k % cfg.log_every == 0:
                uni = uniform_loss(T.l2_normalize(z_pre.data[:n])).item()
                rec = MetricsRecord(
                    step=k,
                    epoch=(k - 1) // bpe,
                    loss_total=loss_val,
                    loss_align=float(parts.align.data),
                    loss_cross_model=float(parts.cross.data),
                    uniformity=uni,
                    collapsed=bool(uni > COLLAPSE_UNIFORMITY_THRESHOLD),
                )
                records.append(rec)
                if metrics_fh is not None:
                    metrics_fh.write(rec.to_json_line() + "\n")

            if (
                out_path is not None
                and cfg.checkpoint_every > 0
                and k % cfg.checkpoint_every == 0
            ):
                save_checkpoint(params, out_path / f"checkpoint_{k:06d}.ckpt")
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    if out_path is not None:
        save_checkpoint(params, out_path / "checkpoint_final.ckpt")
    return params, records
