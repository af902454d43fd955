"""Data sources, positive-pair sampling, and augmentation moment estimation.

Everything here is a pure function of explicit seeds. Randomness is routed
through numpy SeedSequence keyed streams, so a batch at a given step index is
reproducible bit for bit no matter what ran before it.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, FormatError

# Sub-stream tags keeping the independent random streams apart.
_TAG_SHUFFLE = 101
_TAG_VIEW1 = 102
_TAG_VIEW2 = 103
_TAG_MOMENTS = 104

CIFAR_RECORD_BYTES = 3073

# Condition numbers above this mark a moment matrix as rank deficient.
MOMENT_COND_LIMIT = 1e12

# Most elements (2 GiB of float64) that an array sized by a config field or a
# size flag may hold; not the machine's free memory, so verdicts never vary.
MAX_ELEMENTS = 2**28


def check_elements(what: str, count: int) -> None:
    """Raise a ConfigError naming `what` when `count` exceeds MAX_ELEMENTS."""
    if count > MAX_ELEMENTS:
        raise ConfigError(f"{what}: {count} elements exceed the limit of {MAX_ELEMENTS}")


@dataclass(frozen=True)
class Dataset:
    """Immutable sample matrix (n, d) with integer labels (n,)."""

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.samples.ndim != 2 or self.labels.shape != (self.samples.shape[0],):
            raise ConfigError(
                f"dataset: samples {self.samples.shape} and labels "
                f"{self.labels.shape} disagree"
            )

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class SyntheticBlobsSpec:
    """Unit-norm Gaussian blobs around random unit centers."""

    dim: int = 8
    classes: int = 4
    per_class: int = 100
    noise_sigma: float = 0.35
    center_seed: int = 7

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError(f"dim: need >= 2, got {self.dim}")
        if self.classes < 2:
            raise ConfigError(f"classes: need >= 2, got {self.classes}")
        if self.per_class < 1:
            raise ConfigError(f"per_class: need >= 1, got {self.per_class}")
        if not self.noise_sigma >= 0:
            raise ConfigError(f"noise_sigma: must be >= 0, got {self.noise_sigma}")
        if self.center_seed < 0:
            raise ConfigError(f"center_seed: need >= 0, got {self.center_seed}")
        check_elements("classes * per_class * dim", self.classes * self.per_class * self.dim)


def make_blobs(spec: SyntheticBlobsSpec) -> Dataset:
    """Draw class centers on the unit sphere, scatter points around them,
    and normalize every sample back onto the sphere."""
    center_stream, noise_stream = np.random.SeedSequence(spec.center_seed).spawn(2)
    center_rng = np.random.default_rng(center_stream)
    noise_rng = np.random.default_rng(noise_stream)
    centers = center_rng.normal(size=(spec.classes, spec.dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows = []
    labels = []
    for g in range(spec.classes):
        pts = centers[g] + spec.noise_sigma * noise_rng.normal(
            size=(spec.per_class, spec.dim)
        )
        rows.append(pts)
        labels.extend([g] * spec.per_class)
    samples = np.concatenate(rows, axis=0)
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    return Dataset(samples=samples, labels=np.asarray(labels, dtype=np.int64))


@dataclass(frozen=True)
class ViewAugmentation:
    """One view's perturbation family: x -> scale * x + noise."""

    noise_sigma: float = 0.0
    scale_lo: float = 1.0
    scale_hi: float = 1.0

    def __post_init__(self):
        if not self.noise_sigma >= 0:
            raise ConfigError(f"noise_sigma: must be >= 0, got {self.noise_sigma}")
        if not 0 < self.scale_lo <= self.scale_hi:
            raise ConfigError(
                f"scale range: need 0 < lo <= hi, got [{self.scale_lo}, {self.scale_hi}]"
            )


@dataclass(frozen=True)
class AugmentationSpec:
    """Independent perturbation streams for the two views of each sample."""

    view1: ViewAugmentation = ViewAugmentation()
    view2: ViewAugmentation = ViewAugmentation()
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed: need >= 0, got {self.seed}")

    @classmethod
    def symmetric(
        cls,
        noise_sigma: float = 0.0,
        scale: tuple[float, float] = (1.0, 1.0),
        seed: int = 0,
    ) -> "AugmentationSpec":
        view = ViewAugmentation(noise_sigma=noise_sigma, scale_lo=scale[0], scale_hi=scale[1])
        return cls(view1=view, view2=view, seed=seed)


@dataclass(frozen=True)
class PositiveBatch:
    """Two augmented views of the same raw rows, labels along for eval."""

    x1: np.ndarray
    x2: np.ndarray
    labels: np.ndarray


# Elements of rows that _apply_view gathers and scales at once beside its output.
_VIEW_CHUNK = 16384


def _apply_view(
    x: np.ndarray, view: ViewAugmentation, rng: np.random.Generator,
    idx: np.ndarray | None = None,
) -> np.ndarray:
    """The view of the rows x[idx], or of all of x when idx is None.
    Nothing larger than one chunk is allocated beside the output: the noise
    draw becomes the output, and the scaled rows are added to it chunk by
    chunk, gathered per chunk."""
    n, d = x.shape if idx is None else (idx.size, x.shape[1])
    # Fixed draw order (scale, then noise) so changing one knob's value never
    # shifts the other stream.
    s = rng.uniform(view.scale_lo, view.scale_hi, size=(n, 1))
    # rng.normal, not standard_normal(out=...): they differ in the sign of
    # an exact zero.
    out = rng.normal(size=(n, d))
    out *= view.noise_sigma
    # fl(s * x + noise) does not depend on the order of the sum's operands.
    if idx is None and n * d <= _VIEW_CHUNK:  # a training batch: skip the slicing
        out += s * x
        return out
    rows = max(1, _VIEW_CHUNK // d)
    for lo in range(0, n, rows):
        part = slice(lo, lo + rows)
        out[part] += s[part] * (x[part] if idx is None else x[idx[part]])
    return out


def batches_per_epoch(dataset_size: int, batch_size: int) -> int:
    return -(-dataset_size // batch_size)


@functools.lru_cache(maxsize=4)
def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    """The shuffle of one epoch, drawn once and shared read-only by its steps."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_SHUFFLE, epoch]))
    perm = rng.permutation(n)
    perm.flags.writeable = False
    return perm


def sample_positive_batch(
    dataset: Dataset, aug: AugmentationSpec, batch_size: int, step_index: int
) -> PositiveBatch:
    """Deterministic positive-pair batch for one training step.

    Steps walk a per-epoch shuffle without replacement; the final batch of an
    epoch may be short so that every sample appears exactly once per epoch.
    step_index counts from 0.
    """
    n = len(dataset)
    if batch_size < 1:
        raise ConfigError(f"batch_size: need >= 1, got {batch_size}")
    if batch_size > n:
        raise ConfigError(
            f"batch_size: {batch_size} exceeds dataset size {n}"
        )
    if step_index < 0:
        raise ContractError(f"step_index: must be >= 0, got {step_index}")
    per_epoch = batches_per_epoch(n, batch_size)
    epoch, slot = divmod(step_index, per_epoch)
    idx = _epoch_permutation(aug.seed, epoch, n)[slot * batch_size : (slot + 1) * batch_size]
    raw = dataset.samples[idx]
    rng1 = np.random.default_rng(
        np.random.SeedSequence([aug.seed, _TAG_VIEW1, step_index])
    )
    rng2 = np.random.default_rng(
        np.random.SeedSequence([aug.seed, _TAG_VIEW2, step_index])
    )
    return PositiveBatch(
        x1=_apply_view(raw, aug.view1, rng1),
        x2=_apply_view(raw, aug.view2, rng2),
        labels=dataset.labels[idx],
    )


def load_cifar10(path) -> Dataset:
    """Parse CIFAR-10 binary batches: 3073-byte records of one label byte
    followed by 3072 pixel bytes (R, G, B planes, 32x32 row-major)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"cifar: cannot read {path} ({exc.strerror})") from exc
    if len(blob) == 0 or len(blob) % CIFAR_RECORD_BYTES != 0:
        raise FormatError(
            f"cifar: file length {len(blob)} is not a positive multiple of "
            f"{CIFAR_RECORD_BYTES}"
        )
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0]
    if labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise FormatError(
            f"cifar: record {bad} has label byte {labels[bad]}, expected 0..9"
        )
    pixels = records[:, 1:].astype(np.float64) / 255.0
    return Dataset(samples=pixels, labels=labels.astype(np.int64))


def draw_augmented_pairs(
    dataset: Dataset, aug: AugmentationSpec, count: int, seed: int = 0
) -> tuple[np.ndarray, PositiveBatch]:
    """Draw `count` rows with replacement and augment them under both views.

    Returns (raw rows, PositiveBatch). This is the with-replacement sampler
    used for measurement; training batches come from sample_positive_batch's
    per-epoch shuffle instead.
    """
    idx, batch = _augmented_pairs(dataset, aug, count, seed)
    return dataset.samples[idx], batch


def _augmented_pairs(
    dataset: Dataset, aug: AugmentationSpec, count: int, seed: int
) -> tuple[np.ndarray, PositiveBatch]:
    # draw_augmented_pairs' row indices and views, without gathering the rows.
    if count < 1:
        raise ConfigError(f"count: need >= 1, got {count}")
    root = np.random.SeedSequence([seed, _TAG_MOMENTS, aug.seed])
    pick_stream, v1_stream, v2_stream = root.spawn(3)
    idx = np.random.default_rng(pick_stream).integers(0, len(dataset), size=count)
    x = dataset.samples
    batch = PositiveBatch(
        x1=_apply_view(x, aug.view1, np.random.default_rng(v1_stream), idx),
        x2=_apply_view(x, aug.view2, np.random.default_rng(v2_stream), idx),
        labels=dataset.labels[idx],
    )
    return idx, batch


@dataclass(frozen=True)
class MomentEstimate:
    """Monte-Carlo second moments of augmented pairs.

    a estimates E[x1 x1^T] (symmetrized), b estimates E[x2 x1^T].
    rank_deficient flags an `a` too ill-conditioned to invert reliably.
    """

    a: np.ndarray
    b: np.ndarray
    sample_count: int
    rank_deficient: bool


def estimate_aug_moments(
    dataset: Dataset, aug: AugmentationSpec, sample_count: int, seed: int = 0
) -> MomentEstimate:
    d = dataset.dim
    if sample_count < d * d:
        raise ContractError(
            f"sample_count: need >= d^2 = {d * d} for a {d}-dim moment "
            f"estimate, got {sample_count}"
        )
    _, batch = _augmented_pairs(dataset, aug, sample_count, seed)
    x1, x2 = batch.x1, batch.x2
    a = x1.T @ x1 / sample_count
    a = 0.5 * (a + a.T)
    b = x2.T @ x1 / sample_count
    rank_deficient = bool(np.linalg.cond(a) > MOMENT_COND_LIMIT)
    return MomentEstimate(a=a, b=b, sample_count=sample_count, rank_deficient=rank_deficient)


def export_dataset_csv(dataset: Dataset, path):
    """Write samples as CSV with an x0..x{d-1} header and the label last.

    Floats are written in shortest round-trip form, so re-exporting the same
    dataset reproduces the file byte for byte.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.dim)] + ["label"])
        for row, label in zip(dataset.samples, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
