"""Objectives over paired unit-norm representations.

All losses are built from tape ops, so calling them on tracked tensors gives
gradients and calling them on constants gives plain evaluation. The
uniformity measure is plain NumPy and takes constants only. Rows are
expected to be unit-norm (the model normalizes before these are applied);
distances are nevertheless computed directly rather than through the
cosine shortcut, so slightly off-sphere inputs stay well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape as T
from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    InsufficientBatchError,
    NearOrthogonalError,
)
from .tape import Tensor

OBJECTIVES = ("byol", "byol_prime", "raft")

# Coupling temperature t of the pairwise-repulsion diagnostic (Wang & Isola,
# arXiv 2005.10242). The collapse threshold below holds on this scale only.
UNIFORMITY_T = 2.0

# Uniformity above this marks a representation cloud as collapsed; sits
# between observed collapsed values (around -0.1) and healthy ones (around -2).
COLLAPSE_UNIFORMITY_THRESHOLD = -0.2

# |lambda| below this means the online and target rows are numerically
# orthogonal and the rescaled-distance form would divide by noise.
LAMBDA_EPS = 1e-6


@dataclass(frozen=True)
class LossConfig:
    """Which objective to optimize and how its terms are weighted."""

    objective: str = "byol_prime"
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ConfigError(
                f"objective: unknown value {self.objective!r}, expected one of {OBJECTIVES}"
            )
        if not self.alpha > 0:
            raise ConfigError(f"alpha: must be positive, got {self.alpha}")
        if not self.beta > 0:
            raise ConfigError(f"beta: must be positive, got {self.beta}")


def align_loss(p1, p2) -> Tensor:
    """Mean squared distance between the two views' online outputs.

    Lives in [0, 4] for unit rows; 0 iff the views match row for row.
    """
    return T.batch_mean(T.squared_distance(p1, p2))


def uniform_loss(z) -> Tensor:
    """log of the mean Gaussian-kernel affinity over ordered distinct pairs,
    at temperature t = UNIFORMITY_T.

    For unit rows the value lies in [-4t, 0]; it reaches 0 when every row
    coincides, so it acts as the collapse detector. Needs at least two rows.
    A measure, not an objective: it records nothing, returns a constant and
    refuses a tracked tensor. Its one n x n float64 array is its peak memory.
    """
    z = T.as_tensor(z)
    if z.node is not None:
        raise ContractError("uniform_loss: a measure records nothing; pass a constant")
    if z.ndim != 2:
        raise ContractError(f"uniform_loss: needs a matrix, got shape {z.shape}")
    n = z.shape[0]
    if n < 2:
        raise InsufficientBatchError(f"uniform_loss: needs >= 2 rows, got {n}")
    z = z.data
    sq = np.einsum("ij,ij->i", z, z)
    # D_ij = (-2 <z_i, z_j> + |z_j|^2) + |z_i|^2 in one buffer, then the
    # kernel in place. The copied transpose keeps BLAS off its symmetric
    # product, so the Gram matrix has the bits of a general matmul.
    d = z @ z.T.copy()
    d *= -2.0
    d += sq
    d += sq[:, None]
    d *= -UNIFORMITY_T
    np.exp(d, out=d)
    # The diagonal contributes exp(0) = 1 per row; subtract it to keep only
    # the ordered distinct pairs.
    mean = (d.sum() - float(n)) * (1.0 / (n * (n - 1)))
    if mean <= 0.0:
        raise DomainError("uniform_loss: the mean affinity is not positive")
    return T.constant(np.log(mean))


def cross_model_loss(p, zbar) -> Tensor:
    """Mean squared distance between online and target outputs of one view."""
    return T.batch_mean(T.squared_distance(p, zbar))


def tangential_cross_model(p, zbar) -> Tensor:
    """Rescaled online-vs-target distance |zbar - lambda p|^2 / lambda with
    lambda = <p, zbar> held out of the gradient.

    Its p-gradient equals the plain cross_model_loss gradient with the radial
    component removed, which is the whole point of the form. Rows where
    |lambda| < LAMBDA_EPS are numerically orthogonal and raise.
    """
    p = T.as_tensor(p)
    zbar = T.as_tensor(zbar)
    lam = T.stop_gradient(T.row_dot(p, zbar))
    small = np.abs(lam.data) < LAMBDA_EPS
    if np.any(small):
        worst = int(np.argmin(np.abs(lam.data)))
        raise NearOrthogonalError(
            f"tangential_cross_model: row {worst} has <p, zbar> = "
            f"{lam.data[worst]:.3e}, below threshold {LAMBDA_EPS}"
        )
    per_row = T.div(T.squared_distance(zbar, T.scale_rows(p, lam)), lam)
    return T.batch_mean(per_row)


@dataclass(frozen=True)
class LossParts:
    """Optimized objective plus its plain diagnostic components.

    align and cross are always the unmodified same-view geometric quantities,
    even when the total pairs the views crosswise (byol).
    """

    total: Tensor
    align: Tensor
    cross: Tensor


def objective_terms(cfg: LossConfig, p1, p2, zbar1, zbar2) -> LossParts:
    """Assemble the configured objective from the four view outputs.

    p1, p2 are the online outputs of the two views; zbar1, zbar2 the target
    outputs of the matching views. Each online-target term is the mean over
    both views.
    """
    align = align_loss(p1, p2)
    cross = T.scale(T.add(cross_model_loss(p1, zbar1), cross_model_loss(p2, zbar2)), 0.5)

    if cfg.objective == "byol":
        # Crossed pairing: online view 1 against target view 2 and vice versa.
        total = T.scale(T.add(cross_model_loss(p1, zbar2), cross_model_loss(p2, zbar1)), 0.5)
    elif cfg.objective == "byol_prime":
        total = T.add(T.scale(align, cfg.alpha), T.scale(cross, cfg.beta))
    else:  # raft
        total = T.sub(T.scale(align, cfg.alpha), T.scale(cross, cfg.beta))
    return LossParts(total=total, align=align, cross=cross)
