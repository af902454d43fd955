"""First-order optimizers over one flat float64 parameter vector.

Both steppers update the parameter vector in place and leave the gradient
untouched. Adam keeps its moments and two one-block scratch vectors in
AdamState and rewrites them in place, so its step allocates no array. Each
update performs the textbook expression's operations in the textbook's order,
so its result is the same bit for bit; Adam's operations are elementwise, so
running them block by block keeps those bits too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Floats Adam updates per pass of its operations: its scratch length.
ADAM_BLOCK = 16_384


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """Plain gradient descent in place: params <- params - lr * grads."""
    if params.shape != grads.shape:
        raise ShapeError(f"param shape {params.shape} vs grad shape {grads.shape}")
    params -= float(lr) * grads


@dataclass
class AdamState:
    """First and second moment estimates, shaped like the parameter vector,
    the step count, and two scratch vectors of at most ADAM_BLOCK floats."""

    m: np.ndarray
    v: np.ndarray
    t: int
    scratch: tuple[np.ndarray, np.ndarray]

    @classmethod
    def init(cls, params: np.ndarray) -> "AdamState":
        block = min(params.size, ADAM_BLOCK)
        return cls(
            m=np.zeros_like(params),
            v=np.zeros_like(params),
            t=0,
            scratch=(np.empty(block), np.empty(block)),
        )


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> None:
    """One bias-corrected Adam update of `params` in place; advances `state`.

    Computes m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g^2 and
    params - lr m_hat / (sqrt(v_hat) + eps) with m_hat = m / (1 - beta1^t),
    v_hat = v / (1 - beta2^t).
    """
    if params.ndim != 1:
        raise ShapeError(f"Adam updates a flat vector, got shape {params.shape}")
    if not params.shape == grads.shape == state.m.shape:
        raise ShapeError(
            f"param shape {params.shape}, grad shape {grads.shape} and "
            f"optimizer state shape {state.m.shape} differ"
        )
    t = state.t + 1
    # The bias corrections, once per step.
    c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t
    lr = float(lr)
    for lo in range(0, params.size, ADAM_BLOCK):
        hi = lo + ADAM_BLOCK
        p, g, m, v = params[lo:hi], grads[lo:hi], state.m[lo:hi], state.v[lo:hi]
        a, b = state.scratch[0][: p.size], state.scratch[1][: p.size]
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=a)
        m += a
        v *= beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - beta2
        v += a
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        np.divide(m, c1, out=a)
        a *= lr
        a /= b
        p -= a
    state.t = t
