"""Numerical certification of the package's three structural claims.

1. Upper bound: at any shared forward state, the crossed-view objective is
   bounded by (1/alpha + 1/beta) times the two-term objective, with equality
   at total collapse.

2. Mirror correspondence: with the attract-form started at (theta0, W0) and
   the repel-form at (theta0, -W0), the encoder trajectories coincide and the
   predictor trajectories negate. The construction needs three conditions:
   (i) representations are compared on the unit hypersphere, (ii) the
   predictor is a single linear map, (iii) only the gradient component
   tangential to each representation is kept. gradient_correspondence_check
   certifies the one-step gradient identity on raw (unnormalized) outputs,
   where condition iii has to be enforced explicitly and switching it off is
   a meaningful negative control; trajectory_correspondence_experiment runs
   the full production training loop, whose in-graph normalization already
   realizes conditions i and iii.

3. Fixed-point analysis: the linear fixed-point equation W theta =
   theta (B A^-1) has non-trivial solutions exactly when W and B A^-1 share
   an eigenvalue; detected via the rank of the explicit Kronecker system.

The certify_* functions at the end are what the `raftlab verify`
subcommands run: each decides its verdicts here and returns them as Check
records, with the artifacts it measured them from.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import tape as T
from .data import (
    AugmentationSpec, Dataset, PositiveBatch, SyntheticBlobsSpec, estimate_aug_moments, make_blobs
)
from .errors import ContractError, ShapeError, SingularMomentError
from .losses import LossConfig, cross_model_loss, objective_terms, tangential_cross_model
from .model import (
    ModelParams,
    NetworkSpec,
    apply_weight_law,
    bind_params,
    encode,
    forward_online,
    forward_target,
    init_params,
    mirror_predictor,
    split_views,
    stack_views,
    weight_law,
)
from .train import TrainConfig, train_run

log = logging.getLogger(__name__)

# Margin below -MARGIN_TOLERANCE falsifies the upper bound.
MARGIN_TOLERANCE = 1e-9

WEIGHT_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)

# One-step mirror check: with the filter on, gradients must agree to this;
# with it off, a trial only counts as a working negative control when the
# deviation clears CONTROL_MIN_DEVIATION, and at least
# CONTROL_REQUIRED_FRACTION of trials must do so.
ONESTEP_MATCH_TOL = 1e-10
CONTROL_MIN_DEVIATION = 1e-4
CONTROL_REQUIRED_FRACTION = 0.95

# Full-trajectory deviation budget, relative to parameter scale.
TRAJECTORY_REL_TOL = 1e-6
# Step size of both mirrored runs.
TRAJECTORY_LEARNING_RATE = 1e-2

# Central-difference certification of analytic gradients.
FD_STEP = 1e-5
FD_REL_TOL = 1e-4

# Gradient identity between the scale-invariant cross form and the
# explicitly filtered plain form.
TRICK_IDENTITY_TOL = 1e-10

# Compact model used by the certification harnesses by default.
DEFAULT_VERIFY_NETWORK = NetworkSpec(
    input_dim=8,
    backbone_widths=(16,),
    representation_dim=12,
    projection_dim=8,
    predictor="linear",
)

# The upper-bound and difference sweeps evaluate their parameter states in
# stacks, as many per forward as keep the largest stacked array within this
# many float64 elements (512 KiB). Memory then stays bounded whatever the
# trial count.
STACK_ELEMENTS = 2**16

# Explicit Kronecker systems are capped at this side length per factor.
MAX_SYLVESTER_DIM = 12

PIVOT_TOL = 1e-10

LINEAR_PREDICTOR_MESSAGE = "condition ii: predictor must be linear"


def _require_linear_predictor(spec: NetworkSpec):
    if spec.predictor != "linear":
        raise ContractError(LINEAR_PREDICTOR_MESSAGE)


# ---------------------------------------------------------------------------
# upper bound


def state_losses(params: ModelParams, batch: PositiveBatch) -> tuple:
    """(align, same-view cross, crossed-view objective) of the byol
    objective on one shared forward pass of both views stacked.

    For a stack of K states (and batches, (K, n, input_dim) per view) the
    three are arrays of K values, each bit for bit its state's own call."""
    x, n = stack_views(batch.x1, batch.x2)
    p = forward_online(params, x)[1]
    parts = objective_terms(LossConfig(objective="byol"), *split_views(p, n),
                            *split_views(forward_target(params, x), n))
    losses = (parts.align.data, parts.cross.data, parts.total.data)
    return losses if parts.total.ndim else tuple(map(float, losses))


def margin_from_losses(alpha: float, beta: float, losses: tuple) -> float:
    """(1/alpha + 1/beta) * (alpha*align + beta*cross) - byol, from the
    (align, cross, byol) of state_losses; an array of margins for a stack."""
    if not (alpha > 0 and beta > 0):
        raise ContractError(f"weights must be positive, got alpha={alpha}, beta={beta}")
    align, cross, byol = losses
    return (1.0 / alpha + 1.0 / beta) * (alpha * align + beta * cross) - byol


@dataclass(frozen=True)
class UpperBoundReport:
    trials: int
    batch_size: int
    grid: tuple[float, ...]
    min_margin: float
    worst_trial: int
    worst_alpha: float
    worst_beta: float


def random_model_state(spec: NetworkSpec, rng: np.random.Generator) -> ModelParams:
    """Independent online and teacher parameters: the online weights are
    drawn as init_params draws them from a first seed and the teacher's from
    a second, so the two paths genuinely differ.

    Biases are re-drawn from the weight law rather than left at their zero
    training default: the certifications quantify over generic parameter
    positions, and nonzero biases also keep every ReLU path almost surely
    alive, so no sampled state can hit the degenerate zero-representation
    guard."""
    u = np.empty(spec.flat_size())
    _state_uniforms(spec, rng, u)
    params = ModelParams(spec, np.empty_like(u))
    apply_weight_law(params, (0, 1, 2), u)
    return params


def _state_uniforms(spec: NetworkSpec, rng: np.random.Generator, u: np.ndarray) -> None:
    # One random_model_state's uniform draws into the vector `u`, in
    # weight_law's order: the online weights' seeded stream, the teacher's,
    # then the biases from `rng`.
    (lo, _), (n_teacher, _), _ = weight_law(spec)
    s1, s2 = (int(v) for v in rng.integers(0, 2**63, size=2))
    np.random.default_rng(np.random.SeedSequence(s1)).random(out=u[:lo])
    np.random.default_rng(np.random.SeedSequence(s2)).random(out=u[lo:lo + n_teacher])
    rng.random(out=u[lo + n_teacher:])


def random_state_and_batch(
    spec: NetworkSpec, rng: np.random.Generator, batch_size: int
) -> tuple[ModelParams, PositiveBatch]:
    """A random_model_state draw followed by a standard-normal positive
    batch (view 1, then view 2) from the same stream."""
    params, batch = random_states_and_batches(spec, rng, 1, batch_size)
    return ModelParams(spec, params.flat[0]), PositiveBatch(
        x1=batch.x1[0], x2=batch.x2[0], labels=batch.labels)


def random_states_and_batches(
    spec: NetworkSpec, rng: np.random.Generator, k: int, batch_size: int
) -> tuple[ModelParams, PositiveBatch]:
    """k random_state_and_batch draws from the stream, in its order, as one
    stack: k states and views of shape (k, batch_size, input_dim)."""
    u = np.empty((k, spec.flat_size()))
    x1 = np.empty((k, batch_size, spec.input_dim))
    x2 = np.empty_like(x1)
    for i in range(k):
        _state_uniforms(spec, rng, u[i])
        x1[i] = rng.normal(size=x1.shape[1:])
        x2[i] = rng.normal(size=x2.shape[1:])
    labels = np.zeros(batch_size, dtype=np.int64)
    params = ModelParams(spec, np.empty_like(u))
    apply_weight_law(params, (0, 1, 2), u)
    return params, PositiveBatch(x1=x1, x2=x2, labels=labels)


def states_per_chunk(spec: NetworkSpec, rows: int) -> int:
    """How many states one stacked forward of `rows` rows per state takes:
    each holds a parameter vector and (rows, widest layer) arrays, and the
    largest stacked array stays within STACK_ELEMENTS (at least one state)."""
    per_state = max(spec.flat_size(), rows * spec.widest_layer())
    return max(1, STACK_ELEMENTS // per_state)


def upper_bound_sweep(
    trials: int = 1000,
    seed: int = 0,
    network: NetworkSpec | None = None,
    batch_size: int = 16,
) -> UpperBoundReport:
    """Randomized search for a counterexample to the bound over the (alpha,
    beta) weights of WEIGHT_GRID; the per-state forward is shared across them.

    States are drawn and evaluated one stack of states_per_chunk at a time;
    the margins are scanned in (trial, alpha, beta) order and the first
    smallest is the worst, as a loop over states would find it."""
    if trials < 1:
        raise ContractError(f"trials: need >= 1, got {trials}")
    network = network or DEFAULT_VERIFY_NETWORK
    rng = np.random.default_rng(np.random.SeedSequence([seed, 21]))
    chunk = states_per_chunk(network, 2 * batch_size)
    grid = [(alpha, beta) for alpha in WEIGHT_GRID for beta in WEIGHT_GRID]
    min_margin = float("inf")
    worst = (0, WEIGHT_GRID[0], WEIGHT_GRID[0])
    for start in range(0, trials, chunk):
        losses = state_losses(*random_states_and_batches(
            network, rng, min(chunk, trials - start), batch_size))
        margins = np.stack([margin_from_losses(a, b, losses) for a, b in grid], axis=-1).ravel()
        i = int(np.argmin(margins))
        if margins[i] < min_margin:
            min_margin = float(margins[i])
            trial, g = divmod(i, len(grid))
            worst = (start + trial, *grid[g])
    return UpperBoundReport(
        trials=trials,
        batch_size=batch_size,
        grid=WEIGHT_GRID,
        min_margin=min_margin,
        worst_trial=worst[0],
        worst_alpha=worst[1],
        worst_beta=worst[2],
    )


# ---------------------------------------------------------------------------
# mirror correspondence: one-step gradient identity


@dataclass(frozen=True)
class GradientDeviations:
    """max |g_theta difference| and max |g_W sum| between the two forms."""

    theta_dev: float
    w_dev: float
    filter_on: bool


def _mirror_deviations(a: np.ndarray, b: np.ndarray, w: slice) -> tuple[float, float]:
    # a and b are laid out like ModelParams.flat or like its trainable
    # prefix, as a gradient is, with the predictor at w. Returns max |a - b|
    # off the predictor and max |a + b| on it; both vanish when b mirrors a.
    # For parameter vectors the first covers the teacher copy too, which
    # must track identically since it is an EMA of identical trajectories.
    off = np.abs(a - b)
    off[w] = 0.0  # leaves the maximum over the rest, since every entry is >= 0
    return float(off.max()), float(np.abs(a[w] + b[w]).max())


def _raw_online_outputs(params: ModelParams, x: np.ndarray, leaves, gate: bool):
    # Unnormalized forward: backbone, projector, then the linear predictor,
    # with no l2 step. Condition iii only has teeth here, because nothing
    # else removes radial gradient components.
    out = T.matmul(encode(params, x, leaves), leaves["predictor.w"])
    return T.tangent_gate(out) if gate else out


def _teacher_outputs(params: ModelParams, batch: PositiveBatch) -> tuple[T.Tensor, T.Tensor]:
    # The unnormalized teacher projections of both views, as constants.
    return (encode(params, batch.x1, teacher=True),
            encode(params, batch.x2, teacher=True))


def _raw_gradients(
    params: ModelParams, batch: PositiveBatch, teacher: tuple[T.Tensor, T.Tensor],
    objective: str, gate: bool,
) -> np.ndarray:
    # The gradient vector, laid out like params.trainable.
    grad = np.empty_like(params.trainable)
    tp = T.Tape()
    leaves = bind_params(tp, params, params.trainable_views(grad))
    out1 = _raw_online_outputs(params, batch.x1, leaves, gate)
    out2 = _raw_online_outputs(params, batch.x2, leaves, gate)
    tp.backward(objective_terms(LossConfig(objective=objective), out1, out2, *teacher).total)
    return grad


def gradient_correspondence_check(
    params: ModelParams,
    batch: PositiveBatch,
    apply_filter: bool = True,
    teacher: tuple[T.Tensor, T.Tensor] | None = None,
) -> GradientDeviations:
    """Evaluate the attract-form at (theta, W) and the repel-form at
    (theta, -W) on the same batch with the same teacher, and measure how far
    the encoder gradients are from equal and the predictor gradients from
    opposite. With the tangential filter on, both deviations sit at rounding
    level; with it off, the differing radial components surface. `teacher`
    holds _teacher_outputs(params, batch) when the caller has them already;
    mirroring the predictor leaves them unchanged."""
    _require_linear_predictor(params.spec)
    if teacher is None:
        teacher = _teacher_outputs(params, batch)
    g_attract = _raw_gradients(params, batch, teacher, "byol_prime", apply_filter)
    g_repel = _raw_gradients(mirror_predictor(params), batch, teacher, "raft", apply_filter)
    theta_dev, w_dev = _mirror_deviations(g_attract, g_repel, params.predictor_span)
    return GradientDeviations(theta_dev=theta_dev, w_dev=w_dev, filter_on=apply_filter)


def gradient_correspondence_sweeps(
    filters: Sequence[bool],
    trials: int = 100,
    seed: int = 0,
    network: NetworkSpec | None = None,
    batch_size: int = 8,
) -> list[list[GradientDeviations]]:
    """Repeat the one-step mirror check across random parameter states and
    batches, each state and batch drawn once and checked under every filter
    setting of `filters`; returns one list of trials per setting, in order.
    Teacher parameters are drawn independently of the online ones."""
    if trials < 1:
        raise ContractError(f"trials: need >= 1, got {trials}")
    network = network or DEFAULT_VERIFY_NETWORK
    _require_linear_predictor(network)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 22]))
    out = [[] for _ in filters]
    for _ in range(trials):
        params, batch = random_state_and_batch(network, rng, batch_size)
        teacher = _teacher_outputs(params, batch)
        for devs, apply_filter in zip(out, filters):
            devs.append(gradient_correspondence_check(params, batch, apply_filter, teacher))
    return out


# ---------------------------------------------------------------------------
# scale-invariant cross term vs filtered plain gradient


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def trick_gradient_identity_check(p: np.ndarray, zbar: np.ndarray) -> float:
    """Max entrywise deviation between the gradient of the scale-invariant
    cross form (distance divided by the stopped inner product) and the
    tangentially filtered gradient of the plain cross distance. Rows of p
    must be unit; the two are algebraically identical there."""
    p = np.asarray(p, dtype=np.float64)
    zbar = np.asarray(zbar, dtype=np.float64)
    tp = T.Tape()
    leaf = tp.leaf(p)
    g_trick = tp.backward(tangential_cross_model(leaf, T.constant(zbar)))[leaf]
    tp2 = T.Tape()
    leaf2 = tp2.leaf(p)
    g_plain = tp2.backward(cross_model_loss(leaf2, T.constant(zbar)))[leaf2]
    filtered = T.tangential_filter(g_plain, p)
    return float(np.abs(g_trick - filtered).max())


def trick_identity_sweep(trials: int = 100, seed: int = 0) -> float:
    """Worst-case deviation of the gradient identity over random unit
    configurations of 16 rows in 8 dimensions."""
    if trials < 1:
        raise ContractError(f"trials: need >= 1, got {trials}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
    worst = 0.0
    for _ in range(trials):
        p = unit_rows(rng, 16, 8)
        zbar = unit_rows(rng, 16, 8)
        worst = max(worst, trick_gradient_identity_check(p, zbar))
    return worst


# ---------------------------------------------------------------------------
# mirror correspondence: full trajectories


@dataclass(frozen=True)
class CorrespondenceReport:
    """Per-step deviations between the mirrored runs.

    theta_dev[k] and w_dev[k] compare the parameter snapshots after step k
    (index 0 is the initial state); grad_theta_dev and grad_w_dev compare the
    gradients used at each executed step. theta_scale / w_scale are the
    largest parameter magnitudes seen, for relative readings.
    """

    steps: int
    optimizer: str
    learning_rate: float
    ema_tau: float
    theta_dev: tuple[float, ...]
    w_dev: tuple[float, ...]
    grad_theta_dev: tuple[float, ...]
    grad_w_dev: tuple[float, ...]
    theta_scale: float
    w_scale: float

    @property
    def max_theta_dev(self) -> float:
        return max(self.theta_dev)

    @property
    def max_w_dev(self) -> float:
        return max(self.w_dev)


def trajectory_correspondence_experiment(
    network: NetworkSpec | None = None,
    steps: int = 200,
    seed: int = 0,
    optimizer: str = "sgd",
    ema_tau: float = 0.996,
    dataset: Dataset | None = None,
) -> CorrespondenceReport:
    """Train the attract-form and the repel-form from mirrored inits with
    identical batches and optimizer, and log how far the trajectories drift
    from the predicted correspondence (encoders equal, predictors negated).

    Defaults run full batch so the certified statement does not depend on
    batching; the optimizer can be "sgd" or "adam" (the mirror symmetry
    commutes with both: first moments negate for W, second moments match).
    """
    if steps < 1:
        raise ContractError(f"steps: need >= 1, got {steps}")
    network = network or DEFAULT_VERIFY_NETWORK
    _require_linear_predictor(network)
    dataset = dataset or make_blobs(SyntheticBlobsSpec())
    # Biases from the weight law, as in random_model_state: with init_params'
    # zero biases one augmented row can switch off every projector ReLU and
    # leave nothing to normalize. The teacher starts as the online encoder.
    params0 = init_params(network, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 24]))
    apply_weight_law(params0, (2,), rng.random(weight_law(network)[2][0]))
    params0.teacher[...] = params0.encoder
    mirrored0 = mirror_predictor(params0)

    def run(objective: str, initial: ModelParams, record):
        cfg = TrainConfig(
            network=network,
            loss=LossConfig(objective=objective),
            augmentation=AugmentationSpec.symmetric(noise_sigma=0.1, scale=(0.9, 1.1)),
            steps=steps,
            batch_size=len(dataset),
            optimizer=optimizer,
            learning_rate=TRAJECTORY_LEARNING_RATE,
            ema_tau=ema_tau,
            master_seed=seed,
            log_every=10**9,
        )
        train_run(cfg, dataset, initial_params=initial, step_callback=record)

    # The attract run keeps its vectors in two arrays allocated once: the
    # parameters after each step (row 0 is the initial state) and the
    # gradient of each step. The repel run is compared against them as it
    # goes and keeps one gradient's scratch. Many small copies would stay in
    # the heap after they are freed; large arrays go back to the system.
    w = params0.predictor_span
    flats_a = np.empty((steps + 1, params0.flat.size))
    flats_a[0] = params0.flat
    grads_a = np.empty((steps, params0.trainable.size))

    def record_attract(step: int, params: ModelParams, step_grads: dict[str, np.ndarray]):
        flats_a[step] = params.flat
        _join(step_grads, grads_a[step - 1])

    devs = [_mirror_deviations(params0.flat, mirrored0.flat, w)]
    grad_devs = []

    def record_repel(step: int, params: ModelParams, step_grads: dict[str, np.ndarray]):
        devs.append(_mirror_deviations(flats_a[step], params.flat, w))
        grad_devs.append(_mirror_deviations(grads_a[step - 1], _join(step_grads, grad_r), w))

    run("byol_prime", params0, record_attract)
    grad_r = np.empty_like(grads_a[0])
    run("raft", mirrored0, record_repel)
    return CorrespondenceReport(
        steps=steps,
        optimizer=optimizer,
        learning_rate=TRAJECTORY_LEARNING_RATE,
        ema_tau=float(ema_tau),
        theta_dev=tuple(d[0] for d in devs),
        w_dev=tuple(d[1] for d in devs),
        grad_theta_dev=tuple(d[0] for d in grad_devs),
        grad_w_dev=tuple(d[1] for d in grad_devs),
        theta_scale=max(_abs_max(flats_a[:, : w.start]), _abs_max(flats_a[:, w.stop :])),
        w_scale=_abs_max(flats_a[:, w]),
    )


def _join(step_grads: dict[str, np.ndarray], out: np.ndarray) -> np.ndarray:
    # A step callback's gradient views as one vector in `out`, laid out like
    # ModelParams.trainable.
    return np.concatenate([g.ravel() for g in step_grads.values()], out=out)


def _abs_max(x: np.ndarray) -> float:
    # max |x|, exactly, without a temporary of x's size.
    return float(max(x.max(), -x.min()))


# ---------------------------------------------------------------------------
# fixed-point analysis


@dataclass(frozen=True)
class SylvesterReport:
    """Rank analysis of M = I_m (x) W - (B A^-1)^T (x) I_n."""

    system_dim: int
    rank: int
    null_dim: int
    nontrivial: bool


def sylvester_null_space(
    w: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> SylvesterReport:
    """Build the Kronecker system for W theta = theta (B A^-1) and report its
    rank and null-space dimension. A non-trivial null space means non-zero
    encoders can satisfy the fixed-point equation, i.e. collapse to zero is
    not forced."""
    w = np.asarray(w, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"w: need a square matrix, got shape {w.shape}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"a: need a square matrix, got shape {a.shape}")
    if b.shape != a.shape:
        raise ShapeError(f"b: shape {b.shape} does not match a {a.shape}")
    n = w.shape[0]
    m = a.shape[0]
    if n > MAX_SYLVESTER_DIM or m > MAX_SYLVESTER_DIM:
        raise ContractError(
            f"dimensions n={n}, m={m} exceed the explicit-system cap "
            f"{MAX_SYLVESTER_DIM}"
        )
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > 1.0 / PIVOT_TOL:
        raise SingularMomentError(
            f"a: condition number {cond:.3e} exceeds 1/PIVOT_TOL = {1.0 / PIVOT_TOL:.3e}"
        )
    ba_inv = np.linalg.solve(a.T, b.T).T
    system = np.kron(np.eye(m), w) - np.kron(ba_inv.T, np.eye(n))
    rank = int(np.linalg.matrix_rank(system, rtol=PIVOT_TOL))
    null_dim = n * m - rank
    return SylvesterReport(
        system_dim=n * m,
        rank=rank,
        null_dim=null_dim,
        nontrivial=null_dim > 0,
    )


def analytic_sylvester_cases(n: int = 4) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray, int]]:
    """Hand-checkable (label, w, a, b, expected_null_dim) instances.

    With a = b = I the moment ratio is the identity, so the system reduces
    to I (x) W - I (x) I and the null space is spanned by eigvectors of W
    at eigenvalue 1.
    """
    if not 1 <= n <= MAX_SYLVESTER_DIM:
        raise ContractError(f"n: need 1..{MAX_SYLVESTER_DIM}, got {n}")
    eye = np.eye(n)
    return [
        # every direction is fixed: the system vanishes identically
        ("identity", eye, eye, eye, n * n),
        # no shared eigenvalue (2 vs 1): only the zero map satisfies it
        ("doubled", 2.0 * eye, eye, eye, 0),
        # exactly one predictor eigenvalue matches: one free row per column
        ("partial-overlap", np.diag([1.0, 2.0]), np.eye(2), np.eye(2), 2),
    ]


# ---------------------------------------------------------------------------
# finite differences


def finite_difference_gradchecks(
    loss_cfgs: Sequence[LossConfig],
    params: ModelParams,
    batch: PositiveBatch,
    step: float = FD_STEP,
    max_coords: int = 10_000,
    seed: int = 0,
) -> list[float]:
    """Compare tape gradients of each configured objective against central
    differences over every trainable coordinate (a seeded subsample above
    max_coords); returns each objective's worst relative error, in order.

    Each analytic gradient comes from its own tape with one forward per
    view. The difference sweep is shared and stacked: a chunk of c
    coordinates is 2c copies of the parameters, row r bumped by +step at
    the r-th coordinate and row c + r by -step, and one constant forward of
    both views stacked scores every objective on every row.
    """
    if step <= 0:
        raise ContractError(f"step: must be positive, got {step}")
    if max_coords < 1:
        raise ContractError(f"max_coords: must be >= 1, got {max_coords}")

    zbar1 = forward_target(params, batch.x1)
    zbar2 = forward_target(params, batch.x2)

    analytic = []
    for cfg in loss_cfgs:
        tp = T.Tape()
        leaves = bind_params(tp, params)
        p1 = forward_online(params, batch.x1, leaves=leaves)[1]
        p2 = forward_online(params, batch.x2, leaves=leaves)[1]
        grads = tp.backward(objective_terms(cfg, p1, p2, zbar1, zbar2).total)
        analytic.append(np.concatenate([grads[leaf].ravel() for leaf in leaves.values()]))

    x, n = stack_views(batch.x1, batch.x2)

    # Coordinates index the trainable segment of the flat parameter vector.
    coords = np.arange(analytic[0].size)
    if coords.size > max_coords:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
        coords = rng.choice(coords.size, size=max_coords, replace=False)

    per_chunk = max(1, states_per_chunk(params.spec, 2 * n) // 2)
    base = params.flat
    worst = [0.0] * len(loss_cfgs)
    for start in range(0, coords.size, per_chunk):
        cs = coords[start:start + per_chunk]
        c = cs.size
        probe = ModelParams(params.spec, np.tile(base, (2 * c, 1)))
        probe.flat[np.arange(c), cs] = base[cs] + step
        probe.flat[np.arange(c, 2 * c), cs] = base[cs] - step
        p1, p2 = split_views(forward_online(probe, x)[1], n)
        zb1, zb2 = (np.broadcast_to(z.data, p1.shape) for z in (zbar1, zbar2))
        for j, cfg in enumerate(loss_cfgs):
            totals = objective_terms(cfg, p1, p2, zb1, zb2).total.data
            fd = (totals[:c] - totals[c:]) / (2.0 * step)
            an = analytic[j][cs]
            err = np.abs(an - fd) / np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-6)
            worst[j] = max(worst[j], float(err.max()))
    return worst


# ---------------------------------------------------------------------------
# certifications


@dataclass(frozen=True)
class Check:
    """One certified claim: `value` measured against `tolerance`.

    `margin` is the signed slack, >= 0 exactly when `passed`: tolerance -
    value for an upper limit, value - tolerance for a lower one, and
    -|value - tolerance| for an exact count. `seconds` is the wall time of
    the work that measured `value` (checks measured by one shared pass,
    such as the three gradchecks or the two one-step mirror checks, each
    carry its time); `detail` is the line printed after the verdict."""

    name: str
    value: float
    tolerance: float
    margin: float
    passed: bool
    seconds: float
    detail: str


def _at_most(name: str, value, tol, seconds: float, detail: str) -> Check:
    return Check(name, value, tol, tol - value, bool(value <= tol), seconds, detail)


def _at_least(name: str, value, tol, seconds: float, detail: str) -> Check:
    return Check(name, value, tol, value - tol, bool(value >= tol), seconds, detail)


@dataclass(frozen=True)
class Certification:
    """A certify_* result: its checks in order and its artifacts (file name
    -> contents)."""

    checks: list[Check]
    artifacts: dict[str, str]


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def certify_upper_bound(
    seed: int, network: NetworkSpec, trials: int, batch_size: int
) -> Certification:
    """The bound holds over `trials` random states and the weight grid."""
    log.info("sweeping %d random states over a %d-point weight grid",
             trials, len(WEIGHT_GRID) ** 2)
    report, seconds = _timed(upper_bound_sweep, trials, seed, network=network,
                             batch_size=batch_size)
    check = _at_least("upper-bound", report.min_margin, -MARGIN_TOLERANCE, seconds,
                      f"min margin {report.min_margin:.3e} over {report.trials} states "
                      f"(worst at trial {report.worst_trial}, alpha {report.worst_alpha}, "
                      f"beta {report.worst_beta}; tolerance -{MARGIN_TOLERANCE:.0e})")
    payload = {**asdict(report), "margin_tolerance": MARGIN_TOLERANCE, "passed": check.passed}
    return Certification([check], {"upper_bound.json": _json(payload)})


def certify_correspondence(
    seed: int, network: NetworkSpec, dataset: Dataset, trials: int, steps: int
) -> Certification:
    """One-step gradient mirroring with the filter on, its negative control
    with the filter off, and mirrored trajectories within TRAJECTORY_REL_TOL
    of the parameter scale."""
    log.info("one-step mirror check, filter on and off, %d trials", trials)
    # One sweep measures both, so each record carries its seconds.
    (on, off), onestep_seconds = _timed(gradient_correspondence_sweeps, (True, False), trials,
                                        seed, network=network)
    worst_on = max(max(d.theta_dev, d.w_dev) for d in on)
    off_devs = [max(d.theta_dev, d.w_dev) for d in off]
    hits = sum(1 for dev in off_devs if dev > CONTROL_MIN_DEVIATION)
    needed = int(np.ceil(CONTROL_REQUIRED_FRACTION * trials))
    log.info("trajectory experiment: %d steps", steps)
    traj, traj_seconds = _timed(trajectory_correspondence_experiment, network, steps, seed,
                                dataset=dataset)
    # Both deviations must stay within TRAJECTORY_REL_TOL of their scale; the
    # record holds the one with less slack.
    deviation, budget = min((traj.max_theta_dev, TRAJECTORY_REL_TOL * traj.theta_scale),
                            (traj.max_w_dev, TRAJECTORY_REL_TOL * traj.w_scale),
                            key=lambda p: p[1] - p[0])
    checks = [
        _at_most("mirror gradients (filter on)", worst_on, ONESTEP_MATCH_TOL, onestep_seconds,
                 f"worst deviation {worst_on:.3e} over {trials} trials "
                 f"(tolerance {ONESTEP_MATCH_TOL:.0e})"),
        _at_least("negative control (filter off)", hits, needed, onestep_seconds,
                  f"{hits}/{trials} trials deviate beyond {CONTROL_MIN_DEVIATION:.0e} "
                  f"(need {needed})"),
        _at_most("trajectories", deviation, budget, traj_seconds,
                 f"max theta deviation {traj.max_theta_dev:.3e} (scale {traj.theta_scale:.3e}), "
                 f"max W-sum deviation {traj.max_w_dev:.3e} (scale {traj.w_scale:.3e}) "
                 f"over {traj.steps} {traj.optimizer} steps, "
                 f"relative tolerance {TRAJECTORY_REL_TOL:.0e}"),
    ]
    onestep = {"trials": trials, "filter_on_worst": worst_on, "filter_off_exceeding": hits,
               "filter_off_deviations": off_devs}
    trajectory = {**asdict(traj), "max_theta_dev": traj.max_theta_dev,
                  "max_w_dev": traj.max_w_dev}
    rows = enumerate(zip(traj.theta_dev, traj.w_dev))
    csv = "step,theta_dev,w_dev\n" + "".join(f"{k},{td!r},{wd!r}\n" for k, (td, wd) in rows)
    return Certification(checks, {"onestep.json": _json(onestep),
                                  "trajectory.json": _json(trajectory), "deviations.csv": csv})


def certify_sylvester(seed: int, dataset: Dataset, dim: int, samples: int) -> Certification:
    """Exact null dimensions of the analytic fixed-point cases of side
    `dim`, and the two view moments of `dataset` agreeing under identity
    augmentations within a Monte-Carlo bound."""
    checks, cases = [], []
    for label, w, a, b, expected in analytic_sylvester_cases(dim):
        report, seconds = _timed(sylvester_null_space, w, a, b)
        got, size = report.null_dim, report.system_dim
        checks.append(Check(f"fixed-point case '{label}'", got, expected, -abs(got - expected),
                            got == expected, seconds,
                            f"null dimension {got} (expected {expected}, system {size}x{size})"))
        cases.append({"label": label, "null_dim": got, "expected": expected,
                      "rank": report.rank, "system_dim": size})
    log.info("estimating view moments from %d identity-augmented draws", samples)
    est, seconds = _timed(estimate_aug_moments, dataset, AugmentationSpec(seed=seed), samples, seed)
    bound = float(5.0 / np.sqrt(samples))
    gap = float(np.abs(est.a - est.b).max())
    checks.append(_at_most("moment agreement", gap, bound, seconds,
                           f"max |A - B| entry {gap:.3e} under identity views "
                           f"(Monte-Carlo bound {bound:.3e}, {samples} draws)"))
    ratio = np.linalg.solve(est.a.T, est.b.T).T
    log.info("moment ratio distance from identity: %.3e",
             float(np.abs(ratio - np.eye(dataset.dim)).max()))
    payload = {"cases": cases, "moment_gap": gap, "moment_bound": bound, "samples": samples,
               "rank_deficient_moments": est.rank_deficient}
    return Certification(checks, {"sylvester.json": _json(payload)})


def certify_gradcheck(
    seed: int, network: NetworkSpec, max_coords: int, batch_size: int, trials: int
) -> Certification:
    """Central differences of each objective at one random state, and the
    scale-invariant cross gradient against the filtered plain one."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))
    params, batch = random_state_and_batch(network, rng, batch_size)
    objectives = ("byol", "byol_prime", "raft")
    log.info("central differences for objectives %s", ", ".join(objectives))
    # One sweep measures all three, so each record carries its seconds.
    errs, seconds = _timed(finite_difference_gradchecks,
                           [LossConfig(objective=o) for o in objectives],
                           params, batch, FD_STEP, max_coords, seed)
    errors = dict(zip(objectives, errs))
    checks = [_at_most(f"gradcheck '{objective}'", err, FD_REL_TOL, seconds,
                       f"worst relative error {err:.3e} at step {FD_STEP:.0e} "
                       f"(tolerance {FD_REL_TOL:.0e})")
              for objective, err in errors.items()]
    log.info("gradient identity for the scale-invariant cross form, %d trials", trials)
    trick_dev, seconds = _timed(trick_identity_sweep, trials, seed)
    checks.append(_at_most("scale-invariant cross gradient", trick_dev, TRICK_IDENTITY_TOL, seconds,
                           f"worst deviation from filtered plain gradient {trick_dev:.3e} "
                           f"over {trials} trials (tolerance {TRICK_IDENTITY_TOL:.0e})"))
    payload = {"objective_errors": errors, "trick_deviation": trick_dev, "step": FD_STEP,
               "batch_size": batch_size}
    return Certification(checks, {"gradcheck.json": _json(payload)})
