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
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import tape as T
from .data import AugmentationSpec, Dataset, PositiveBatch, make_blobs, SyntheticBlobsSpec
from .errors import ContractError, ShapeError, SingularMomentError
from .losses import LossConfig, cross_model_loss, objective_terms, tangential_cross_model
from .model import (
    ModelParams,
    NetworkSpec,
    bind_params,
    encode,
    forward_online,
    forward_target,
    init_params,
    mirror_predictor,
)
from .train import TrainConfig, train_run

# Margin below -MARGIN_TOLERANCE falsifies the upper bound.
MARGIN_TOLERANCE = 1e-9

DEFAULT_WEIGHT_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)

# One-step mirror check: with the filter on, gradients must agree to this;
# with it off, a trial only counts as a working negative control when the
# deviation clears CONTROL_MIN_DEVIATION, and at least
# CONTROL_REQUIRED_FRACTION of trials must do so.
ONESTEP_MATCH_TOL = 1e-10
CONTROL_MIN_DEVIATION = 1e-4
CONTROL_REQUIRED_FRACTION = 0.95

# Full-trajectory deviation budget, relative to parameter scale.
TRAJECTORY_REL_TOL = 1e-6

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

# Explicit Kronecker systems are capped at this side length per factor.
MAX_SYLVESTER_DIM = 12

DEFAULT_PIVOT_TOL = 1e-10

LINEAR_PREDICTOR_MESSAGE = "condition ii: predictor must be linear"


def _require_linear_predictor(spec: NetworkSpec):
    if spec.predictor != "linear":
        raise ContractError(LINEAR_PREDICTOR_MESSAGE)


# ---------------------------------------------------------------------------
# upper bound


def state_losses(params: ModelParams, batch: PositiveBatch) -> tuple[float, float, float]:
    """(align, same-view cross, crossed-view objective) of the byol
    objective on one shared forward pass."""
    _, _, p1 = forward_online(params, batch.x1)
    _, _, p2 = forward_online(params, batch.x2)
    zbar1 = forward_target(params, batch.x1)
    zbar2 = forward_target(params, batch.x2)
    parts = objective_terms(LossConfig(objective="byol"), p1, p2, zbar1, zbar2)
    return parts.align.item(), parts.cross.item(), parts.total.item()


def margin_from_losses(alpha: float, beta: float, losses: tuple[float, float, float]) -> float:
    """(1/alpha + 1/beta) * (alpha*align + beta*cross) - byol, from the
    (align, cross, byol) of state_losses."""
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

    @property
    def passed(self) -> bool:
        return self.min_margin >= -MARGIN_TOLERANCE

    def to_json(self) -> str:
        payload = {**asdict(self), "margin_tolerance": MARGIN_TOLERANCE, "passed": self.passed}
        return json.dumps(payload, indent=2)


def random_model_state(spec: NetworkSpec, rng: np.random.Generator) -> ModelParams:
    """Independent online and teacher parameters (the teacher is replaced by
    a second draw so the two paths genuinely differ).

    Biases are re-drawn from the weight law rather than left at their zero
    training default: the certifications quantify over generic parameter
    positions, and nonzero biases also keep every ReLU path almost surely
    alive, so no sampled state can hit the degenerate zero-representation
    guard."""
    s1, s2 = (int(v) for v in rng.integers(0, 2**63, size=2))
    params = init_params(spec, s1)
    params.teacher[...] = init_params(spec, s2).teacher
    for name, arr in params.values.items():
        if name.endswith(".b"):
            fan_in = params.values[name[:-2] + ".w"].shape[0]
            bound = 1.0 / np.sqrt(fan_in)
            arr[...] = rng.uniform(-bound, bound, size=arr.shape)
    return params


def random_state_and_batch(
    spec: NetworkSpec, rng: np.random.Generator, batch_size: int
) -> tuple[ModelParams, PositiveBatch]:
    """A random_model_state draw followed by a standard-normal positive
    batch (view 1, then view 2) from the same stream."""
    params = random_model_state(spec, rng)
    return params, PositiveBatch(
        x1=rng.normal(size=(batch_size, spec.input_dim)),
        x2=rng.normal(size=(batch_size, spec.input_dim)),
        labels=np.zeros(batch_size, dtype=np.int64),
    )


def upper_bound_sweep(
    trials: int = 1000,
    seed: int = 0,
    grid: Sequence[float] = DEFAULT_WEIGHT_GRID,
    network: NetworkSpec | None = None,
    batch_size: int = 16,
) -> UpperBoundReport:
    """Randomized search for a counterexample to the bound over a grid of
    (alpha, beta) weights; the per-state forward is shared across the grid."""
    if trials < 1:
        raise ContractError(f"trials: need >= 1, got {trials}")
    network = network or DEFAULT_VERIFY_NETWORK
    grid = tuple(float(g) for g in grid)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 21]))
    min_margin = float("inf")
    worst = (0, grid[0], grid[0])
    for trial in range(trials):
        losses = state_losses(*random_state_and_batch(network, rng, batch_size))
        for alpha in grid:
            for beta in grid:
                margin = margin_from_losses(alpha, beta, losses)
                if margin < min_margin:
                    min_margin = margin
                    worst = (trial, alpha, beta)
    return UpperBoundReport(
        trials=trials,
        batch_size=batch_size,
        grid=grid,
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


def _mirror_deviations(
    a: dict[str, np.ndarray], b: dict[str, np.ndarray]
) -> tuple[float, float]:
    # max |a - b| over every array but the predictor, and max |a + b| on the
    # predictor; both vanish when b mirrors a. For parameter snapshots the
    # first covers the teacher copy too, which must track identically since
    # it is an EMA of identical trajectories.
    theta_dev = max(float(np.abs(a[n] - b[n]).max()) for n in a if n != "predictor.w")
    return theta_dev, float(np.abs(a["predictor.w"] + b["predictor.w"]).max())


def _raw_online_outputs(params: ModelParams, x: np.ndarray, leaves, gate: bool):
    # Unnormalized forward: backbone, projector, then the linear predictor,
    # with no l2 step. Condition iii only has teeth here, because nothing
    # else removes radial gradient components.
    _, z_pre = encode(params, x, leaves)
    out = T.matmul(z_pre, leaves["predictor.w"])
    return T.tangent_gate(out) if gate else out


def _raw_gradients(
    params: ModelParams, batch: PositiveBatch, objective: str, gate: bool
) -> dict[str, np.ndarray]:
    tp = T.Tape()
    leaves = bind_params(tp, params)
    out1 = _raw_online_outputs(params, batch.x1, leaves, gate)
    out2 = _raw_online_outputs(params, batch.x2, leaves, gate)
    _, t1 = encode(params, batch.x1, teacher=True)
    _, t2 = encode(params, batch.x2, teacher=True)
    grads = tp.backward(objective_terms(LossConfig(objective=objective), out1, out2, t1, t2).total)
    return {name: grads[leaf] for name, leaf in leaves.items()}


def gradient_correspondence_check(
    params: ModelParams, batch: PositiveBatch, apply_filter: bool = True
) -> GradientDeviations:
    """Evaluate the attract-form at (theta, W) and the repel-form at
    (theta, -W) on the same batch with the same teacher, and measure how far
    the encoder gradients are from equal and the predictor gradients from
    opposite. With the tangential filter on, both deviations sit at rounding
    level; with it off, the differing radial components surface."""
    _require_linear_predictor(params.spec)
    g_attract = _raw_gradients(params, batch, "byol_prime", apply_filter)
    g_repel = _raw_gradients(mirror_predictor(params), batch, "raft", apply_filter)
    theta_dev, w_dev = _mirror_deviations(g_attract, g_repel)
    return GradientDeviations(theta_dev=theta_dev, w_dev=w_dev, filter_on=apply_filter)


def gradient_correspondence_sweep(
    trials: int = 100,
    seed: int = 0,
    apply_filter: bool = True,
    network: NetworkSpec | None = None,
    batch_size: int = 8,
) -> list[GradientDeviations]:
    """Repeat the one-step mirror check across random parameter states and
    batches; teacher parameters are drawn independently of the online ones."""
    if trials < 1:
        raise ContractError(f"trials: need >= 1, got {trials}")
    network = network or DEFAULT_VERIFY_NETWORK
    _require_linear_predictor(network)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 22]))
    out = []
    for _ in range(trials):
        params, batch = random_state_and_batch(network, rng, batch_size)
        out.append(gradient_correspondence_check(params, batch, apply_filter))
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


def trick_identity_sweep(
    trials: int = 100, seed: int = 0, batch_size: int = 16, dim: int = 8
) -> float:
    """Worst-case deviation of the gradient identity over random unit
    configurations."""
    if trials < 1:
        raise ContractError(f"trials: need >= 1, got {trials}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
    worst = 0.0
    for _ in range(trials):
        p = unit_rows(rng, batch_size, dim)
        zbar = unit_rows(rng, batch_size, dim)
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

    def within_relative(self, rel_tol: float) -> bool:
        return (
            self.max_theta_dev <= rel_tol * self.theta_scale
            and self.max_w_dev <= rel_tol * self.w_scale
        )

    def to_json(self) -> str:
        payload = {
            **asdict(self), "max_theta_dev": self.max_theta_dev, "max_w_dev": self.max_w_dev
        }
        return json.dumps(payload, indent=2)


def write_deviation_csv(report: CorrespondenceReport, path):
    with open(path, "w") as fh:
        fh.write("step,theta_dev,w_dev\n")
        for k, (td, wd) in enumerate(zip(report.theta_dev, report.w_dev)):
            fh.write(f"{k},{td!r},{wd!r}\n")


def trajectory_correspondence_experiment(
    network: NetworkSpec | None = None,
    steps: int = 200,
    seed: int = 0,
    optimizer: str = "sgd",
    learning_rate: float = 1e-2,
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
    params0 = init_params(network, seed)
    mirrored0 = mirror_predictor(params0)

    snapshots_a: list[dict[str, np.ndarray]] = [params0.values]
    snapshots_r: list[dict[str, np.ndarray]] = [mirrored0.values]
    grads_a: list[dict[str, np.ndarray]] = []
    grads_r: list[dict[str, np.ndarray]] = []

    def run(objective: str, initial: ModelParams, snapshots: list, grads: list):
        def record(step: int, params: ModelParams, step_grads: dict[str, np.ndarray]):
            snapshots.append(params.values)
            grads.append(step_grads)

        cfg = TrainConfig(
            network=network,
            loss=LossConfig(objective=objective),
            augmentation=AugmentationSpec.symmetric(noise_sigma=0.1, scale=(0.9, 1.1)),
            steps=steps,
            batch_size=len(dataset),
            optimizer=optimizer,
            learning_rate=learning_rate,
            ema_tau=ema_tau,
            master_seed=seed,
            log_every=10**9,
        )
        train_run(cfg, dataset, initial_params=initial, step_callback=record)

    run("byol_prime", params0, snapshots_a, grads_a)
    run("raft", mirrored0, snapshots_r, grads_r)

    devs = [_mirror_deviations(va, vr) for va, vr in zip(snapshots_a, snapshots_r)]
    grad_devs = [_mirror_deviations(ga, gr) for ga, gr in zip(grads_a, grads_r)]
    return CorrespondenceReport(
        steps=steps,
        optimizer=optimizer,
        learning_rate=float(learning_rate),
        ema_tau=float(ema_tau),
        theta_dev=tuple(d[0] for d in devs),
        w_dev=tuple(d[1] for d in devs),
        grad_theta_dev=tuple(d[0] for d in grad_devs),
        grad_w_dev=tuple(d[1] for d in grad_devs),
        theta_scale=max(
            float(np.abs(v[n]).max()) for v in snapshots_a for n in v if n != "predictor.w"
        ),
        w_scale=max(float(np.abs(v["predictor.w"]).max()) for v in snapshots_a),
    )


# ---------------------------------------------------------------------------
# fixed-point analysis


@dataclass(frozen=True)
class SylvesterReport:
    """Rank analysis of M = I_m (x) W - (B A^-1)^T (x) I_n."""

    a: np.ndarray
    b: np.ndarray
    ba_inv: np.ndarray
    system_dim: int
    rank: int
    null_dim: int
    nontrivial: bool


def pivoted_rank(mat: np.ndarray, rel_tol: float = DEFAULT_PIVOT_TOL) -> int:
    """Numerical rank by Gaussian elimination with partial pivoting; pivots
    are kept when they exceed rel_tol times the largest pivot."""
    if rel_tol <= 0:
        raise ContractError(f"rel_tol: must be positive, got {rel_tol}")
    a = np.array(mat, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"pivoted_rank: needs a matrix, got shape {a.shape}")
    rows, cols = a.shape
    scale = float(np.abs(a).max()) if a.size else 0.0
    if scale == 0.0:
        return 0
    r = 0
    pivots: list[float] = []
    for c in range(cols):
        if r == rows:
            break
        lead = r + int(np.argmax(np.abs(a[r:, c])))
        piv = abs(a[lead, c])
        # Columns numerically dead relative to the matrix scale are skipped
        # instead of being eliminated with a noise pivot.
        if piv <= rel_tol * scale:
            continue
        if lead != r:
            a[[r, lead]] = a[[lead, r]]
        pivots.append(abs(a[r, c]))
        factors = a[r + 1 :, c] / a[r, c]
        a[r + 1 :, c:] -= np.outer(factors, a[r, c:])
        r += 1
    if not pivots:
        return 0
    largest = max(pivots)
    return sum(1 for p in pivots if p > rel_tol * largest)


def sylvester_null_space(
    w: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    pivot_tol: float = DEFAULT_PIVOT_TOL,
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
    if pivot_tol <= 0:
        raise ContractError(f"pivot_tol: must be positive, got {pivot_tol}")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > 1.0 / pivot_tol:
        raise SingularMomentError(
            f"a: condition number {cond:.3e} exceeds 1/pivot_tol = {1.0 / pivot_tol:.3e}"
        )
    ba_inv = np.linalg.solve(a.T, b.T).T
    system = np.kron(np.eye(m), w) - np.kron(ba_inv.T, np.eye(n))
    rank = pivoted_rank(system, pivot_tol)
    null_dim = n * m - rank
    return SylvesterReport(
        a=a,
        b=b,
        ba_inv=ba_inv,
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


def finite_difference_gradcheck(
    loss_cfg: LossConfig,
    params: ModelParams,
    batch: PositiveBatch,
    step: float = 1e-5,
    max_coords: int = 10_000,
    seed: int = 0,
) -> float:
    """Compare tape gradients of the configured objective against central
    differences over every trainable coordinate (a seeded subsample above
    max_coords); returns the worst relative error.
    """
    if step <= 0:
        raise ContractError(f"step: must be positive, got {step}")
    if max_coords < 1:
        raise ContractError(f"max_coords: must be >= 1, got {max_coords}")

    zbar1 = forward_target(params, batch.x1)
    zbar2 = forward_target(params, batch.x2)

    def total_at(probe: ModelParams, leaves=None) -> T.Tensor:
        _, _, p1 = forward_online(probe, batch.x1, leaves=leaves)
        _, _, p2 = forward_online(probe, batch.x2, leaves=leaves)
        return objective_terms(loss_cfg, p1, p2, zbar1, zbar2).total

    tp = T.Tape()
    leaves = bind_params(tp, params)
    grads = tp.backward(total_at(params, leaves))
    analytic = np.concatenate([grads[leaf].ravel() for leaf in leaves.values()])

    # Coordinates index the trainable segment of the flat parameter vector.
    coords = range(analytic.size)
    if len(coords) > max_coords:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
        coords = rng.choice(len(coords), size=max_coords, replace=False)

    probe = params.clone()
    flat = probe.flat
    worst = 0.0
    for i in coords:
        base = flat[i]
        flat[i] = base + step
        hi = total_at(probe).item()
        flat[i] = base - step
        lo = total_at(probe).item()
        flat[i] = base
        fd = (hi - lo) / (2.0 * step)
        an = float(analytic[i])
        err = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
        worst = max(worst, err)
    return worst
