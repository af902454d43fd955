"""Acceptance gate: every numbered check prints one PASS/FAIL line and asserts.

Tolerances and budgets are pinned here on purpose; loosening them is not an
option when a check goes red — the implementation is what has to move.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest
from conftest import load_script

from raftlab import cli
from raftlab import tape as tp
from raftlab.data import (
    AugmentationSpec,
    Dataset,
    SyntheticBlobsSpec,
    estimate_aug_moments,
    make_blobs,
    sample_positive_batch,
)
from raftlab.losses import LossConfig
from raftlab.verify import (
    DEFAULT_VERIFY_NETWORK,
    analytic_sylvester_cases,
    finite_difference_gradchecks,
    gradient_correspondence_sweeps,
    random_model_state,
    sylvester_null_space,
    trajectory_correspondence_experiment,
    trick_identity_sweep,
    upper_bound_sweep,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _verdict(capsys, label: str, ok: bool, detail: str) -> bool:
    line = f"{'PASS' if ok else 'FAIL'}  {label}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return ok


# ---------------------------------------------------------------------------
# collapse-study fixture (shared by the four sub-checks of criterion 5)


@pytest.fixture(scope="module")
def collapse_study(tmp_path_factory):
    run_arm = load_script("run_collapse_study").run_arm
    root = tmp_path_factory.mktemp("collapse")
    start = time.monotonic()
    attract_report, _ = run_arm(
        CONFIG_DIR / "collapse_byol_np.json", root / "attract", 512
    )
    repel_report, repel_baseline = run_arm(
        CONFIG_DIR / "collapse_raft_lp.json", root / "repel", 512
    )
    elapsed = time.monotonic() - start
    return attract_report, repel_report, repel_baseline, elapsed


# ---------------------------------------------------------------------------
# criteria


def test_c1_two_term_objective_bounds_the_crossed_one(capsys):
    start = time.monotonic()
    report = upper_bound_sweep(trials=1000, seed=0)
    elapsed = time.monotonic() - start
    ok = report.min_margin >= -1e-9 and elapsed < 60.0
    assert _verdict(
        capsys, "c1 upper-bound",
        ok,
        f"min margin {report.min_margin:.3e} over {report.trials} states x "
        f"{len(report.grid)}^2 weights (worst alpha {report.worst_alpha}, "
        f"beta {report.worst_beta}), {elapsed:.1f}s",
    )


def test_c2_filtered_gradients_mirror_exactly(capsys):
    filtered = gradient_correspondence_sweeps([True], trials=100, seed=0)[0]
    worst = max(max(d.theta_dev, d.w_dev) for d in filtered)
    control = gradient_correspondence_sweeps([False], trials=100, seed=0)[0]
    moved = sum(1 for d in control if max(d.theta_dev, d.w_dev) > 1e-4)
    ok = worst <= 1e-10 and moved >= 95
    assert _verdict(
        capsys, "c2 one-step mirror",
        ok,
        f"filtered worst dev {worst:.3e} (tol 1e-10); unfiltered control moved "
        f"{moved}/100 trials past 1e-4 (need >= 95)",
    )


def test_c3_mirrored_trajectories_track_for_200_steps(capsys):
    report = trajectory_correspondence_experiment(
        steps=200, seed=0, optimizer="sgd", ema_tau=0.996
    )
    rel_theta = max(report.theta_dev) / report.theta_scale
    rel_w = max(report.w_dev) / report.w_scale
    rel_grad = max(max(report.grad_theta_dev), max(report.grad_w_dev))
    ok = rel_theta <= 1e-6 and rel_w <= 1e-6 and rel_grad <= 1e-6
    assert _verdict(
        capsys, "c3 trajectory mirror",
        ok,
        f"200 SGD steps with EMA 0.996: rel theta dev {rel_theta:.3e}, "
        f"rel predictor dev {rel_w:.3e}, grad dev {rel_grad:.3e} (tol 1e-6)",
    )


def test_c4_null_space_dimensions_and_moment_estimates(capsys):
    exact_ok = True
    details = []
    for name, w, a, b, expected in analytic_sylvester_cases(8):
        got = sylvester_null_space(w, a, b).null_dim
        exact_ok &= got == expected
        details.append(f"{name} {got}/{expected}")
    rng = np.random.default_rng(0)
    samples = 20000
    normal = Dataset(samples=rng.normal(size=(samples, 3)), labels=np.zeros(samples, dtype=int))
    est = estimate_aug_moments(normal, AugmentationSpec(), sample_count=samples, seed=0)
    bound = 5.0 / np.sqrt(samples)
    ab_gap = float(np.max(np.abs(est.a - est.b)))
    id_gap = float(np.max(np.abs(est.a - np.eye(3))))
    mc_ok = ab_gap <= bound and id_gap <= bound
    ok = exact_ok and mc_ok
    assert _verdict(
        capsys, "c4 null spaces",
        ok,
        f"analytic null dims [{', '.join(details)}]; identity-aug moments "
        f"|A-B| {ab_gap:.3e}, |A-I| {id_gap:.3e} (bound {bound:.3e})",
    )


def test_c5a_attractive_arm_collapses(capsys, collapse_study):
    attract, _, _, _ = collapse_study
    ok = attract.align < 1e-6 and attract.uniformity > -0.5
    assert _verdict(
        capsys, "c5a attractive collapse",
        ok,
        f"align {attract.align:.3e} (< 1e-6), uniformity {attract.uniformity:+.4f} (> -0.5)",
    )


def test_c5b_repulsive_arm_spreads(capsys, collapse_study):
    _, repel, _, _ = collapse_study
    ok = repel.uniformity < -1.0
    assert _verdict(
        capsys, "c5b repulsive spread",
        ok,
        f"uniformity {repel.uniformity:+.4f} (< -1.0)",
    )


def test_c5c_repulsive_arm_beats_random_probe(capsys, collapse_study):
    _, repel, baseline, _ = collapse_study
    margin = repel.probe_accuracy - baseline
    ok = margin >= 0.10
    assert _verdict(
        capsys, "c5c probe gain",
        ok,
        f"probe {repel.probe_accuracy:.4f} vs random-init {baseline:.4f}, "
        f"margin {margin:+.4f} (>= +0.10)",
    )


def test_c5d_uniformity_ordering_and_budget(capsys, collapse_study):
    attract, repel, _, elapsed = collapse_study
    ok = attract.uniformity > repel.uniformity and elapsed < 600.0
    assert _verdict(
        capsys, "c5d uniformity order",
        ok,
        f"attractive {attract.uniformity:+.4f} > repulsive {repel.uniformity:+.4f}; "
        f"study wall time {elapsed:.1f}s (< 600s)",
    )


def _primitive_builders():
    rng = np.random.default_rng(11)
    a34 = rng.normal(size=(3, 4))
    b34 = rng.normal(size=(3, 4)) + 3.0
    m42 = rng.normal(size=(4, 2))
    pos = rng.uniform(0.5, 2.0, size=(2, 3))
    off_kink = rng.normal(size=(3, 4)) + 0.03
    rows = rng.normal(size=3)
    vec = rng.normal(size=5)
    labels = np.array([0, 2, 1])
    return {
        "add": ([a34, b34], lambda xs: tp.sum_all(tp.add(xs[0], xs[1]))),
        "add-bias": ([a34, rng.normal(size=4)], lambda xs: tp.sum_all(tp.add(xs[0], xs[1]))),
        "sub": ([a34, b34], lambda xs: tp.sum_all(tp.sub(xs[0], xs[1]))),
        "mul": ([a34, b34], lambda xs: tp.sum_all(tp.mul(xs[0], xs[1]))),
        "div": ([a34, b34], lambda xs: tp.sum_all(tp.div(xs[0], xs[1]))),
        "neg": ([a34], lambda xs: tp.sum_all(tp.neg(xs[0]))),
        "scale": ([a34], lambda xs: tp.sum_all(tp.scale(xs[0], 1.7))),
        "add_scalar": ([a34], lambda xs: tp.sum_all(tp.add_scalar(xs[0], -0.3))),
        "matmul": ([a34, m42], lambda xs: tp.sum_all(tp.matmul(xs[0], xs[1]))),
        "transpose": ([a34], lambda xs: tp.sum_all(tp.transpose(xs[0]))),
        "relu": ([off_kink], lambda xs: tp.sum_all(tp.relu(xs[0]))),
        "exp": ([a34 * 0.3], lambda xs: tp.sum_all(tp.exp(xs[0]))),
        "log": ([pos], lambda xs: tp.sum_all(tp.log(xs[0]))),
        "sum_all": ([a34], lambda xs: tp.sum_all(xs[0])),
        "batch_mean": ([vec], lambda xs: tp.batch_mean(xs[0])),
        "squared_distance": (
            [a34, b34],
            lambda xs: tp.batch_mean(tp.squared_distance(xs[0], xs[1])),
        ),
        "row_dot": ([a34, b34], lambda xs: tp.batch_mean(tp.row_dot(xs[0], xs[1]))),
        "scale_rows": ([a34, rows], lambda xs: tp.sum_all(tp.scale_rows(xs[0], xs[1]))),
        "row_add": ([a34, rows], lambda xs: tp.sum_all(tp.row_add(xs[0], xs[1]))),
        "l2_normalize": (
            [b34],
            lambda xs: tp.sum_all(tp.mul(tp.l2_normalize(xs[0]), tp.constant(a34))),
        ),
        "softmax_cross_entropy": (
            [rng.normal(size=(3, 4))],
            lambda xs: tp.softmax_cross_entropy(xs[0], labels),
        ),
    }


def _fd_rel_error(arrays, build, step=1e-5):
    t = tp.Tape()
    leaves = [t.leaf(x) for x in arrays]
    grads = t.backward(build(leaves))

    def value(xs):
        inner = tp.Tape()
        return build([inner.leaf(x) for x in xs]).item()

    worst = 0.0
    for i, leaf in enumerate(leaves):
        analytic = grads[leaf]
        numeric = np.zeros_like(analytic)
        flat = numeric.reshape(-1)
        for j in range(flat.size):
            hi = [x.astype(np.float64).copy() for x in arrays]
            lo = [x.astype(np.float64).copy() for x in arrays]
            hi[i].reshape(-1)[j] += step
            lo[i].reshape(-1)[j] -= step
            flat[j] = (value(hi) - value(lo)) / (2 * step)
        denom = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1e-12)
        worst = max(worst, float(np.max(np.abs(analytic - numeric)) / denom))
    return worst


def test_c6_every_gradient_matches_finite_differences(capsys):
    worst_primitive = ("", 0.0)
    for name, (arrays, build) in _primitive_builders().items():
        err = _fd_rel_error(arrays, build)
        if err > worst_primitive[1]:
            worst_primitive = (name, err)
    primitives_ok = worst_primitive[1] <= 1e-4

    dataset = make_blobs(SyntheticBlobsSpec(per_class=20))
    rng = np.random.default_rng(0)
    worst_loss = ("", 0.0)
    for objective in ("byol", "byol_prime", "raft"):
        params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
        batch = sample_positive_batch(
            dataset, AugmentationSpec.symmetric(noise_sigma=0.2), 8, 0
        )
        err = finite_difference_gradchecks(
            [LossConfig(objective=objective, alpha=1.3, beta=0.8)], params, batch,
            step=1e-5,
        )[0]
        if err > worst_loss[1]:
            worst_loss = (objective, err)
    losses_ok = worst_loss[1] <= 1e-4
    ok = primitives_ok and losses_ok
    assert _verdict(
        capsys, "c6 gradient check",
        ok,
        f"worst primitive '{worst_primitive[0]}' rel err {worst_primitive[1]:.3e}; "
        f"worst objective '{worst_loss[0]}' rel err {worst_loss[1]:.3e} (tol 1e-4)",
    )


def test_c7_identical_runs_reproduce_bit_for_bit(capsys, tmp_path):
    cfg_path = CONFIG_DIR / "collapse_raft_lp.json"
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        rc = cli.main([
            "train", "--config", str(cfg_path), "--out-dir", str(out),
            "--steps", "200", "--checkpoint-every", "100", "--log-every", "50",
        ])
        assert rc == 0
    pairs = [
        ("metrics.jsonl", "metrics"),
        ("checkpoint_000100.ckpt", "mid checkpoint"),
        ("checkpoint_final.ckpt", "final checkpoint"),
    ]
    mismatches = [
        label
        for name, label in pairs
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
    ]
    ok = not mismatches
    assert _verdict(
        capsys, "c7 determinism",
        ok,
        "metrics and checkpoints byte-identical across reruns"
        if ok
        else f"byte mismatch in: {', '.join(mismatches)}",
    )


def test_c8_trick_gradient_equals_filtered_plain_gradient(capsys):
    worst = trick_identity_sweep(trials=100, seed=0)
    ok = worst <= 1e-10
    assert _verdict(
        capsys, "c8 trick identity",
        ok,
        f"worst deviation {worst:.3e} over 100 trials (tol 1e-10)",
    )
