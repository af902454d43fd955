"""Numerical certificates: bound margins, mirrored gradients, null spaces."""

from __future__ import annotations

import numpy as np
import pytest

from raftlab import verify
from raftlab.data import AugmentationSpec, SyntheticBlobsSpec, make_blobs, sample_positive_batch
from raftlab.errors import ContractError
from raftlab.losses import LossConfig, objective_terms
from raftlab.model import NetworkSpec, forward_online, forward_target, init_params
from raftlab.train import train_run
from raftlab.verify import (
    CONTROL_MIN_DEVIATION,
    CorrespondenceReport,
    DEFAULT_VERIFY_NETWORK,
    LINEAR_PREDICTOR_MESSAGE,
    MARGIN_TOLERANCE,
    ONESTEP_MATCH_TOL,
    TRICK_IDENTITY_TOL,
    analytic_sylvester_cases,
    finite_difference_gradcheck,
    finite_difference_gradchecks,
    gradient_correspondence_check,
    gradient_correspondence_sweep,
    margin_from_losses,
    random_model_state,
    random_state_and_batch,
    state_losses,
    sylvester_null_space,
    trajectory_correspondence_experiment,
    trick_gradient_identity_check,
    trick_identity_sweep,
    upper_bound_sweep,
)


def random_batch(rng, dataset, batch_size=8):
    aug = AugmentationSpec.symmetric(noise_sigma=0.2)
    return sample_positive_batch(
        dataset, AugmentationSpec(view1=aug.view1, view2=aug.view2, seed=int(rng.integers(1 << 30))),
        batch_size, 0,
    )


@pytest.fixture(scope="module")
def verify_blobs():
    return make_blobs(SyntheticBlobsSpec(per_class=20))


def test_random_state_weights_are_init_params_of_its_two_seeds():
    # The online weights are init_params' at the first seed and the
    # teacher's those that init_params copies into the teacher at the second.
    spec = DEFAULT_VERIFY_NETWORK
    state = random_model_state(spec, np.random.default_rng(5))
    s1, s2 = (int(v) for v in np.random.default_rng(5).integers(0, 2**63, size=2))
    online, teacher = init_params(spec, s1), init_params(spec, s2)
    for name, arr in state.values.items():
        if name.endswith(".w"):
            source = teacher if name.startswith("target.") else online
            assert arr.tobytes() == source.values[name].tobytes(), name


class TestUpperBound:
    def test_margin_formula_on_known_values(self):
        margin = margin_from_losses(1.0, 1.0, (0.0, 2.0, 2.0))
        assert margin == pytest.approx(2.0)

    def test_margin_vanishes_at_collapse(self):
        assert margin_from_losses(1.0, 1.0, (0.0, 0.0, 0.0)) == pytest.approx(0.0)

    def test_random_states_never_undershoot(self, verify_blobs):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
            batch = random_batch(rng, verify_blobs)
            for alpha in (0.5, 1.0, 2.0):
                for beta in (0.5, 2.0):
                    margin = margin_from_losses(alpha, beta, state_losses(params, batch))
                    assert margin >= -MARGIN_TOLERANCE

    def test_sweep_reports_worst_case(self):
        report = upper_bound_sweep(trials=50, seed=0)
        assert report.trials == 50
        assert report.min_margin >= -MARGIN_TOLERANCE
        assert report.worst_alpha in report.grid
        assert report.worst_beta in report.grid
        assert 0 <= report.worst_trial < 50

    def test_state_losses_are_consistent(self, verify_blobs):
        rng = np.random.default_rng(1)
        params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
        batch = random_batch(rng, verify_blobs)
        losses = state_losses(params, batch)
        align, cross, byol = losses
        assert align >= 0.0
        assert cross >= 0.0
        assert byol >= 0.0
        margin = margin_from_losses(1.0, 1.0, losses)
        assert margin == pytest.approx(margin_from_losses(1.0, 1.0, state_losses(params, batch)))

    def test_stacked_views_give_the_per_view_losses_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            params, batch = random_state_and_batch(DEFAULT_VERIFY_NETWORK, rng, 16)
            _, _, p1 = forward_online(params, batch.x1)
            _, _, p2 = forward_online(params, batch.x2)
            parts = objective_terms(LossConfig(objective="byol"), p1, p2,
                                    forward_target(params, batch.x1),
                                    forward_target(params, batch.x2))
            per_view = (parts.align.item(), parts.cross.item(), parts.total.item())
            assert state_losses(params, batch) == per_view


class TestMirroredGradients:
    def test_filtered_gradients_cancel(self, verify_blobs):
        rng = np.random.default_rng(2)
        params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
        batch = random_batch(rng, verify_blobs)
        dev = gradient_correspondence_check(params, batch, apply_filter=True)
        assert dev.filter_on
        assert dev.theta_dev <= ONESTEP_MATCH_TOL
        assert dev.w_dev <= ONESTEP_MATCH_TOL

    def test_unfiltered_gradients_differ(self, verify_blobs):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(10):
            params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
            batch = random_batch(rng, verify_blobs)
            dev = gradient_correspondence_check(params, batch, apply_filter=False)
            if max(dev.theta_dev, dev.w_dev) > CONTROL_MIN_DEVIATION:
                hits += 1
        assert hits >= 9

    def test_sweeps_over_both_filter_settings_give_each_sweep(self):
        both = verify.gradient_correspondence_sweeps((True, False), trials=4, seed=3)
        assert both == [gradient_correspondence_sweep(trials=4, seed=3, apply_filter=on)
                        for on in (True, False)]

    def test_sweep_collects_per_trial_deviations(self):
        devs = gradient_correspondence_sweep(trials=10, seed=0, apply_filter=True)
        assert len(devs) == 10
        assert all(d.theta_dev <= ONESTEP_MATCH_TOL for d in devs)

    def test_trajectories_stay_mirrored(self):
        report = trajectory_correspondence_experiment(steps=50, seed=0, optimizer="sgd")
        assert report.steps == 50
        assert max(report.theta_dev) <= 1e-6 * report.theta_scale
        assert max(report.w_dev) <= 1e-6 * report.w_scale
        assert max(report.grad_theta_dev) <= 1e-6

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_report_equals_the_kept_snapshot_reference(self, monkeypatch, optimizer):
        # Reference: the experiment's own two runs, with callbacks that also
        # keep a copy of every parameter snapshot and gradient dict, compared
        # name by name after both runs have finished.
        runs = []

        def mirror_deviations(a, b):
            theta = max(float(np.abs(a[n] - b[n]).max()) for n in a if n != "predictor.w")
            return theta, float(np.abs(a["predictor.w"] + b["predictor.w"]).max())

        def keeping(cfg, dataset, initial_params, step_callback):
            snaps, grads = [initial_params.values], []

            def record(step, params, step_grads):
                snaps.append({n: v.copy() for n, v in params.values.items()})
                grads.append({n: g.copy() for n, g in step_grads.items()})
                step_callback(step, params, step_grads)

            runs.append((cfg.loss.objective, snaps, grads))
            return train_run(cfg, dataset, initial_params=initial_params, step_callback=record)

        monkeypatch.setattr(verify, "train_run", keeping)
        report = trajectory_correspondence_experiment(steps=20, seed=0, optimizer=optimizer)
        (obj_a, snaps_a, grads_a), (obj_r, snaps_r, grads_r) = runs
        assert (obj_a, obj_r) == ("byol_prime", "raft")
        devs = [mirror_deviations(a, r) for a, r in zip(snaps_a, snaps_r)]
        grad_devs = [mirror_deviations(a, r) for a, r in zip(grads_a, grads_r)]
        assert report == CorrespondenceReport(
            steps=20,
            optimizer=optimizer,
            learning_rate=1e-2,
            ema_tau=0.996,
            theta_dev=tuple(d[0] for d in devs),
            w_dev=tuple(d[1] for d in devs),
            grad_theta_dev=tuple(d[0] for d in grad_devs),
            grad_w_dev=tuple(d[1] for d in grad_devs),
            theta_scale=max(
                float(np.abs(v[n]).max()) for v in snaps_a for n in v if n != "predictor.w"
            ),
            w_scale=max(float(np.abs(v["predictor.w"]).max()) for v in snaps_a),
        )
        assert len(report.theta_dev) == 21 and len(report.grad_theta_dev) == 20

    def test_trajectories_stay_mirrored_with_moving_teacher(self):
        report = trajectory_correspondence_experiment(
            steps=30, seed=1, optimizer="sgd", ema_tau=0.99
        )
        assert max(report.theta_dev) <= 1e-6 * report.theta_scale

    def test_nonlinear_predictor_is_rejected(self):
        net = NetworkSpec(
            input_dim=8, backbone_widths=(16,), representation_dim=12,
            projection_dim=8, predictor="identity",
        )
        with pytest.raises(ContractError, match="predictor must be linear"):
            trajectory_correspondence_experiment(network=net, steps=5, seed=0)

    def test_rejection_message_is_stable(self):
        assert "predictor must be linear" in LINEAR_PREDICTOR_MESSAGE


class TestNullSpaces:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_analytic_cases_have_exact_dimensions(self, n):
        cases = analytic_sylvester_cases(n)
        names = [c[0] for c in cases]
        assert names == ["identity", "doubled", "partial-overlap"]
        for name, w, a, b, expected in cases:
            report = sylvester_null_space(w, a, b)
            assert report.null_dim == expected, name
            assert report.nontrivial == (expected > 0)

    def test_identity_case_spans_everything(self):
        rep = sylvester_null_space(np.eye(3), np.eye(3), np.eye(3))
        assert rep.null_dim == 9
        assert rep.system_dim == 9

    def test_scaled_pair_has_trivial_null_space(self):
        rep = sylvester_null_space(np.eye(2), 2.0 * np.eye(2), np.eye(2))
        assert rep.null_dim == 0
        assert not rep.nontrivial

    def test_dimension_cap_is_enforced(self):
        n = 13
        with pytest.raises(ContractError):
            sylvester_null_space(np.eye(n), np.eye(n), np.eye(n))


class TestFiniteDifferences:
    @pytest.mark.parametrize("objective", ["byol", "byol_prime", "raft"])
    def test_objective_gradients_match_finite_differences(self, objective, verify_blobs):
        rng = np.random.default_rng(4)
        params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
        batch = random_batch(rng, verify_blobs)
        cfg = LossConfig(objective=objective, alpha=1.3, beta=0.8)
        err = finite_difference_gradcheck(cfg, params, batch, max_coords=160, seed=0)
        assert err <= 1e-4

    def test_shared_sweep_gives_each_objective_its_own_result(self, verify_blobs):
        rng = np.random.default_rng(5)
        params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
        batch = random_batch(rng, verify_blobs)
        cfgs = [LossConfig(objective=o, alpha=1.3, beta=0.8)
                for o in ("byol", "byol_prime", "raft")]
        shared = finite_difference_gradchecks(cfgs, params, batch, max_coords=60, seed=3)
        alone = [finite_difference_gradcheck(cfg, params, batch, max_coords=60, seed=3)
                 for cfg in cfgs]
        assert shared == alone

    @pytest.mark.parametrize("objectives", [("raft",), ("byol", "byol_prime", "raft")])
    def test_one_stacked_forward_per_bump(self, objectives, verify_blobs, monkeypatch):
        # Two forwards (one per view) per objective for the analytic
        # gradient, then one forward of both views per +-step bump, shared
        # by every objective.
        calls = []

        def counting(params, x, leaves=None):
            calls.append(len(x))
            return forward_online(params, x, leaves=leaves)

        monkeypatch.setattr(verify, "forward_online", counting)
        rng = np.random.default_rng(6)
        params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
        batch = random_batch(rng, verify_blobs)
        coords = 7
        finite_difference_gradchecks([LossConfig(objective=o) for o in objectives],
                                     params, batch, max_coords=coords, seed=0)
        assert len(calls) == 2 * coords + 2 * len(objectives)
        assert calls[-2 * coords:] == [2 * len(batch.x1)] * (2 * coords)


class TestTangentialTrickIdentity:
    def test_matched_rows_give_tangential_gradient(self):
        rng = np.random.default_rng(6)
        p = rng.normal(size=(4, 6))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        assert trick_gradient_identity_check(p, p) <= TRICK_IDENTITY_TOL

    def test_random_rows_give_identical_gradients(self):
        assert trick_identity_sweep(trials=20, seed=0) <= TRICK_IDENTITY_TOL


class TestRandomStates:
    def test_random_state_has_live_biases(self):
        rng = np.random.default_rng(7)
        params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
        assert np.any(params.values["backbone.0.b"] != 0.0)

    def test_random_state_matches_requested_spec(self):
        rng = np.random.default_rng(8)
        params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
        assert params.spec.projection_dim == DEFAULT_VERIFY_NETWORK.projection_dim


class TestCertificationRecords:
    @pytest.fixture(scope="class")
    def certifications(self, verify_blobs):
        net = DEFAULT_VERIFY_NETWORK
        return [
            verify.certify_upper_bound(seed=0, network=net, trials=5, batch_size=16),
            verify.certify_correspondence(
                seed=0, network=net, dataset=verify_blobs, trials=3, steps=3
            ),
            verify.certify_sylvester(seed=0, dataset=verify_blobs, dim=3, samples=200),
            verify.certify_gradcheck(seed=0, network=net, max_coords=20,
                                     batch_size=4, trials=3),
        ]

    def test_every_detail_is_built_from_its_value(self, certifications):
        checks = [check for cert in certifications for check in cert.checks]
        assert len(checks) == 12
        for check in checks:
            if isinstance(check.value, (int, np.integer)):
                shown = str(int(check.value))
            else:
                shown = f"{check.value:.3e}"
            assert shown in check.detail, check.name

    def test_the_three_gradchecks_share_one_sweep_time(self, certifications):
        seconds = {c.seconds for c in certifications[-1].checks if c.name.startswith("gradcheck")}
        assert len(seconds) == 1

    def test_the_two_one_step_checks_share_one_sweep_time(self, certifications):
        on, off, _ = certifications[1].checks
        assert on.seconds == off.seconds


def test_correspondence_draws_each_one_step_state_once(verify_blobs, monkeypatch):
    drawn, inner = [], verify.random_state_and_batch

    def counting(*args):
        drawn.append(args)
        return inner(*args)

    monkeypatch.setattr(verify, "random_state_and_batch", counting)
    verify.certify_correspondence(seed=0, network=DEFAULT_VERIFY_NETWORK, dataset=verify_blobs,
                                  trials=3, steps=2)
    assert len(drawn) == 3
