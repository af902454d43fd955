"""Numerical certificates: bound margins, mirrored gradients, null spaces."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raftlab import verify
from raftlab.data import (
    AugmentationSpec, Dataset, PositiveBatch, SyntheticBlobsSpec, make_blobs,
    sample_positive_batch,
)
from raftlab.errors import ContractError
from raftlab.losses import LossConfig, objective_terms
from raftlab.model import ModelParams, NetworkSpec, forward_online, forward_target, init_params
from raftlab.train import train_run
from raftlab.verify import (
    CONTROL_MIN_DEVIATION,
    CONTROL_REQUIRED_FRACTION,
    CorrespondenceReport,
    DEFAULT_VERIFY_NETWORK,
    FD_STEP,
    LINEAR_PREDICTOR_MESSAGE,
    MARGIN_TOLERANCE,
    ONESTEP_MATCH_TOL,
    TRAJECTORY_REL_TOL,
    TRICK_IDENTITY_TOL,
    analytic_sylvester_cases,
    finite_difference_gradchecks,
    gradient_correspondence_check,
    gradient_correspondence_sweeps,
    margin_from_losses,
    random_model_state,
    random_state_and_batch,
    random_states_and_batches,
    state_losses,
    states_per_chunk,
    sylvester_null_space,
    trajectory_correspondence_experiment,
    trick_gradient_identity_check,
    trick_identity_sweep,
    upper_bound_sweep,
)


ROOT = Path(__file__).resolve().parent.parent

# Wider than the default network on every layer, with two hidden layers.
WIDE_NETWORK = NetworkSpec(input_dim=8, backbone_widths=(40, 24), representation_dim=20,
                           projection_dim=12, predictor="linear")


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
            p1 = forward_online(params, batch.x1)[1]
            p2 = forward_online(params, batch.x2)[1]
            parts = objective_terms(LossConfig(objective="byol"), p1, p2,
                                    forward_target(params, batch.x1),
                                    forward_target(params, batch.x2))
            per_view = (parts.align.item(), parts.cross.item(), parts.total.item())
            assert state_losses(params, batch) == per_view


def state_of(stack: ModelParams, batch: PositiveBatch, k: int):
    """State k of a stack and its own batch, as the unstacked call takes them."""
    return ModelParams(stack.spec, stack.flat[k]), PositiveBatch(
        x1=batch.x1[k], x2=batch.x2[k], labels=batch.labels)


def upper_bound_by_loop(trials, seed, network=DEFAULT_VERIFY_NETWORK, batch_size=16):
    """(min margin, worst trial, alpha, beta) from one state at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 21]))
    best = (float("inf"), 0, verify.WEIGHT_GRID[0], verify.WEIGHT_GRID[0])
    for trial in range(trials):
        losses = state_losses(*random_state_and_batch(network, rng, batch_size))
        for alpha in verify.WEIGHT_GRID:
            for beta in verify.WEIGHT_GRID:
                margin = margin_from_losses(alpha, beta, losses)
                if margin < best[0]:
                    best = (margin, trial, alpha, beta)
    return best


def law_streams(values) -> tuple[list[str], list[str], list[str]]:
    """The parameter names of the weight law's three streams, in draw order:
    online weights, teacher weights, then every bias."""
    teacher = [n for n in values if n.startswith("target.")]
    return ([n for n in values if n.endswith(".w") and n not in teacher],
            [n for n in teacher if n.endswith(".w")],
            [n for n in values if n.endswith(".b")])


def seeded_stream(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def assert_layer_by_layer(values, names, stream: np.random.Generator) -> None:
    """Each named array holds its own stream.uniform(-b, b) call, b =
    1/sqrt(fan_in) of its layer, drawn in the order of `names`."""
    for name in names:
        arr = values[name]
        bound = 1.0 / math.sqrt(values[name[:-2] + ".w"].shape[0])
        assert arr.tobytes() == stream.uniform(-bound, bound, arr.shape).tobytes(), name


class TestStackedStates:
    CHUNK = states_per_chunk(DEFAULT_VERIFY_NETWORK, 32)

    @pytest.mark.parametrize("k", [1, CHUNK - 1, CHUNK, CHUNK + 1, 32])
    def test_a_stack_gives_each_states_losses_bit_for_bit(self, k):
        # k = 32 is the stacked row count (2 views of 16): a (k, m) bias
        # added without its row axis would broadcast over rows unnoticed.
        stack, batch = random_states_and_batches(DEFAULT_VERIFY_NETWORK,
                                                 np.random.default_rng(11), k, 16)
        stacked = state_losses(stack, batch)
        assert all(v.shape == (k,) for v in stacked)
        for i in range(k):
            assert tuple(float(v[i]) for v in stacked) == state_losses(*state_of(stack, batch, i))

    def test_a_stack_on_an_identity_predictor_network(self):
        spec = NetworkSpec(input_dim=8, backbone_widths=(16,), representation_dim=12,
                           projection_dim=8, predictor="identity")
        stack, batch = random_states_and_batches(spec, np.random.default_rng(12), 9, 16)
        stacked = state_losses(stack, batch)
        for i in range(9):
            assert tuple(float(v[i]) for v in stacked) == state_losses(*state_of(stack, batch, i))

    @pytest.mark.parametrize("network", [DEFAULT_VERIFY_NETWORK, WIDE_NETWORK],
                             ids=["default", "wide"])
    def test_stacked_draws_equal_the_layer_by_layer_uniform_calls(self, network):
        # The reference draws every matrix with its own Generator.uniform
        # call, layer by layer from each state's two seeded streams, and
        # every bias with its own uniform call from the main stream.
        stack, batch = random_states_and_batches(network, np.random.default_rng(14), 4, 3)
        rng = np.random.default_rng(14)
        for i in range(4):
            values = ModelParams(network, stack.flat[i]).values
            seeds = [int(v) for v in rng.integers(0, 2**63, size=2)]
            for names, seed in zip(law_streams(values)[:2], seeds):
                assert_layer_by_layer(values, names, seeded_stream(seed))
            assert_layer_by_layer(values, law_streams(values)[2], rng)
            for x in (batch.x1[i], batch.x2[i]):
                assert x.tobytes() == rng.normal(size=x.shape).tobytes()

    @pytest.mark.parametrize("network", [DEFAULT_VERIFY_NETWORK, WIDE_NETWORK],
                             ids=["default", "wide"])
    def test_init_params_equals_the_layer_by_layer_uniform_calls(self, network):
        params = init_params(network, 7)
        online, _, biases = law_streams(params.values)
        assert_layer_by_layer(params.values, online, seeded_stream(7))
        assert not any(params.values[name].any() for name in biases)
        assert params.teacher.tobytes() == params.encoder.tobytes()

    @pytest.mark.parametrize("network", [DEFAULT_VERIFY_NETWORK, WIDE_NETWORK],
                             ids=["default", "wide"])
    def test_the_trajectory_starts_from_the_layer_by_layer_uniform_calls(
            self, network, monkeypatch):
        # The attract run's starting state: init_params' weights at the seed,
        # the biases of the law's bias stream from [seed, 24] (online first,
        # so the teacher's draws come last) and the teacher a copy of the
        # encoder.
        class Started(Exception):
            pass

        starts = []

        def capture(cfg, dataset, initial_params, step_callback):
            starts.append(initial_params.clone())
            raise Started

        monkeypatch.setattr(verify, "train_run", capture)
        with pytest.raises(Started):
            trajectory_correspondence_experiment(network=network, steps=1, seed=5)
        (params,) = starts
        online, _, biases = law_streams(params.values)
        assert_layer_by_layer(params.values, online, seeded_stream(5))
        online_biases = [n for n in biases if not n.startswith("target.")]
        assert_layer_by_layer(params.values, online_biases, seeded_stream([5, 24]))
        assert params.teacher.tobytes() == params.encoder.tobytes()

    @pytest.mark.parametrize("elements", [1, 6 * 1280, verify.STACK_ELEMENTS])
    def test_the_sweep_finds_what_a_loop_over_states_finds(self, monkeypatch, elements):
        # 1 element gives one state a chunk; 6 * 1280 gives chunks of 6,
        # the last one partial.
        monkeypatch.setattr(verify, "STACK_ELEMENTS", elements)
        report = upper_bound_sweep(trials=40, seed=3)
        assert (report.min_margin, report.worst_trial, report.worst_alpha,
                report.worst_beta) == upper_bound_by_loop(40, 3)

    def test_memory_stays_at_one_chunk_whatever_the_trial_count(self):
        chunk = self.CHUNK
        peaks = []
        for trials in (chunk, 4 * chunk):
            upper_bound_sweep(trials=2, seed=0)  # warm the caches first
            tracemalloc.start()
            try:
                upper_bound_sweep(trials=trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one, four = peaks
        assert four <= 1.1 * one

    def test_a_wide_network_gets_fewer_states_a_chunk(self):
        assert 1 <= states_per_chunk(WIDE_NETWORK, 32) < self.CHUNK
        assert states_per_chunk(NetworkSpec(input_dim=8, backbone_widths=(4096,)), 32) == 1


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
        assert both == [gradient_correspondence_sweeps([on], trials=4, seed=3)[0]
                        for on in (True, False)]

    def test_a_sweep_runs_the_teacher_once_per_state_and_view(self, monkeypatch):
        # Mirroring the predictor leaves the teacher as it is, so both forms
        # under both filter settings share one teacher forward of each view.
        teacher_calls, inner = [], verify.encode

        def counting(*args, teacher=False, **kwargs):
            teacher_calls.append(teacher)
            return inner(*args, teacher=teacher, **kwargs)

        monkeypatch.setattr(verify, "encode", counting)
        verify.gradient_correspondence_sweeps((True, False), trials=3, seed=0)
        assert sum(teacher_calls) == 2 * 3

    def test_sweep_collects_per_trial_deviations(self):
        devs = gradient_correspondence_sweeps([True], trials=10, seed=0)[0]
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
        err = finite_difference_gradchecks([cfg], params, batch, max_coords=160, seed=0)[0]
        assert err <= 1e-4

    def test_shared_sweep_gives_each_objective_its_own_result(self, verify_blobs):
        rng = np.random.default_rng(5)
        params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
        batch = random_batch(rng, verify_blobs)
        cfgs = [LossConfig(objective=o, alpha=1.3, beta=0.8)
                for o in ("byol", "byol_prime", "raft")]
        shared = finite_difference_gradchecks(cfgs, params, batch, max_coords=60, seed=3)
        alone = [finite_difference_gradchecks([cfg], params, batch, max_coords=60, seed=3)[0]
                 for cfg in cfgs]
        assert shared == alone

    @pytest.mark.parametrize("objectives", [("raft",), ("byol", "byol_prime", "raft")])
    def test_one_stacked_forward_per_chunk_of_bumps(self, objectives, verify_blobs, monkeypatch):
        # Two forwards (one per view) per objective for the analytic
        # gradient, then one forward of both views stacked per chunk of
        # +-step bumps, each bump a state of the stack, shared by every
        # objective. Chunks of 3 states take one coordinate's two bumps.
        calls = []

        def counting(params, x, leaves=None):
            calls.append((params.flat.shape[:-1], len(x)))
            return forward_online(params, x, leaves=leaves)

        monkeypatch.setattr(verify, "forward_online", counting)
        rng = np.random.default_rng(6)
        params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
        batch = random_batch(rng, verify_blobs)
        rows = 2 * len(batch.x1)
        coords = 7
        for elements, bumps in ((verify.STACK_ELEMENTS, 2 * coords), (3 * 1280, 2)):
            calls.clear()
            monkeypatch.setattr(verify, "STACK_ELEMENTS", elements)
            finite_difference_gradchecks([LossConfig(objective=o) for o in objectives],
                                         params, batch, max_coords=coords, seed=0)
            stacked = -(-2 * coords // bumps)
            assert len(calls) == 2 * len(objectives) + stacked
            assert calls[:2 * len(objectives)] == [((), len(batch.x1))] * (2 * len(objectives))
            assert calls[2 * len(objectives):] == [((bumps,), rows)] * stacked

    def test_each_stacked_row_bumps_only_its_own_coordinate(self, verify_blobs, monkeypatch):
        stacks = []

        def keeping(params, x, leaves=None):
            if leaves is None:
                stacks.append(params.flat.copy())
            return forward_online(params, x, leaves=leaves)

        monkeypatch.setattr(verify, "forward_online", keeping)
        monkeypatch.setattr(verify, "STACK_ELEMENTS", 8 * 1280)  # 4 coordinates a chunk
        rng = np.random.default_rng(7)
        params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
        batch = random_batch(rng, verify_blobs)
        finite_difference_gradchecks([LossConfig(objective="raft")], params, batch,
                                     max_coords=10, seed=2)
        coords = np.random.default_rng(np.random.SeedSequence([2, 31])).choice(
            params.trainable.size, size=10, replace=False)
        assert [len(s) for s in stacks] == [8, 8, 4]
        base = params.flat
        swept = []
        for stack in stacks:
            c = len(stack) // 2
            bumped = []
            for r, row in enumerate(stack):
                (where,) = np.nonzero(row != base)
                assert where.size == 1
                i = int(where[0])
                assert row[i] == (base[i] + FD_STEP if r < c else base[i] - FD_STEP)
                bumped.append(i)
            assert bumped[:c] == bumped[c:]
            swept += bumped[:c]
        assert swept == coords.tolist()

    def test_the_sweep_finds_what_a_loop_over_bumps_finds(self, verify_blobs, monkeypatch):
        rng = np.random.default_rng(8)
        params = random_model_state(DEFAULT_VERIFY_NETWORK, rng)
        batch = random_batch(rng, verify_blobs)
        cfgs = [LossConfig(objective=o) for o in ("byol", "byol_prime", "raft")]
        zbar = [forward_target(params, x) for x in (batch.x1, batch.x2)]
        analytic = []
        for cfg in cfgs:
            tape = verify.T.Tape()
            leaves = verify.bind_params(tape, params)
            p1 = forward_online(params, batch.x1, leaves=leaves)[1]
            p2 = forward_online(params, batch.x2, leaves=leaves)[1]
            grads = tape.backward(objective_terms(cfg, p1, p2, *zbar).total)
            analytic.append(np.concatenate([grads[leaf].ravel() for leaf in leaves.values()]))
        worst = [0.0] * len(cfgs)
        probe = params.clone()
        x = np.concatenate((batch.x1, batch.x2))
        n = len(batch.x1)
        for i in range(params.trainable.size):
            totals = []
            for bumped in (params.flat[i] + FD_STEP, params.flat[i] - FD_STEP):
                probe.flat[i] = bumped
                p = forward_online(probe, x)[1]
                totals.append([objective_terms(cfg, verify.T.row_slice(p, 0, n),
                                               verify.T.row_slice(p, n, 2 * n), *zbar)
                               .total.item() for cfg in cfgs])
            probe.flat[i] = params.flat[i]
            for j in range(len(cfgs)):
                fd = (totals[0][j] - totals[1][j]) / (2.0 * FD_STEP)
                an = float(analytic[j][i])
                worst[j] = max(worst[j], abs(an - fd) / max(abs(an), abs(fd), 1e-6))
        for elements in (1, 10 * 1280, verify.STACK_ELEMENTS):
            monkeypatch.setattr(verify, "STACK_ELEMENTS", elements)
            assert finite_difference_gradchecks(cfgs, params, batch) == worst


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


def _outputs_at_each_blas_thread_count(tmp_path, commands) -> list[dict[str, bytes]]:
    """Run each CLI command, `commands(out)` for an output root, in a
    subprocess at OPENBLAS_NUM_THREADS=1 and unset; the bytes of every file
    written but the manifests (paths and wall times), per thread count."""
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        out = tmp_path / f"threads-{threads}"
        for args in commands(out):
            subprocess.run([sys.executable, "-m", "raftlab.cli", *args], env=env, check=True,
                           capture_output=True)
        outputs.append({p.relative_to(out).as_posix(): p.read_bytes()
                        for p in sorted(out.rglob("*"))
                        if p.is_file() and p.name != "manifest.json"})
    return outputs


def test_verify_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 600 trials are several chunks of stacked states; correspondence runs
    # the teacher forward beside tracked tapes.
    assert 600 > 2 * states_per_chunk(DEFAULT_VERIFY_NETWORK, 32)
    checks = (("upper-bound", "--trials", "600"), ("correspondence",), ("sylvester",),
              ("gradcheck",))
    one, default = _outputs_at_each_blas_thread_count(
        tmp_path, lambda out: [["verify", *check, "--out-dir", str(out / check[0])]
                               for check in checks])
    assert {name.split("/")[0] for name in one} == {check[0] for check in checks}
    assert one == default


def test_eval_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    config = str(ROOT / "configs" / "collapse_raft_lp.json")

    def commands(out):
        return [["train", "--config", config, "--steps", "100", "--out-dir", str(out / "train")],
                ["eval", "--config", config, "--checkpoint",
                 str(out / "train" / "checkpoint_final.ckpt"), "--out-dir", str(out / "eval")]]

    one, default = _outputs_at_each_blas_thread_count(tmp_path, commands)
    assert "eval/eval_report.json" in one
    assert one == default


def test_correspondence_draws_each_one_step_state_once(verify_blobs, monkeypatch):
    drawn, inner = [], verify.random_state_and_batch

    def counting(*args):
        drawn.append(args)
        return inner(*args)

    monkeypatch.setattr(verify, "random_state_and_batch", counting)
    verify.certify_correspondence(seed=0, network=DEFAULT_VERIFY_NETWORK, dataset=verify_blobs,
                                  trials=3, steps=2)
    assert len(drawn) == 3


# The paper's certified statements at random shapes that the gate never
# uses: input width 1-16, 0-2 hidden layers of width 2-32, representation
# and projection widths 2-32, batches of 2-16 rows. A fixed, derandomized example set keeps the
# cost bounded and the outcome the same from run to run.
def network_specs(predictors=("linear", "identity")):
    return st.builds(
        NetworkSpec,
        input_dim=st.integers(1, 16),
        backbone_widths=st.lists(st.integers(2, 32), max_size=2).map(tuple),
        representation_dim=st.integers(2, 32),
        projection_dim=st.integers(2, 32),
        predictor=st.sampled_from(predictors),
    )


seeds_32 = st.integers(0, 2**32 - 1)
batch_sizes = st.integers(2, 16)


class TestStatementsOnRandomNetworks:
    @settings(max_examples=50, derandomize=True)
    @given(network=network_specs(), seed=seeds_32, batch_size=batch_sizes)
    def test_the_upper_bound_holds(self, network, seed, batch_size):
        report = upper_bound_sweep(trials=20, seed=seed, network=network, batch_size=batch_size)
        assert report.min_margin >= -MARGIN_TOLERANCE

    @settings(max_examples=40, derandomize=True)
    @given(network=network_specs(("linear",)), seed=seeds_32, batch_size=batch_sizes)
    def test_one_step_gradients_mirror_only_with_the_filter(self, network, seed, batch_size):
        trials = 4
        on, off = gradient_correspondence_sweeps((True, False), trials, seed, network=network,
                                                 batch_size=batch_size)
        assert max(max(d.theta_dev, d.w_dev) for d in on) <= ONESTEP_MATCH_TOL
        hits = sum(max(d.theta_dev, d.w_dev) > CONTROL_MIN_DEVIATION for d in off)
        assert hits >= math.ceil(CONTROL_REQUIRED_FRACTION * trials)

    @settings(max_examples=25, derandomize=True)
    @given(network=network_specs(("linear",)), seed=seeds_32, rows=batch_sizes,
           steps=st.integers(20, 60), optimizer=st.sampled_from(["sgd", "adam"]))
    def test_trajectories_mirror_only_from_a_mirrored_predictor(
        self, network, seed, rows, steps, optimizer
    ):
        # The experiment trains on the whole dataset each step.
        rng = np.random.default_rng(seed)
        dataset = Dataset(rng.normal(size=(rows, network.input_dim)), np.zeros(rows))

        def run():
            report = trajectory_correspondence_experiment(
                network, steps, seed, optimizer=optimizer, dataset=dataset)
            return (report.max_theta_dev / report.theta_scale,
                    report.max_w_dev / report.w_scale)

        assert max(run()) <= TRAJECTORY_REL_TOL
        # Negative control: both runs start from the same predictor, so the
        # encoders' trajectories part.
        with mock.patch.object(verify, "mirror_predictor", ModelParams.clone):
            assert run()[0] > TRAJECTORY_REL_TOL
