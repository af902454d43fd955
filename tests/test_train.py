"""Training loop: config checks, determinism, logging, checkpoints, divergence."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from raftlab import cli, train
from raftlab import tape as T
from raftlab.data import (
    AugmentationSpec,
    Dataset,
    SyntheticBlobsSpec,
    make_blobs,
    sample_positive_batch,
)
from raftlab.errors import (
    ConfigError,
    DegenerateRepresentationError,
    TrainingDivergedError,
)
from raftlab.losses import LossConfig, objective_terms, uniform_loss
from raftlab.model import (
    NetworkSpec,
    bind_params,
    ema_update,
    forward_online,
    forward_target,
    init_params,
    load_checkpoint,
    split_views,
    stack_views,
)
from raftlab.optim import AdamState, adam_step
from raftlab.train import (
    DEFAULT_EMA_TAU,
    DEFAULT_LEARNING_RATE,
    OPTIMIZERS,
    MetricsRecord,
    TrainConfig,
    derived_seeds,
    train_run,
)

ROOT = Path(__file__).resolve().parent.parent
PINNED_CONFIGS = sorted((ROOT / "configs").glob("*.json"))

SMALL_NET = NetworkSpec(
    input_dim=8,
    backbone_widths=(12,),
    representation_dim=10,
    projection_dim=6,
    predictor="linear",
)


def small_config(**overrides):
    base = dict(
        network=SMALL_NET,
        loss=LossConfig(objective="byol_prime", alpha=1.0, beta=1.0),
        augmentation=AugmentationSpec.symmetric(noise_sigma=0.2),
        steps=12,
        batch_size=16,
        optimizer="adam",
        learning_rate=3e-4,
        ema_tau=0.996,
        master_seed=0,
        log_every=4,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestSchedules:
    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ConfigError):
            small_config(learning_rate=-1e-3)

    def test_ema_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError):
            small_config(ema_tau=1.5)

    @pytest.mark.parametrize("field", ["learning_rate", "ema_tau"])
    def test_nan_is_rejected_naming_the_field(self, field):
        with pytest.raises(ConfigError, match=rf"^{field}: must "):
            small_config(**{field: float("nan")})

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ConfigError):
            small_config(optimizer="lbfgs")

    def test_default_constants(self):
        assert DEFAULT_LEARNING_RATE == 3e-4
        assert DEFAULT_EMA_TAU == 0.996
        assert OPTIMIZERS == ("sgd", "adam")


class TestSeedDerivation:
    def test_master_seed_fans_out_to_two_streams(self):
        init_a, aug_a = derived_seeds(7)
        init_b, aug_b = derived_seeds(7)
        assert (init_a, aug_a) == (init_b, aug_b)
        assert init_a != aug_a

    def test_different_masters_differ(self):
        assert derived_seeds(1) != derived_seeds(2)


class TestLoopBehavior:
    def test_single_step_runs_and_logs_once(self, small_blobs):
        cfg = small_config(steps=1, log_every=1)
        params, records = train_run(cfg, small_blobs)
        assert [r.step for r in records] == [1]
        assert isinstance(records[0], MetricsRecord)

    def test_zero_learning_rate_freezes_all_parameters(self, small_blobs):
        cfg = small_config(learning_rate=0.0, steps=6)
        init_seed, _ = derived_seeds(cfg.master_seed)
        reference = init_params(SMALL_NET, init_seed)
        params, _ = train_run(cfg, small_blobs)
        for name in reference.trainable_names():
            np.testing.assert_array_equal(params.values[name], reference.values[name])
        for name in (n for n in reference.values if n.startswith("target.")):
            np.testing.assert_allclose(
                params.values[name], reference.values[name], atol=1e-12
            )

    def test_same_config_and_seed_reproduce_bitwise(self, small_blobs):
        cfg = small_config(steps=8)
        pa, ra = train_run(cfg, small_blobs)
        pb, rb = train_run(cfg, small_blobs)
        for name in pa.values:
            assert pa.values[name].tobytes() == pb.values[name].tobytes()
        assert [r.loss_total for r in ra] == [r.loss_total for r in rb]

    def test_log_steps_are_multiples_of_the_interval(self, small_blobs):
        cfg = small_config(steps=12, log_every=4)
        _, records = train_run(cfg, small_blobs)
        assert [r.step for r in records] == [4, 8, 12]

    def test_records_carry_epoch_and_geometry(self, small_blobs):
        _, records = train_run(small_config(steps=4, log_every=4), small_blobs)
        rec = records[0]
        assert rec.epoch >= 0
        assert rec.loss_align >= 0.0
        assert rec.uniformity <= 0.0
        assert isinstance(rec.collapsed, bool)

    def test_step_callback_sees_every_step_and_gradients(self, small_blobs):
        seen = []

        def spy(step, params, grads):
            seen.append((step, set(grads.keys())))

        cfg = small_config(steps=3)
        train_run(cfg, small_blobs, step_callback=spy)
        assert [s for s, _ in seen] == [1, 2, 3]
        expected = set(init_params(SMALL_NET, 0).trainable_names())
        assert all(keys == expected for _, keys in seen)

    def test_step_callback_sees_the_runs_live_state(self, small_blobs):
        handed = []
        final, _ = train_run(
            small_config(steps=4), small_blobs,
            step_callback=lambda k, params, grads: handed.append((params, grads)),
        )
        params, grads = handed[0]
        assert len(handed) == 4
        assert all(p is params and g is grads for p, g in handed)
        assert np.shares_memory(params.flat, final.flat)

    def test_writes_through_what_the_callback_sees_raise(self, small_blobs):
        refused = []

        def write(k, params, grads):
            for arr in (params.flat, params.values["predictor.w"], params.trainable,
                        grads["predictor.w"], grads["backbone.0.b"]):
                try:
                    arr[...] = 0.0
                except ValueError:
                    refused.append(k)

        final, _ = train_run(small_config(steps=2), small_blobs, step_callback=write)
        assert refused == [1] * 5 + [2] * 5
        assert np.any(final.values["predictor.w"] != 0.0)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_copies_taken_by_the_callback_equal_shorter_runs(self, small_blobs, optimizer):
        # The callback sees the state after step k's update, which is what
        # a run of k steps returns.
        copies = {}
        train_run(
            small_config(steps=7, optimizer=optimizer), small_blobs,
            step_callback=lambda k, params, grads: copies.update({k: params.flat.copy()}),
        )
        for k in (1, 2, 5, 7):
            final, _ = train_run(small_config(steps=k, optimizer=optimizer), small_blobs)
            assert copies[k].tobytes() == final.flat.tobytes()

    def test_initial_params_override_is_used(self, small_blobs):
        custom = init_params(SMALL_NET, seed=1234)
        cfg = small_config(steps=1, learning_rate=0.0)
        params, _ = train_run(cfg, small_blobs, initial_params=custom)
        for name in custom.values:
            np.testing.assert_array_equal(params.values[name], custom.values[name])


    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_the_run_never_writes_into_its_starting_parameters(
        self, small_blobs, monkeypatch, optimizer
    ):
        # A caller may keep the parameters a run started from, given or
        # drawn, to score the untrained model; the run trains its own copy.
        drawn = []

        def keeping(*args, **kwargs):
            drawn.append(init_params(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(train, "init_params", keeping)
        cfg = small_config(steps=3, optimizer=optimizer)
        given = init_params(SMALL_NET, seed=1234)
        given_bytes = given.flat.tobytes()
        train_run(cfg, small_blobs, initial_params=given)
        final, _ = train_run(cfg, small_blobs)
        (start,) = drawn
        assert given.flat.tobytes() == given_bytes
        init_seed, _ = derived_seeds(cfg.master_seed)
        assert start.flat.tobytes() == init_params(SMALL_NET, init_seed).flat.tobytes()
        assert start.flat.tobytes() != final.flat.tobytes()


class TestArtifacts:
    def test_metrics_file_excludes_wall_clock(self, tmp_path, small_blobs):
        cfg = small_config(steps=8, log_every=4)
        _, records = train_run(cfg, small_blobs, out_dir=tmp_path)
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == len(records)
        payload = json.loads(lines[0])
        assert set(payload) == {
            "step", "epoch", "loss_total", "loss_align",
            "loss_cross_model", "uniformity", "collapsed",
        }

    def test_final_checkpoint_restores_trained_parameters(self, tmp_path, small_blobs):
        cfg = small_config(steps=6)
        params, _ = train_run(cfg, small_blobs, out_dir=tmp_path)
        loaded = load_checkpoint(tmp_path / "checkpoint_final.ckpt")
        for name in params.values:
            np.testing.assert_array_equal(loaded.values[name], params.values[name])

    def test_periodic_checkpoints_use_zero_padded_steps(self, tmp_path, small_blobs):
        cfg = small_config(steps=8, checkpoint_every=4)
        train_run(cfg, small_blobs, out_dir=tmp_path)
        assert (tmp_path / "checkpoint_000004.ckpt").exists()
        assert (tmp_path / "checkpoint_000008.ckpt").exists()

    def test_divergence_raises_and_dumps_state(self, tmp_path, small_blobs):
        cfg = small_config(
            steps=40, optimizer="sgd", learning_rate=1e200, log_every=40,
            loss=LossConfig(objective="byol", alpha=1.0, beta=1.0),
        )
        with pytest.raises(TrainingDivergedError) as info:
            with np.errstate(all="ignore"):
                train_run(cfg, small_blobs, out_dir=tmp_path)
        err = info.value
        assert err.step >= 1
        dump = json.loads((tmp_path / "divergence_dump.json").read_text())
        assert str(tmp_path / "divergence_dump.json") == str(err.dump_path)
        assert dump["step"] == err.step
        assert dump["error"] == "TrainingDivergedError"
        assert dump["message"] == str(err)
        assert {"loss_total", "loss_align", "loss_cross_model", "param_norms"} <= set(dump)
        last_good = load_checkpoint(tmp_path / "checkpoint_last_good.ckpt")
        with np.errstate(over="ignore"):  # the diverging norms overflow
            norms = {name: float(np.linalg.norm(arr)) for name, arr in last_good.values.items()}
        assert dump["param_norms"] == norms

    def test_mid_run_error_dumps_state_and_last_good_checkpoint(self, tmp_path, small_blobs):
        # Biases start at zero, so an all-zero input row (no noise to move
        # it) has a zero projector output that cannot be normalized.
        samples = small_blobs.samples.copy()
        samples[3] = 0.0
        broken = Dataset(samples=samples, labels=small_blobs.labels)
        cfg = small_config(steps=3, batch_size=len(broken),
                           augmentation=AugmentationSpec.symmetric(noise_sigma=0.0))
        with pytest.raises(DegenerateRepresentationError) as info:
            train_run(cfg, broken, out_dir=tmp_path)
        dump = json.loads((tmp_path / "divergence_dump.json").read_text())
        assert dump["step"] == 1
        assert dump["error"] == "DegenerateRepresentationError"
        assert dump["message"] == str(info.value)
        assert "loss_total" not in dump
        start = init_params(SMALL_NET, derived_seeds(cfg.master_seed)[0])
        assert dump["param_norms"] == {
            name: float(np.linalg.norm(arr)) for name, arr in start.values.items()
        }
        last_good = load_checkpoint(tmp_path / "checkpoint_last_good.ckpt")
        np.testing.assert_array_equal(last_good.flat, start.flat)


    def test_nan_sample_surfaces_as_divergence(self, small_blobs):
        # relu keeps a NaN pre-activation, so a broken input row ends the
        # run at its first batch instead of silently dropping out of it.
        samples = small_blobs.samples.copy()
        samples[3, 0] = np.nan
        broken = Dataset(samples=samples, labels=small_blobs.labels)
        cfg = small_config(steps=3, batch_size=len(broken))
        with pytest.raises(TrainingDivergedError) as info:
            train_run(cfg, broken)
        assert info.value.step == 1


class TestEmaInsideTheLoop:
    def test_frozen_teacher_when_tau_is_one(self, small_blobs):
        cfg = small_config(steps=5, ema_tau=1.0)
        init_seed, _ = derived_seeds(cfg.master_seed)
        reference = init_params(SMALL_NET, init_seed)
        params, _ = train_run(cfg, small_blobs)
        for name in params.values:
            if name.startswith("target."):
                np.testing.assert_array_equal(params.values[name], reference.values[name])

    def test_teacher_tracks_student_when_tau_is_zero(self, small_blobs):
        cfg = small_config(steps=5, ema_tau=0.0)
        params, _ = train_run(cfg, small_blobs)
        for name in params.values:
            if name.startswith("target."):
                np.testing.assert_array_equal(
                    params.values[name], params.values[name[len("target."):]]
                )


class TestFusedStep:
    """train_run sends both views through each network as one stacked batch.
    The reference below is the per-view step, built from the public
    forwards."""

    @pytest.mark.parametrize("path", PINNED_CONFIGS, ids=lambda p: p.stem)
    def test_matches_the_per_view_step(self, path):
        cfg, dataset, _ = cli.train_config(path, steps=1, log_every=1)
        handed = {}
        _, records = train_run(
            cfg, dataset, step_callback=lambda k, params, grads: handed.update(grads)
        )

        init_seed, aug_seed = derived_seeds(cfg.master_seed)
        params = init_params(cfg.network, init_seed)
        aug = replace(cfg.augmentation, seed=aug_seed)
        batch = sample_positive_batch(dataset, aug, cfg.batch_size, 0)
        tp = T.Tape()
        leaves = bind_params(tp, params)
        per_view = [forward_online(params, x, leaves=leaves) for x in (batch.x1, batch.x2)]
        targets = [forward_target(params, x) for x in (batch.x1, batch.x2)]
        parts = objective_terms(
            cfg.loss, per_view[0][1], per_view[1][1], targets[0], targets[1]
        )

        # Forward rows are bitwise those of the per-view forwards.
        stacked = np.concatenate((batch.x1, batch.x2))
        for fused, (one, two) in zip(forward_online(params, stacked), zip(*per_view)):
            np.testing.assert_array_equal(fused.data, np.concatenate((one.data, two.data)))
        np.testing.assert_array_equal(
            forward_target(params, stacked).data,
            np.concatenate([t.data for t in targets]),
        )

        # So is the loss the step logged, and its uniformity of view 1.
        rec = records[0]
        assert rec.loss_total == float(parts.total.data)
        assert rec.loss_align == float(parts.align.data)
        assert rec.loss_cross_model == float(parts.cross.data)
        assert rec.uniformity == uniform_loss(T.l2_normalize(per_view[0][0].data)).item()

        # Gradients sum both views in one product, so they agree only up to
        # rounding.
        grads = tp.backward(parts.total)
        assert set(handed) == set(leaves)
        for name, leaf in leaves.items():
            ref = grads[leaf]
            assert np.max(np.abs(handed[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name


class TestWorkspace:
    """train_run's tapes share one workspace across the run."""

    @staticmethod
    def reference_run(cfg, dataset):
        """The step written out from the public functions, on a fresh tape
        without a workspace each step: (final flat vector, per-step loss
        terms and view-1 uniformity)."""
        init_seed, aug_seed = derived_seeds(cfg.master_seed)
        params = init_params(cfg.network, init_seed)
        aug = replace(cfg.augmentation, seed=aug_seed)
        state = AdamState.init(params.trainable)
        grad = np.empty_like(params.trainable)
        views = params.trainable_views(grad)
        logged = []
        for k in range(1, cfg.steps + 1):
            batch = sample_positive_batch(dataset, aug, cfg.batch_size, k - 1)
            x, n = stack_views(batch.x1, batch.x2)
            tp = T.Tape()
            z_pre, p = forward_online(params, x, leaves=bind_params(tp, params, views))
            parts = objective_terms(cfg.loss, *split_views(p, n),
                                    *split_views(forward_target(params, x), n))
            tp.backward(parts.total)
            logged.append((float(parts.total.data), float(parts.align.data),
                           float(parts.cross.data),
                           uniform_loss(T.l2_normalize(z_pre.data[:n])).item()))
            adam_step(params.trainable, grad, state, cfg.learning_rate)
            ema_update(params, cfg.ema_tau, np.empty_like(params.teacher))
        return params.flat, logged

    @pytest.mark.parametrize("path", PINNED_CONFIGS, ids=lambda p: p.stem)
    def test_matches_fresh_tapes_bitwise_across_epochs(self, path):
        # 15 steps of 64 out of 400 rows cross two epochs, each ending on a
        # batch of 16.
        cfg, dataset, _ = cli.train_config(path, steps=15, log_every=1)
        params, records = train_run(cfg, dataset)
        flat, logged = self.reference_run(cfg, dataset)
        assert params.flat.tobytes() == flat.tobytes()
        assert [(r.loss_total, r.loss_align, r.loss_cross_model, r.uniformity)
                for r in records] == logged

    @staticmethod
    def record_workspaces(monkeypatch) -> list:
        """Make T.Workspace append every workspace it makes to the list
        returned."""
        made = []

        class Workspace(T.Workspace):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(T, "Workspace", Workspace)
        return made

    @pytest.mark.parametrize("path", PINNED_CONFIGS, ids=lambda p: p.stem)
    def test_later_steps_reuse_the_first_steps_buffers(self, path, monkeypatch):
        made = self.record_workspaces(monkeypatch)

        def address(arr):
            return arr.__array_interface__["data"][0]

        outputs, rows = {}, []

        def online(*args, **kwargs):
            z_pre, p = forward_online(*args, **kwargs)
            rows.append(z_pre.shape[0])
            outputs.update(z_pre=address(z_pre.data), p=address(p.data))
            return z_pre, p

        monkeypatch.setattr(train, "forward_online", online)
        seen = []

        def look(step, params, grads):
            (ws,) = made
            seen.append((dict(outputs), [(id(b), address(b)) for b in ws.bufs]))

        cfg, dataset, _ = cli.train_config(path, steps=9)
        train_run(cfg, dataset, step_callback=look)
        assert rows == [128] * 6 + [32] + [128] * 2
        first_out, first_bufs = seen[0]
        assert set(first_out.values()) <= {addr for _, addr in first_bufs}
        assert seen[1:] == [seen[0]] * 8

    @pytest.mark.parametrize("path", PINNED_CONFIGS, ids=lambda p: p.stem)
    def test_the_teacher_forward_draws_no_workspace_buffer(self, path, monkeypatch):
        # The teacher runs on constants, so it never touches the tracked
        # step's workspace, whatever the batch size.
        made, drawn = self.record_workspaces(monkeypatch), []

        def target(*args, **kwargs):
            (ws,) = made
            before = ws.next
            zbar = forward_target(*args, **kwargs)
            drawn.append(ws.next - before)
            return zbar

        monkeypatch.setattr(train, "forward_target", target)
        cfg, dataset, _ = cli.train_config(path, steps=9)
        train_run(cfg, dataset)
        assert drawn == [0] * 9

    @pytest.mark.parametrize("path, count, mib", [
        (ROOT / "configs" / "collapse_raft_lp.json", 28, 3.31),
        (ROOT / "configs" / "collapse_byol_np.json", 26, 0.82),
    ], ids=["repel", "attract"])
    def test_one_full_step_fills_the_workspace_to_its_size(self, path, count, mib, monkeypatch):
        # Only the tracked step's arrays: no normalized z on the linear
        # predictor (one 128 x 256 buffer fewer on repel), no teacher array.
        made = self.record_workspaces(monkeypatch)
        cfg, dataset, _ = cli.train_config(path, steps=1)
        train_run(cfg, dataset)
        (ws,) = made
        assert len(ws.bufs) == count
        assert round(sum(b.nbytes for b in ws.bufs) / 2**20, 2) == mib

    def test_a_step_callback_allocates_nothing_per_step(self):
        cfg, dataset, _ = cli.train_config(ROOT / "configs" / "collapse_raft_lp.json", steps=20)
        train_run(replace(cfg, steps=1), dataset)  # fills the caches both runs share
        peaks = []
        for callback in (None, lambda k, params, grads: None):
            tracemalloc.start()
            try:
                train_run(cfg, dataset, step_callback=callback)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        without, with_callback = peaks
        assert with_callback < without + 64 * 1024


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # A short run of the attract config: its stacked 128-row products are
    # large enough for OpenBLAS to split them across threads.
    payload = json.loads((ROOT / "configs" / "collapse_byol_np.json").read_text())
    payload["train"].update(steps=50, log_every=10)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
            ),
        }
        subprocess.run(
            [sys.executable, "-m", "raftlab.cli", "train", "--config", str(config),
             "--out-dir", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append(
            [(out / name).read_bytes() for name in ("metrics.jsonl", "checkpoint_final.ckpt")]
        )
    assert len(outputs[0][0].splitlines()) == 5
    assert outputs[0] == outputs[1]


FAULT_PROBE = """
import resource, sys
from raftlab import cli
from raftlab.train import train_run

cfg, dataset, _ = cli.train_config(sys.argv[1], steps=300)
marks = {}

def read_faults(k, params, grads):
    if k in (50, 300):
        marks[k] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

train_run(cfg, dataset, step_callback=read_faults)
print((marks[300] - marks[50]) / 250)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap trim and regrow this guards against is glibc's malloc")
def test_a_repel_step_takes_almost_no_page_faults():
    # A fresh process, so that nothing else holds the heap top: if a step
    # frees and reallocates arrays near the mmap threshold, glibc can give
    # the heap top back and take it again every step, tens of minor faults
    # a step on this config.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, str(ROOT / "configs" / "collapse_raft_lp.json")],
        env=env, check=True, capture_output=True, text=True,
    )
    assert float(out.stdout) <= 5.0
