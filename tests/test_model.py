"""Network construction, forward passes, EMA updates, and checkpoint IO."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raftlab import cli
from raftlab import tape as tp
from raftlab.data import MAX_ELEMENTS
from raftlab.errors import ConfigError, FormatError, ShapeError
from raftlab.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ModelParams,
    NetworkSpec,
    backbone_output,
    bind_params,
    ema_update,
    forward_online,
    forward_target,
    init_params,
    load_checkpoint,
    mirror_predictor,
    save_checkpoint,
)
from raftlab.train import train_run

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def small_spec(predictor="linear"):
    return NetworkSpec(
        input_dim=6,
        backbone_widths=(10,),
        representation_dim=7,
        projection_dim=5,
        predictor=predictor,
    )


class TestInit:
    def test_linear_predictor_layout(self):
        params = init_params(small_spec("linear"), seed=0)
        expected = {
            "backbone.0.w", "backbone.0.b", "backbone.1.w", "backbone.1.b",
            "projector.0.w", "projector.0.b", "projector.1.w", "projector.1.b",
            "predictor.w",
        }
        expected |= {f"target.{n}" for n in expected if not n.startswith("predictor")}
        assert set(params.values.keys()) == expected
        assert params.values["predictor.w"].shape == (5, 5)

    def test_identity_predictor_has_no_parameters(self):
        params = init_params(small_spec("identity"), seed=0)
        assert not any(n.startswith("predictor") for n in params.values)

    def test_weights_bounded_by_fan_in_and_biases_zero(self):
        params = init_params(small_spec("linear"), seed=3)
        w = params.values["backbone.0.w"]
        assert w.shape == (6, 10)
        assert np.max(np.abs(w)) <= 1.0 / np.sqrt(6)
        np.testing.assert_array_equal(params.values["backbone.0.b"], np.zeros(10))

    def test_target_starts_as_exact_copy(self):
        params = init_params(small_spec("linear"), seed=1)
        for name in params.values:
            if name.startswith("target."):
                online = params.values[name[len("target."):]]
                np.testing.assert_array_equal(params.values[name], online)
                assert params.values[name] is not online

    def test_same_seed_reproduces_and_seeds_differ(self):
        a = init_params(small_spec("linear"), seed=5)
        b = init_params(small_spec("linear"), seed=5)
        c = init_params(small_spec("linear"), seed=6)
        for name in a.values:
            np.testing.assert_array_equal(a.values[name], b.values[name])
        assert any(
            not np.array_equal(a.values[n], c.values[n]) for n in a.values
        )

    def test_unknown_predictor_kind_rejected(self):
        with pytest.raises(ConfigError):
            small_spec("bilinear")


class TestForward:
    def test_online_projection_rows_are_unit(self):
        params = init_params(small_spec("linear"), seed=0)
        x = np.random.default_rng(1).normal(size=(4, 6))
        h, (z_pre, p) = backbone_output(params, x), forward_online(params, x)
        z = tp.l2_normalize(z_pre)
        assert h.shape == (4, 7)
        assert z.shape == (4, 5)
        assert p.shape == (4, 5)
        np.testing.assert_allclose(np.linalg.norm(z.data, axis=1), np.ones(4), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(p.data, axis=1), np.ones(4), atol=1e-12)

    def test_identity_predictor_returns_projection_itself(self):
        params = init_params(small_spec("identity"), seed=0)
        x = np.random.default_rng(2).normal(size=(3, 6))
        z_pre, p = forward_online(params, x)
        assert p.data.tobytes() == tp.l2_normalize(z_pre).data.tobytes()

    def test_predictor_consumes_unnormalized_projection(self):
        params = init_params(small_spec("linear"), seed=0)
        x = np.random.default_rng(3).normal(size=(3, 6))
        z_pre, p = forward_online(params, x)
        z = tp.l2_normalize(z_pre)
        w = params.values["predictor.w"]
        scaled = forward_online(params, x)
        np.testing.assert_allclose(scaled[1].data, p.data)
        assert not np.allclose(p.data, z.data @ w)

    def test_target_forward_is_tape_free_and_unit(self):
        params = init_params(small_spec("linear"), seed=0)
        x = np.random.default_rng(4).normal(size=(4, 6))
        z = forward_target(params, x)
        assert z.tape is None
        np.testing.assert_allclose(np.linalg.norm(z.data, axis=1), np.ones(4), atol=1e-12)

    @pytest.mark.parametrize("kind", ["linear", "identity"])
    def test_constant_forwards_record_nothing(self, kind):
        params = init_params(small_spec(kind), seed=0)
        x = np.random.default_rng(6).normal(size=(4, 6))
        outs = (forward_target(params, x), *forward_online(params, x))
        assert all(out.node is None and out.tape is None for out in outs)

    @pytest.mark.parametrize("kind", ["linear", "identity"])
    def test_normalizes_only_p(self, kind, monkeypatch):
        # Only p is normalized; a caller that reads z normalizes z_pre.
        calls, inner = [], tp.l2_normalize

        def counting(a):
            calls.append(a)
            return inner(a)

        monkeypatch.setattr(tp, "l2_normalize", counting)
        params = init_params(small_spec(kind), seed=0)
        z_pre, p = forward_online(params, np.random.default_rng(7).normal(size=(4, 6)))
        assert len(calls) == 1
        assert (calls[0] is z_pre) == (kind == "identity")

    def test_fresh_copy_matches_target_forward(self):
        params = init_params(small_spec("linear"), seed=0)
        x = np.random.default_rng(5).normal(size=(4, 6))
        z = tp.l2_normalize(forward_online(params, x)[0])
        zbar = forward_target(params, x)
        np.testing.assert_allclose(z.data, zbar.data, atol=1e-12)


class TestMirror:
    def test_mirror_negates_only_the_predictor(self):
        params = init_params(small_spec("linear"), seed=0)
        mirrored = mirror_predictor(params)
        np.testing.assert_array_equal(
            mirrored.values["predictor.w"], -params.values["predictor.w"]
        )
        for name in params.values:
            if name != "predictor.w":
                np.testing.assert_array_equal(mirrored.values[name], params.values[name])

    def test_mirror_twice_restores_parameters(self):
        params = init_params(small_spec("linear"), seed=1)
        back = mirror_predictor(mirror_predictor(params))
        np.testing.assert_array_equal(
            back.values["predictor.w"], params.values["predictor.w"]
        )

    @pytest.mark.parametrize("kind", ["identity"])
    def test_mirror_requires_linear_predictor(self, kind):
        with pytest.raises(ConfigError):
            mirror_predictor(init_params(small_spec(kind), seed=0))


class TestFlatLayout:
    @pytest.mark.parametrize("kind", ["linear", "identity"])
    def test_values_are_views_of_one_vector_in_segment_order(self, kind):
        params = init_params(small_spec(kind), seed=0)
        names = list(params.values)
        n_online = len(params.trainable_names())
        assert all(n.startswith("target.") for n in names[n_online:])
        np.testing.assert_array_equal(
            np.concatenate([v.ravel() for v in params.values.values()]), params.flat
        )
        assert all(np.shares_memory(v, params.flat) for v in params.values.values())
        assert params.trainable.size == sum(params.values[n].size for n in names[:n_online])
        assert params.trainable.size + params.teacher.size == params.flat.size
        # The teacher starts as a copy of the encoder, which leads the vector.
        np.testing.assert_array_equal(params.encoder, params.teacher)

    def test_wraps_a_vector_of_the_right_size_without_copying(self):
        spec = small_spec("linear")
        flat = init_params(spec, seed=0).flat
        assert ModelParams(spec, flat).flat is flat
        assert not np.any(ModelParams(spec).flat)
        with pytest.raises(ShapeError):
            ModelParams(spec, np.zeros(flat.size + 1))

    def test_clone_is_independent(self):
        params = init_params(small_spec("linear"), seed=0)
        copy = params.clone()
        copy.flat[...] = 0.0
        assert np.any(params.flat != 0.0)


class TestStackedParams:
    """A (K, size) flat is K states: every accessor acts per state or raises."""

    K = 4

    def stack(self, kind="linear"):
        spec = small_spec(kind)
        flat = np.stack([init_params(spec, seed=s).flat for s in range(self.K)])
        flat[:, -3:] += 0.5  # a teacher that differs from the encoder
        return ModelParams(spec, flat)

    @pytest.mark.parametrize("kind", ["linear", "identity"])
    def test_every_view_and_segment_is_its_states(self, kind):
        stack = self.stack(kind)
        for k in range(self.K):
            one = ModelParams(stack.spec, stack.flat[k])
            assert stack.values.keys() == one.values.keys()
            for name, view in stack.values.items():
                assert view.shape == (self.K, *one.values[name].shape)
                assert view[k].tobytes() == one.values[name].tobytes(), name
            for segment in ("trainable", "teacher", "encoder"):
                assert getattr(stack, segment)[k].tobytes() == getattr(one, segment).tobytes()
            assert stack.predictor_span == one.predictor_span
        grad = np.arange(stack.trainable.size, dtype=np.float64).reshape(stack.trainable.shape)
        for k in range(self.K):
            one = ModelParams(stack.spec, stack.flat[k]).trainable_views(grad[k])
            for name, view in stack.trainable_views(grad).items():
                assert view[k].tobytes() == one[name].tobytes()
        with pytest.raises(ShapeError):
            stack.trainable_views(grad[0])

    def test_views_write_through_and_clones_do_not(self):
        stack = self.stack()
        stack.values["projector.1.b"][2] = 7.0
        assert np.all(ModelParams(stack.spec, stack.flat[2]).values["projector.1.b"] == 7.0)
        assert all(np.shares_memory(v, stack.flat) for v in stack.values.values())
        copy = stack.clone()
        copy.flat[...] = 0.0
        assert copy.flat.shape == stack.flat.shape and np.any(stack.flat != 0.0)

    def test_a_stacked_forward_gives_each_states_outputs(self):
        stack = self.stack()
        x = np.random.default_rng(0).normal(size=(self.K, 9, stack.spec.input_dim))
        outs = forward_online(stack, x)
        for k in range(self.K):
            one = ModelParams(stack.spec, stack.flat[k])
            for got, want in zip(outs, forward_online(one, x[k])):
                assert got.data[k].tobytes() == want.data.tobytes()
            assert forward_target(stack, x).data[k].tobytes() == \
                forward_target(one, x[k]).data.tobytes()

    def test_refused_on_a_stack(self, tmp_path):
        stack = self.stack()
        with pytest.raises(ShapeError):
            ModelParams(stack.spec, stack.flat[None])
        with pytest.raises(ShapeError):
            save_checkpoint(stack, tmp_path / "stack.ckpt")
        # Tape leaves of a stack would be 3-D, and tracked ops stay 2-D.
        leaves = bind_params(tp.Tape(), stack)
        with pytest.raises(ShapeError):
            forward_online(stack, np.ones((3, stack.spec.input_dim)), leaves=leaves)


class TestEma:
    def test_tau_one_freezes_the_target(self):
        params = init_params(small_spec("linear"), seed=0)
        before = {n: v.copy() for n, v in params.values.items() if n.startswith("target.")}
        shifted = params.clone()
        shifted.trainable[...] += 1.0
        ema_update(shifted, tau=1.0, scratch=np.empty_like(shifted.teacher))
        for name, val in before.items():
            np.testing.assert_array_equal(shifted.values[name], val)

    def test_tau_zero_copies_online_weights(self):
        params = init_params(small_spec("linear"), seed=0)
        shifted = params.clone()
        shifted.trainable[...] += 1.0
        ema_update(shifted, tau=0.0, scratch=np.empty_like(shifted.teacher))
        for name in shifted.values:
            if name.startswith("target."):
                np.testing.assert_array_equal(
                    shifted.values[name], shifted.values[name[len("target."):]]
                )

    def test_single_step_blend_value(self):
        params = init_params(small_spec("identity"), seed=0)
        shifted = params.clone()
        shifted.trainable[...] = 1.0
        shifted.teacher[...] = 0.0
        ema_update(shifted, tau=0.996, scratch=np.empty_like(shifted.teacher))
        np.testing.assert_allclose(
            shifted.values["target.backbone.0.w"],
            np.full_like(shifted.values["target.backbone.0.w"], 0.004),
            rtol=1e-12,
        )

    def test_repeated_updates_converge_geometrically(self):
        params = init_params(small_spec("identity"), seed=0)
        current = params.clone()
        current.trainable[...] = 1.0
        current.teacher[...] = 0.0
        tau = 0.9
        k = int(np.ceil(np.log(1e-10) / np.log(tau)))
        for _ in range(k):
            ema_update(current, tau=tau, scratch=np.empty_like(current.teacher))
        gap = np.max(np.abs(current.values["target.backbone.0.w"] - 1.0))
        assert gap <= 1e-10

    def test_blend_matches_the_per_name_formula_bitwise(self):
        params = init_params(small_spec("linear"), seed=3)
        params.trainable[...] += np.linspace(-1.0, 1.0, params.trainable.size)
        before = params.clone()
        ema_update(params, tau=0.37, scratch=np.empty_like(params.teacher))
        for name in (n for n in params.values if n.startswith("target.")):
            online = before.values[name[len("target."):]]
            expected = 0.37 * before.values[name] + (1.0 - 0.37) * online
            np.testing.assert_array_equal(params.values[name], expected)
        np.testing.assert_array_equal(params.trainable, before.trainable)


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        params = init_params(small_spec("linear"), seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert set(loaded.values) == set(params.values)
        for name in params.values:
            np.testing.assert_array_equal(loaded.values[name], params.values[name])
        assert loaded.spec.projection_dim == params.spec.projection_dim

    def test_resave_is_byte_identical(self, tmp_path):
        params = init_params(small_spec("linear"), seed=8)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_magic_and_version(self, tmp_path):
        params = init_params(small_spec("linear"), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        assert blob.startswith(CHECKPOINT_MAGIC)
        assert int.from_bytes(blob[8:12], "little") == CHECKPOINT_VERSION

    def test_corrupted_magic_rejected(self, tmp_path):
        params = init_params(small_spec("linear"), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        params = init_params(small_spec("linear"), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        blob = bytearray(path.read_bytes())
        blob[8] += 1
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = init_params(small_spec("linear"), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    # small_spec's header: magic, version, then u32s from byte 12 on:
    # input_dim, width count (16), the one width (20), representation_dim,
    # projection_dim and the predictor index (32); its parameters from 36.
    @pytest.mark.parametrize(
        "at, value",
        [(32, 2), (20, 0), (16, 2**32 - 1), (20, MAX_ELEMENTS + 1), (None, None)],
        ids=["unknown-predictor-index", "zero-width", "width-count-past-end",
             "width-over-max-elements", "payload-8-bytes-short"],
    )
    def test_malformed_header_rejected(self, tmp_path, at, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(small_spec("linear"), seed=0), path)
        blob = bytearray(path.read_bytes())
        assert blob[32:36] == bytes(4) and blob[20:24] == (10).to_bytes(4, "little")
        if at is None:
            del blob[-8:]
        else:
            blob[at : at + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
    def test_pinned_config_checkpoint_loads_its_network(self, tmp_path, config):
        cfg, dataset, _ = cli.train_config(config, steps=1)
        train_run(cfg, dataset, out_dir=tmp_path)
        assert load_checkpoint(tmp_path / "checkpoint_final.ckpt").spec == cli.train_config(
            config)[0].network

    def test_trailing_bytes_rejected(self, tmp_path):
        params = init_params(small_spec("linear"), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(FormatError):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """(scratch path, bytes) of the checkpoint of a small model."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = NetworkSpec(input_dim=2, backbone_widths=(), representation_dim=2, projection_dim=2)
    save_checkpoint(init_params(spec, seed=0), root / "model.ckpt")
    return root / "mutated.ckpt", (root / "model.ckpt").read_bytes()


class TestCheckpointFuzz:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_any_single_byte_mutation_loads_or_is_a_format_error(self, small_checkpoint, data):
        path, blob = small_checkpoint
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[at]), label="byte")
        path.write_bytes(blob[:at] + bytes([value]) + blob[at + 1 :])
        try:
            load_checkpoint(path)
        except FormatError:  # the one accepted failure; any other escapes
            pass

    def test_every_truncation_is_a_format_error(self, small_checkpoint):
        path, blob = small_checkpoint
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises(FormatError):
                load_checkpoint(path)
