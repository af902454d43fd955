"""Linear probes, holdout protocol, and representation-geometry reports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from raftlab.data import AugmentationSpec, Dataset, SyntheticBlobsSpec, make_blobs
from raftlab import cli, evaluate
from raftlab import tape as T
from raftlab.errors import ConfigError, EvalError
from raftlab.evaluate import (
    PROBE_HOLDOUT_FRACTION,
    EvalReport,
    ProbeConfig,
    backbone_features,
    linear_evaluation,
    metrics_report,
    projector_outputs,
    train_probe,
)
from raftlab.model import NetworkSpec, init_params

ROOT = Path(__file__).resolve().parent.parent
REPEL = ROOT / "configs" / "collapse_raft_lp.json"

NET = NetworkSpec(
    input_dim=8,
    backbone_widths=(12,),
    representation_dim=10,
    projection_dim=6,
    predictor="linear",
)


def one_hot_features(n_per_class=50, classes=4, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), n_per_class)
    feats = np.eye(classes)[labels] + noise * rng.normal(size=(classes * n_per_class, classes))
    perm = rng.permutation(len(labels))
    return feats[perm], labels[perm]


class TestProbeTraining:
    def test_separable_features_reach_near_perfect_accuracy(self):
        feats, labels = one_hot_features()
        result = train_probe(feats, labels, ProbeConfig())
        assert result.accuracy >= 0.99

    def test_shuffled_labels_score_near_chance(self):
        feats, labels = one_hot_features()
        rng = np.random.default_rng(13)
        shuffled = rng.permutation(labels)
        result = train_probe(feats, shuffled, ProbeConfig())
        n_holdout = int(len(labels) * PROBE_HOLDOUT_FRACTION)
        sigma = np.sqrt(0.25 * 0.75 / n_holdout)
        assert abs(result.accuracy - 0.25) <= 3 * sigma + 1e-9

    def test_probe_is_deterministic(self):
        feats, labels = one_hot_features(noise=0.4)
        a = train_probe(feats, labels, ProbeConfig())
        b = train_probe(feats, labels, ProbeConfig())
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_probe_seed_changes_the_split(self):
        feats, labels = one_hot_features(noise=0.8)
        a = train_probe(feats, labels, ProbeConfig(seed=0))
        b = train_probe(feats, labels, ProbeConfig(seed=1))
        assert not np.array_equal(a.weights, b.weights)

    def test_probe_weights_shape_matches_problem(self):
        feats, labels = one_hot_features()
        result = train_probe(feats, labels, ProbeConfig())
        assert result.weights.shape == (4, 4)
        assert result.bias.shape == (4,)

    @pytest.mark.parametrize("labels", [np.full(6, 2), np.zeros(0, dtype=np.int64)],
                             ids=["one class", "no rows"])
    def test_fewer_than_two_classes_is_an_eval_error(self, labels):
        with pytest.raises(EvalError, match="fewer than two classes"):
            train_probe(np.ones((labels.size, 3)), labels, ProbeConfig())

    @pytest.mark.parametrize("field, value", [("seed", -1)])
    def test_bad_value_is_a_config_error_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            ProbeConfig(**{field: value})


class TestLinearEvaluation:
    def test_parameters_stay_frozen(self, blobs):
        params = init_params(NET, seed=0)
        before = {n: v.tobytes() for n, v in params.values.items()}
        linear_evaluation(params, blobs)
        after = {n: v.tobytes() for n, v in params.values.items()}
        assert before == after

    def test_uses_backbone_features(self, blobs):
        params = init_params(NET, seed=0)
        acc_direct = train_probe(
            backbone_features(params, blobs.samples), blobs.labels, ProbeConfig()
        ).accuracy
        assert linear_evaluation(params, blobs) == acc_direct

    def test_repeat_calls_agree(self, blobs):
        params = init_params(NET, seed=1)
        assert linear_evaluation(params, blobs) == linear_evaluation(params, blobs)


def collapsed_params():
    """A network whose projector output is the same nonzero row for every input."""
    params = init_params(NET, seed=0)
    for name, arr in params.values.items():
        base = name[len("target."):] if name.startswith("target.") else name
        if base.endswith(".w") and not base.startswith("predictor"):
            arr[...] = 0.0
    params.values["predictor.w"][...] = np.eye(params.values["predictor.w"].shape[0])
    params.values["projector.1.b"][...] = 1.0
    params.values["target.projector.1.b"][...] = 1.0
    return params


class TestMetricsReport:
    def test_random_network_spreads_the_sphere(self, blobs):
        params = init_params(NET, seed=0)
        rep = metrics_report(params, blobs, AugmentationSpec(), sample_count=256)
        assert rep.uniformity < -0.3
        assert not rep.collapsed
        assert rep.sample_count == 256

    def test_constant_representation_is_flagged_collapsed(self, blobs):
        rep = metrics_report(collapsed_params(), blobs, AugmentationSpec(), sample_count=64)
        assert rep.uniformity == pytest.approx(0.0, abs=1e-12)
        assert rep.collapsed

    def test_identity_augmentations_give_zero_alignment(self, blobs):
        params = init_params(NET, seed=2)
        rep = metrics_report(params, blobs, AugmentationSpec(), sample_count=128)
        assert rep.align == pytest.approx(0.0, abs=1e-12)

    def test_noisy_augmentations_raise_alignment(self, blobs):
        from raftlab.verify import random_model_state

        params = random_model_state(NET, np.random.default_rng(2))
        noisy = metrics_report(
            params, blobs, AugmentationSpec.symmetric(noise_sigma=0.2), sample_count=128
        )
        assert noisy.align > 0.0

    def test_report_serializes_to_json(self, blobs):
        params = init_params(NET, seed=0)
        rep = metrics_report(params, blobs, AugmentationSpec(), sample_count=64)
        payload = json.loads(rep.to_json())
        assert set(payload) == {
            "probe_accuracy", "align", "uniformity", "collapsed", "sample_count", "probe",
        }
        assert payload["sample_count"] == 64
        assert payload["probe"] == {"seed": 0}

    def test_forwards_at_most_one_chunk_of_rows(self, blobs, monkeypatch):
        # The cap on --sample-count counts data rows, so no forward may take
        # all of them at once.
        monkeypatch.setattr(evaluate, "_EXPORT_CHUNK", 16)
        rows, inner = [], evaluate.forward_online

        def counting(params, x, *args, **kwargs):
            rows.append(x.shape[0])
            return inner(params, x, *args, **kwargs)

        monkeypatch.setattr(evaluate, "forward_online", counting)
        metrics_report(init_params(NET, seed=0), blobs, AugmentationSpec(), sample_count=64)
        assert rows and max(rows) == 16


def test_a_lone_chunk_is_the_forwards_own_array():
    made = []

    def output(rows):
        made.append(rows + 1.0)
        return T.constant(made[-1])

    x = np.zeros((evaluate._EXPORT_CHUNK, 3))
    assert evaluate._chunked(output, x) is made[0]
    two = evaluate._chunked(output, np.zeros((evaluate._EXPORT_CHUNK + 1, 3)))
    assert two.shape == (evaluate._EXPORT_CHUNK + 1, 3) and len(made) == 3


@pytest.mark.parametrize("measure, layers", [(backbone_features, 3), (projector_outputs, 5)],
                         ids=["backbone", "projector"])
def test_a_measure_runs_only_the_layers_it_reads(measure, layers, monkeypatch):
    # The repel network has 3 backbone layers, 2 projector layers and the
    # predictor; neither measure reads the predictor.
    cfg, dataset, _ = cli.train_config(REPEL)
    monkeypatch.setattr(evaluate, "_EXPORT_CHUNK", 128)
    calls, inner = [], T.matmul

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(T, "matmul", counting)
    measure(init_params(cfg.network, seed=0), dataset.samples)
    chunks = -(-len(dataset) // 128)
    assert len(calls) == layers * chunks and max(calls) == 128


def repel_report_peak(n: int) -> int:
    """Bytes metrics_report allocates at its peak on the repel network at
    n rows, over what it held before."""
    cfg, dataset, _ = cli.train_config(REPEL)
    params = init_params(cfg.network, seed=0)
    metrics_report(params, dataset, cfg.augmentation, sample_count=16)  # warm caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        metrics_report(params, dataset, cfg.augmentation, sample_count=n)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_metrics_report_drops_p_before_the_uniformity_buffer():
    # At n rows and projection width w, the uniformity measure holds its
    # n x n buffer and two n x w copies of z; the two views' p are gone by then.
    n, w = 512, cli.train_config(REPEL)[0].network.projection_dim
    assert repel_report_peak(n) <= 8 * (n * n + 4 * n * w)


def test_the_alignment_forward_builds_no_normalized_z():
    # Each 512 x 256 array on the repel network is 1 MiB. The second view's
    # forward holds view 1's p, its own z_pre, the predictor output and its
    # normalized copy: about 4.2 MiB in all, 5.3 with a normalized z as well.
    assert repel_report_peak(512) <= 4.6 * 2**20


def test_an_evaluation_does_not_import_numpy_ma():
    # NumPy 2's np.unique imports numpy.ma, 9-14 ms and 1.2 MB of peak RSS in every
    # eval; nothing in an evaluation needs it.
    code = (
        "import sys\n"
        "from raftlab.data import AugmentationSpec, SyntheticBlobsSpec, make_blobs\n"
        "from raftlab.evaluate import metrics_report\n"
        "from raftlab.model import NetworkSpec, init_params\n"
        "params = init_params(NetworkSpec(input_dim=8, backbone_widths=(12,), "
        "representation_dim=10, projection_dim=6), seed=0)\n"
        "metrics_report(params, make_blobs(SyntheticBlobsSpec(per_class=12)), "
        "AugmentationSpec(), sample_count=16)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
