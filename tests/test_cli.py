"""Command-line entry points: exit codes, manifests, and reproducibility."""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import struct
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from conftest import SMALL_CONFIG

from raftlab import __version__, cli, verify
from raftlab.data import MAX_ELEMENTS
from raftlab.model import CHECKPOINT_MAGIC, save_checkpoint

# Wrong-typed, negative, non-finite and some in-range stand-ins for every
# leaf of SMALL_CONFIG.
SUBSTITUTES = (None, True, 0, 1.5, "x", [], {}, -1, float("nan"))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run(argv):
    return cli.main(argv)


def leaf_paths(payload: dict, prefix: tuple = ()):
    """Key paths of the non-object values of a nested JSON object."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def substituted(payload: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(payload)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


# Settings that no longer exist, each given a value it used to accept: the
# removed keys are unknown, and a per-step list is not a float.
REMOVED_SETTINGS = [
    ("network.predictor_init", "identity", "unknown keys ['network.predictor_init']"),
    ("loss.symmetrize_views", False, "unknown keys ['loss.symmetrize_views']"),
    ("loss.uniformity_t", 2.0, "unknown keys ['loss.uniformity_t']"),
    ("augmentation.view1.mask_prob", 0.0, "unknown keys ['augmentation.view1.mask_prob']"),
    ("probe.learning_rate", 5e-4, "unknown keys ['probe.learning_rate']"),
    ("probe.epochs", 100, "unknown keys ['probe.epochs']"),
    ("probe.batch_size", 32, "unknown keys ['probe.batch_size']"),
    ("probe.holdout_fraction", 0.2, "unknown keys ['probe.holdout_fraction']"),
    ("train.learning_rate", [3e-4] * 20, "train.learning_rate must be a finite float"),
    ("train.ema_tau", [0.996] * 20, "train.ema_tau must be a finite float"),
]


class TestTrainCommand:
    def test_writes_metrics_checkpoint_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert (out / "metrics.jsonl").exists()
        assert (out / "checkpoint_final.ckpt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 0
        assert manifest["version"] == __version__
        names = [Path(a).name for a in manifest["artifacts"]]
        assert "metrics.jsonl" in names and "checkpoint_final.ckpt" in names
        assert manifest["config"]["steps"] == 20

    def test_identical_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["train", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert run(["train", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
        assert (out1 / "checkpoint_final.ckpt").read_bytes() == (
            out2 / "checkpoint_final.ckpt"
        ).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["train", "--config", str(cfg), "--out-dir", str(out1), "--seed", "5"]) == 0
        assert run(["train", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert json.loads((out1 / "manifest.json").read_text())["seed"] == 5
        assert (out1 / "checkpoint_final.ckpt").read_bytes() != (
            out2 / "checkpoint_final.ckpt"
        ).read_bytes()

    def test_unknown_objective_names_the_field(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SMALL_CONFIG))
        bad["loss"]["objective"] = "simclr"
        cfg = write_config(tmp_path, bad)
        rc = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err
        assert "objective" in err

    def test_unknown_section_key_is_rejected(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SMALL_CONFIG))
        bad["train"]["momentum"] = 0.9
        cfg = write_config(tmp_path, bad)
        rc = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "momentum" in err

    def test_unknown_top_level_section_is_rejected(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SMALL_CONFIG))
        bad["nettwork"] = bad.pop("network")
        cfg = write_config(tmp_path, bad)
        rc = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert "nettwork" in capsys.readouterr().err

    def test_every_substituted_leaf_exits_0_or_2(self, tmp_path, capsys):
        escaped = []
        for path in leaf_paths(SMALL_CONFIG):
            for value in SUBSTITUTES:
                cfg = write_config(tmp_path, substituted(SMALL_CONFIG, path, value))
                argv = ["train", "--config", str(cfg), "--steps", "1",
                        "--out-dir", str(tmp_path / "x")]
                try:
                    rc = run(argv)
                except Exception as exc:  # recorded: an escape is what this test finds
                    rc = repr(exc)
                if rc not in (0, 2):
                    escaped.append((".".join(path), value, rc))
        capsys.readouterr()
        assert escaped == []

    def test_wrong_typed_value_names_the_field(self, tmp_path, capsys):
        bad = substituted(SMALL_CONFIG, ("loss", "objective"), 5)
        cfg = write_config(tmp_path, bad)
        rc = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert "loss.objective must be str" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, message", REMOVED_SETTINGS,
                             ids=[path for path, _, _ in REMOVED_SETTINGS])
    def test_removed_setting_exits_2_naming_it(
        self, trained, tmp_path, capsys, path, value, message
    ):
        keys = tuple(path.split("."))
        cfg = write_config(tmp_path, substituted({"probe": {}, **SMALL_CONFIG}, keys, value))
        # Only eval reads the probe section.
        argv = ["eval", "--checkpoint", str(trained[1])] if keys[0] == "probe" else ["train"]
        out = tmp_path / "x"
        assert run([*argv, "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"error: config: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path", [("train", "learning_rate"), ("data", "noise_sigma")], ids=".".join
    )
    def test_non_finite_value_names_the_field(self, tmp_path, capsys, path):
        cfg = write_config(tmp_path, substituted(SMALL_CONFIG, path, float("nan")))
        out = tmp_path / "x"
        rc = run(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1"])
        assert rc == 2
        assert f"{'.'.join(path)} must be" in capsys.readouterr().err
        assert not (out / "checkpoint_final.ckpt").exists()

    @pytest.mark.parametrize(
        "path",
        [p for p in leaf_paths(SMALL_CONFIG) if isinstance(reduce(getitem, p, SMALL_CONFIG), float)],
        ids=".".join,
    )
    def test_int_too_large_for_a_float_names_the_field(self, tmp_path, capsys, path):
        cfg = write_config(tmp_path, substituted(SMALL_CONFIG, path, 10**400))
        rc = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x"), "--steps", "1"])
        assert rc == 2
        assert f"config: {'.'.join(path)} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ['{"loss": {"alpha": 1' + "0" * 5000 + "}}", "[" * 100_000],
        ids=["int-past-the-digit-limit", "nested-past-the-recursion-limit"],
    )
    def test_unparsable_config_is_not_valid_json(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        rc = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert f"{cfg} is not valid JSON" in capsys.readouterr().err

    def test_int_for_a_float_field_passes_unchanged(self, tmp_path):
        cfg = write_config(tmp_path, substituted(SMALL_CONFIG, ("loss", "alpha"), 2))
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1"]) == 0
        assert '"alpha": 2,' in (out / "manifest.json").read_text()

    def test_cifar_path_must_be_a_string(self, tmp_path, capsys):
        bad = {**SMALL_CONFIG, "data": {"kind": "cifar10", "path": 3}}
        cfg = write_config(tmp_path, bad)
        rc = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert "data.path" in capsys.readouterr().err

    def test_missing_cifar_file_exits_2_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "absent" / "data_batch_1.bin"
        bad = {**SMALL_CONFIG, "data": {"kind": "cifar10", "path": str(missing)}}
        cfg = write_config(tmp_path, bad)
        rc = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_unreadable_config_file_exits_2_naming_it(self, tmp_path, capsys):
        rc = run(["train", "--config", str(tmp_path), "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_flag_overrides_beat_the_config_file(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert run([
            "train", "--config", str(cfg), "--out-dir", str(out), "--steps", "7",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["steps"] == 7
        steps_logged = [
            json.loads(line)["step"]
            for line in (out / "metrics.jsonl").read_text().splitlines()
        ]
        assert steps_logged == [5]


class TestEvalCommand:
    def test_eval_reads_a_trained_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
        eval_out = tmp_path / "eval"
        rc = run([
            "eval", "--config", str(cfg),
            "--checkpoint", str(out / "checkpoint_final.ckpt"),
            "--sample-count", "64", "--out-dir", str(eval_out),
        ])
        assert rc == 0
        report = json.loads((eval_out / "eval_report.json").read_text())
        assert {"probe_accuracy", "align", "uniformity"} <= set(report)

    def test_manifest_records_the_seed_the_probe_used(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_CONFIG, "probe": {"seed": 5}})
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
        seeds = []
        for extra in ([], ["--seed", "2"]):
            eval_out = tmp_path / f"eval{len(extra)}"
            assert run([
                "eval", "--config", str(cfg), "--checkpoint",
                str(out / "checkpoint_final.ckpt"), "--sample-count", "16",
                "--out-dir", str(eval_out), *extra,
            ]) == 0
            manifest = json.loads((eval_out / "manifest.json").read_text())
            assert manifest["seed"] == manifest["config"]["probe"]["seed"]
            seeds.append(manifest["seed"])
        assert seeds == [5, 2]

    def test_missing_checkpoint_exits_2_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "absent.ckpt"
        rc = run([
            "eval", "--checkpoint", str(missing), "--out-dir", str(tmp_path / "eval"),
        ])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_version_1_checkpoint_exits_2_naming_the_version(self, tmp_path, capsys, tiny_params):
        # The v1 format: after the magic and version, a count of named,
        # ranked and shaped entries, one per parameter array.
        blob = bytearray(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(tiny_params.values)))
        for name, arr in tiny_params.values.items():
            blob += struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", arr.ndim)
            blob += struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.astype("<f8").tobytes()
        ckpt = tmp_path / "v1.ckpt"
        ckpt.write_bytes(bytes(blob))
        rc = run(["eval", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "eval")])
        assert rc == 2
        assert "checkpoint: unsupported format version 1" in capsys.readouterr().err

    def test_corrupted_checkpoint_is_a_format_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
        ckpt = out / "checkpoint_final.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[0] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        rc = run([
            "eval", "--config", str(cfg), "--checkpoint", str(ckpt),
            "--out-dir", str(tmp_path / "eval"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err


class TestOutOfMemory:
    @staticmethod
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    def test_eval_exits_2_naming_the_command(self, tmp_path, capsys, monkeypatch, tiny_params):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        ckpt = tmp_path / "tiny.ckpt"
        save_checkpoint(tiny_params, ckpt)
        monkeypatch.setattr(cli, "metrics_report", self.out_of_memory)
        rc = run(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                  "--out-dir", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: out of memory running eval\n"

    def test_verify_names_its_subcommand(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verify, "upper_bound_sweep", self.out_of_memory)
        rc = run(["verify", "upper-bound", "--out-dir", str(tmp_path / "v")])
        assert rc == 2
        assert capsys.readouterr().err == "error: out of memory running verify upper-bound\n"


class TestVerifyCommands:
    def test_upper_bound_passes_on_small_sweep(self, tmp_path, capsys):
        rc = run([
            "verify", "upper-bound", "--trials", "20",
            "--out-dir", str(tmp_path / "v"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "upper-bound" in out

    def test_gradcheck_passes_at_fine_step(self, tmp_path, capsys):
        rc = run([
            "verify", "gradcheck", "--trials", "5", "--batch-size", "4",
            "--max-coords", "60", "--out-dir", str(tmp_path / "v"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") >= 4

    def test_gradcheck_fails_at_coarse_step(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verify, "FD_STEP", 0.05)
        rc = run([
            "verify", "gradcheck", "--trials", "3",
            "--batch-size", "4", "--max-coords", "40",
            "--out-dir", str(tmp_path / "v"),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        checks = json.loads((tmp_path / "v" / "manifest.json").read_text())["checks"]
        failed = [c for c in checks if not c["passed"]]
        assert failed
        for c in failed:
            assert c["margin"] < 0
            assert c["value"] > c["tolerance"]

    # Seeds at which the trajectory experiment used to start from zero
    # biases and, at its first step, met an augmented row that switched off
    # every projector ReLU and could not be normalized (exit 2).
    @pytest.mark.parametrize("seed", [32, 40, 43, 70, 86, 87, 103, 138, 168])
    def test_correspondence_holds_where_zero_biases_left_a_dead_row(self, tmp_path, seed):
        rc = run([
            "verify", "correspondence", "--seed", str(seed), "--trials", "2",
            "--steps", "1", "--out-dir", str(tmp_path / "v"),
        ])
        assert rc == 0

    def test_correspondence_requires_linear_predictor(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SMALL_CONFIG))
        bad["network"]["predictor"] = "identity"
        cfg = write_config(tmp_path, bad)
        rc = run([
            "verify", "correspondence", "--config", str(cfg),
            "--trials", "2", "--steps", "3", "--out-dir", str(tmp_path / "v"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "predictor must be linear" in err

    def test_correspondence_passes_on_short_run(self, tmp_path, capsys):
        rc = run([
            "verify", "correspondence", "--trials", "5", "--steps", "10",
            "--out-dir", str(tmp_path / "v"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_sylvester_cases_pass(self, tmp_path, capsys):
        rc = run([
            "verify", "sylvester", "--dim", "3", "--samples", "400",
            "--out-dir", str(tmp_path / "v"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["upper-bound", "--trials", "20"], 1),
            (["correspondence", "--trials", "5", "--steps", "10"], 3),
            (["sylvester", "--dim", "3", "--samples", "400"], 4),
            (["gradcheck", "--trials", "5", "--batch-size", "4", "--max-coords", "60"], 4),
        ],
        ids=["upper-bound", "correspondence", "sylvester", "gradcheck"],
    )
    def test_manifest_checks_match_printed_lines(self, tmp_path, capsys, argv, count):
        out = tmp_path / "v"
        assert run(["verify", *argv, "--out-dir", str(out)]) == 0
        printed = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith(("PASS", "FAIL"))
        ]
        assert len(printed) == count
        checks = json.loads((out / "manifest.json").read_text())["checks"]
        assert [
            f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}: {c['detail']}" for c in checks
        ] == printed
        for c in checks:
            assert {"value", "tolerance", "margin", "seconds"} <= set(c)
            assert c["passed"] == (c["margin"] >= 0)
            assert c["seconds"] >= 0

    def test_verify_writes_a_manifest_too(self, tmp_path):
        out = tmp_path / "v"
        assert run(["verify", "upper-bound", "--trials", "5", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"].startswith("verify")

    def test_hooked_names_are_looked_up_when_called(self, tmp_path, monkeypatch):
        # A profiler marks the end of set-up by wrapping
        # verify.upper_bound_sweep and times training steps through
        # verify.train_run, so both must be looked up when a check runs.
        calls = {"upper_bound_sweep": 0, "train_run": 0}

        def counting(name):
            inner = getattr(verify, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(verify, name, counting(name))
        assert run(["verify", "upper-bound", "--trials", "5",
                    "--out-dir", str(tmp_path / "ub")]) == 0
        assert run(["verify", "correspondence", "--trials", "2", "--steps", "3",
                    "--out-dir", str(tmp_path / "c")]) == 0
        assert calls == {"upper_bound_sweep": 1, "train_run": 2}

    def test_verify_all_reports_every_check_of_the_four_subcommands(self, tmp_path, capsys):
        assert run(["verify", "all", "--out-dir", str(tmp_path)]) == 0
        assert "all checks passed" in capsys.readouterr().out
        report = json.loads((tmp_path / "verification_report.json").read_text())
        assert report["all_ok"] is True
        assert len(report["checks"]) == 12
        assert all(c["passed"] for c in report["checks"])
        for sub in ("upper-bound", "correspondence", "sylvester", "gradcheck"):
            manifest = json.loads((tmp_path / sub / "manifest.json").read_text())
            entries = [c for c in report["checks"] if c["command"] == f"verify {sub}"]
            assert [{k: v for k, v in c.items() if k != "command"} for c in entries] == (
                manifest["checks"]
            )

    def test_verify_all_exits_2_when_a_certification_rejects_the_config(
        self, tmp_path, capsys
    ):
        bad = json.loads(json.dumps(SMALL_CONFIG))
        bad["network"]["predictor"] = "identity"
        cfg = write_config(tmp_path, bad)
        out = tmp_path / "v"
        assert run(["verify", "all", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert "predictor must be linear" in capsys.readouterr().err
        report = json.loads((out / "verification_report.json").read_text())
        assert report["all_ok"] is False
        assert {c["command"] for c in report["checks"]} == {
            "verify upper-bound", "verify sylvester", "verify gradcheck"
        }
        assert not (out / "correspondence" / "manifest.json").exists()


# Small flags for each verify subcommand, every check passing.
QUICK_VERIFY = {
    "upper-bound": ["--trials", "5"],
    "correspondence": ["--trials", "3", "--steps", "5"],
    "sylvester": ["--dim", "3", "--samples", "400"],
    "gradcheck": ["--trials", "5", "--batch-size", "4", "--max-coords", "60"],
}


@pytest.mark.parametrize("argv", [
    ["train"], ["verify", "correspondence", "--trials", "2", "--steps", "3"],
    ["verify", "upper-bound"], ["verify", "gradcheck"], ["verify", "sylvester"], ["verify", "all"],
], ids=lambda argv: " ".join(argv[:2]))
def test_input_dim_that_disagrees_with_the_data_exits_2_naming_both(
    tmp_path, capsys, monkeypatch, argv
):
    # Caught before the first step, so nothing is written as if training
    # had diverged, and before any certification starts: `verify all`
    # reports it once and writes no subcommand manifest.
    def refuse(*args, **kwargs):
        raise AssertionError("a check ran")

    for check in QUICK_VERIFY:
        monkeypatch.setattr(verify, "certify_" + check.replace("-", "_"), refuse)
    cfg = write_config(tmp_path, substituted(SMALL_CONFIG, ("network", "input_dim"), 5))
    out = tmp_path / "out"
    assert run([*argv, "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.count(
        "error: network.input_dim: 5 disagrees with the data dimension 8") == 1
    assert [p.name for p in out.rglob("*") if p.name in (
        "divergence_dump.json", "checkpoint_last_good.ckpt", "manifest.json")] == []


@pytest.mark.parametrize("payload, network", [
    ({"data": {"dim": 16}}, {"input_dim": 16}),
    ({"data": {"dim": 16}, "network": {"backbone_widths": [12], "predictor": "linear"}},
     {"input_dim": 16, "backbone_widths": (12,)}),
    ({"network": {}}, {}),
], ids=["default network", "network without input_dim", "empty network section"])
def test_verify_builds_the_network_as_train_does(tmp_path, payload, network):
    # The data section sets the network's input width, as in train, and the
    # keys a network section leaves out come from DEFAULT_VERIFY_NETWORK.
    # Every subcommand that reads a network certifies that one.
    cfg = write_config(tmp_path, payload)
    expected = json.loads(json.dumps(dataclasses.asdict(
        dataclasses.replace(verify.DEFAULT_VERIFY_NETWORK, **network))))
    echoed = {}
    for check, flags in QUICK_VERIFY.items():
        out = tmp_path / check
        assert run(["verify", check, *flags, "--config", str(cfg), "--out-dir", str(out)]) == 0
        echoed[check] = json.loads((out / "manifest.json").read_text())["config"].get("network")
    assert echoed == {"upper-bound": expected, "correspondence": expected, "sylvester": None,
                      "gradcheck": expected}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(config path, final checkpoint) of a short SMALL_CONFIG run."""
    root = tmp_path_factory.mktemp("trained")
    cfg = write_config(root, SMALL_CONFIG)
    out = root / "run"
    assert run(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "5"]) == 0
    return cfg, out / "checkpoint_final.ckpt"


def test_eval_of_a_checkpoint_that_disagrees_with_the_data_exits_2_naming_both(
    trained, tmp_path, capsys
):
    cfg = write_config(tmp_path, {"data": {"dim": 16}})
    out = tmp_path / "eval"
    assert run(["eval", "--config", str(cfg), "--checkpoint", str(trained[1]),
                "--out-dir", str(out)]) == 2
    assert ("error: network.input_dim: 8 disagrees with the data dimension 16"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("count", ["1", "-3"])
def test_eval_sample_count_below_2_exits_2_before_any_output(trained, tmp_path, capsys, count):
    cfg, ckpt = trained
    out = tmp_path / "eval"
    assert run(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                "--sample-count", count, "--out-dir", str(out)]) == 2
    assert f"error: --sample-count: must be >= 2, got {count}" in capsys.readouterr().err
    assert not out.exists()


def test_train_batch_above_the_dataset_size_exits_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "train"
    assert run(["train", "--steps", "5", "--batch-size", "1000", "--out-dir", str(out)]) == 2
    assert "error: batch_size: 1000 exceeds dataset size 400" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, section",
    [
        (["eval"], ("probe", {"seed": -1})),
        (["eval"], ("augmentation", {"seed": -1})),
        (["train", "--seed", "-1"], None),
        (["eval", "--seed", "-1"], None),
        (["verify", "upper-bound", "--seed", "-1"], None),
        (["verify", "correspondence", "--seed", "-1"], None),
        (["verify", "sylvester", "--seed", "-1"], None),
        (["verify", "gradcheck", "--seed", "-1"], None),
    ],
    ids=["eval-probe.seed", "eval-augmentation.seed", "train", "eval", "upper-bound",
         "correspondence", "sylvester", "gradcheck"],
)
def test_negative_seed_exits_2_naming_it(trained, tmp_path, capsys, argv, section):
    cfg, ckpt = trained
    if section is not None:
        name, values = section
        cfg = write_config(tmp_path, {**SMALL_CONFIG, name: values})
    if argv[0] == "eval":
        argv = [*argv, "--checkpoint", str(ckpt)]
    if argv[0] in ("train", "eval"):
        argv = [*argv, "--config", str(cfg)]
    assert run([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert "seed: need >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train"], ["eval"], ["verify", "upper-bound"], ["verify", "correspondence"],
    ["verify", "sylvester"], ["verify", "gradcheck"], ["verify", "all"],
], ids=" ".join)
@pytest.mark.parametrize("path, value", [("loss.uniformity_t", 1.0), ("probe.epochs", 2)],
                         ids=["loss.uniformity_t", "probe.epochs"])
def test_every_command_checks_every_config_section(trained, tmp_path, capsys, argv, path, value):
    # A command rejects a bad key in a section it does not read, so one
    # shared config passes or fails under every command alike.
    cfg = write_config(tmp_path, substituted({"probe": {}, **SMALL_CONFIG},
                                             tuple(path.split(".")), value))
    if argv == ["eval"]:
        argv = [*argv, "--checkpoint", str(trained[1])]
    out = tmp_path / "out"
    assert run([*argv, "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert f"error: config: unknown keys ['{path}']" in capsys.readouterr().err
    assert not out.exists()


# A size whose arrays (8 TB and more) no desk machine can hold. It must be
# rejected before anything is allocated, never attempted.
HUGE = 1_000_000_000_000


@pytest.mark.parametrize(
    "argv, path, named",
    [
        (["train"], ("data", "dim"), "classes * per_class * dim"),
        (["train"], ("network", "backbone_widths"), "network parameters (input_dim, backbone_widths"),
        (["eval", "--sample-count", str(HUGE)], None, f"--sample-count {HUGE} x data dimension 8"),
        # 8.4e6 data and 1.3e7 widest-layer elements pass; the 1.1e12 pairs
        # of rows the uniformity measure compares do not.
        (["eval", "--sample-count", "1048576"], None, "--sample-count 1048576 squared"),
        (["verify", "sylvester", "--samples", str(HUGE)], None, f"--samples {HUGE} x data dimension 8"),
        # 8e7 data elements pass; the 3.2e8 of the two views stacked through the
        # 16-wide layer of the default verify network do not.
        (["verify", "upper-bound", "--batch-size", "10000000"], None,
         "--batch-size 10000000 x 2 views x widest layer 16"),
    ],
    ids=["data.dim", "network.backbone_widths", "eval --sample-count",
         "eval --sample-count squared", "sylvester --samples", "upper-bound --batch-size"],
)
def test_oversized_size_exits_2_naming_it(trained, tmp_path, capsys, argv, path, named):
    cfg, ckpt = trained
    if path is not None:
        value = [HUGE] if path[-1] == "backbone_widths" else HUGE
        cfg = write_config(tmp_path, substituted(SMALL_CONFIG, path, value))
    if argv[0] == "eval":
        argv = [*argv, "--checkpoint", str(ckpt)]
    if argv[0] in ("train", "eval"):
        argv = [*argv, "--config", str(cfg)]
    assert run([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: {named}" in err
    assert f"exceed the limit of {MAX_ELEMENTS}" in err


def float_flags(parser, command: tuple = ()) -> list[tuple[tuple, str]]:
    """(subcommand path, option) of every option that takes a number other
    than an int."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += float_flags(sub, command + (name,))
        elif action.type not in (None, int):
            found.append((command, action.option_strings[-1]))
    return found


FLOAT_FLAGS = float_flags(cli.build_parser())


@pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
@pytest.mark.parametrize(
    "command, flag", FLOAT_FLAGS, ids=[" ".join((*c, f)) for c, f in FLOAT_FLAGS]
)
def test_non_finite_float_flag_exits_2_naming_it(tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as info:
        run([*command, f"{flag}={value}", "--out-dir", str(tmp_path / "out")])
    assert info.value.code == 2
    assert f"argument {flag}: must be a finite float, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_float_flag_count():
    assert len(FLOAT_FLAGS) == 4


# (subcommand, flag, value) of verify flags outside their range. Most used
# to run some checks first, printing PASS over an empty trajectory or sweep.
BAD_VERIFY_FLAGS = [
    pytest.param(["gradcheck"], "--max-coords", "0", id="gradcheck --max-coords 0"),
    pytest.param(["gradcheck"], "--max-coords", "-1", id="gradcheck --max-coords -1"),
    pytest.param(["gradcheck"], "--trials", "0", id="gradcheck --trials 0"),
    pytest.param(["correspondence"], "--steps", "0", id="correspondence --steps 0"),
    pytest.param(["sylvester"], "--samples", "0", id="sylvester --samples 0"),
    pytest.param(["sylvester"], "--samples", "10", id="sylvester --samples below dim^2"),
    pytest.param(["upper-bound"], "--batch-size", "0", id="upper-bound --batch-size 0"),
    pytest.param(["sylvester"], "--dim", "0", id="sylvester --dim 0"),
    pytest.param(["sylvester"], "--dim", "13", id="sylvester --dim 13"),
]


@pytest.mark.parametrize("command, flag, value", BAD_VERIFY_FLAGS)
def test_verify_flag_out_of_range_exits_2_naming_it(tmp_path, capsys, command, flag, value):
    rc = run(["verify", *command, flag, value, "--out-dir", str(tmp_path / "v")])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"error: {flag}: must be >= " in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


# Verify flags that no longer exist, each given the value it defaulted to.
REMOVED_FLAGS = [
    ("correspondence", "--optimizer", "sgd"),
    ("correspondence", "--learning-rate", "0.01"),
    ("correspondence", "--ema-tau", "0.996"),
    ("correspondence", "--rel-tol", "1e-06"),
    ("gradcheck", "--step", "1e-05"),
]


@pytest.mark.parametrize("check, flag, value", REMOVED_FLAGS,
                         ids=[f"{check} {flag}" for check, flag, _ in REMOVED_FLAGS])
def test_removed_verify_flag_is_unrecognized(tmp_path, capsys, check, flag, value):
    with pytest.raises(SystemExit) as info:
        run(["verify", check, flag, value, "--out-dir", str(tmp_path / "v")])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


class TestTopLevel:
    def test_version_flag_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["--version"])
        assert info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_make_data_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["make-data"])
        assert info.value.code == 2
        assert "invalid choice: 'make-data'" in capsys.readouterr().err

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run([])
        assert info.value.code == 2
