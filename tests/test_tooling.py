"""Repository hygiene: scripts and tests use only raftlab's public names, the
package imports itself only by relative imports, the config reader can
check every field of every config dataclass, the training step calls each
phase the benchmark times once and each tape op it times at least once per
step, one function of the CLI builds the network from a config, every
train flag sets a config field, every verify flag is a parameter of its
certification and every raftlab name the benchmark worker calls exists."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
import typing
from pathlib import Path

import pytest

from raftlab import cli, optim, tape, train, verify
from raftlab.data import SyntheticBlobsSpec
from raftlab.evaluate import ProbeConfig
from raftlab.losses import LossConfig
from raftlab.model import NetworkSpec
from raftlab.train import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
SOURCES = sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def private_raftlab_imports(source: str) -> list[str]:
    """`module.name` for each `_`-prefixed, non-dunder name imported from raftlab."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        module = node.module or ""
        if module != "raftlab" and not module.startswith("raftlab."):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{module}.{name}")
    return found


def test_detector_flags_private_names_only():
    assert private_raftlab_imports("from raftlab.train import _seeds, derived_seeds") == [
        "raftlab.train._seeds"
    ]
    assert private_raftlab_imports("from raftlab import __version__, cli") == []
    assert private_raftlab_imports("from raftlabx import _y\nfrom numpy import _z") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_raftlab_imports(path):
    assert private_raftlab_imports(path.read_text()) == []


PACKAGE = sorted((ROOT / "src" / "raftlab").glob("*.py"))


def absolute_raftlab_imports(source: str) -> list[str]:
    """Each module named in an `import raftlab...` or a non-relative
    `from raftlab... import`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "raftlab"]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").split(".")[0] == "raftlab":
                found.append(node.module)
    return found


def test_detector_flags_absolute_self_imports_only():
    source = ("import raftlab.tape as T\nfrom raftlab import cli\nfrom raftlab.model import x\n"
              "from . import tape\nfrom .data import y\nimport raftlabx\nfrom numpy import z")
    assert absolute_raftlab_imports(source) == ["raftlab.tape", "raftlab", "raftlab.model"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_itself_only_relatively(path):
    # So that two source trees can be loaded side by side in one process as
    # differently named packages without sharing modules.
    assert absolute_raftlab_imports(path.read_text()) == []


# The dataclasses the config reader builds, and the annotations it checks.
READER_ROOTS = (TrainConfig, SyntheticBlobsSpec, ProbeConfig)
HANDLED = [int, float, str, tuple[int, ...]]


def config_annotations(cls) -> list[tuple[str, object]]:
    """(`Class.field`, annotation) of each leaf field, nested dataclasses
    walked."""
    found = []
    for name, hint in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            found += config_annotations(hint)
        else:
            found.append((f"{cls.__name__}.{name}", hint))
    return found


def test_reader_handles_every_config_annotation():
    leaves = [leaf for root in READER_ROOTS for leaf in config_annotations(root)]
    names = {name for name, _ in leaves}
    assert {"ViewAugmentation.noise_sigma", "TrainConfig.ema_tau", "ProbeConfig.seed"} <= names
    assert [(name, hint) for name, hint in leaves if hint not in HANDLED] == []


def test_every_field_round_trips_through_the_reader(tmp_path):
    defaults = TrainConfig(
        network=NetworkSpec(input_dim=8), steps=2, learning_rate=0.1
    )
    nested = ("network", "loss", "augmentation")
    payload = {
        "data": {"kind": "blobs", **dataclasses.asdict(SyntheticBlobsSpec())},
        "probe": dataclasses.asdict(ProbeConfig()),
        **{name: dataclasses.asdict(getattr(defaults, name)) for name in nested},
        "train": {k: v for k, v in dataclasses.asdict(defaults).items() if k not in nested},
    }
    path = tmp_path / "full.json"
    path.write_text(json.dumps(payload))
    cfg, dataset, _ = cli.train_config(path)
    assert cfg == defaults
    assert dataset.dim == 8
    assert set(payload) == set(cli.SECTIONS)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_pinned_configs_resolve(path):
    cfg, dataset, echo = cli.train_config(path)
    assert cfg.network.input_dim == dataset.dim
    assert echo["kind"] == json.loads(path.read_text())["data"]["kind"]


def benchmark_step_phases() -> list[str]:
    """`module.function` of each BENCHMARK.json per-layer time named
    `<module>.<function>.ms` after a public function of raftlab.<module>."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    phases = []
    for name in names:
        parts = name.split(".")
        if len(parts) != 3 or parts[2] != "ms" or parts[1].startswith("_"):
            continue
        try:
            module = importlib.import_module(f"raftlab.{parts[0]}")
        except ModuleNotFoundError:
            continue
        if inspect.isfunction(getattr(module, parts[1], None)):
            phases.append(f"{parts[0]}.{parts[1]}")
    return phases


def test_train_run_calls_every_benchmarked_phase():
    phases = benchmark_step_phases()
    assert {
        "data.sample_positive_batch", "model.bind_params", "model.forward_online",
        "model.forward_target", "losses.objective_terms", "model.ema_update",
    } <= set(phases)
    tree = ast.parse(textwrap.dedent(inspect.getsource(train.train_run)))
    assert [p for p in phases if p.split(".")[1] not in called_names(tree)] == []
    # optim.step.ms sums the spans of raftlab.optim's public functions that
    # the step loop calls directly; with none, it reads as unmeasured.
    step_loop = next(node for node in ast.walk(tree) if isinstance(node, ast.For))
    public_optim = {
        name for name, obj in vars(optim).items()
        if inspect.isfunction(obj) and obj.__module__ == optim.__name__ and not name.startswith("_")
    }
    assert public_optim & called_names(step_loop)


def benchmark_tape_ops() -> list[str]:
    """The ops of each BENCHMARK.json per-layer `tape.op.<op>.calls_per_step`."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    return [name.split(".")[2] for name in names
            if name.startswith("tape.op.") and name.endswith(".calls_per_step")]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_train_run_calls_each_benchmarked_phase_once_and_op_each_step(path, monkeypatch):
    # The tracer wraps functions at their module-level names, so a traced
    # benchmark run fails when a named phase or op goes unmeasured: called
    # through a local alias, or no longer called, for example once a fused op
    # has taken over all of its calls.
    phases = [name.split(".")[1] for name in benchmark_step_phases()]
    assert {"sample_positive_batch", "bind_params", "forward_online", "forward_target",
            "objective_terms", "ema_update"} <= set(phases)
    ops = benchmark_tape_ops()
    assert {"matmul", "add", "relu", "l2_normalize", "squared_distance", "batch_mean",
            "scale"} <= set(ops)
    calls = {}

    def count(owner, attr, key):
        inner = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    # tape.backward.ms times Tape.backward, and optim.step.ms the optimizer
    # step the loop calls.
    for name in [*phases, "adam_step"]:
        count(train, name, name)
    count(tape.Tape, "backward", "Tape.backward")
    for op in ops:
        count(tape, op, op)
    timed = [*phases, "adam_step", "Tape.backward"]
    seen = []
    cfg, dataset, _ = cli.train_config(path, steps=2)
    train.train_run(cfg, dataset, step_callback=lambda k, params, grads: seen.append(dict(calls)))
    first, second = seen
    for step in (first, {key: n - first.get(key, 0) for key, n in second.items()}):
        assert {name: step.get(name, 0) for name in timed} == dict.fromkeys(timed, 1)
        assert [op for op in ops if step.get(op, 0) < 1] == []


def called_names(tree) -> set:
    """Names of the functions called anywhere under `tree`."""
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return called


def test_tape_ops_return_constants_only_through_op():
    # tape._op decides what an op on constants returns; an op that wraps its
    # own result forks that decision. as_tensor wraps inputs, and
    # stacked_matmul takes constants only.
    tree = ast.parse((ROOT / "src" / "raftlab" / "tape.py").read_text())
    wrapping = sorted(node.name for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and "_wrap" in called_names(node))
    assert wrapping == ["_op", "as_tensor", "stacked_matmul"]


def test_one_function_builds_the_network_from_a_config():
    # cli._inputs alone turns a config into a network and checks its input
    # width against the data, so that every command resolves the same file
    # alike; cmd_eval checks a checkpoint's network, which no config builds.
    # The imports and _SECTION_TYPES are not functions and are not counted.
    tree = ast.parse((ROOT / "src" / "raftlab" / "cli.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    naming = sorted(fn.name for fn in functions if any(
        isinstance(node, ast.Name) and node.id == "NetworkSpec" for node in ast.walk(fn)))
    checking = sorted(fn.name for fn in functions if "require_input_dim" in called_names(fn))
    assert naming == ["_inputs"]
    assert checking == ["_inputs", "cmd_eval"]


def test_every_train_flag_sets_a_config_field():
    # cmd_train keeps only the flags named after a LossConfig or TrainConfig
    # field, so any other train flag would be accepted and silently ignored.
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subparsers.choices["train"]._actions if a.option_strings}
    fields = {f.name for cls in (LossConfig, TrainConfig) for f in dataclasses.fields(cls)}
    assert "objective" in dests and "steps" in dests
    assert sorted(dests - fields - {"help", "seed", "out_dir", "config"}) == []


def test_every_verify_flag_is_a_certify_parameter():
    # _certify passes a verify subcommand's own flags to
    # verify.certify_<subcommand> by name, next to the seed and the network
    # and dataset it resolves from the config.
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    checks = next(a for a in commands.choices["verify"]._actions
                  if isinstance(a, argparse._SubParsersAction))
    assert len(checks.choices) == 5
    for name, sub in checks.choices.items():
        if name == "all":
            continue
        flags = {a.dest for a in sub._actions if a.option_strings}
        certify = getattr(verify, "certify_" + name.replace("-", "_"))
        params = set(inspect.signature(certify).parameters)
        assert flags - {"help", "seed", "out_dir", "config"} == params - {
            "seed", "network", "dataset"
        }, name


def worker_raftlab_attributes() -> set[str]:
    """`module.name` of each attribute perfbench/worker.py reads from a
    module it imports with `from raftlab import ...`."""
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "raftlab"
               for alias in node.names}
    return {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_benchmark_worker_reaches_only_callables_that_exist():
    # The benchmark drives raftlab through these names and wraps some of
    # them, so a rename fails here before it fails a benchmark run.
    found = worker_raftlab_attributes()
    assert {"cli.main", "cli.train_run", "train.init_params", "verify.upper_bound_sweep",
            "verify.train_run", "model.save_checkpoint"} <= found
    missing = [name for name in sorted(found) if not callable(getattr(
        importlib.import_module("raftlab." + name.split(".")[0]), name.split(".")[1], None))]
    assert missing == []


TRACED_RUN = """
import contextlib, io, json, sys
import raftlab, tracing
from raftlab import cli

recorder = tracing.Recorder()
tracing.install(recorder, raftlab)
out, config = sys.argv[1], sys.argv[2]
codes = []
for i, argv in enumerate((["verify", "upper-bound", "--trials", "20"],
                          ["verify", "gradcheck", "--max-coords", "200", "--trials", "10"],
                          ["train", "--config", config, "--steps", "20"])):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main([*argv, "--out-dir", f"{out}/{i}"]))
recorder.save(f"{out}/spans.npz")
print(json.dumps({"codes": codes,
                  "analysis": tracing.analyze(f"{out}/spans.npz", steps=20)}))
"""


def test_the_benchmark_tracer_runs_over_the_stacked_paths(tmp_path):
    # perfbench/tracing.py reads every tape.matmul result as a matrix, so
    # the stacked sweeps of upper-bound and gradcheck must take another op,
    # or a traced benchmark run of them fails.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path),
         str(ROOT / "configs" / "collapse_byol_np.json")],
        env=env, check=True, capture_output=True, text=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["analysis"]["mflop_per_step"] > 0
