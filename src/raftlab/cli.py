"""Command-line entry points.

    raftlab train --steps 2000 --objective raft
    raftlab eval --checkpoint runs/train/checkpoint_final.ckpt
    raftlab verify upper-bound --trials 1000
    raftlab verify correspondence --steps 200
    raftlab verify sylvester
    raftlab verify gradcheck
    raftlab verify all

Every command writes a manifest.json into its output directory recording the
resolved configuration (flags beat the --config file, which beats defaults),
the seed, the artifact paths, and wall-clock start/end. Verification commands
print one PASS/FAIL line per check, record each under the manifest's "checks",
and exit 0 only when every check passes; `verify all` runs each of them and
writes verification_report.json. Configuration and precondition errors exit
2 with the violated condition named on stderr. RAFTLAB_LOG
(error, info, debug) controls stderr verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time
import typing
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, verify
from .data import (
    AugmentationSpec,
    Dataset,
    SyntheticBlobsSpec,
    check_elements,
    load_cifar10,
    make_blobs,
)
from .errors import ConfigError, RaftLabError
from .evaluate import ProbeConfig, metrics_report
from .losses import LossConfig
from .model import NetworkSpec, load_checkpoint
from .train import TrainConfig, require_batch_fits, require_input_dim, train_run

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

log = logging.getLogger("raftlab")


def _configure_logging():
    name = os.environ.get("RAFTLAB_LOG", "info")
    if name not in LOG_LEVELS:
        raise ConfigError(
            f"RAFTLAB_LOG: unknown level {name!r}, expected one of "
            + ", ".join(LOG_LEVELS)
        )
    logging.basicConfig(
        level=LOG_LEVELS[name], stream=sys.stderr, format="%(levelname)s %(message)s"
    )


# ---------------------------------------------------------------------------
# config plumbing


# Config sections and the dataclass each one's keys are the fields of;
# `data` also takes `kind` and, for CIFAR-10, `path`.
_SECTION_TYPES = {"data": SyntheticBlobsSpec, "network": NetworkSpec, "loss": LossConfig,
                  "augmentation": AugmentationSpec, "train": TrainConfig, "probe": ProbeConfig}
SECTIONS = tuple(_SECTION_TYPES)
_SCALARS = (int, float, str)


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path} ({exc.strerror})")
    # Bad JSON or UTF-8, an int past Python's digit limit, or nesting past the
    # recursion limit.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config: {path} is not valid JSON ({exc})")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config: {path} must hold a JSON object")
    unknown = sorted(set(cfg) - set(SECTIONS))
    if unknown:
        raise ConfigError(
            f"config: unknown sections {unknown}, expected some of {list(SECTIONS)}"
        )
    for name, section in cfg.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config: section {name!r} must be a JSON object")
        # Every section's keys and types are checked here, whichever of them
        # the command reads; ranges are checked where a section is built,
        # after the flags that override its values.
        nested = sorted(set(section) & set(SECTIONS))
        if nested:
            raise ConfigError(
                f"config: {name}.{nested[0]} belongs in the top-level {nested[0]!r} section")
        if name == "data":
            _data_fields(section)
        else:
            _fields(_SECTION_TYPES[name], section, name)
    return cfg


def _typed(hint, value, where: str):
    """`value` checked against the field annotation `hint`. A JSON list
    becomes a tuple, a JSON object a nested config dataclass; an int that a
    finite float can hold passes for a float unchanged, a float must be
    finite, and a bool never passes for a number."""
    if dataclasses.is_dataclass(hint):
        if isinstance(value, dict):
            return _from_json(hint, value, where)
    elif typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            item = typing.get_args(hint)[0]
            return tuple(_typed(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    elif hint in _SCALARS:
        accepted = (int, float) if hint is float else hint
        if isinstance(value, accepted) and not isinstance(value, bool):
            # exact int/float comparison: no OverflowError, and NaN fails it
            if hint is not float or abs(value) <= sys.float_info.max:
                return value
    else:
        raise TypeError(f"config: {where} has annotation {hint}, which the reader cannot check")
    if dataclasses.is_dataclass(hint):
        expected = "a JSON object"
    elif hint is float:
        expected = "a finite float"
    else:
        expected = hint.__name__ if hint in _SCALARS else str(hint)
    raise ConfigError(f"config: {where} must be {expected}, got {value!r}")


def _fields(cls, section: dict, where: str) -> dict:
    """The keyword arguments of the config dataclass `cls` that a JSON object
    gives. Keys are checked against the field annotations, and a rejected one
    is named `where.key`."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(section) - set(hints))
    if unknown:
        raise ConfigError(f"config: unknown keys {[f'{where}.{k}' for k in unknown]}")
    return {key: _typed(hints[key], v, f"{where}.{key}") for key, v in section.items()}


def _from_json(cls, section: dict, where: str, **overrides):
    """Build the config dataclass `cls` from a JSON object: its _fields, with
    non-None overrides winning; `cls.__post_init__` checks the ranges."""
    kwargs = _fields(cls, section, where)
    kwargs.update((key, value) for key, value in overrides.items() if value is not None)
    return cls(**kwargs)


def _data_fields(section: dict) -> tuple[str, dict]:
    """The data section's kind and the _fields of the rest of it: those of
    SyntheticBlobsSpec for "blobs", a path for "cifar10"."""
    section = dict(section)
    kind = section.pop("kind", "blobs")
    if kind == "blobs":
        return kind, _fields(SyntheticBlobsSpec, section, "data")
    if kind == "cifar10":
        path = section.pop("path", None)
        if not isinstance(path, str):
            raise ConfigError(f"config: data.path must be str for kind 'cifar10', got {path!r}")
        if section:
            raise ConfigError(
                f"config: data has unknown keys {sorted(section)} for kind 'cifar10'"
            )
        return kind, {"path": path}
    raise ConfigError(
        f"config: data.kind {kind!r} not recognized (expected 'blobs' or 'cifar10')"
    )


def _dataset_from(section: dict) -> tuple[Dataset, dict]:
    """Build the dataset named by the config's data section; returns it with
    the resolved description for the manifest."""
    kind, fields = _data_fields(section)
    if kind == "cifar10":
        return load_cifar10(fields["path"]), {"kind": kind, **fields}
    spec = SyntheticBlobsSpec(**fields)
    return make_blobs(spec), {"kind": kind, **dataclasses.asdict(spec)}


def _section(file_cfg: dict, name: str, **overrides):
    """Section `name` of a config file as its dataclass, built by _from_json."""
    return _from_json(_SECTION_TYPES[name], file_cfg.get(name, {}), name, **overrides)


def _inputs(file_cfg: dict, network: NetworkSpec | None = None
            ) -> tuple[NetworkSpec, Dataset, dict]:
    """The network, the dataset and its manifest description that a config
    file gives, the one rule every command builds them by. The dataset is
    the data section's, or the default blobs; the network section's keys lie
    over `network` (NetworkSpec's defaults when None), and `input_dim`, unless
    the section sets it, is the data's dimension."""
    dataset, data_echo = _dataset_from(file_cfg.get("data", {}))
    fields = {"input_dim": dataset.dim, **_fields(NetworkSpec, file_cfg.get("network", {}),
                                                    "network")}
    network = dataclasses.replace(network, **fields) if network else NetworkSpec(**fields)
    require_input_dim(network, dataset)
    return network, dataset, data_echo


def _out_dir(args, default_leaf: str) -> Path:
    out = Path(args.out_dir) if args.out_dir else Path("runs") / default_leaf
    out.mkdir(parents=True, exist_ok=True)
    return out


class _Manifest:
    """Collects resolved settings, artifact paths and check verdicts for one
    run."""

    def __init__(self, command: str, out_dir: Path, seed: int):
        self.command = command
        self.out_dir = out_dir
        self.seed = seed
        self.artifacts: list[str] = []
        self.checks: list[dict] = []
        self.start = datetime.now(timezone.utc).isoformat()

    def add(self, path: Path) -> Path:
        self.artifacts.append(str(path))
        return path

    def check(self, record: verify.Check):
        """Print the record's PASS/FAIL line and keep all its fields."""
        print(f"{'PASS' if record.passed else 'FAIL'}  {record.name}: {record.detail}")
        self.checks.append(dataclasses.asdict(record))

    def exit_status(self) -> int:
        """0 when every recorded check passed, else 1."""
        return 0 if all(c["passed"] for c in self.checks) else 1

    def write(self, resolved_config: dict):
        payload = {
            "command": self.command,
            "config": resolved_config,
            "seed": self.seed,
            "out_dir": str(self.out_dir),
            "artifacts": self.artifacts,
            "checks": self.checks,
            "version": __version__,
            "wall_start": self.start,
            "wall_end": datetime.now(timezone.utc).isoformat(),
        }
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        log.debug("manifest written to %s", path)


# ---------------------------------------------------------------------------
# commands


def train_config(path, **flags) -> tuple[TrainConfig, Dataset, dict]:
    """Resolve the training run of a config file: the TrainConfig, the
    dataset and its manifest description. `flags` are command-line overrides
    of LossConfig and TrainConfig fields; None leaves the file's value."""
    file_cfg = _load_config_file(path)
    network, dataset, data_echo = _inputs(file_cfg)
    loss_flags = {f.name: flags.pop(f.name, None) for f in dataclasses.fields(LossConfig)}
    cfg = _section(file_cfg, "train", network=network,
                   loss=_section(file_cfg, "loss", **loss_flags),
                   augmentation=_section(file_cfg, "augmentation"), **flags)
    require_batch_fits(cfg, dataset)
    return cfg, dataset, data_echo


def cmd_train(args) -> int:
    # train's flags are named after the LossConfig and TrainConfig fields they set
    fields = {f.name for cls in (LossConfig, TrainConfig) for f in dataclasses.fields(cls)}
    flags = {key: value for key, value in vars(args).items() if key in fields}
    cfg, dataset, data_echo = train_config(args.config, master_seed=args.seed, **flags)

    out = _out_dir(args, "train")
    manifest = _Manifest("train", out, cfg.master_seed)
    log.info(
        "training %s for %d steps (batch %d, optimizer %s) on %d samples",
        cfg.loss.objective, cfg.steps, cfg.batch_size, cfg.optimizer, len(dataset),
    )
    _, records = train_run(cfg, dataset, out_dir=out)
    for rec in records:
        log.debug("step %d loss %.6f uniformity %.4f", rec.step, rec.loss_total, rec.uniformity)
    for name in sorted(p.name for p in out.glob("*.ckpt")) + ["metrics.jsonl"]:
        manifest.add(out / name)
    manifest.write({**dataclasses.asdict(cfg), "data": data_echo})
    if records:
        last = records[-1]
        print(
            f"trained {cfg.steps} steps: loss {last.loss_total:.6f}, "
            f"align {last.loss_align:.6f}, uniformity {last.uniformity:.4f}, "
            f"collapsed {last.collapsed}"
        )
    else:
        print(f"trained {cfg.steps} steps (below log interval, see checkpoints)")
    return 0


def cmd_eval(args) -> int:
    file_cfg = _load_config_file(args.config)
    params = load_checkpoint(args.checkpoint)
    dataset, data_echo = _dataset_from(file_cfg.get("data", {}))
    require_input_dim(params.spec, dataset)
    n, width = args.sample_count, params.spec.widest_layer()
    if n < 2:  # the uniformity measure needs a pair of rows
        raise ConfigError(f"--sample-count: must be >= 2, got {n}")
    check_elements(f"--sample-count {n} x data dimension {dataset.dim}", n * dataset.dim)
    check_elements(f"--sample-count {n} x widest layer {width}", n * width)
    # the uniformity measure compares every pair of rows
    check_elements(f"--sample-count {n} squared", n * n)
    augmentation = _section(file_cfg, "augmentation")
    probe = _section(file_cfg, "probe", seed=args.seed)

    out = _out_dir(args, "eval")
    manifest = _Manifest("eval", out, probe.seed)
    log.info("evaluating %s on %d samples", args.checkpoint, len(dataset))
    report = metrics_report(params, dataset, augmentation, args.sample_count, probe)
    path = manifest.add(out / "eval_report.json")
    path.write_text(report.to_json() + "\n")
    manifest.write(
        {
            "checkpoint": str(args.checkpoint),
            "data": data_echo,
            "augmentation": dataclasses.asdict(augmentation),
            "probe": dataclasses.asdict(probe),
            "sample_count": args.sample_count,
        }
    )
    print(
        f"probe accuracy {report.probe_accuracy:.4f}, align {report.align:.6f}, "
        f"uniformity {report.uniformity:.4f}, collapsed {report.collapsed}"
    )
    return 0


# Count flags of the verify subcommands; each must be at least 1.
_VERIFY_COUNTS = ("trials", "steps", "samples", "max_coords", "batch_size")

# verify subcommand -> the config sections its certification reads. Each
# runs raftlab.verify.certify_<subcommand>, looked up when it runs, with the
# seed, those inputs and the subcommand's own flags.
_CERTIFICATIONS = {
    "upper-bound": ("network",),
    "correspondence": ("network", "data"),
    "sylvester": ("data",),
    "gradcheck": ("network",),
}
# Parsed arguments that are not flags of one certification.
_SHARED_ARGS = ("command", "check", "func", "seed", "out_dir", "config")


def _verify_start(args) -> tuple[tuple, int]:
    """The inputs (see _inputs) and seed of a verify subcommand. Flags and
    config are checked here, so a bad one exits 2 before any check runs."""
    for name in _VERIFY_COUNTS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ConfigError(f"--{name.replace('_', '-')}: must be >= 1, got {value}")
    dim = getattr(args, "dim", None)
    if dim is not None and not 1 <= dim <= verify.MAX_SYLVESTER_DIM:
        raise ConfigError(f"--dim: must be >= 1 and <= {verify.MAX_SYLVESTER_DIM}, got {dim}")
    file_cfg = _load_config_file(args.config)
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise ConfigError(f"seed: need >= 0, got {seed}")
    return _inputs(file_cfg, verify.DEFAULT_VERIFY_NETWORK), seed


def _certify(args, resolved: tuple, seed: int) -> _Manifest:
    """Run one verify subcommand on the `resolved` inputs: write the
    artifacts of its certification, print and record each check, and write
    the manifest."""
    settings = {key: value for key, value in vars(args).items() if key not in _SHARED_ARGS}
    network, dataset, data_echo = resolved
    inputs, echo = {}, {}  # only what the certification reads
    if "network" in _CERTIFICATIONS[args.check]:
        inputs["network"], echo["network"] = network, dataclasses.asdict(network)
    if "data" in _CERTIFICATIONS[args.check]:
        inputs["dataset"], echo["data"] = dataset, data_echo
    if args.check == "sylvester":
        dim = dataset.dim
        if args.samples < dim ** 2:  # the moment estimate needs d^2 draws of d-dim data
            raise ConfigError(f"--samples: must be >= {dim ** 2} (the data dimension "
                              f"squared), got {args.samples}")
        check_elements(f"--samples {args.samples} x data dimension {dim}", args.samples * dim)
    if "batch_size" in settings:  # both views of the batch go stacked through every layer
        width = network.widest_layer()
        check_elements(f"--batch-size {args.batch_size} x 2 views x widest layer {width}",
                       2 * args.batch_size * width)
    out = _out_dir(args, f"verify-{args.check}")
    (out / "manifest.json").unlink(missing_ok=True)  # no stale verdict if this run fails
    manifest = _Manifest(f"verify {args.check}", out, seed)
    certify = getattr(verify, "certify_" + args.check.replace("-", "_"))
    result = certify(seed=seed, **inputs, **settings)
    for name, text in result.artifacts.items():
        manifest.add(out / name).write_text(text)
    for check in result.checks:
        manifest.check(check)
    manifest.write({**settings, **echo})
    return manifest


def cmd_verify(args) -> int:
    return _certify(args, *_verify_start(args)).exit_status()


def cmd_verify_all(args) -> int:
    """Every verify subcommand at its default flags, each into
    <out>/<subcommand>/. Writes verification_report.json from their records
    and returns the highest of their exit statuses."""
    start = time.monotonic()
    resolved, seed = _verify_start(args)  # bad flags or config exit 2 before any check runs
    out = _out_dir(args, "verify-all")
    parser = build_parser()
    status, checks = 0, []
    for check in _CERTIFICATIONS:
        sub_args = parser.parse_args(["verify", check, "--out-dir", str(out / check)])
        try:
            manifest = _certify(sub_args, resolved, seed)
        except RaftLabError as exc:  # reported as `verify <check>` reports it; the rest still run
            print(f"error: {exc}", file=sys.stderr)
            status = 2
            continue
        status = max(status, manifest.exit_status())
        checks += [{"command": manifest.command, **c} for c in manifest.checks]
    elapsed = time.monotonic() - start
    all_ok = status == 0
    print(f"\n{'all checks passed' if all_ok else 'CHECKS FAILED'} in {elapsed:.1f}s")
    report = {"checks": checks, "wall_seconds": elapsed, "all_ok": all_ok}
    path = out / "verification_report.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {path}")
    return status


# ---------------------------------------------------------------------------
# parser


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a float literal that parses to a
    finite value, so inf, nan and 1e400 exit 2 naming the flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite float, got {text!r}")
    return value


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed override")
    common.add_argument(
        "--out-dir", default=None, help="output directory (default runs/<command>)"
    )
    common.add_argument("--config", default=None, help="JSON config file")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raftlab",
        description="Self-distillation objectives with certified gradient structure.",
    )
    parser.add_argument("--version", action="version", version=f"raftlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()

    p = sub.add_parser("train", parents=[common], help="run a training experiment")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument(
        "--objective", choices=("byol", "byol_prime", "raft"), default=None
    )
    p.add_argument("--alpha", type=_finite_float, default=None)
    p.add_argument("--beta", type=_finite_float, default=None)
    p.add_argument("--optimizer", choices=("sgd", "adam"), default=None)
    p.add_argument("--learning-rate", type=_finite_float, default=None)
    p.add_argument("--ema-tau", type=_finite_float, default=None)
    p.add_argument("--log-every", type=int, default=None)
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sample-count", type=int, default=512)
    p.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", help="run a numerical certification")
    vsub = v.add_subparsers(dest="check", required=True)

    p = vsub.add_parser(
        "upper-bound", parents=[common], help="two-term objective bounds the crossed one"
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=16)
    p.set_defaults(func=cmd_verify)

    p = vsub.add_parser(
        "correspondence",
        parents=[common],
        help="mirrored attract/repel runs share encoder trajectories",
    )
    p.add_argument("--trials", type=int, default=100, help="one-step check count")
    p.add_argument("--steps", type=int, default=200, help="trajectory length")
    p.set_defaults(func=cmd_verify)

    p = vsub.add_parser(
        "sylvester", parents=[common], help="fixed-point system rank analysis"
    )
    p.add_argument("--dim", type=int, default=4, help="side length of analytic cases")
    p.add_argument("--samples", type=int, default=20000, help="moment draws")
    p.set_defaults(func=cmd_verify)

    p = vsub.add_parser(
        "gradcheck", parents=[common], help="tape gradients against central differences"
    )
    p.add_argument("--max-coords", type=int, default=10000)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--trials", type=int, default=100, help="gradient identity trials")
    p.set_defaults(func=cmd_verify)

    p = vsub.add_parser("all", parents=[common], help="every certification above, one report")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    command = "raftlab"
    try:
        _configure_logging()
        args = build_parser().parse_args(argv)
        command = " ".join(filter(None, (args.command, getattr(args, "check", None))))
        return args.func(args)
    except RaftLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # An input too large for this machine, not a failed certification.
        print(f"error: out of memory running {command}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
