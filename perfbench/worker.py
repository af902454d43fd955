"""Run one pipeline of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py '<spec json>'

run.py starts one worker per pipeline, so each pipeline pays what a user of
the command line pays: interpreter start, imports, config parsing, dataset
build and parameter init. The worker drives raftlab only through
`raftlab.cli.main` and wraps a few public names to take timestamps:

- `raftlab.train.init_params` and `raftlab.verify.upper_bound_sweep` mark the
  end of set-up (the first training step or the first check comes next);
- `raftlab.cli.train_run` and `raftlab.verify.train_run` chain a
  `step_callback` that stamps the end of every training step.

With `"trace": true` it also records spans (see tracing.py), and with
`"short": true` it runs the shortened pipeline of selftest.py. It writes its
record as JSON to `spec["result"]`.
"""

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

CONFIGS = {
    "repel": "configs/collapse_raft_lp.json",
    "attract": "configs/collapse_byol_np.json",
}
VERIFY_CHECKS = ("upper-bound", "correspondence", "sylvester", "gradcheck")
# Subcommands that take the benchmark seed. `correspondence` and `gradcheck`
# run at their CLI default seed: at some seeds they fail (see README.md).
SEEDED_CHECKS = ("upper-bound", "sylvester")
# Flags of a shortened pipeline, used by selftest.py.
SHORT_FLAGS = {
    "train": ["--steps", "100"],
    "upper-bound": ["--trials", "20"],
    "correspondence": ["--trials", "10", "--steps", "20"],
    "sylvester": ["--samples", "2000"],
    "gradcheck": ["--max-coords", "200", "--trials", "10"],
}


class Clock:
    """Timestamps taken by the hooks."""

    def __init__(self):
        self.setup_end = None
        self.mark = None  # start of the step in progress
        self.step_ms: list[float] = []
        self.init_params = None

    def end_setup(self):
        now = time.monotonic()
        if self.setup_end is None:
            self.setup_end = now
        self.mark = now


def install_hooks(clock: Clock):
    from raftlab import cli, train, verify

    def timed_train_run(inner):
        def wrapper(*args, step_callback=None, **kwargs):
            clock.mark = time.monotonic()

            def stamp(step, params, grads):
                if step_callback is not None:
                    step_callback(step, params, grads)
                now = time.monotonic()
                clock.step_ms.append(1e3 * (now - clock.mark))
                clock.mark = now

            return inner(*args, step_callback=stamp, **kwargs)

        return wrapper

    inner_init = train.init_params

    def init_params(*args, **kwargs):
        params = inner_init(*args, **kwargs)
        clock.init_params = params
        clock.end_setup()
        return params

    inner_sweep = verify.upper_bound_sweep

    def upper_bound_sweep(*args, **kwargs):
        clock.end_setup()
        return inner_sweep(*args, **kwargs)

    train.init_params = init_params
    verify.upper_bound_sweep = upper_bound_sweep
    cli.train_run = timed_train_run(cli.train_run)
    verify.train_run = timed_train_run(verify.train_run)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import numpy

    root = os.path.dirname(os.path.dirname(numpy.__file__))
    for path in glob.glob(os.path.join(root, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def call(cli, label, argv, record):
    """One closed-loop call of raftlab.cli.main; stdout is captured."""
    buf = io.StringIO()
    entry = {"label": label, "argv": argv, "rc": None, "stdout": "", "error": None}
    try:
        with contextlib.redirect_stdout(buf):
            entry["rc"] = cli.main(argv)
    except Exception:
        entry["error"] = traceback.format_exc()
    entry["stdout"] = buf.getvalue()
    record["calls"].append(entry)
    return entry["rc"] == 0


def run_pipeline(spec, cli, model, clock, record):
    out = Path(spec["out"])

    def short(name):
        return SHORT_FLAGS[name] if spec.get("short") else []

    if spec["workload"] in CONFIGS:
        # The seed picks the augmentation seed of the pinned config, which
        # only `eval` reads (train re-derives it from master_seed). `--seed`
        # would replace the pinned master_seed and probe seed, and the
        # collapse checks hold at those pinned seeds only.
        pinned = json.loads(Path(CONFIGS[spec["workload"]]).read_text())
        pinned.setdefault("augmentation", {})["seed"] = spec["seed"]
        cfg = str(out / "config.json")
        Path(cfg).write_text(json.dumps(pinned))
        ok = call(cli, "train", ["train", "--config", cfg, "--out-dir", str(out / "train")]
                  + short("train"), record)
        if not ok:
            return
        init_ckpt = out / "init.ckpt"
        model.save_checkpoint(clock.init_params, init_ckpt)
        for leaf, ckpt in (("eval", out / "train" / "checkpoint_final.ckpt"),
                           ("eval_init", init_ckpt)):
            call(cli, leaf, ["eval", "--config", cfg, "--checkpoint", str(ckpt),
                             "--out-dir", str(out / leaf)], record)
    else:
        for check in VERIFY_CHECKS:
            seed = ["--seed", str(spec["seed"])] if check in SEEDED_CHECKS else []
            call(cli, check, ["verify", check, *seed, "--out-dir", str(out / check)]
                 + short(check), record)


def main(argv):
    spec = json.loads(argv[1])
    record = {"calls": [], "error": None}
    clock = Clock()
    recorder = None
    try:
        import raftlab
        from raftlab import cli, model

        record["raftlab_file"] = raftlab.__file__
        if spec.get("trace"):
            import tracing

            recorder = tracing.Recorder()
            tracing.install(recorder, raftlab)
        install_hooks(clock)
        run_pipeline(spec, cli, model, clock, record)
    except Exception:
        record["error"] = traceback.format_exc()
    record["t_end"] = time.monotonic()
    record["t_setup_end"] = clock.setup_end
    record["step_ms"] = clock.step_ms
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["blas_threads"] = blas_threads()
    if recorder is not None:
        spans = Path(spec["out"]) / "spans.npz"
        recorder.save(spans)
        record["spans"] = str(spans)
    Path(spec["result"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
