"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A shortened run of each workload (100 training steps, fewer trials in
   each verify subcommand) emits every metric of BENCHMARK.json, each with
   its unit, with and without tracing, and every value is above 0, except
   `trace.overhead_s`: a difference of two wall times, it reads below 0 when
   the host's noise exceeds the tracing cost, as it can on a shortened run.
2. A checkpoint byte flipped in a temp copy of one pipeline's output makes
   the digest check fail and raises fail_ratio above its value before. (100
   steps are too few for the collapse checks, so it does not start at 0.)
3. In a directory holding only BENCHMARK.json and the benchmark's files, the
   benchmark exits non-zero without printing a result.

Exits 0 when all of it holds.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
import tempfile

import run


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


# Per-layer metrics that may read 0 or below on a correct run.
SIGNED = {"trace.overhead_s"}


def metrics_complete(result: dict, wanted: list[dict], label: str, failures: list[str]) -> None:
    got = result["metrics"]
    check(set(got) == {m["name"] for m in wanted}, f"{label}: metric names match BENCHMARK.json",
          failures)
    for m in wanted:
        entry = got.get(m["name"], {})
        value = entry.get("value")
        check(entry.get("unit") == m["unit"] and isinstance(value, float)
              and (value > 0 or m["name"] in SIGNED),
              f"{label}: {m['name']} = {value} {m['unit']}", failures)


def quiet_run(workload: str, trace: bool, keep: bool = False):
    """A shortened run of `workload`; its report is not printed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(workload, 0, 1, trace=trace, short=True, keep=keep)


def flipped_checkpoint(failures: list[str]) -> None:
    _, runner = quiet_run("repel", trace=False, keep=True)
    try:
        before, _ = run.score(runner)
        copy = runner.work / "flipped"
        shutil.copytree(runner.pipelines[1].out, copy)
        ckpt = copy / "train" / "checkpoint_final.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[-1] ^= 0x01
        ckpt.write_bytes(bytes(blob))
        runner.pipelines[1].out = copy
        after, _ = run.score(runner)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    def failed(checks):
        return sum(1 for _, ok in checks if not ok)

    digest = [ok for name, ok in after if name.endswith("checkpoint_final.ckpt equals pipeline 1")]
    check(digest == [False], "flipped checkpoint byte fails the digest check", failures)
    check(failed(after) > failed(before),
          f"fail_ratio rises from {failed(before)}/{len(before)} to {failed(after)}/{len(after)}",
          failures)


def bare_directory(failures: list[str]) -> None:
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, f"{tmp}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "repel", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    with contextlib.suppress(OSError):
        run.WORK.rmdir()
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare directory: exit status {proc.returncode}, no result printed", failures)


def main() -> int:
    spec = run.load_spec()
    failures: list[str] = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result, _ = quiet_run(workload, trace)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            metrics_complete(result, wanted, f"{workload} trace {int(trace)}", failures)
            check(result["attempted"] >= 1, f"{workload} trace {int(trace)}: checks attempted",
                  failures)
    flipped_checkpoint(failures)
    bare_directory(failures)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
