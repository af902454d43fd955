#!/usr/bin/env python3
"""Run the full numerical certification battery and write one JSON report.

Drives the four `raftlab verify` subcommands in order, each into its own
directory under --out-dir:
  1. upper-bound: the weighted two-term objective upper-bounds the crossed
     objective over random states and an (alpha, beta) grid,
  2. correspondence: one-step gradient mirroring at negated-predictor
     states, the radial-filter-off negative control, and mirrored
     trajectories with a moving EMA teacher,
  3. sylvester: null-space dimensions of the linear fixed-point system on
     hand-checkable instances, plus agreement of the two second-moment
     estimates under identity augmentations,
  4. gradcheck: central finite-difference gradient checks of all three
     objectives, and the closed-form rescaling gradient against the
     filtered plain gradient.

verification_report.json collects the `checks` list of every subcommand's
manifest. Exit status is the highest exit status of the four subcommands:
0 when every check passes, 1 when one fails, 2 on a bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from raftlab import cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1000,
                        help="random states for the upper-bound sweep")
    parser.add_argument("--mirror-trials", type=int, default=100,
                        help="trials for the one-step and rescaling checks")
    parser.add_argument("--steps", type=int, default=200,
                        help="length of the mirrored-trajectory run")
    parser.add_argument("--moment-samples", type=int, default=20000,
                        help="draws for the Monte-Carlo moment agreement")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out-dir", type=Path, default=REPO_ROOT / "runs" / "verification",
    )
    args = parser.parse_args(argv)
    start = time.monotonic()

    battery = {
        "upper-bound": ["--trials", str(args.trials)],
        "correspondence": ["--trials", str(args.mirror_trials), "--steps", str(args.steps)],
        "sylvester": ["--samples", str(args.moment_samples)],
        "gradcheck": ["--trials", str(args.mirror_trials)],
    }
    status = 0
    checks = []
    for sub, flags in battery.items():
        out = args.out_dir / sub
        manifest = out / "manifest.json"
        manifest.unlink(missing_ok=True)  # a failed start must not leave a stale verdict
        status = max(status, cli.main(
            ["verify", sub, "--seed", str(args.seed), "--out-dir", str(out), *flags]
        ))
        if manifest.exists():
            checks += [
                {"command": f"verify {sub}", **c}
                for c in json.loads(manifest.read_text())["checks"]
            ]

    elapsed = time.monotonic() - start
    all_ok = status == 0
    print(f"\n{'all checks passed' if all_ok else 'CHECKS FAILED'} in {elapsed:.1f}s")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    report_path = args.out_dir / "verification_report.json"
    report_path.write_text(
        json.dumps(
            {"checks": checks, "wall_seconds": elapsed, "all_ok": all_ok}, indent=2
        )
        + "\n"
    )
    print(f"report written to {report_path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
