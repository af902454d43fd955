#!/usr/bin/env python3
"""Run the two-arm collapse study and report the qualitative orderings.

Trains the attract-only arm (no predictor, EMA teacher) and the repel arm
(linear predictor, teacher pushed away) from their pinned configs, then
prints alignment, uniformity, and probe accuracy side by side together with
the four orderings the study is meant to exhibit:

  a. the attract-only arm collapses (align -> 0, uniformity -> 0),
  b. the repel arm stays spread (uniformity < -1),
  c. the repel arm's probe beats a random-init probe by >= 10 points,
  d. the attract-only arm sits strictly above the repel arm in uniformity.

Exit status is 0 iff all four hold.
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
from raftlab.evaluate import EvalReport, linear_evaluation, metrics_report
from raftlab.model import init_params, load_checkpoint
from raftlab.train import derived_seeds


def run_arm(cfg_path: Path, out_dir: Path, sample_count: int) -> tuple[EvalReport, float]:
    """Train one config, then evaluate the final checkpoint as `raftlab eval`
    does and a fresh random initialization under the same seed derivation."""
    cfg, dataset, _ = cli.train_config(cfg_path)
    rc = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    if rc != 0:
        raise RuntimeError(f"training failed for {cfg_path.name} (exit {rc})")
    params = load_checkpoint(out_dir / "checkpoint_final.ckpt")
    report = metrics_report(params, dataset, cfg.augmentation, sample_count=sample_count)
    init_seed, _ = derived_seeds(cfg.master_seed)
    baseline = linear_evaluation(init_params(cfg.network, init_seed), dataset)
    return report, baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--config-dir", type=Path, default=REPO_ROOT / "configs",
        help="directory holding the two pinned study configs",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=REPO_ROOT / "runs" / "collapse_study",
        help="where training artifacts and the study report go",
    )
    parser.add_argument(
        "--sample-count", type=int, default=512,
        help="positive pairs drawn for the alignment/uniformity estimates",
    )
    args = parser.parse_args(argv)

    start = time.monotonic()
    attract, _ = run_arm(
        args.config_dir / "collapse_byol_np.json", args.out_dir / "attract",
        args.sample_count,
    )
    repel, repel_baseline = run_arm(
        args.config_dir / "collapse_raft_lp.json", args.out_dir / "repel",
        args.sample_count,
    )
    elapsed = time.monotonic() - start

    margin = repel.probe_accuracy - repel_baseline
    checks = {
        "attract_collapses": attract.align < 1e-6 and attract.uniformity > -0.5,
        "repel_spreads": repel.uniformity < -1.0,
        "repel_probe_gain": margin >= 0.10,
        "uniformity_ordering": attract.uniformity > repel.uniformity,
    }

    print(f"{'':24s}{'attract-only':>14s}{'repel':>14s}")
    print(f"{'align':24s}{attract.align:>14.3e}{repel.align:>14.3e}")
    print(f"{'uniformity':24s}{attract.uniformity:>+14.4f}{repel.uniformity:>+14.4f}")
    print(
        f"{'probe accuracy':24s}{attract.probe_accuracy:>14.4f}"
        f"{repel.probe_accuracy:>14.4f}"
    )
    print(f"{'random-init probe':24s}{'-':>14s}{repel_baseline:>14.4f}")
    print(f"{'collapsed flag':24s}{str(attract.collapsed):>14s}{str(repel.collapsed):>14s}")
    print()
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"\nwall time {elapsed:.1f}s; artifacts under {args.out_dir}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    report_path = args.out_dir / "study_report.json"
    report_path.write_text(
        json.dumps(
            {
                "attract": json.loads(attract.to_json()),
                "repel": json.loads(repel.to_json()),
                "repel_random_init_probe": repel_baseline,
                "repel_probe_margin": margin,
                "checks": checks,
                "wall_seconds": elapsed,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"study report written to {report_path}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
