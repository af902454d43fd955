"""The study scripts under scripts/, called through their main()."""

from __future__ import annotations

import json

from conftest import SMALL_CONFIG, load_script

from raftlab import cli


def test_run_verification_reports_every_check_of_the_four_subcommands(tmp_path):
    script = load_script("run_verification")
    rc = script.main([
        "--trials", "20", "--mirror-trials", "10", "--steps", "20",
        "--moment-samples", "2000", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "verification_report.json").read_text())
    assert len(report["checks"]) == 12
    assert all(c["passed"] for c in report["checks"])
    assert report["all_ok"]


def test_collapse_arm_evaluates_what_raftlab_eval_evaluates(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(
        {**SMALL_CONFIG, "augmentation": {**SMALL_CONFIG["augmentation"], "seed": 3}}
    ))
    run_arm = load_script("run_collapse_study").run_arm
    report, _ = run_arm(cfg, tmp_path / "train", 64)
    assert cli.main([
        "eval", "--config", str(cfg), "--checkpoint",
        str(tmp_path / "train" / "checkpoint_final.ckpt"),
        "--sample-count", "64", "--out-dir", str(tmp_path / "eval"),
    ]) == 0
    assert json.loads(report.to_json()) == json.loads(
        (tmp_path / "eval" / "eval_report.json").read_text()
    )
