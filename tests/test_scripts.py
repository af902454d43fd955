"""The study scripts under scripts/, called through their main()."""

from __future__ import annotations

import json

from conftest import SMALL_CONFIG, load_script

from raftlab import cli


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
