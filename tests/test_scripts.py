"""The study scripts under scripts/, called through their main()."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
