"""Pinned output bytes: what `train`, `eval` and `verify all` write must not
move unless a change means it to.

`golden_digests.json` maps a machine fingerprint (the NumPy version, the
BLAS configuration and the CPU's SIMD extensions) to the sha256 of each
output: `metrics.jsonl` and `checkpoint_final.ckpt` of a 200-step `train`
of both pinned configs, the `eval_report.json` of each, and every `verify
all` artifact. Manifests and `verification_report.json` hold paths and
wall times, so they stay out. On a fingerprint the file holds, every digest
must match exactly. Elsewhere floating point may round differently, so the
test prints the digests to pin and checks that a second run reproduces the
first.

To pin the current machine's digests, run
`PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from raftlab import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
ARMS = {"attract": "collapse_byol_np.json", "repel": "collapse_raft_lp.json"}
UNPINNED = {"manifest.json", "verification_report.json"}


def fingerprint() -> str:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    simd = cfg.get("SIMD Extensions", {})
    blas_cfg = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    return " | ".join((f"numpy {np.__version__}", blas_cfg.strip(),
                       " ".join(simd.get("baseline", []) + simd.get("found", []))))


def output_digests(root: Path) -> dict[str, str]:
    """Run every pinned command under `root` and hash what it wrote."""
    for arm, name in ARMS.items():
        config = str(ROOT / "configs" / name)
        assert cli.main(["train", "--config", config, "--steps", "200",
                         "--out-dir", str(root / "train" / arm)]) == 0
        assert cli.main(["eval", "--config", config, "--checkpoint",
                         str(root / "train" / arm / "checkpoint_final.ckpt"),
                         "--out-dir", str(root / "eval" / arm)]) == 0
    assert cli.main(["verify", "all", "--out-dir", str(root / "verify")]) == 0
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name not in UNPINNED}


def test_outputs_match_their_pinned_digests(tmp_path):
    got = output_digests(tmp_path / "a")
    pinned = json.loads(GOLDEN.read_text()).get(fingerprint())
    if pinned is not None:
        assert got == pinned
        return
    print(json.dumps({fingerprint(): got}, indent=2))
    assert output_digests(tmp_path / "b") == got


def test_pinned_outputs_cover_every_command():
    for digests in json.loads(GOLDEN.read_text()).values():
        assert {k for k in digests if k.startswith("train/")} == {
            f"train/{arm}/{f}" for arm in ARMS for f in ("metrics.jsonl", "checkpoint_final.ckpt")}
        assert {k for k in digests if k.startswith("eval/")} == {
            f"eval/{arm}/eval_report.json" for arm in ARMS}
        assert {k.split("/")[1] for k in digests if k.startswith("verify/")} == {
            "upper-bound", "correspondence", "sylvester", "gradcheck"}


if __name__ == "__main__":
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table[fingerprint()] = output_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
