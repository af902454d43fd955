"""Repository hygiene: scripts and tests use only raftlab's public names."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
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
