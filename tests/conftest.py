"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from raftlab.data import AugmentationSpec, SyntheticBlobsSpec, make_blobs
from raftlab.model import NetworkSpec, init_params

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# A config small enough for a 20-step training run in well under a second.
SMALL_CONFIG = {
    "data": {"kind": "blobs", "dim": 8, "classes": 4, "per_class": 12,
             "noise_sigma": 0.35, "center_seed": 7},
    "network": {"backbone_widths": [12], "representation_dim": 10,
                "projection_dim": 6, "predictor": "linear"},
    "loss": {"objective": "byol_prime", "alpha": 1.0, "beta": 1.0},
    "augmentation": {"view1": {"noise_sigma": 0.2}, "view2": {"noise_sigma": 0.2}},
    "train": {"steps": 20, "batch_size": 16, "optimizer": "adam",
              "learning_rate": 0.0003, "ema_tau": 0.996, "master_seed": 0,
              "log_every": 5},
}

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    """The module of scripts/<name>.py, loaded without running its main()."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TINY_NET = NetworkSpec(
    input_dim=8,
    backbone_widths=(16,),
    representation_dim=12,
    projection_dim=8,
    predictor="linear",
)


@pytest.fixture(scope="session")
def blobs():
    """Default synthetic dataset (400 unit-norm rows, 4 classes)."""
    return make_blobs(SyntheticBlobsSpec())


@pytest.fixture(scope="session")
def small_blobs():
    """A smaller dataset for fast training-loop tests."""
    return make_blobs(SyntheticBlobsSpec(per_class=12))


@pytest.fixture()
def tiny_net():
    return TINY_NET


@pytest.fixture()
def tiny_params():
    return init_params(TINY_NET, seed=0)


@pytest.fixture()
def identity_aug():
    return AugmentationSpec()


def random_unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Rows drawn from a normal law and projected to the unit sphere."""
    x = rng.normal(size=(n, d))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    low = norms[:, 0] < 1e-3
    x[low] = np.eye(d)[0]
    norms[low] = 1.0
    return x / np.linalg.norm(x, axis=1, keepdims=True)
