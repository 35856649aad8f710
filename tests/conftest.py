"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from test_golden_run import run_train_config


@pytest.fixture(scope="session")
def train_runs(tmp_path_factory):
    """mode -> the run directory of the golden run's config in that mode,
    run once per session and only read by the tests that share it."""
    runs = {}

    def run(mode):
        if mode not in runs:
            runs[mode] = tmp_path_factory.mktemp(f"train_{mode}")
            run_train_config(mode, runs[mode])
        return runs[mode]

    return run


class _NoNormals(np.random.Generator):
    def standard_normal(self, *args, **kwargs):
        raise AssertionError("a random normal was drawn")


@pytest.fixture()
def no_normal_draws(monkeypatch):
    """Every generator np.random.default_rng makes from here on raises when
    asked for standard normals, the draws that initialise model parameters."""
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: _NoNormals(np.random.PCG64(seed)))
