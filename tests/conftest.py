"""Fixtures shared by several test modules."""

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
