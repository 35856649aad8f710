"""Golden digests of a small run directory, one run per decoding mode.

Each test runs `benchmark/configs/train.json` with `eval_sentences=4` in one
decoding mode and compares the SHA-256 of every trained artifact and log,
and of `report.json` without its timings, with `tests/golden_run.json`. A
change that claims to keep every bit must leave them equal; a change that
alters bits on purpose regenerates the file and states the old and new
digests:

    PYTHONPATH=src python tests/test_golden_run.py --write

Bits are promised on one software and hardware stack only, so the file also
records numpy's version, the BLAS library and the machine type; where the
current stack differs, the tests skip and name the difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from soke.amg import MODES
from soke.config import load_run_config
from soke.pipeline import file_hash, run_pipeline

REPO = Path(__file__).resolve().parent.parent
CONFIG = REPO / "benchmark" / "configs" / "train.json"
GOLDEN = Path(__file__).with_name("golden_run.json")
OVERRIDES = ["eval_sentences=4"]
ARTIFACTS = ("deto/deto.ckpt", "deto/train_log.jsonl", "dict.json", "dict_warnings.jsonl",
             "amg/vocab.json", "amg/amg.ckpt", "amg/train_log.jsonl")


def software_stack() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def _report_digest(path: Path) -> str:
    """report.json without the wall-clock fields, which differ run to run."""
    report = json.loads(path.read_text())
    report.pop("timing")
    for sample in report["samples"]:
        sample.pop("wall_ms")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def run_digests(mode: str, out_dir: Path) -> dict[str, str]:
    run_pipeline(load_run_config(CONFIG, [*OVERRIDES, f"mode={mode}"]), out_dir)
    digests = {rel: file_hash(out_dir / rel) for rel in ARTIFACTS}
    digests["report.json"] = _report_digest(out_dir / "report.json")
    return digests


@pytest.mark.parametrize("mode", MODES)
def test_run_directory_matches_the_golden_digests(mode, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    stack = software_stack()
    differs = [f"{key} {golden['stack'][key]!r} != {value!r}"
               for key, value in stack.items() if golden["stack"][key] != value]
    if differs:
        pytest.skip("golden digests were made on another stack: " + "; ".join(differs))
    assert run_digests(mode, tmp_path) == golden["digests"][mode]


def write_golden() -> None:
    digests = {}
    for mode in MODES:
        with tempfile.TemporaryDirectory() as out_dir:
            digests[mode] = run_digests(mode, Path(out_dir))
    payload = {"config": CONFIG.relative_to(REPO).as_posix(), "overrides": OVERRIDES,
               "stack": software_stack(), "digests": digests}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN.name}")
    if parser.parse_args().write:
        write_golden()
    else:
        parser.print_help()
