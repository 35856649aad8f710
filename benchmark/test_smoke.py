"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q benchmark/test_smoke.py

Checks that each run emits exactly the metrics BENCHMARK.json declares, with
their units, that the declared directions match spec.py, that corrupted
outputs trip the output checks, and that run.py refuses to run without soke.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import spec  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("train", "text2sign", "posefit")


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_declaration_matches_spec():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    end_to_end = [(m["name"], m["unit"], m["better"]) for m in DECLARED["end_to_end"]]
    assert end_to_end == list(spec.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]]
    assert per_layer == spec.per_layer()
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    setup_bound = next(m["bound"] for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_declared_metrics(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, m["name"]
    assert "failed_ratio" in proc.stdout  # printed by name with the other metrics


def test_refuses_to_run_without_soke():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("train", 0, cwd=bare, script=bare / "benchmark" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- corrupted outputs trip the checks ------------------------------------------------


def _vocab():
    from soke.amg import Vocabulary

    return Vocabulary(["alpha", "beta"], (4, 5, 5))


def test_out_of_slot_triple_fails_decode_check():
    from soke.amg import PartTokenTriple
    from soke.motion import Part

    vocab = _vocab()
    body, left, right = (vocab.motion_id(p, 1) for p in (Part.BODY, Part.LEFT_HAND,
                                                         Part.RIGHT_HAND))
    assert checks.decode([PartTokenTriple(body, left, right)], vocab, k_max=4) == []
    assert checks.decode([PartTokenTriple(left, body, right)], vocab, k_max=4)
    assert checks.decode([PartTokenTriple(body, left, right)] * 5, vocab, k_max=4)


def test_decodes_running_to_k_max_fail():
    assert checks.stops_on_eos([3, 5, 4], k_max=8) == []
    assert checks.stops_on_eos([8, 8, 8], k_max=8)


def test_non_finite_loss_fails():
    good = {"part": "B", "step": 1, "total": 1.0, "rec": 0.5, "emb": 0.25, "com": 0.25}
    assert checks.losses_finite([good], [{"epoch": 0, "loss": 2.0}]) == []
    assert checks.losses_finite([dict(good, rec=float("nan"))], [])
    assert checks.losses_finite([], [{"epoch": 3, "loss": float("inf")}])


def test_changed_parameter_fails_reload_check():
    from soke.amg import AmgConfig, GeneratorModel

    config = AmgConfig(d_model=8, num_heads=2, enc_layers=1, dec_layers=1, ffn_dim=8)
    trained = GeneratorModel(_vocab(), config, "multihead", seed=0)
    reloaded = GeneratorModel(_vocab(), config, "multihead", seed=0)
    assert checks.reloaded_identical(trained, reloaded) == []
    _, tensor = reloaded.parameters()[0]
    tensor.data = np.nextafter(tensor.data, np.inf).astype(tensor.data.dtype)
    assert checks.reloaded_identical(trained, reloaded)


def test_changed_hand_column_fails_pose_check():
    from soke.motion import MotionSequence
    from soke.posefit import FitResult

    init = MotionSequence(np.zeros((2, 133), dtype=np.float32))
    log = [{"objective": 2.0, "total": 2.0}, {"objective": 1.0, "total": 1.0}]
    frames = init.frames.copy()
    frames[:, :33] = 0.1
    assert checks.pose_fit(init, FitResult(MotionSequence(frames), log), body_params=33) == []
    frames[0, 100] = 0.5
    assert checks.pose_fit(init, FitResult(MotionSequence(frames), log), body_params=33)
    rising = [{"objective": 1.0, "total": 1.0}, {"objective": 2.0, "total": 2.0}]
    assert checks.pose_fit(init, FitResult(init, rising), body_params=33)


def test_negative_dtw_value_fails():
    from soke.metrics import SampleEval

    sample = SampleEval(0, "a b", "ASL", 4, 4, 1.0, 2.0, 0.5, 0.7, 3, 1.0)
    assert checks.dtw_sample(sample) == []
    assert checks.dtw_sample(SampleEval(0, "a b", "ASL", 4, 4, 1.0, 2.0, -0.5, 0.7, 3, 1.0))
