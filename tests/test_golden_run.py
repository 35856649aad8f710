"""Golden digests of a small run directory, one run per decoding mode.

Each test runs `benchmark/configs/train.json` with `eval_sentences=4` in one
decoding mode and compares the SHA-256 of every trained artifact, its
sidecar and log, and of `report.json` without its timings, with
`tests/golden_run.json`. The file also pins a few seeded pose fits, built
here: the SHA-256 of each fit's log, frames and camera. A change that claims
to keep every bit must leave them equal; a change that alters bits on
purpose regenerates the file and states the old and new digests, which
this prints as one `mode artifact old → new` line each:

    PYTHONPATH=src python tests/test_golden_run.py --write

Bits are promised on one software and hardware stack only, so the file also
records numpy's version, the BLAS library, the kernel set OpenBLAS chose for
this CPU and the machine type; where the current stack differs, the tests
skip and name the difference.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from soke.amg import MODES
from soke.config import load_run_config
from soke.motion import MotionSequence, build_sign_chain
from soke.pipeline import file_hash, run_pipeline
from soke.posefit import (CameraWeakPerspective, FitConfig, Observation2D, fit_sequence,
                          observe_sequence)

REPO = Path(__file__).resolve().parent.parent
CONFIG = REPO / "benchmark" / "configs" / "train.json"
GOLDEN = Path(__file__).with_name("golden_run.json")
OVERRIDES = ["eval_sentences=4"]
ARTIFACTS = ("deto/deto.ckpt", "deto/deto.json", "deto/train_log.jsonl", "dict.json",
             "dict_warnings.jsonl", "amg/vocab.json", "amg/amg.ckpt", "amg/amg.json",
             "amg/train_log.jsonl")


def software_stack() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_kernels": openblas_kernels(), "machine": platform.machine()}


def openblas_kernels() -> str:
    """The kernel set numpy's bundled OpenBLAS chose for this CPU at run time.

    A DYNAMIC_ARCH build picks its kernels per CPU when it loads, and they
    can round differently; the build string in `np.show_config` names only
    the build's baseline target. "unknown" where the library or its query
    is missing.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _report_digest(path: Path) -> str:
    """report.json without the wall-clock fields, which differ run to run."""
    report = json.loads(path.read_text())
    report.pop("timing")
    for sample in report["samples"]:
        sample.pop("wall_ms")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def run_train_config(mode: str, out_dir: Path) -> None:
    run_pipeline(load_run_config(CONFIG, [*OVERRIDES, f"mode={mode}"]), out_dir)


def run_directory_digests(out_dir: Path) -> dict[str, str]:
    digests = {rel: file_hash(out_dir / rel) for rel in ARTIFACTS}
    digests["report.json"] = _report_digest(out_dir / "report.json")
    return digests


# seed -> (frames, fit config): both camera settings, the exact and the
# smoothed L1, and a repeated observed joint
POSE_FITS = {
    1: (4, FitConfig(max_iters=20)),
    2: (3, FitConfig(max_iters=20, optimize_camera=False, rec_smooth_mm=0.0)),
    3: (5, FitConfig(max_iters=20, observed_joints=(5, 5, 6, 9, 10))),
}


def pose_fit_digests(seed: int) -> dict[str, str]:
    """A fit from a perturbed start to noisy, partly confident observations."""
    frames, cfg = POSE_FITS[seed]
    rng = np.random.default_rng(seed)
    chain = build_sign_chain()
    truth = MotionSequence(rng.normal(0.0, 0.4, size=(frames, 133)).astype(np.float32))
    obs = [Observation2D(o.points, rng.uniform(0.2, 1.0, size=len(cfg.observed_joints)))
           for o in observe_sequence(truth, CameraWeakPerspective(), chain,
                                     observed_joints=cfg.observed_joints, noise_std=2.0,
                                     seed=seed)]
    init = truth.frames.copy()
    init[:, :33] += rng.normal(0.0, 0.1, size=(frames, 33)).astype(np.float32)
    cam = CameraWeakPerspective(scale=1.05, tx=0.5, ty=-0.3)
    result = fit_sequence(MotionSequence(init), obs, cam, cfg, chain)
    camera = [result.camera.scale, result.camera.tx, result.camera.ty]
    return {name: hashlib.sha256(data).hexdigest() for name, data in
            [("log", json.dumps(result.log).encode()), ("frames", result.motion.frames.tobytes()),
             ("camera", json.dumps(camera).encode())]}


def _golden_on_this_stack() -> dict:
    golden = json.loads(GOLDEN.read_text())
    differs = [f"{key} {golden['stack'].get(key)!r} != {value!r}"
               for key, value in software_stack().items() if golden["stack"].get(key) != value]
    if differs:
        pytest.skip("golden digests were made on another stack: " + "; ".join(differs))
    return golden


@pytest.mark.parametrize("mode", MODES)
def test_run_directory_matches_the_golden_digests(mode, train_runs):
    assert run_directory_digests(train_runs(mode)) == _golden_on_this_stack()["digests"][mode]


@pytest.mark.parametrize("seed", sorted(POSE_FITS))
def test_pose_fit_matches_the_golden_digests(seed):
    assert pose_fit_digests(seed) == _golden_on_this_stack()["pose_fits"][str(seed)]


def test_another_blas_kernel_set_skips_and_names_it(monkeypatch):
    recorded = json.loads(GOLDEN.read_text())["stack"]["blas_kernels"]
    monkeypatch.setattr(sys.modules[__name__], "openblas_kernels", lambda: "Other" + recorded)
    with pytest.raises(pytest.skip.Exception, match=f"blas_kernels '{recorded}' != 'Other"):
        _golden_on_this_stack()


def test_digest_changes_lists_each_changed_digest():
    old = {"digests": {"parallel": {"dict.json": "d0", "report.json": "r0"}},
           "pose_fits": {"1": {"camera": "c0", "log": "l0"}}}
    new = {"digests": {"parallel": {"dict.json": "d0", "report.json": "r1"},
                       "sequential": {"dict.json": "d2"}},
           "pose_fits": {"1": {"camera": "c0", "log": "l1"}}}
    assert digest_changes(old, new) == (["parallel report.json r0 → r1",
                                         "sequential dict.json None → d2",
                                         "pose_fit 1 log l0 → l1"], 2)
    assert digest_changes(new, new) == ([], 5)


def digest_changes(old: dict, new: dict) -> tuple[list[str], int]:
    """One line `mode artifact old → new` for each digest of `new` that
    `old` does not hold (`pose_fit seed name old → new` for the pose fits),
    and the number of digests left unchanged."""
    lines, unchanged = [], 0
    for section, prefix in (("digests", ""), ("pose_fits", "pose_fit ")):
        for group, digests in sorted(new[section].items()):
            for name, digest in sorted(digests.items()):
                before = old.get(section, {}).get(group, {}).get(name)
                if before == digest:
                    unchanged += 1
                else:
                    lines.append(f"{prefix}{group} {name} {before} → {digest}")
    return lines, unchanged


def write_golden() -> None:
    """Regenerate the golden file and print each digest it changes."""
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    digests = {}
    for mode in MODES:
        with tempfile.TemporaryDirectory() as out_dir:
            run_train_config(mode, Path(out_dir))
            digests[mode] = run_directory_digests(Path(out_dir))
    payload = {"config": CONFIG.relative_to(REPO).as_posix(), "overrides": OVERRIDES,
               "stack": software_stack(), "digests": digests,
               "pose_fits": {str(seed): pose_fit_digests(seed) for seed in POSE_FITS}}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    lines, unchanged = digest_changes(old, payload)
    print("\n".join([*lines, f"{unchanged} digests unchanged"]))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN.name}")
    if parser.parse_args().write:
        write_golden()
    else:
        parser.print_help()
