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

Bits are promised per software and hardware stack, so the file holds one
set of digests per OpenBLAS kernel set, each with the stack it was made on:
numpy's version, the BLAS library, the kernel set and the machine type.
The tests check the set made under the host's kernel set; where there is
none, or the rest of the stack differs, they skip and name the difference.
The `Haswell` set was made on a `SkylakeX` host with
`OPENBLAS_CORETYPE=Haswell` in the environment of that one process, which
is also how to check it there:

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python -m pytest tests/test_golden_run.py

`test_the_haswell_digests_in_a_subprocess` runs that check from the default
test run on a host with other kernels whose CPU lists AVX2 and FMA; it
skips, naming the reason, elsewhere. `--write` rewrites the host's set, and
then the `Haswell` set in such a child process, which prints its own lines;
where none can run, it prints the reason instead.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from soke.amg import MODES
from soke.config import load_run_config
from soke.motion import MotionSequence, build_sign_chain
from soke.pipeline import file_hash, run_pipeline
from soke.posefit import (CameraWeakPerspective, FitConfig, Observations, fit_sequence,
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
    points = observe_sequence(truth, CameraWeakPerspective(), chain,
                              observed_joints=cfg.observed_joints, noise_std=2.0, seed=seed).points
    obs = Observations(points, rng.uniform(0.2, 1.0, size=points.shape[:2]))
    init = truth.frames.copy()
    init[:, :33] += rng.normal(0.0, 0.1, size=(frames, 33)).astype(np.float32)
    cam = CameraWeakPerspective(scale=1.05, tx=0.5, ty=-0.3)
    result = fit_sequence(MotionSequence(init), obs, cam, cfg, chain)
    camera = [result.camera.scale, result.camera.tx, result.camera.ty]
    return {name: hashlib.sha256(data).hexdigest() for name, data in
            [("log", json.dumps(result.log).encode()), ("frames", result.motion.frames.tobytes()),
             ("camera", json.dumps(camera).encode())]}


def _golden_on_this_stack() -> dict:
    """The digest set made under this host's kernel set, if its stack matches."""
    stack = software_stack()
    kernel_sets = json.loads(GOLDEN.read_text())["kernel_sets"]
    golden = kernel_sets.get(stack["blas_kernels"])
    if golden is None:
        pytest.skip(f"no golden digests for blas_kernels {stack['blas_kernels']!r}, only for "
                    f"{sorted(kernel_sets)}")
    differs = [f"{key} {golden['stack'].get(key)!r} != {value!r}"
               for key, value in stack.items() if golden["stack"].get(key) != value]
    if differs:
        pytest.skip("golden digests were made on another stack: " + "; ".join(differs))
    return golden


@pytest.mark.parametrize("mode", MODES)
def test_run_directory_matches_the_golden_digests(mode, train_runs):
    assert run_directory_digests(train_runs(mode)) == _golden_on_this_stack()["digests"][mode]


@pytest.mark.parametrize("seed", sorted(POSE_FITS))
def test_pose_fit_matches_the_golden_digests(seed):
    assert pose_fit_digests(seed) == _golden_on_this_stack()["pose_fits"][str(seed)]


def test_a_kernel_set_without_digests_skips_and_names_it(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "openblas_kernels", lambda: "Other")
    with pytest.raises(pytest.skip.Exception,
                       match=r"blas_kernels 'Other', only for \['Haswell', 'SkylakeX'\]"):
        _golden_on_this_stack()


@pytest.mark.parametrize("kernels", ["Haswell", "SkylakeX"])
def test_the_host_kernel_set_picks_its_digests(monkeypatch, kernels):
    golden = json.loads(GOLDEN.read_text())["kernel_sets"][kernels]
    stack = {**golden["stack"], "blas_kernels": kernels}
    monkeypatch.setattr(sys.modules[__name__], "software_stack", lambda: stack)
    assert _golden_on_this_stack() == golden
    monkeypatch.setattr(sys.modules[__name__], "software_stack",
                        lambda: {**stack, "numpy": "0.0"})
    with pytest.raises(pytest.skip.Exception, match="numpy .* != '0.0'"):
        _golden_on_this_stack()


def cpu_flags() -> set[str]:
    """The feature flags of the first CPU in /proc/cpuinfo; empty where it
    lists none or cannot be read."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in lines
                 if line.startswith("flags")), set())


def haswell_environment() -> tuple[dict | None, str]:
    """The environment of a child process whose OpenBLAS runs its Haswell
    kernels, with `src` on its path; or None and the reason no such process
    runs here."""
    if openblas_kernels() == "Haswell":
        return None, "the host runs the Haswell kernels itself"
    missing = sorted({"avx2", "fma"} - cpu_flags())
    if missing:
        return None, f"/proc/cpuinfo does not list {missing}, which the Haswell kernels need"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"),
                                                        os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run([sys.executable, "-c", "import test_golden_run as t; "
                            "print(t.openblas_kernels())"], cwd=GOLDEN.parent, env=env,
                           capture_output=True, text=True, check=True)
    if probe.stdout.strip() != "Haswell":
        return None, f"OPENBLAS_CORETYPE=Haswell gives the {probe.stdout.strip()!r} kernels here"
    return env, ""


def test_the_haswell_digests_in_a_subprocess():
    """The golden digest tests again, in a process whose OpenBLAS runs its
    Haswell kernels, so that a host with other kernels checks both sets."""
    env, reason = haswell_environment()
    if env is None:
        pytest.skip(reason)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
                          str(Path(__file__)), "-k", "matches_the_golden_digests"],
                         cwd=REPO, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    skipped = [line for line in run.stdout.splitlines() if line.startswith("SKIPPED")]
    if skipped:  # as the tests above skip on another stack
        pytest.skip(f"under the Haswell kernels: {skipped[0]}")
    assert f"{len(MODES) + len(POSE_FITS)} passed" in run.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("child", [True, False])
def test_write_rewrites_the_host_set_then_the_haswell_set_in_a_child(monkeypatch, tmp_path,
                                                                      capsys, child):
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "GOLDEN", tmp_path / "golden.json")
    monkeypatch.setattr(module, "software_stack", lambda: {"blas_kernels": "Host"})
    monkeypatch.setattr(module, "run_train_config", lambda mode, out_dir: None)
    monkeypatch.setattr(module, "run_directory_digests", lambda out_dir: {"dict.json": "d"})
    monkeypatch.setattr(module, "pose_fit_digests", lambda seed: {"log": "l"})
    env = {"OPENBLAS_CORETYPE": "Haswell"}
    monkeypatch.setattr(module, "haswell_environment",
                        lambda: (env, "") if child else (None, "no AVX2 here"))
    calls = []
    monkeypatch.setattr(subprocess, "run", lambda args, **kwargs: calls.append((args, kwargs)))
    write_golden()
    written = json.loads((tmp_path / "golden.json").read_text())["kernel_sets"]
    assert list(written) == ["Host"] and written["Host"]["digests"]["multihead"] == {"dict.json": "d"}
    out = capsys.readouterr().out
    assert out.startswith("kernel set Host\nmultihead dict.json None → d\n")
    if child:
        assert calls == [([sys.executable, str(Path(__file__)), "--write"],
                          {"env": env, "check": True})]
    else:
        assert not calls and out.endswith("no Haswell child process: no AVX2 here\n")


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
    """Regenerate the host kernel set's digests and print each one it changes;
    then do the same for the `Haswell` set in a child process, or print why
    no such process runs here."""
    kernel_sets = json.loads(GOLDEN.read_text())["kernel_sets"] if GOLDEN.exists() else {}
    stack = software_stack()
    old = kernel_sets.get(stack["blas_kernels"], {})
    digests = {}
    for mode in MODES:
        with tempfile.TemporaryDirectory() as out_dir:
            run_train_config(mode, Path(out_dir))
            digests[mode] = run_directory_digests(Path(out_dir))
    kernel_sets[stack["blas_kernels"]] = new = {
        "stack": stack, "digests": digests,
        "pose_fits": {str(seed): pose_fit_digests(seed) for seed in POSE_FITS}}
    payload = {"config": CONFIG.relative_to(REPO).as_posix(), "overrides": OVERRIDES,
               "kernel_sets": kernel_sets}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    lines, unchanged = digest_changes(old, new)
    print("\n".join([f"kernel set {stack['blas_kernels']}", *lines,
                      f"{unchanged} digests unchanged"]), flush=True)
    env, reason = haswell_environment()
    if env is None:
        print(f"no Haswell child process: {reason}")
    else:
        subprocess.run([sys.executable, str(Path(__file__)), "--write"], env=env, check=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN.name}")
    if parser.parse_args().write:
        write_golden()
    else:
        parser.print_help()
