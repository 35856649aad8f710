"""Joint-position metrics and split-level evaluation reports.

DTW metrics run one alignment per cost family (raw / Procrustes-aligned);
the DP cost is the mean error over body+hand joints jointly, and per-subset
numbers are read off along the chosen path. PA alignment is solved per frame
pair on the union joint set (config tag `pa_scope = per_frame_pair_union`);
all n*m frame pairs of a track pair are solved in one batched call, whose
per-pair products run as one matmul per generated frame (see
`procrustes`). Both residuals, raw and aligned, are read from
(n, m, 3, J) rows of differences, 3*n*m*J floats, so DTW-PA memory is
O(n*m*J).
Joint positions come from one forward-kinematics pass per track pair, over
the generated and reference frames concatenated; FK treats frames
independently, so this equals two passes bit for bit.
Reported DTW values are path-length-normalized (`dtw_normalization = path`).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..artifacts import write_json
from ..errors import InputError
from ..motion import (
    KinematicChain,
    MotionSequence,
    body_joint_indices,
    forward_kinematics_sequence,
    hand_joint_indices,
)
from .dtw import dtw
from .procrustes import procrustes_align, row_distances

REPORT_SCHEMA_VERSION = 1
METRIC_CONVENTIONS = {"dtw_normalization": "path", "pa_scope": "per_frame_pair_union", "units": "mm"}


@dataclass(frozen=True)
class DtwJpeSummary:
    jpe_body: float
    jpe_hand: float
    pa_jpe_body: float
    pa_jpe_hand: float


def dtw_joint_metrics(
    gen_track: np.ndarray, ref_track: np.ndarray, body_idx: np.ndarray, hand_idx: np.ndarray
) -> DtwJpeSummary:
    """DTW-JPE and DTW-PA-JPE for body and hand subsets of paired joint
    tracks, (n, J, 3) generated and (m, J, 3) reference."""
    gen_track = np.asarray(gen_track, dtype=np.float64)
    ref_track = np.asarray(ref_track, dtype=np.float64)
    if gen_track.ndim != 3 or gen_track.shape[1:] != ref_track.shape[1:] or gen_track.shape[2] != 3:
        raise InputError(f"joint tracks differ: {gen_track.shape} vs {ref_track.shape}")
    for name, track in (("gen_track", gen_track), ("ref_track", ref_track)):
        if not np.isfinite(track).all():
            raise InputError(f"{name} contains NaN or infinity")
    gen_pairs, ref_pairs = gen_track[:, None], ref_track[None, :]
    raw_err = _distances(gen_pairs, ref_pairs)
    raw = dtw(gen_track, ref_track, raw_err.mean(axis=-1))
    pa_err = procrustes_align(gen_pairs, ref_pairs).distances(gen_pairs, ref_pairs)
    pa = dtw(gen_track, ref_track, pa_err.mean(axis=-1))
    raw_body, raw_hand = _path_subset_means(raw_err, raw.path, body_idx, hand_idx)
    pa_body, pa_hand = _path_subset_means(pa_err, pa.path, body_idx, hand_idx)
    return DtwJpeSummary(jpe_body=raw_body, jpe_hand=raw_hand, pa_jpe_body=pa_body, pa_jpe_hand=pa_hand)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a - b, axis=-1) for (..., N, 3) points that broadcast,
    bit for bit, from the (..., 3, N) rows of their differences."""
    return row_distances(np.swapaxes(a, -1, -2) - np.swapaxes(b, -1, -2))


def _path_subset_means(err: np.ndarray, path, body_idx, hand_idx) -> tuple[float, float]:
    """Body and hand mean errors over the frame pairs of a path, read from
    (n, m, J) per-joint residuals."""
    on_path = err[tuple(np.transpose(path))]
    return float(on_path[:, body_idx].mean()), float(on_path[:, hand_idx].mean())


def reconstruction_pa_mpjpe(
    gen_seq: MotionSequence, ref_seq: MotionSequence, chain: KinematicChain
) -> float:
    """Per-frame Procrustes-aligned mean per-joint position error; sequences
    must be frame-aligned (same T)."""
    if gen_seq.num_frames != ref_seq.num_frames:
        raise InputError("reconstruction PA-MPJPE requires equal frame counts")
    joints = forward_kinematics_sequence(np.concatenate([gen_seq.frames, ref_seq.frames]), chain)
    gen_joints, ref_joints = joints[: gen_seq.num_frames], joints[gen_seq.num_frames:]
    errors = procrustes_align(gen_joints, ref_joints).distances(gen_joints, ref_joints)
    return float(errors.mean(axis=-1).mean())


@dataclass(frozen=True)
class SampleEval:
    index: int
    text: str
    lang: str
    gen_frames: int
    ref_frames: int
    dtw_jpe_body: float
    dtw_jpe_hand: float
    dtw_pa_jpe_body: float
    dtw_pa_jpe_hand: float
    step_count: int
    wall_ms: float


@dataclass(frozen=True)
class EvalReport:
    split: str
    conventions: dict
    samples: list
    aggregates: dict
    timing: dict

    def to_json(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "split": self.split,
            "conventions": dict(self.conventions),
            "samples": [asdict(s) for s in self.samples],
            "aggregates": dict(self.aggregates),
            "timing": dict(self.timing),
        }


GenerateFn = Callable[[str, str], tuple[MotionSequence, int]]


def evaluate_split(
    generate: GenerateFn,
    dataset: list[tuple[str, MotionSequence]],
    chain: KinematicChain,
    split: str = "test",
) -> EvalReport:
    """Run `generate` over a dataset split and compute DTW joint metrics.

    `generate(text, lang)` returns (motion, decoder step count). Samples
    are evaluated and aggregated in dataset order.
    """
    body_idx = body_joint_indices(chain)
    hand_idx = hand_joint_indices(chain)

    def one(index, text, ref):
        start = time.perf_counter()
        gen_seq, steps = generate(text, ref.language_tag)
        wall_ms = (time.perf_counter() - start) * 1e3
        joints = forward_kinematics_sequence(np.concatenate([gen_seq.frames, ref.frames]), chain)
        n = gen_seq.num_frames
        summary = dtw_joint_metrics(joints[:n], joints[n:], body_idx, hand_idx)
        return SampleEval(
            index=index,
            text=text,
            lang=ref.language_tag,
            gen_frames=gen_seq.num_frames,
            ref_frames=ref.num_frames,
            dtw_jpe_body=summary.jpe_body,
            dtw_jpe_hand=summary.jpe_hand,
            dtw_pa_jpe_body=summary.pa_jpe_body,
            dtw_pa_jpe_hand=summary.pa_jpe_hand,
            step_count=steps,
            wall_ms=wall_ms,
        )

    samples = [one(index, text, ref) for index, (text, ref) in enumerate(dataset)]
    aggregates = _aggregate(samples)
    timing = {
        "mean_wall_ms": float(np.mean([s.wall_ms for s in samples])) if samples else 0.0,
    }
    return EvalReport(
        split=split,
        conventions=METRIC_CONVENTIONS,
        samples=samples,
        aggregates=aggregates,
        timing=timing,
    )


def _aggregate(samples: list) -> dict:
    if not samples:
        return {}

    def mean(attr: str) -> float:
        return float(np.mean([getattr(s, attr) for s in samples]))

    pa_body = mean("dtw_pa_jpe_body")
    pa_hand = mean("dtw_pa_jpe_hand")
    return {
        "num_samples": len(samples),
        "dtw_jpe_body": mean("dtw_jpe_body"),
        "dtw_jpe_hand": mean("dtw_jpe_hand"),
        "dtw_pa_jpe_body": pa_body,
        "dtw_pa_jpe_hand": pa_hand,
        "dtw_pa_jpe_avg": (pa_body + pa_hand) / 2.0,
        "mean_step_count": mean("step_count"),
    }


def save_report(path: str | Path, report: EvalReport) -> None:
    write_json(path, report.to_json())
