"""Output checks. Each returns a list of problems; an empty list means the
output is correct. An operation with a problem counts as failed."""

from __future__ import annotations

import math

import numpy as np

from soke.amg import flatten
from soke.errors import InputError

_DETO_LOSSES = ("total", "rec", "emb", "com")


def losses_finite(deto_log: list[dict], amg_log: list[dict]) -> list[str]:
    problems = []
    for entry in deto_log:
        if not all(math.isfinite(entry[key]) for key in _DETO_LOSSES):
            problems.append(f"non-finite DETO loss at step {entry['step']} ({entry['part']})")
    for entry in amg_log:
        if "loss" in entry and not math.isfinite(entry["loss"]):
            problems.append(f"non-finite generator loss at epoch {entry['epoch']}")
    return problems


def reloaded_identical(trained, reloaded) -> list[str]:
    """Every parameter of the reloaded model equals the trained one bit for bit."""
    ours = trained.parameters()
    theirs = dict(reloaded.parameters())
    problems = []
    if [name for name, _ in ours] != list(theirs):
        problems.append("reloaded parameter names differ")
    for name, tensor in ours:
        other = theirs.get(name)
        if other is None or other.data.dtype != tensor.data.dtype or not np.array_equal(
            other.data, tensor.data
        ):
            problems.append(f"parameter {name} did not reload bit-identical")
    return problems


def motion_finite(motion) -> list[str]:
    if motion.num_frames < 1 or not np.all(np.isfinite(motion.frames)):
        return ["decoded motion is empty or non-finite"]
    return []


def round_trip(ref, recon, error: float) -> list[str]:
    problems = motion_finite(recon)
    if recon.frames.shape != ref.frames.shape:
        problems.append(f"round trip changed shape {ref.frames.shape} -> {recon.frames.shape}")
    if not (math.isfinite(error) and error >= 0.0):
        problems.append(f"reconstruction error {error} is not a finite non-negative number")
    return problems


def decode(triples, vocab, k_max: int) -> list[str]:
    """Every triple holds one token of each part in that part's slot."""
    try:
        flatten(list(triples), vocab)
    except InputError as exc:
        return [f"decode rejected by flatten: {exc}"]
    if len(triples) > k_max:
        return [f"{len(triples)} triples exceed k_max {k_max}"]
    return []


def stops_on_eos(triple_counts: list[int], k_max: int) -> list[str]:
    """Decodes must end on EOS on average, not run out at k_max."""
    if not triple_counts:
        return ["no decode to check"]
    mean = sum(triple_counts) / len(triple_counts)
    return [] if mean < k_max else [f"mean decoded length {mean} reaches k_max {k_max}"]


def dtw_sample(sample) -> list[str]:
    values = (sample.dtw_jpe_body, sample.dtw_jpe_hand,
              sample.dtw_pa_jpe_body, sample.dtw_pa_jpe_hand)
    if all(math.isfinite(v) and v >= 0.0 for v in values):
        return []
    return [f"sample {sample.index}: DTW values {values} not finite and >= 0"]


def pose_fit(init, result, body_params: int) -> list[str]:
    """Accepted objectives never increase; only body rotations change."""
    problems = []
    objectives = [entry["objective"] for entry in result.log]
    if not all(math.isfinite(entry["total"]) and math.isfinite(entry["objective"])
               for entry in result.log):
        problems.append("non-finite loss in the fit log")
    if any(b > a + 1e-12 for a, b in zip(objectives, objectives[1:])):
        problems.append("an accepted step increased the objective")
    if not np.array_equal(result.motion.frames[:, body_params:], init.frames[:, body_params:]):
        problems.append("hand or expression parameters changed")
    return problems
