"""Articulated-motion parameter layout and part decomposition.

A frame is a flat vector of d parameters laid out as
[body rotations | expression | left-hand rotations | right-hand rotations],
three axis-angle values per joint. Expression parameters ride with the body
part so the three part slices stay contiguous; with the default counts
(11 body joints, 15 per hand, 10 expression dims) d = 133.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..errors import LayoutError


class Part(str, Enum):
    BODY = "B"
    LEFT_HAND = "LH"
    RIGHT_HAND = "RH"


# The one part order: layout slices, tokenizers, vocabulary ranges, decoder
# heads and token triples all follow it.
PARTS = (Part.BODY, Part.LEFT_HAND, Part.RIGHT_HAND)

ROTATION_DIMS = 3  # axis-angle per joint


@dataclass(frozen=True)
class PartLayout:
    """Joint/parameter counts defining the flat frame layout."""

    body_joints: int = 11
    hand_joints_per_hand: int = 15
    expression_dims: int = 10

    def __post_init__(self):
        if min(self.body_joints, self.hand_joints_per_hand) < 1 or self.expression_dims < 0:
            raise LayoutError("layout counts must be positive")

    @property
    def total_dims(self) -> int:
        joints = self.body_joints + 2 * self.hand_joints_per_hand
        return ROTATION_DIMS * joints + self.expression_dims

    @property
    def body_width(self) -> int:
        # body rotations plus expression parameters
        return ROTATION_DIMS * self.body_joints + self.expression_dims

    @property
    def hand_width(self) -> int:
        return ROTATION_DIMS * self.hand_joints_per_hand

    def part_slice(self, part: Part) -> slice:
        b = self.body_width
        h = self.hand_width
        if part is Part.BODY:
            return slice(0, b)
        if part is Part.LEFT_HAND:
            return slice(b, b + h)
        return slice(b + h, b + 2 * h)

    def part_width(self, part: Part) -> int:
        s = self.part_slice(part)
        return s.stop - s.start


DEFAULT_LAYOUT = PartLayout()


@dataclass(frozen=True)
class MotionSequence:
    """A T x d sequence of articulated-pose parameters."""

    frames: np.ndarray
    fps: float = 25.0
    layout: PartLayout = field(default_factory=PartLayout)
    language_tag: str = "ASL"

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float32)
        object.__setattr__(self, "frames", frames)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise LayoutError(f"frames must be T x d with T >= 1, got shape {frames.shape}")
        if frames.shape[1] != self.layout.total_dims:
            raise LayoutError(
                f"frame width {frames.shape[1]} does not match layout d={self.layout.total_dims}"
            )
        if not np.all(np.isfinite(frames)):
            raise LayoutError("frames contain non-finite values")
        if not (math.isfinite(self.fps) and self.fps > 0.0):
            raise LayoutError(f"fps must be finite and positive, got {self.fps}")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class PartMotion:
    """One body part's slice of a motion sequence."""

    part: Part
    frames: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frames", np.asarray(self.frames, dtype=np.float32))

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def width(self) -> int:
        return self.frames.shape[1]


def split_parts(seq: MotionSequence) -> tuple[PartMotion, PartMotion, PartMotion]:
    """Slice a sequence into (body, left hand, right hand) part motions.

    Concatenating the three parts in layout order reconstructs the input
    exactly.
    """
    layout = seq.layout
    if seq.frames.shape[1] != layout.total_dims:
        raise LayoutError("sequence width does not match its layout")
    return tuple(
        PartMotion(part, seq.frames[:, layout.part_slice(part)].copy()) for part in PARTS
    )


def merge_parts(
    body: PartMotion,
    left: PartMotion,
    right: PartMotion,
    layout: PartLayout | None = None,
    fps: float = 25.0,
    language_tag: str = "ASL",
) -> MotionSequence:
    """Inverse of split_parts."""
    layout = layout or DEFAULT_LAYOUT
    for pm, part in ((body, Part.BODY), (left, Part.LEFT_HAND), (right, Part.RIGHT_HAND)):
        if pm.width != layout.part_width(part):
            raise LayoutError(
                f"part {part.value} width {pm.width} != layout width {layout.part_width(part)}"
            )
    frames = np.concatenate([body.frames, left.frames, right.frames], axis=1)
    return MotionSequence(frames, fps=fps, layout=layout, language_tag=language_tag)
