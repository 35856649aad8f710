"""Motion file codec: one JSON object per line, one `_MotionRecord` each.

{"text": str, "lang": str, "fps": number, "frames": [[f32 x d] x T]}
Floats round-trip exactly (shortest-repr JSON floats are lossless for f32
values promoted to f64).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..artifacts import from_dict, write_jsonl
from ..errors import ConfigError, InputError, LayoutError
from .layout import MotionSequence, PartLayout


@dataclass(frozen=True)
class _MotionRecord:
    """One line of a motion file; its keys are written in field order."""

    text: str
    lang: str
    fps: float
    frames: list  # T rows of d floats


def save_motions(path: str | Path, pairs: list[tuple[str, MotionSequence]]) -> None:
    write_jsonl(path, (vars(_MotionRecord(text, seq.language_tag, seq.fps, seq.frames.tolist()))
                       for text, seq in pairs))


def load_motions(path: str | Path, layout: PartLayout | None = None) -> list[tuple[str, MotionSequence]]:
    path = Path(path)
    layout = layout or PartLayout()
    pairs = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = from_dict(_MotionRecord, json.loads(line), complete=True)
                seq = MotionSequence(np.asarray(record.frames, dtype=np.float32), fps=record.fps,
                                     layout=layout, language_tag=record.lang)
            except (ValueError, TypeError, ConfigError, LayoutError) as exc:
                raise InputError(f"{path}:{line_no}: malformed motion record: {exc}") from exc
            pairs.append((record.text, seq))
    return pairs
