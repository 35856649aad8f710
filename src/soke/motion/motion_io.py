"""Motion file codec: one JSON object per line.

{"text": str, "lang": str, "fps": number, "frames": [[f32 x d] x T]}
Floats round-trip exactly (shortest-repr JSON floats are lossless for f32
values promoted to f64).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..artifacts import write_jsonl
from ..errors import InputError, LayoutError
from .layout import MotionSequence, PartLayout


def save_motions(path: str | Path, pairs: list[tuple[str, MotionSequence]]) -> None:
    write_jsonl(path, (
        {
            "text": text,
            "lang": seq.language_tag,
            "fps": seq.fps,
            "frames": [[float(v) for v in frame] for frame in seq.frames],
        }
        for text, seq in pairs
    ))


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
                record = json.loads(line)
                text = str(record["text"])
                seq = MotionSequence(
                    np.asarray(record["frames"], dtype=np.float32),
                    fps=float(record["fps"]),
                    layout=layout,
                    language_tag=str(record["lang"]),
                )
            except (KeyError, ValueError, TypeError, LayoutError) as exc:
                raise InputError(f"{path}:{line_no}: malformed motion record: {exc}") from exc
            pairs.append((text, seq))
    return pairs
