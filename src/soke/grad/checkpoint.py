"""Binary checkpoint codec.

Layout: magic "SOKEckpt1", then a uint32 parameter count, then per parameter:
uint16 name length, utf-8 name, uint8 ndim, uint32 dims, raw little-endian
float32 payload.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..artifacts import write_atomic
from ..errors import InputError
from .tensor import Tensor

MAGIC = b"SOKEckpt1"


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray]) -> None:
    with write_atomic(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for name, value in params.items():
            arr = np.asarray(value, dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Parameters from a checkpoint file; raises InputError for a bad magic, a
    size that runs past the end of the file, a non-finite value, or bytes
    left after the last parameter."""
    path = Path(path)
    blob = memoryview(path.read_bytes())
    if blob[: len(MAGIC)] != MAGIC:
        raise InputError(f"{path}: not a SOKE checkpoint (bad magic)")
    offset = len(MAGIC)

    def take(size: int, what: str) -> memoryview:
        nonlocal offset
        if size > len(blob) - offset:
            raise InputError(
                f"{path}: checkpoint truncated: {what} needs {size} bytes at offset "
                f"{offset}, {len(blob) - offset} left"
            )
        offset += size
        return blob[offset - size: offset]

    (count,) = struct.unpack("<I", take(4, "parameter count"))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = str(take(name_len, "name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: parameter name is not utf-8 at offset {offset - name_len}") from exc
        (ndim,) = struct.unpack("<B", take(1, f"{name} rank"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"{name} shape"))
        size = math.prod(shape)
        data = take(4 * size, f"{name} payload")
        params[name] = np.frombuffer(data, dtype="<f4").reshape(shape).copy()
        if not np.isfinite(params[name]).all():
            raise InputError(f"{path}: non-finite value in parameter {name}")
    if offset != len(blob):
        raise InputError(f"{path}: {len(blob) - offset} trailing bytes after the last parameter")
    return params


class Undrawn:
    """A model's `seed` when a checkpoint will overwrite every parameter: its
    `standard_normal` gives zeros, so building the model draws nothing."""

    def standard_normal(self, shape) -> np.ndarray:
        return np.zeros(shape)


def load_parameters(path: str | Path, named_params: list[tuple[str, Tensor]]) -> None:
    """Overwrite each named tensor with its checkpoint value. The checkpoint
    must hold exactly these names in these shapes: a tensor the model lacks,
    or a parameter the checkpoint lacks or holds in another shape, raises
    InputError."""
    params = load_checkpoint(path)
    unexpected = params.keys() - {name for name, _ in named_params}
    if unexpected:
        raise InputError(f"{path}: checkpoint holds unexpected tensors {sorted(unexpected)}")
    for name, tensor in named_params:
        if name not in params or params[name].shape != tensor.shape:
            raise InputError(f"{path}: checkpoint missing or mismatched parameter {name}")
        tensor.data = params[name].astype(np.float32)
