"""A motion's token array and the nearest-code rule of the per-part
quantizers.

A motion's tokens are one int64 array of shape (K, 3): row k holds the
codes of the k-th window of DOWNSAMPLE frames, column j those of part
PARTS[j]. A codebook is a plain (N, C) parameter tensor of the part
tokenizer; `nearest_code_ids` turns latents into its row ids.
"""

from __future__ import annotations

import numpy as np

from ..errors import InputError
from ..motion import PARTS, Part


class PartCodes(np.ndarray):
    """The (K, 3) int64 code array as `encode_sequence` returns it.

    It acts as a plain ndarray, except that `codes[part]` is the part's
    column and a column's `ids` its codes as a tuple of ints: the per-part
    read that benchmark/workloads.py makes to count codebook use. Package
    code indexes the columns by position.
    """

    def __getitem__(self, key):
        if isinstance(key, Part):
            key = (slice(None), PARTS.index(key))
        return super().__getitem__(key)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(self.tolist())


def nearest_code_ids(latent: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Index of the nearest codebook row per latent row (squared Euclidean,
    ties broken by lowest index), the VQ-VAE nearest-code rule.

    The ids are exactly those of the argmin of the direct float64 distances
    sum((x - c)**2), which only the rows in doubt still compute. Every row
    first takes the expanded form |x|^2 - 2 x.c + |c|^2: one matmul instead
    of a (T, N, C) difference tensor. Why the ids agree: in float64 either
    form of a distance is within (C + 2) * 2**-53 * (|x| + |c|)**2 of the
    exact value (a length-C dot product or sum of squares, plus at most
    three more roundings; Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1), plus at most 2**-1075 per operation that
    underflows. `bound` is the sum of both errors, rounded up, with |c| the
    largest code norm. If the expanded minimum lies more than 2 * bound
    below every other expanded distance of its row, the direct distances
    have their unique minimum at the same code. Rows without that margin
    (near-ties, exact ties, non-finite distances) are recomputed in the
    direct form, which keeps its lowest-index tie-break.
    """
    latent = np.asarray(latent, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    if latent.ndim != 2 or latent.shape[0] < 1:
        raise InputError("latent must be a nonempty T_f x C matrix")
    if latent.shape[1] != codes.shape[1]:
        raise InputError(f"latent dim {latent.shape[1]} != code dim {codes.shape[1]}")
    dim = latent.shape[1]
    x2 = (latent * latent).sum(axis=1)
    c2 = (codes * codes).sum(axis=1)
    d2 = x2[:, None] - 2.0 * (latent @ codes.T) + c2[None, :]
    ids = d2.argmin(axis=1)
    rows = np.arange(ids.shape[0])
    best = d2[rows, ids]
    d2[rows, ids] = np.inf
    reach = np.sqrt(x2) + np.sqrt(c2.max())
    bound = (2 * dim + 8) * 2.0 ** -53 * reach * reach + (4 * dim + 4) * 2.0 ** -1074
    doubt = ~(best + 2.0 * bound < d2.min(axis=1))
    if doubt.any():
        diff = latent[doubt][:, None, :] - codes[None, :, :]
        ids[doubt] = (diff * diff).sum(axis=-1).argmin(axis=1)
    return ids

