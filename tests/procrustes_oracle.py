"""The Procrustes solver the package used before Horn's quaternion form:
one LAPACK SVD, determinant and reflection fix-up per point-set pair, and
the transform applied as a batched matmul. Kept as the reference that
`tests/test_metrics.py` compares `soke.metrics.procrustes_align` with; the
one addition to the old solver is the package's coincident-target check, so
a degenerate pair raises the same message in both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from soke.errors import DegenerateAlignmentError, InputError

@dataclass(frozen=True)
class SimilarityTransform:
    """One transform per point-set pair of a batch with leading shape S.

    rotation is (*S, 3, 3) with det +1, scale is (*S,) (a float for a single
    pair) and translation is (*S, 3).
    """

    rotation: np.ndarray
    scale: float | np.ndarray
    translation: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        """s*R*p + t for (..., N, 3) points whose leading axes broadcast with S."""
        scale = np.asarray(self.scale)[..., None, None]
        return scale * points @ np.swapaxes(self.rotation, -1, -2) + self.translation[..., None, :]


def procrustes_align(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, SimilarityTransform]:
    """Least-squares s*R*A + t onto B over rotations (det +1), scale > 0,
    and translation.

    A and B are (..., N, 3) point sets whose leading axes broadcast to a batch
    shape S; each pair is solved on its own, and each set is centred once
    however many pairs it takes part in. Returns (aligned A of shape
    (*S, N, 3), transform). Raises InputError for NaN or infinite points and
    DegenerateAlignmentError for fewer than 3 points, or if any pair has
    coincident source or target points or a collinear point set.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim < 2 or A.shape[-2:] != B.shape[-2:] or A.shape[-1] != 3:
        raise DegenerateAlignmentError(f"point sets must both be N x 3, got {A.shape} vs {B.shape}")
    try:
        np.broadcast_shapes(A.shape, B.shape)
    except ValueError as exc:
        raise DegenerateAlignmentError(f"batch shapes do not broadcast: {A.shape} vs {B.shape}") from exc
    for name, points in (("source", A), ("target", B)):
        if not np.isfinite(points).all():
            raise InputError(f"{name} points contain NaN or infinity")
    n = A.shape[-2]
    if n < 3:
        raise DegenerateAlignmentError("need at least 3 points")

    mu_a = A.mean(axis=-2)
    mu_b = B.mean(axis=-2)
    A0 = A - mu_a[..., None, :]
    B0 = B - mu_b[..., None, :]
    var_a = (A0 * A0).sum(axis=(-2, -1)) / n
    if (var_a < 1e-18).any():
        raise DegenerateAlignmentError("source points are coincident")
    var_b = (B0 * B0).sum(axis=(-2, -1)) / n
    if (var_b < 1e-18).any():
        raise DegenerateAlignmentError("target points are coincident")

    cov = np.swapaxes(B0, -1, -2) @ A0 / n
    U, S, Vt = np.linalg.svd(cov)
    if (S[..., 1] < 1e-12 * np.maximum(S[..., 0], 1e-30)).any():
        raise DegenerateAlignmentError("points are collinear; rotation is underdetermined")
    sign = np.sign(np.linalg.det(U @ Vt))
    D = np.ones(S.shape)
    D[..., 2] = sign
    R = U * D[..., None, :] @ Vt
    scale = (S * D).sum(axis=-1) / var_a
    if (scale <= 0).any():
        raise DegenerateAlignmentError("non-positive optimal scale")
    t = mu_b - (scale[..., None, None] * R @ mu_a[..., None])[..., 0]
    transform = SimilarityTransform(rotation=R, scale=scale if scale.ndim else float(scale),
                                    translation=t)
    return transform.apply(A), transform
