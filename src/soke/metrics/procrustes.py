"""Similarity-transform Procrustes alignment (rotation + uniform scale +
translation, reflections disallowed), solved for a whole batch of point-set
pairs at once.

Umeyama (1991) reduces each pair to the 3x3 cross-covariance `cov` of the
centred sets: the rotation maximises <R, cov>, and the scale is that maximum
over the source variance. Horn (1987, closed-form absolute orientation with
unit quaternions) writes <R(q), cov> = qᵀ N q for a unit quaternion q and a
symmetric 4x4 matrix N linear in `cov`. The best proper rotation is R(q) for
the top eigenvector q of N, with det +1 by construction, and the maximum is
N's top eigenvalue λ, so the scale is λ / var_a. `_HORN` is that linear map:
`N = cov.reshape(9) @ _HORN`, and the same identity read the other way gives
`R(q).reshape(9) = outer(q, q).reshape(16) @ _HORN.T`.

For the singular values σ1 ≥ σ2 ≥ σ3 of `cov` and d = sign det `cov`, N's
ascending eigenvalues are μ = (−σ1−σ2+dσ3, −σ1+σ2−dσ3, σ1−σ2−dσ3,
σ1+σ2+dσ3). So σ1 = (μ4+μ3)/2 and σ2 = (μ4+μ2)/2, and the collinearity rule
σ2 < 1e-12·σ1 reads them off the eigenvalues without an SVD.

The top eigenpair is found one of two ways, chosen by batch size alone:

- below CLOSED_FORM_MIN_PAIRS pairs, `np.linalg.eigh` on the batch of N;
- from there on, in closed form for the whole batch (`_closed_form`):
  Newton's method on N's characteristic quartic, from an upper bound on λ
  (Theobald's QCP, 2005), and q from a row of adj(λI − N), which Cayley-
  Hamilton gives as a cubic in N. A pair that the closed form cannot solve
  to full accuracy (nearly collinear, a small eigengap, no convergence) is
  handed to eigh, and only eigh's pairs can fail the collinearity rule.

The crossover is a measurement, on 41-joint skeleton pairs with one BLAS
thread on a 2-vCPU x86-64 VM (numpy 2.4, OpenBLAS 0.3.31): the closed form
costs ≈0.12 ms per call plus ≈0.3 µs per pair, eigh ≈1.9 µs per pair, and
whole `procrustes_align` calls break even between 80 and 110 pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateAlignmentError, InputError

# Batches of at least this many pairs take the closed form (see the module docstring).
CLOSED_FORM_MIN_PAIRS = 100
# The closed form hands a pair to eigh when the 2x2 minors of cov give
# ‖adj cov‖² < _MINOR_SCREEN·‖cov‖⁴ (always for σ2/σ1 < 5.7e-4, never from 3e-3),
# when P'(λ), the product of λ's gaps to N's other eigenvalues, is below
# _GAP_SCREEN·‖cov‖³, or when _NEWTON_STEPS leave a step above _NEWTON_TOL·‖cov‖.
# A step that small leaves an error near its square over the gap; rounding alone
# keeps steps above it only where P'(λ) is tiny.
_MINOR_SCREEN = 1e-6
_GAP_SCREEN = 1e-3
_NEWTON_STEPS = 40
_NEWTON_TOL = 1e-11


def _horn_matrix() -> np.ndarray:
    """(9, 16) map from cov = B0^T A0 to Horn's N, both row-major."""
    H = np.zeros((3, 3, 4, 4))
    # the trace terms on N's diagonal
    for a, signs in enumerate(((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))):
        for i, sign in enumerate(signs):
            H[i, i, a, a] = sign
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        # the antisymmetric part in N's first row and column
        H[k, j, 0, i + 1] = H[k, j, i + 1, 0] = 1.0
        H[j, k, 0, i + 1] = H[j, k, i + 1, 0] = -1.0
        # the symmetric part off the diagonal of N's lower 3x3 block
        H[j, k, j + 1, k + 1] = H[k, j, j + 1, k + 1] = 1.0
        H[j, k, k + 1, j + 1] = H[k, j, k + 1, j + 1] = 1.0
    return H.reshape(9, 16)


_HORN = _horn_matrix()
# Row-major cofactor c_ij = c[a]*c[b] - c[d]*c[e] of a flattened 3x3 matrix, for
# (a, b, d, e) = _COFACTOR[:, 3i+j]: rows i+1, i+2 and columns j+1, j+2 (mod 3).
_COFACTOR = np.array([(3 * i1 + j1, 3 * i2 + j2, 3 * i1 + j2, 3 * i2 + j1)
                      for i1, i2 in ((1, 2), (2, 0), (0, 1)) for j1, j2 in ((1, 2), (2, 0), (0, 1))]).T


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
        """s*R*p + t for (..., N, 3) points whose leading axes broadcast with S.

        Each output coordinate is a multiply-add of the three input
        coordinates, each copied once to a contiguous (..., N) array, with
        the coefficients s*R broadcast over N: no per-pair matmul.
        """
        points = np.asarray(points, dtype=np.float64)
        coeff = np.asarray(self.scale)[..., None, None] * self.rotation
        x, y, z = (np.ascontiguousarray(points[..., i]) for i in range(3))
        out = np.empty(np.broadcast_shapes(points.shape, coeff.shape[:-2] + (1, 3)))
        acc, term = np.empty(out.shape[:-1]), np.empty(out.shape[:-1])
        for i in range(3):
            np.multiply(coeff[..., i, 0, None], x, out=acc)
            acc += np.multiply(coeff[..., i, 1, None], y, out=term)
            acc += np.multiply(coeff[..., i, 2, None], z, out=term)
            np.add(acc, self.translation[..., i, None], out=out[..., i])
        return out


def procrustes_align(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, SimilarityTransform]:
    """Least-squares s*R*A + t onto B over rotations (det +1), scale > 0,
    and translation.

    A and B are (..., N, 3) point sets whose leading axes broadcast to a batch
    shape S; each pair is solved on its own, and each set is centred once
    however many pairs it takes part in. The rotation comes from the top
    eigenvector of Horn's matrix of the pair's covariance and the scale is
    its eigenvalue over the source variance (module docstring); a batch of
    CLOSED_FORM_MIN_PAIRS or more solves that eigenpair in closed form,
    a smaller one with eigh. Returns (aligned A of shape (*S, N, 3),
    transform). Raises InputError for NaN or infinite points and
    DegenerateAlignmentError for fewer than 3 points, or if any pair has
    coincident source or target points (variance below 1e-18) or a collinear
    point set (σ2 < 1e-12·σ1).
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
    batch = cov.shape[:-2]
    flat = cov.reshape(-1, 9)
    horn = (flat @ _HORN).reshape(-1, 4, 4)
    if len(flat) >= CLOSED_FORM_MIN_PAIRS:
        bound = np.sqrt(var_a * var_b).reshape(-1)
        lam, quat, left = _closed_form(flat, horn, bound)
    else:
        lam, quat, left = np.empty(len(flat)), np.empty((len(flat), 4)), np.arange(len(flat))
    if left.size:
        mu, vec = np.linalg.eigh(horn[left])
        sigma1 = (mu[:, 3] + mu[:, 2]) / 2
        sigma2 = (mu[:, 3] + mu[:, 1]) / 2
        if (sigma2 < 1e-12 * np.maximum(sigma1, 1e-30)).any():
            raise DegenerateAlignmentError("points are collinear; rotation is underdetermined")
        lam[left] = mu[:, 3]
        quat[left] = vec[:, :, 3]

    R = ((quat[:, :, None] * quat[:, None, :]).reshape(-1, 16) @ _HORN.T).reshape(*batch, 3, 3)
    scale = lam.reshape(batch) / var_a
    if (scale <= 0).any():
        raise DegenerateAlignmentError("non-positive optimal scale")
    t = mu_b - scale[..., None] * (R * mu_a[..., None, :]).sum(axis=-1)
    transform = SimilarityTransform(rotation=R, scale=scale if scale.ndim else float(scale),
                                    translation=t)
    return transform.apply(A), transform


def _closed_form(flat: np.ndarray, horn: np.ndarray,
                 bound: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top eigenpair of each Horn matrix without LAPACK, for (K, 9)
    covariances, their (K, 4, 4) matrices N and an upper bound on each top
    eigenvalue, sqrt(var_a * var_b) by Cauchy-Schwarz.

    Returns (λ of shape (K,), unit q of shape (K, 4), indices of the pairs
    left for eigh, whose λ and q are not set). With c = cov/‖cov‖_F, N's
    characteristic polynomial is P(λ) = λ⁴ − 2λ² − 8·det(c)·λ +
    (1 − 4·‖adj c‖²). Newton's method starts from the smaller of the bound
    and √3 ≥ σ1+σ2+σ3, both at or above λmax, where P is convex, so it
    descends monotonically onto λmax. Dividing P(x) by (x − λ) leaves Q(x) =
    x³ + λx² + (λ² − 2)x + (λ³ − 2λ − 8·det c), and Q(N) = adj(λI − N) =
    P'(λ)·q qᵀ: its row of largest diagonal, normalised, is q. A pair that
    fails a screen (module constants) takes no further Newton step and is
    left for eigh.
    """
    c = flat.T.copy()
    norm = np.sqrt((c * c).sum(axis=0))
    # a zero covariance fails the minor screen; dividing it by 1 keeps it finite
    unit = np.where(norm > 0, norm, 1.0)
    c /= unit
    adj = c[_COFACTOR[0]] * c[_COFACTOR[1]] - c[_COFACTOR[2]] * c[_COFACTOR[3]]
    minors = (adj * adj).sum(axis=0)
    c1 = -8.0 * (c[:3] * adj[:3]).sum(axis=0)
    c0 = 1.0 - 4.0 * minors
    live = minors >= _MINOR_SCREEN
    x = np.minimum(bound, np.sqrt(3.0) * unit) / unit
    for _ in range(_NEWTON_STEPS):
        x2 = x * x
        dp = (4.0 * x2 - 4.0) * x + c1
        # P' only falls on the way down to λmax, so a pair below the gap screen stays there
        live &= dp >= _GAP_SCREEN
        step = np.divide(((x2 - 2.0) * x + c1) * x + c0, dp, out=np.zeros_like(x), where=live)
        x -= step
        if np.abs(step).max() <= _NEWTON_TOL:
            break
    live &= np.abs(step) <= _NEWTON_TOL

    N = horn / unit[:, None, None]
    Q = N @ N + x[:, None, None] * N
    Q.reshape(-1, 16)[:, ::5] += (x * x - 2.0)[:, None]
    Q = Q @ N
    Q.reshape(-1, 16)[:, ::5] += ((x * x - 2.0) * x + c1)[:, None]
    row = Q[np.arange(len(Q)), np.argmax(Q.reshape(-1, 16)[:, ::5], axis=1)]
    # |row| >= P'(λ)/2 >= _GAP_SCREEN/2 on the live pairs
    length = np.sqrt(np.einsum("ki,ki->k", row, row))
    quat = row / np.where(live, length, 1.0)[:, None]
    return x * norm, quat, np.flatnonzero(~live)
