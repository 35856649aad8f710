"""Forward kinematics as it ran before the inner-joint plan: one tree depth at
a time, every joint included, and Rodrigues as it ran before its closed form.

`forward_kinematics_pass` composes the rotations of all joints, leaves too,
level by level in joint order, with time-major (T, J, ...) arrays. The VJP
walks the same levels in reverse, sums the shares of siblings with
`np.add.at` and ends with `axis_angle_vjp`, the Rodrigues VJP the package
ran before its one-pass VJP over subtree moments. The pass calls the
package's Rodrigues form, so it pins the plan's bytes and nothing else; the
VJP is the package VJP's reference to rounding.

`axis_angle_vjp` is the closed-form Rodrigues VJP: three identities of
exponential coordinates (Gallego and Yezzi, JMIV 2015) with no BLAS call.
`blas_axis_angle_matrices` and `blas_axis_angle_vjp` are the Rodrigues form
and its VJP with K and K^2 as matrices and K^2 = K @ K a BLAS product: the
accuracy reference of the closed forms.
"""

from __future__ import annotations

import numpy as np

from soke.motion.kinematics import _rodrigues_coefficients, axis_angle_matrices
from soke.motion.layout import ROTATION_DIMS

# the cross-product matrices E_k of e_x, e_y, e_z: <G, E_k> = vee(G)_k
_SKEW_BASIS = np.swapaxes(np.cross(np.eye(3)[:, None], np.eye(3)), 1, 2)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices K with K @ u = v x u, shape (..., 3, 3)."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    k = np.zeros(v.shape + (3,), dtype=v.dtype)
    k[..., 0, 1], k[..., 0, 2] = -z, y
    k[..., 1, 0], k[..., 1, 2] = z, -x
    k[..., 2, 0], k[..., 2, 1] = -y, x
    return k


def vee(m: np.ndarray) -> np.ndarray:
    """<m, skew(e_i)> for i = x, y, z: the cotangent of `skew`, shape (..., 3)."""
    return np.stack([m[..., 2, 1] - m[..., 1, 2], m[..., 0, 2] - m[..., 2, 0],
                     m[..., 1, 0] - m[..., 0, 1]], axis=-1)


def blas_axis_angle_matrices(v: np.ndarray) -> np.ndarray:
    """R = I + A K + B K^2 for axis-angle vectors v (..., 3)."""
    v = np.asarray(v, dtype=np.float64)
    a, b = _rodrigues_coefficients((v * v).sum(axis=-1))
    k = skew(v)
    return np.eye(3) + a[..., None, None] * k + b[..., None, None] * (k @ k)


def blas_axis_angle_vjp(v: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Cotangent on v of blas_axis_angle_matrices(v), given one on its
    matrices: dR/dv_i = v_i (A'/t K + B'/t K^2) + A E_i + B (E_i K + K E_i)."""
    v = np.asarray(v, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    t2 = (v * v).sum(axis=-1)
    a, b = _rodrigues_coefficients(t2)
    t = np.sqrt(t2)
    small = t < 1e-2
    t = np.where(small, 1.0, t)
    sin_t, half_sin = np.sin(t), np.sin(0.5 * t)
    da = np.where(small, -1.0 / 3.0 + t2 / 30.0 - t2 * t2 / 840.0,
                  (t * np.cos(t) - sin_t) / t**3)
    db = np.where(small, -1.0 / 12.0 + t2 / 180.0 - t2 * t2 / 6720.0,
                  (t * sin_t - 4.0 * half_sin * half_sin) / t**4)
    k = skew(v)
    k2 = k @ k
    radial = da * (grad * k).sum(axis=(-2, -1)) + db * (grad * k2).sum(axis=(-2, -1))
    # <G, E_i K + K E_i> = <G K^T + K^T G, E_i> and K^T = -K
    return (v * radial[..., None] + a[..., None] * vee(grad)
            - b[..., None] * vee(grad @ k + k @ grad))


def axis_angle_vjp(v: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Cotangent on the vectors v (..., 3) of axis_angle_matrices(v), given a
    cotangent G = `grad` (..., 3, 3) on its matrices.

    With R = I + A K + B K^2, dR/dv_i = v_i (A'/t K + B'/t K^2) + A E_i
    + B (E_i K + K E_i), E_i the cross-product matrix of e_i; A'(t)/t and
    B'(t)/t come from their Taylor series below t = 1e-2, where they cancel
    badly. With vee(G)_i = <G, E_i>, <G, K> = v . vee(G), <G, K^2> =
    v^T G v - t^2 tr G and vee(G K + K G) = 2 tr G v - (G + G^T) v, the
    cotangent is v (A'/t <G, K> + B'/t <G, K^2> - 2 B tr G) + A vee(G)
    + B (G + G^T) v: within 8.1e-16 of the batch's largest entry of the
    form with K @ K a BLAS product.
    """
    v = np.asarray(v, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    t2 = v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2
    a, b = _rodrigues_coefficients(t2)
    t = np.sqrt(t2)
    small = t < 1e-2
    t = np.where(small, 1.0, t)
    sin_t, half_sin = np.sin(t), np.sin(0.5 * t)
    da = (t * np.cos(t) - sin_t) / t**3
    db = (t * sin_t - 4.0 * half_sin * half_sin) / t**4
    if small.any():
        da = np.where(small, -1.0 / 3.0 + t2 / 30.0 - t2 * t2 / 840.0, da)
        db = np.where(small, -1.0 / 12.0 + t2 / 180.0 - t2 * t2 / 6720.0, db)
    sym_v = np.einsum("...ij,...j->...i", grad + np.swapaxes(grad, -1, -2), v)
    vee = np.einsum("...ij,kij->...k", grad, _SKEW_BASIS)
    trace = np.einsum("...ii->...", grad)
    radial = (da * (v * vee).sum(axis=-1)
              + db * (0.5 * (v * sym_v).sum(axis=-1) - t2 * trace) - 2.0 * b * trace)
    return v * radial[..., None] + a[..., None] * vee + b[..., None] * sym_v


def levels(chain):
    """(joints, their parents, their bone offsets as (n, 3, 1) columns) for
    each tree depth from 1 down."""
    parent_of = np.asarray(chain.parents)
    depth = np.zeros(chain.num_joints, dtype=np.int64)
    for j in range(1, chain.num_joints):
        depth[j] = depth[parent_of[j]] + 1
    out = []
    for level in range(1, int(depth.max()) + 1):
        joints = np.flatnonzero(depth == level)
        out.append((joints, parent_of[joints], chain.offsets[joints][..., None]))
    return out


def forward_kinematics_pass(angles: np.ndarray, chain):
    """Positions (T, J, 3), global and local rotations (T, J, 3, 3)."""
    local = axis_angle_matrices(angles)
    T, J = local.shape[:2]
    pos = np.empty((T, J, 3))
    rot = np.empty((T, J, 3, 3))
    rot[:, 0] = local[:, 0]
    pos[:, 0] = chain.root_position
    for joints, parents, offsets in levels(chain):
        parent_rot = rot[:, parents]
        rot[:, joints] = parent_rot @ local[:, joints]
        pos[:, joints] = pos[:, parents] + (parent_rot @ offsets)[..., 0]
    return pos, rot, local


def forward_kinematics_vjp(grad_pos, angles, rot, local, chain) -> np.ndarray:
    """Cotangent (T, J, 3) on the angles, given one on the positions and the
    rotations `forward_kinematics_pass` returned."""
    grad_pos = np.array(grad_pos, dtype=np.float64)
    grad_rot = np.zeros_like(rot)
    grad_local = np.empty_like(local)
    for joints, parents, offsets in reversed(levels(chain)):
        g_rot = grad_rot[:, joints]
        parent_rot = rot[:, parents]
        grad_local[:, joints] = np.swapaxes(parent_rot, -1, -2) @ g_rot
        to_parent = (g_rot @ np.swapaxes(local[:, joints], -1, -2)
                     + grad_pos[:, joints, :, None] * np.swapaxes(offsets, -1, -2))
        np.add.at(grad_rot, (slice(None), parents), to_parent)
        np.add.at(grad_pos, (slice(None), parents), grad_pos[:, joints])
    grad_local[:, 0] = grad_rot[:, 0]
    return axis_angle_vjp(angles, grad_local)


def forward_kinematics_sequence(frames: np.ndarray, chain) -> np.ndarray:
    """3D joint positions (T, J, 3) for a T x d parameter array."""
    frames = np.asarray(frames, dtype=np.float64)
    columns = np.asarray(chain.param_offsets)[:, None] + np.arange(ROTATION_DIMS)
    return forward_kinematics_pass(frames[:, columns], chain)[0]
