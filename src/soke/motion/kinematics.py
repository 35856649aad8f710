"""Toy articulated skeleton with axis-angle forward kinematics.

The chain is a stand-in upper-body skeleton: an 11-joint torso/arm tree plus
two 15-joint hands (5 fingers x 3 segments) attached at the wrists. Bone
offsets are scaled so the mean bone length is 100 mm, which keeps reported
joint-position errors in a familiar millimeter range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import LayoutError
from .layout import ROTATION_DIMS, PartLayout


@dataclass(frozen=True)
class KinematicChain:
    """Topologically-ordered joint tree.

    parents[j] < j (root has parent -1); offsets[j] is the bone vector from
    parent to joint j in the rest pose; param_offsets[j] is the index of
    joint j's axis-angle triple inside a flat motion frame.
    """

    parents: tuple[int, ...]
    offsets: np.ndarray
    param_offsets: tuple[int, ...]
    root_position: np.ndarray
    joint_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.float64))
        object.__setattr__(self, "root_position", np.asarray(self.root_position, dtype=np.float64))
        for j, p in enumerate(self.parents):
            if p >= j or (j == 0) != (p == -1):
                raise LayoutError(f"chain is not topologically ordered at joint {j}")

    @property
    def num_joints(self) -> int:
        return len(self.parents)

    @cached_property
    def levels(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(joints, their parents) for each tree depth from 1 down."""
        parent_of = np.asarray(self.parents)
        depth = np.zeros(self.num_joints, dtype=np.int64)
        for j in range(1, self.num_joints):
            depth[j] = depth[parent_of[j]] + 1
        levels = []
        for level in range(1, int(depth.max()) + 1):
            joints = np.flatnonzero(depth == level)
            levels.append((joints, parent_of[joints]))
        return tuple(levels)

    def body_subchain(self, body_joints: int) -> "KinematicChain":
        """The first `body_joints` joints as a standalone chain."""
        return KinematicChain(
            parents=self.parents[:body_joints],
            offsets=self.offsets[:body_joints].copy(),
            param_offsets=self.param_offsets[:body_joints],
            root_position=self.root_position.copy(),
            joint_names=self.joint_names[:body_joints],
        )


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices K with K @ u = v x u, shape (..., 3, 3)."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    return np.stack(
        [
            np.stack([zero, -z, y], axis=-1),
            np.stack([z, zero, -x], axis=-1),
            np.stack([-y, x, zero], axis=-1),
        ],
        axis=-2,
    )


def _vee(m: np.ndarray) -> np.ndarray:
    """<m, skew(e_i)> for i = x, y, z: the cotangent of _skew, shape (..., 3)."""
    return np.stack([m[..., 2, 1] - m[..., 1, 2], m[..., 0, 2] - m[..., 2, 0],
                     m[..., 1, 0] - m[..., 0, 1]], axis=-1)


def _rodrigues_coefficients(t2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = sin(t)/t and B = (1-cos(t))/t^2 at t^2 = t2, smooth through t = 0."""
    t = np.sqrt(t2)
    small = t < 1e-6
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - t2 / 6.0, np.sin(t) / np.where(small, 1.0, t))
        b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(t)) / np.where(small, 1.0, t2))
    return a, b


def axis_angle_matrices(v: np.ndarray) -> np.ndarray:
    """Rotation matrices for a batch of axis-angle vectors, shape (..., 3).

    Uses the Rodrigues form R = I + A*K + B*K^2 with A = sin(t)/t and
    B = (1-cos(t))/t^2 on the unnormalized skew K; Taylor fallbacks keep A
    and B smooth through t = 0.
    """
    v = np.asarray(v, dtype=np.float64)
    a, b = _rodrigues_coefficients((v * v).sum(axis=-1))
    k = _skew(v)
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye + a[..., None, None] * k + b[..., None, None] * (k @ k)


def axis_angle_vjp(v: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Cotangent on the vectors v (..., 3) of axis_angle_matrices(v), given a
    cotangent `grad` (..., 3, 3) on its matrices.

    With R = I + A K + B K^2, dR/dv_i = v_i (A'/t K + B'/t K^2) + A E_i
    + B (E_i K + K E_i), where E_i = skew(e_i). A'(t)/t and B'(t)/t cancel
    badly near t = 0, so below t = 1e-2 they come from their Taylor series.
    """
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
    k = _skew(v)
    k2 = k @ k
    radial = da * (grad * k).sum(axis=(-2, -1)) + db * (grad * k2).sum(axis=(-2, -1))
    # <G, E_i K + K E_i> = <G K^T + K^T G, E_i> and K^T = -K
    return (v * radial[..., None] + a[..., None] * _vee(grad)
            - b[..., None] * _vee(grad @ k + k @ grad))


def forward_kinematics_pass(
    angles: np.ndarray, chain: KinematicChain,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions (T, J, 3), global and local rotations (T, J, 3, 3) for
    per-joint axis-angle vectors angles (T, J, 3).

    Joints are composed one tree depth at a time: every joint of a level
    hangs off a parent of the level before, which is already placed.
    """
    local = axis_angle_matrices(angles)
    T, J = local.shape[:2]
    pos = np.empty((T, J, 3))
    rot = np.empty((T, J, 3, 3))
    rot[:, 0] = local[:, 0]
    pos[:, 0] = chain.root_position
    for joints, parents in chain.levels:
        parent_rot = rot[:, parents]
        rot[:, joints] = parent_rot @ local[:, joints]
        pos[:, joints] = pos[:, parents] + (parent_rot @ chain.offsets[joints][..., None])[..., 0]
    return pos, rot, local


def forward_kinematics_vjp(
    grad_pos: np.ndarray, angles: np.ndarray, rot: np.ndarray, local: np.ndarray,
    chain: KinematicChain,
) -> np.ndarray:
    """Cotangent (T, J, 3) on the angles of forward_kinematics_pass, given a
    cotangent (T, J, 3) on its positions and the rotations it returned.

    Runs the levels in reverse: a level's rotation cotangents are complete
    once every deeper level has passed its share to its parents. Siblings
    share a parent, so shares are summed with np.add.at.
    """
    grad_pos = np.array(grad_pos, dtype=np.float64)
    grad_rot = np.zeros_like(rot)
    grad_local = np.empty_like(local)
    for joints, parents in reversed(chain.levels):
        g_rot = grad_rot[:, joints]
        parent_rot = rot[:, parents]
        # R_j = R_p L_j and x_j = x_p + R_p o_j
        grad_local[:, joints] = np.swapaxes(parent_rot, -1, -2) @ g_rot
        to_parent = (g_rot @ np.swapaxes(local[:, joints], -1, -2)
                     + grad_pos[:, joints, :, None] * chain.offsets[joints][:, None, :])
        np.add.at(grad_rot, (slice(None), parents), to_parent)
        np.add.at(grad_pos, (slice(None), parents), grad_pos[:, joints])
    grad_local[:, 0] = grad_rot[:, 0]
    return axis_angle_vjp(angles, grad_local)


def forward_kinematics_sequence(frames: np.ndarray, chain: KinematicChain) -> np.ndarray:
    """3D joint positions (T, J, 3) for a T x d parameter array."""
    frames = np.asarray(frames, dtype=np.float64)
    columns = np.asarray(chain.param_offsets)[:, None] + np.arange(ROTATION_DIMS)
    return forward_kinematics_pass(frames[:, columns], chain)[0]


_BODY_TOPO = [
    # name, parent, rest offset (unscaled)
    ("pelvis", -1, (0.0, 0.0, 0.0)),
    ("spine", 0, (0.0, 0.20, 0.0)),
    ("chest", 1, (0.0, 0.20, 0.0)),
    ("neck", 2, (0.0, 0.15, 0.0)),
    ("head", 3, (0.0, 0.14, 0.0)),
    ("l_shoulder", 2, (0.16, 0.06, 0.0)),
    ("l_elbow", 5, (0.26, 0.0, 0.0)),
    ("l_wrist", 6, (0.24, 0.0, 0.0)),
    ("r_shoulder", 2, (-0.16, 0.06, 0.0)),
    ("r_elbow", 8, (-0.26, 0.0, 0.0)),
    ("r_wrist", 9, (-0.24, 0.0, 0.0)),
]


def _hand_topo(side: str, wrist: int, start: int, sign: float):
    names, parents, offsets = [], [], []
    for f in range(5):
        spread = (f - 2) * 0.022
        base = start + 3 * f
        names += [f"{side}_f{f}_{seg}" for seg in ("base", "mid", "tip")]
        parents += [wrist, base, base + 1]
        offsets += [
            (sign * 0.085, 0.0, spread),
            (sign * 0.038, 0.0, spread * 0.35),
            (sign * 0.030, 0.0, spread * 0.2),
        ]
    return names, parents, offsets


def build_sign_chain(layout: PartLayout | None = None, mean_bone_mm: float = 100.0) -> KinematicChain:
    """The default toy signer skeleton matching a PartLayout.

    Only the default joint counts (11 body, 15 per hand) are supported; the
    layout argument exists to validate agreement.
    """
    layout = layout or PartLayout()
    if layout.body_joints != 11 or layout.hand_joints_per_hand != 15:
        raise LayoutError("the toy sign chain requires 11 body and 15 per-hand joints")

    names = [n for n, _, _ in _BODY_TOPO]
    parents = [p for _, p, _ in _BODY_TOPO]
    offsets = [o for _, _, o in _BODY_TOPO]
    ln, lp, lo = _hand_topo("l", wrist=7, start=11, sign=1.0)
    rn, rp, ro = _hand_topo("r", wrist=10, start=26, sign=-1.0)
    names += ln + rn
    parents += lp + rp
    offsets += lo + ro

    offsets = np.asarray(offsets, dtype=np.float64)
    lengths = np.linalg.norm(offsets[1:], axis=1)  # root bone excluded
    offsets *= mean_bone_mm / lengths.mean()

    # Parameter order in a flat frame: body rotations, expression, LH, RH.
    body = layout.body_joints
    expr = layout.expression_dims
    param_offsets = (
        [3 * j for j in range(body)]
        + [3 * body + expr + 3 * i for i in range(15)]
        + [3 * body + expr + 45 + 3 * i for i in range(15)]
    )
    return KinematicChain(
        parents=tuple(parents),
        offsets=offsets,
        param_offsets=tuple(param_offsets),
        root_position=np.zeros(3),
        joint_names=tuple(names),
    )


def body_joint_indices(chain: KinematicChain) -> np.ndarray:
    return np.arange(11)


def hand_joint_indices(chain: KinematicChain) -> np.ndarray:
    return np.arange(11, chain.num_joints)
