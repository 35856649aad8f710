"""Toy articulated skeleton with axis-angle forward kinematics.

The chain is a stand-in upper-body skeleton: an 11-joint torso/arm tree plus
two 15-joint hands (5 fingers x 3 segments) attached at the wrists. Bone
offsets are scaled so the mean bone length is 100 mm, which keeps reported
joint-position errors in a familiar millimeter range.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def body_subchain(self, body_joints: int) -> "KinematicChain":
        """The first `body_joints` joints as a standalone chain."""
        return KinematicChain(
            parents=self.parents[:body_joints],
            offsets=self.offsets[:body_joints].copy(),
            param_offsets=self.param_offsets[:body_joints],
            root_position=self.root_position.copy(),
            joint_names=self.joint_names[:body_joints],
        )


def axis_angle_matrices(v: np.ndarray) -> np.ndarray:
    """Rotation matrices for a batch of axis-angle vectors, shape (..., 3).

    Uses the Rodrigues form R = I + A*K + B*K^2 with A = sin(t)/t and
    B = (1-cos(t))/t^2 on the unnormalized skew K; Taylor fallbacks keep A
    and B smooth through t = 0.
    """
    v = np.asarray(v, dtype=np.float64)
    t2 = (v * v).sum(axis=-1)
    t = np.sqrt(t2)
    small = t < 1e-6
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - t2 / 6.0, np.sin(t) / np.where(small, 1.0, t))
        b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(t)) / np.where(small, 1.0, t2))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    k = np.stack(
        [
            np.stack([zero, -z, y], axis=-1),
            np.stack([z, zero, -x], axis=-1),
            np.stack([-y, x, zero], axis=-1),
        ],
        axis=-2,
    )
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye + a[..., None, None] * k + b[..., None, None] * (k @ k)


def forward_kinematics(frame: np.ndarray, chain: KinematicChain) -> np.ndarray:
    """3D joint positions (J, 3) for one flat parameter frame."""
    return forward_kinematics_sequence(np.asarray(frame, dtype=np.float64)[None, :], chain)[0]


def forward_kinematics_sequence(frames: np.ndarray, chain: KinematicChain) -> np.ndarray:
    """3D joint positions (T, J, 3) for a T x d parameter array.

    Joints are composed one tree depth at a time: every joint of a level
    hangs off a parent of the level before, which is already placed.
    """
    frames = np.asarray(frames, dtype=np.float64)
    T = frames.shape[0]
    J = chain.num_joints
    columns = np.asarray(chain.param_offsets)[:, None] + np.arange(ROTATION_DIMS)
    local = axis_angle_matrices(frames[:, columns])
    pos = np.empty((T, J, 3))
    rot = np.empty((T, J, 3, 3))
    rot[:, 0] = local[:, 0]
    pos[:, 0] = chain.root_position
    parent_of = np.asarray(chain.parents)
    depth = np.zeros(J, dtype=np.int64)
    for j in range(1, J):
        depth[j] = depth[parent_of[j]] + 1
    for level in range(1, int(depth.max()) + 1):
        joints = np.flatnonzero(depth == level)
        parents = parent_of[joints]
        parent_rot = rot[:, parents]
        rot[:, joints] = parent_rot @ local[:, joints]
        pos[:, joints] = pos[:, parents] + (parent_rot @ chain.offsets[joints][..., None])[..., 0]
    return pos


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
