"""Toy articulated skeleton with axis-angle forward kinematics.

The chain is a stand-in upper-body skeleton: an 11-joint torso/arm tree plus
two 15-joint hands (5 fingers x 3 segments) attached at the wrists. Bone
offsets are scaled so the mean bone length is MEAN_BONE_MM (100 mm), which
keeps reported joint-position errors in a familiar millimeter range.

Forward kinematics follows one plan per chain, `KinematicChain.placement`:
the inner joints (the root and every joint with a child) by tree depth,
then the leaves. Only inner rotations move other joints, so Rodrigues and
the rotation products run for inner joints only, and the leaves (head and
fingertips on the sign chain) are placed in one step after the last inner
level. Working arrays are joint-major, (joints, T, ...), so each level is a
contiguous slice. Every 3x3 product is the numpy `@` the level-by-level
pass over all joints ran, on the same operands, so positions and
gradients keep their bits. Positions come back C-contiguous in joint
order: the Procrustes means and sums downstream reduce in memory order, so
a transposed view of the same values would change their bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from ..errors import LayoutError
from .layout import ROTATION_DIMS, PartLayout

MEAN_BONE_MM = 100.0

_EYE3 = np.eye(3)


Index = slice | np.ndarray


class Level(NamedTuple):
    """Joints `start:stop` of a plan, the plan slots of their parents, their
    bone offsets as (n, 1, 3, 1) columns, and the joints grouped by sibling
    rank: (joints relative to `start`, their parents' slots) for the first
    child of each parent, then the second, and so on. Each group has
    distinct parents, so the VJP passes a group's shares with one indexed
    add, and a parent sums its children's shares in their index order.
    """

    start: int
    stop: int
    parents: Index
    offsets: np.ndarray
    ranks: tuple[tuple[Index, Index], ...]


class Placement(NamedTuple):
    """Joint indices in plan order, the inner joints' depth levels from 1
    down, and the leaves."""

    order: np.ndarray
    levels: tuple[Level, ...]
    leaves: Level

    @property
    def inner(self) -> np.ndarray:
        """The inner joints' indices, in plan order."""
        return self.order[:self.leaves.start]


def _index(slots: np.ndarray) -> Index:
    """`slots` as a slice when they are one ascending run: numpy reads a
    slice as a view and adds into it in place."""
    if len(slots) and np.array_equal(slots, np.arange(slots[0], slots[0] + len(slots))):
        return slice(int(slots[0]), int(slots[0]) + len(slots))
    return slots


@dataclass(frozen=True)
class KinematicChain:
    """Topologically-ordered joint tree.

    parents[j] < j (root has parent -1); offsets[j] is the bone vector from
    parent to joint j in the rest pose; param_offsets[j] is the index of
    joint j's axis-angle triple inside a flat motion frame. `placement`
    caches the plan that forward kinematics runs (see the module
    docstring). offsets and root_position are kept as read-only copies, so
    that one chain can be shared by every caller.
    """

    parents: tuple[int, ...]
    offsets: np.ndarray
    param_offsets: tuple[int, ...]
    root_position: np.ndarray
    joint_names: tuple[str, ...]

    def __post_init__(self):
        for name in ("offsets", "root_position"):
            value = np.array(getattr(self, name), dtype=np.float64)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        for j, p in enumerate(self.parents):
            if p >= j or (j == 0) != (p == -1):
                raise LayoutError(f"chain is not topologically ordered at joint {j}")

    @property
    def num_joints(self) -> int:
        return len(self.parents)

    @cached_property
    def placement(self) -> Placement:
        """The plan of forward kinematics: inner joints by depth, then leaves.

        An inner joint is the root or a joint with a child; only inner
        rotations move other joints. Within a level and among the leaves,
        joints keep their index order. The VJP passes the leaves' shares
        first, so a parent sums its children's shares in their index order
        unless it has both a leaf and an inner child, which no joint of the
        sign chain or its body subchain has.
        """
        parent_of = np.asarray(self.parents)
        depth = np.zeros(self.num_joints, dtype=np.int64)
        for j in range(1, self.num_joints):
            depth[j] = depth[parent_of[j]] + 1
        has_child = np.zeros(self.num_joints, dtype=bool)
        has_child[parent_of[1:]] = True
        has_child[0] = True
        inner = np.flatnonzero(has_child)
        order = np.concatenate([inner[np.argsort(depth[inner], kind="stable")],
                                np.flatnonzero(~has_child)])
        slot = np.empty_like(order)
        slot[order] = np.arange(self.num_joints)
        bounds = np.cumsum(np.bincount(depth[inner]))

        def level(start: int, stop: int) -> Level:
            joints = order[start:stop]
            parents = slot[parent_of[joints]]
            rank = np.array([np.count_nonzero(parents[:i] == p) for i, p in enumerate(parents)],
                            dtype=np.int64)
            ranks = tuple((_index(np.flatnonzero(rank == r)), _index(parents[rank == r]))
                          for r in range(int(rank.max(initial=-1)) + 1))
            return Level(start, stop, _index(parents), self.offsets[joints][:, None, :, None],
                         ranks)

        levels = tuple(level(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]))
        return Placement(order, levels, level(len(inner), self.num_joints))

    @cached_property
    def _subchains(self) -> dict[int, "KinematicChain"]:
        return {}

    def body_subchain(self, body_joints: int) -> "KinematicChain":
        """The first `body_joints` joints as a standalone chain, built once
        per chain and joint count, so its `placement` is planned once too."""
        if body_joints not in self._subchains:
            self._subchains[body_joints] = KinematicChain(
                parents=self.parents[:body_joints],
                offsets=self.offsets[:body_joints],
                param_offsets=self.param_offsets[:body_joints],
                root_position=self.root_position,
                joint_names=self.joint_names[:body_joints],
            )
        return self._subchains[body_joints]


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices K with K @ u = v x u, shape (..., 3, 3)."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    k = np.zeros(v.shape + (3,), dtype=v.dtype)
    k[..., 0, 1], k[..., 0, 2] = -z, y
    k[..., 1, 0], k[..., 1, 2] = z, -x
    k[..., 2, 0], k[..., 2, 1] = -y, x
    return k


def _vee(m: np.ndarray) -> np.ndarray:
    """<m, skew(e_i)> for i = x, y, z: the cotangent of _skew, shape (..., 3)."""
    out = np.empty(m.shape[:-1], dtype=m.dtype)
    np.subtract(m[..., 2, 1], m[..., 1, 2], out=out[..., 0])
    np.subtract(m[..., 0, 2], m[..., 2, 0], out=out[..., 1])
    np.subtract(m[..., 1, 0], m[..., 0, 1], out=out[..., 2])
    return out


def _squared_norms(v: np.ndarray) -> np.ndarray:
    """|v|^2 over the last axis of v (..., 3): (v * v).sum(axis=-1) with its
    adds in the same order, without the reduction's overhead."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return x * x + y * y + z * z


def _rodrigues_coefficients(t2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = sin(t)/t and B = (1-cos(t))/t^2 at t^2 = t2, smooth through t = 0."""
    t = np.sqrt(t2)
    small = t < 1e-6
    # small t is replaced by 1.0 before dividing, and callers pass finite
    # angles (MotionSequence and Tensor reject non-finite values)
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
    a, b = _rodrigues_coefficients(_squared_norms(v))
    k = _skew(v)
    r = a[..., None, None] * k
    r += _EYE3
    k2 = k @ k
    k2 *= b[..., None, None]
    r += k2
    return r


def axis_angle_vjp(v: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Cotangent on the vectors v (..., 3) of axis_angle_matrices(v), given a
    cotangent `grad` (..., 3, 3) on its matrices.

    With R = I + A K + B K^2, dR/dv_i = v_i (A'/t K + B'/t K^2) + A E_i
    + B (E_i K + K E_i), where E_i = skew(e_i). A'(t)/t and B'(t)/t cancel
    badly near t = 0, so below t = 1e-2 they come from their Taylor series.
    """
    v = np.asarray(v, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    t2 = _squared_norms(v)
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
    """Positions (T, J, 3) for per-joint axis-angle vectors angles (T, J, 3),
    with the rotations of the chain's n inner joints, joint-major in plan
    order: global R_j (n, T, 3, 3), the product of the local rotations from
    the root down to j, and local L_j (n, T, 3, 3), the Rodrigues matrix of
    j's own angles. Leaves get no rotation: none of theirs moves a joint.

    Inner joints are composed one tree depth at a time: every joint of a
    level hangs off a parent of the level before, which is already placed.
    The leaves are placed last, in one step.
    """
    plan = chain.placement
    local = axis_angle_matrices(np.swapaxes(angles, 0, 1)[plan.inner])
    rot = np.empty_like(local)
    rot[0] = local[0]
    pos = np.empty((chain.num_joints,) + local.shape[1:-1])
    pos[0] = chain.root_position
    for level in plan.levels:
        parent_rot = rot[level.parents]
        np.matmul(parent_rot, local[level.start:level.stop], out=rot[level.start:level.stop])
        _place(pos, level, parent_rot)
    _place(pos, plan.leaves, rot[plan.leaves.parents])
    positions = np.empty(angles.shape)
    positions[:, plan.order] = np.swapaxes(pos, 0, 1)
    return positions, rot, local


def _place(pos: np.ndarray, level: Level, parent_rot: np.ndarray) -> None:
    """x_j = x_p + R_p o_j for the joints of `level`."""
    np.add(pos[level.parents], (parent_rot @ level.offsets)[..., 0],
           out=pos[level.start:level.stop])


def forward_kinematics_vjp(
    grad_pos: np.ndarray, angles: np.ndarray, rot: np.ndarray, local: np.ndarray,
    chain: KinematicChain,
) -> np.ndarray:
    """Cotangent (T, J, 3) on the angles of forward_kinematics_pass, given a
    cotangent (T, J, 3) on its positions and the inner joints' global and
    local rotations it returned, (n, T, 3, 3) each in plan order.

    The leaves pass their position cotangents to their parents first: a
    leaf's rotation moves no joint, so its angles get a zero cotangent. The
    inner levels then run in reverse: a level's rotation cotangents are
    complete once every deeper level has passed its share to its parents.
    """
    plan = chain.placement
    grad_pos = np.swapaxes(np.asarray(grad_pos, dtype=np.float64), 0, 1)[plan.order]
    grad_rot = np.zeros_like(rot)
    grad_local = np.empty_like(local)
    # R_j = R_p L_j and x_j = x_p + R_p o_j
    leaves = plan.leaves
    _pass_shares(grad_rot, grad_pos, leaves, grad_pos[leaves.start:leaves.stop, :, :, None]
                 * np.swapaxes(leaves.offsets, -1, -2))
    for level in reversed(plan.levels):
        g_rot = grad_rot[level.start:level.stop]
        grad_local[level.start:level.stop] = np.swapaxes(rot[level.parents], -1, -2) @ g_rot
        _pass_shares(grad_rot, grad_pos, level,
                     g_rot @ np.swapaxes(local[level.start:level.stop], -1, -2)
                     + grad_pos[level.start:level.stop, :, :, None]
                     * np.swapaxes(level.offsets, -1, -2))
    grad_local[0] = grad_rot[0]
    grad = np.zeros(angles.shape)
    grad[:, plan.inner] = np.swapaxes(
        axis_angle_vjp(np.swapaxes(angles, 0, 1)[plan.inner], grad_local), 0, 1)
    return grad


def _pass_shares(grad_rot: np.ndarray, grad_pos: np.ndarray, level: Level,
                 to_parent: np.ndarray) -> None:
    """Add the rotation shares `to_parent` and the position cotangents of the
    joints of `level` to their parents', one sibling rank at a time."""
    own = grad_pos[level.start:level.stop]
    for joints, parents in level.ranks:
        grad_rot[parents] += to_parent[joints]
        grad_pos[parents] += own[joints]


def forward_kinematics_sequence(frames: np.ndarray, chain: KinematicChain) -> np.ndarray:
    """3D joint positions (T, J, 3) for a T x d parameter array."""
    frames = np.asarray(frames, dtype=np.float64)
    columns = np.asarray(chain.param_offsets)[:, None] + np.arange(ROTATION_DIMS)
    width = int(columns.max()) + 1
    if frames.ndim != 2 or frames.shape[1] < width:
        raise LayoutError(f"frames must be (T, d) with d >= {width} for this chain's "
                          f"rotations, got shape {frames.shape}")
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


def build_sign_chain(layout: PartLayout | None = None) -> KinematicChain:
    """The default toy signer skeleton matching a PartLayout.

    Only the default joint counts (11 body, 15 per hand) are supported; the
    layout argument exists to validate agreement. The chain is built once
    per layout and then shared, with its planned `placement` and body
    subchains; its arrays are read-only.
    """
    return _sign_chain(layout or PartLayout())


@cache
def _sign_chain(layout: PartLayout) -> KinematicChain:
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
    offsets *= MEAN_BONE_MM / lengths.mean()

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
