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
contiguous slice.

Local rotations are a closed form with no BLAS call: R = I + A K + B (v v^T
- t^2 I) entry by entry (see `axis_angle_matrices`), within 4.4e-16 of R
with K @ K a BLAS product (3.2 million random vectors, t up to 40). Float32
angles square exactly in float64, so motions stored as float32 keep the
old bits.

Every rotation product is the numpy `@` the level-by-level pass over all
joints ran, on the same operands. A bone offset is the same in every frame,
so `_place` applies it with one (3T, 3) @ (3, 1) product per joint, the
frames folded into the rows: each row is the same three-term dot product
as that pass's per-frame (3, 3) @ (3, 1) product. tests/test_motion.py
checks the positions' bytes against that pass at frame counts on both
sides of the BLAS kernels' row blocks. Positions come back C-contiguous in
joint order: the Procrustes means and sums downstream reduce in memory
order, so a transposed view of the same values would change their bits.

The VJP is one pass with no loop over levels: the transposed geometric
Jacobian of the tree (Featherstone, Rigid Body Dynamics Algorithms, 2008)
through the right Jacobian J_r of SO(3) (Sola et al., "A micro Lie theory
for state estimation in robotics", 2018). A small turn delta of inner
joint j in its own frame moves each strict descendant d by (R_j delta) x
(x_d - x_j), so position cotangents g give delta the cotangent u = R_j^T
m_j, m_j = sum_d x_d x g_d - x_j x sum_d g_d. One (6T, J) @ (J, n)
product with the plan's 0/1 `subtree` matrix sums both over every inner
joint's descendants. On the angles v the cotangent is J_r(v)^T u = u +
B (v x u) + C (v (v . u) - t^2 u), C = (1 - A)/t^2; the cross products and
R_j^T run on x, y, z planes with no BLAS call. Against the level-by-level
VJP through the Rodrigues VJP (tests/fk_oracle.py) only rounding differs,
but where 1e-6 < t < 1e-2 both inherit the cancellation in B = (1 - cos
t)/t^2 and differ by up to about 2e-11 of the largest cotangent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from ..errors import LayoutError
from .layout import ROTATION_DIMS, PartLayout

MEAN_BONE_MM = 100.0

Index = slice | np.ndarray


class Level(NamedTuple):
    """Joints `start:stop` of a plan, the plan slots of their parents, and
    their bone offsets as (n, 3, 1) columns."""

    start: int
    stop: int
    parents: Index
    offsets: np.ndarray


class Placement(NamedTuple):
    """Joint indices in plan order, the inner joints' depth levels from 1
    down, the leaves, and the read-only (J, n) `subtree` matrix: entry
    (d, i) is 1 where joint d is a strict descendant of the i-th inner
    joint in plan order, else 0."""

    order: np.ndarray
    levels: tuple[Level, ...]
    leaves: Level
    subtree: np.ndarray

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
        joints keep their index order. The `subtree` matrix sums the VJP's
        moments over each inner joint's descendants.
        """
        parent_of = np.asarray(self.parents)
        depth = np.zeros(self.num_joints, dtype=np.int64)
        below = np.zeros((self.num_joints, self.num_joints), dtype=bool)  # (d, a): a above d
        for j in range(1, self.num_joints):
            depth[j] = depth[parent_of[j]] + 1
            below[j] = below[parent_of[j]]
            below[j, parent_of[j]] = True
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
            return Level(start, stop, _index(slot[parent_of[joints]]),
                         self.offsets[joints][..., None])

        levels = tuple(level(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]))
        subtree = below[:, order[:len(inner)]].astype(np.float64)
        subtree.flags.writeable = False
        return Placement(order, levels, level(len(inner), self.num_joints), subtree)

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


def _rodrigues_coefficients(t2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = sin(t)/t and B = (1-cos(t))/t^2 at t^2 = t2, smooth through t = 0:
    Taylor series below t = 1e-6, skipped (same bits) when no angle is."""
    t = np.sqrt(t2)
    small = t < 1e-6
    if not small.any():
        return np.sin(t) / t, (1.0 - np.cos(t)) / t2
    # small t is replaced by 1.0 before dividing, and callers pass finite
    # angles (MotionSequence and Tensor reject non-finite values)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(t) / np.where(small, 1.0, t))
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(t)) / np.where(small, 1.0, t2))
    return a, b


def axis_angle_matrices(v: np.ndarray) -> np.ndarray:
    """Rotation matrices for axis-angle vectors v = (x, y, z), shape (..., 3).

    R = I + A K + B K^2 with A = sin(t)/t, B = (1-cos(t))/t^2, K the
    cross-product matrix of v and K^2 = v v^T - t^2 I, built from the
    coordinate planes with no BLAS call: R_xx = 1 - B (y^2 + z^2),
    R_xy = B xy - A z, R_yx = B xy + A z, and so on by cycling x, y, z.
    Entries are within 4.4e-16 of R with K @ K a BLAS product.
    """
    v = np.asarray(v, dtype=np.float64)
    p = v.transpose((-1, *range(v.ndim - 1))).copy()  # x, y, z planes
    sq = p * p
    a, b = _rodrigues_coefficients(sq[0] + sq[1] + sq[2])
    r = np.empty((3, 3) + p.shape[1:])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(1.0, b * (sq[j] + sq[k]), out=r[i, i, ...])
        bij, ak = b * (p[i] * p[j]), a * p[k]
        np.subtract(bij, ak, out=r[i, j, ...])
        np.add(bij, ak, out=r[j, i, ...])
    return r.transpose((*range(2, r.ndim), 0, 1)).copy()


def forward_kinematics_pass(
    angles: np.ndarray, chain: KinematicChain,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions (T, J, 3) for per-joint axis-angle vectors angles (T, J, 3),
    and the global rotations R_j (n, T, 3, 3) of the chain's n inner joints,
    joint-major in plan order: the product of the local rotations from the
    root down to j. Leaves get no rotation: none of theirs moves a joint.

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
    return positions, rot


def _place(pos: np.ndarray, level: Level, parent_rot: np.ndarray) -> None:
    """x_j = x_p + R_p o_j for the joints of `level`, with one (3T, 3) @ (3, 1)
    product per joint: the offset is the same in every frame, so the T
    frames' rotations fold into the rows."""
    placed = pos[level.start:level.stop]
    n, frames = placed.shape[:2]
    np.matmul(parent_rot.reshape(n, 3 * frames, 3), level.offsets,
              out=placed.reshape(n, 3 * frames, 1))
    placed += pos[level.parents]


def _cycled(planes: np.ndarray) -> np.ndarray:
    """x, y, z planes (3, ...) followed by x and y again, (5, ...): [1:4] and
    [2:5] are the planes cycled once and twice, which `_cross` reads."""
    out = np.empty((5,) + planes.shape[1:])
    out[:3] = planes
    out[3:] = out[:2]
    return out


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b as x, y, z planes (3, ...), for two `_cycled` arrays."""
    return a[1:4] * b[2:5] - a[2:5] * b[1:4]


def forward_kinematics_vjp(
    grad_pos: np.ndarray, angles: np.ndarray, positions: np.ndarray, rot: np.ndarray,
    chain: KinematicChain,
) -> np.ndarray:
    """Cotangent (T, J, 3) on the angles of forward_kinematics_pass, given a
    cotangent g (T, J, 3) on its positions and the positions (T, J, 3) and
    inner rotations (n, T, 3, 3) it returned: J_r(v_j)^T R_j^T m_j on inner
    joint j (see the module docstring), zero on a leaf, whose rotation
    moves no joint.
    """
    plan = chain.placement
    inner = plan.inner
    frames, joints = positions.shape[:2]
    x = _cycled(positions.transpose(2, 0, 1))
    g = _cycled(grad_pos.transpose(2, 0, 1))
    terms = np.concatenate([_cross(x, g), g[:3]]).reshape(6 * frames, joints)
    sums = (terms @ plan.subtree).reshape(6, frames, len(inner))  # over each subtree
    m = sums[:3] - _cross(x[..., inner], _cycled(sums[3:]))
    # u = R_j^T m: u_a = sum_b R_ba m_b, with R's (b, a) planes
    rot_planes = np.ascontiguousarray(rot.transpose(2, 3, 1, 0))
    u = _cycled(np.add.reduce(rot_planes * m[:, None], axis=0))
    v = _cycled(angles[:, inner].transpose(2, 0, 1))
    sq = v[:3] * v[:3]
    t2 = sq[0] + sq[1] + sq[2]
    a, b = _rodrigues_coefficients(t2)
    small = t2 < 1e-4  # C = (1 - A)/t^2 cancels below t = 1e-2: its series there
    if small.any():
        c = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                     (1.0 - a) / np.where(small, 1.0, t2))
    else:
        c = (1.0 - a) / t2
    vu = v[:3] * u[:3]
    out = u[:3] + b * _cross(v, u) + (v[:3] * (c * (vu[0] + vu[1] + vu[2])) - (c * t2) * u[:3])
    grad = np.zeros(angles.shape)
    grad[:, inner] = out.transpose(1, 2, 0)
    return grad


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
