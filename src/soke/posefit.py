"""Pose refinement from 2D keypoints.

Given 2D joint observations of each frame (`Observations`: (T, M, 2) points
and (T, M) confidences) and an initial pose sequence, refine the upper-body
joint rotations (hands and expression stay bit-identical) by descending a
weighted sum of a confidence-weighted L1 reprojection loss, a
temporal-coherence loss, and an L2 pose regularizer. The optimizer is plain
gradient descent with a backtracking step control, so accepted steps never
increase the total loss.

The objective is a small float64 autodiff graph of four nodes and their
weighted sum (`weighted_sum`). `body_fk` enters the motion-core forward
kinematics (`motion.forward_kinematics_pass`) with the FK's hand-written
VJP as its backward. `loss_rec`, `loss_temp` and `loss_reg` each fuse one
loss term into a node with a numpy forward and a hand-written backward, bit
for bit equal to the composed graph of elementary nodes they replace (the
tests keep that graph as the oracle). Mesh vertices in the temporal term
are proxied by the FK joint positions; no mesh exists at this scale.

The fit evaluates each point once: it builds one graph per candidate, with
the gradient tracked, and an accepted candidate's graph gives the next
iteration's gradient by one backward pass. The optimizer minimizes a
smoothed reprojection term; the exact L1 term that the log reports comes
from the residual the smoothed term already computed (`RecLoss.exact`).
The body angles and the camera are one iterate vector with one
preconditioned descent.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, NonFiniteError, TrainingDivergedError
from .grad import Tensor, default_dtype
from .grad.tensor import _sum_to_shape, weighted_sum
from .motion import (
    KinematicChain,
    MotionSequence,
    forward_kinematics_pass,
    forward_kinematics_vjp,
)

_EPS = 1e-24  # inside sqrt: keeps norms differentiable at zero

# backtracking step control of fit_sequence
INIT_STEP = 0.05  # directions are preconditioned to O(1) coordinates
STEP_GROW = 1.3
STEP_SHRINK = 0.5
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class Observations:
    """Observed 2D joint positions and confidences of a sequence's frames."""

    points: np.ndarray  # (T, M, 2)
    confidence: np.ndarray  # (T, M) in [0, 1]

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        conf = np.asarray(self.confidence, dtype=np.float64)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "confidence", conf)
        if points.ndim != 3 or points.shape[2] != 2 or conf.shape != points.shape[:2]:
            raise InputError(f"observations need (T,M,2) points and (T,M) confidences, got "
                             f"{points.shape} and {conf.shape}")
        if points.shape[1] == 0:
            raise InputError("observations need at least one joint")
        if not np.all(np.isfinite(points)):
            raise InputError("observation coordinates must be finite")
        if not np.all((conf >= 0.0) & (conf <= 1.0)):  # NaN fails both comparisons
            raise InputError("confidences must lie in [0, 1]")


@dataclass(frozen=True)
class CameraWeakPerspective:
    scale: float = 1.0
    tx: float = 0.0
    ty: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.scale, self.tx, self.ty])):
            raise ConfigError("weak-perspective camera fields must be finite")
        if self.scale <= 0.0:
            raise ConfigError("weak-perspective scale must be positive")


@dataclass(frozen=True)
class FitConfig:
    w_rec: float = 1.0
    w_temp: float = 0.1
    w_reg: float = 1e-3
    max_iters: int = 200
    tol: float = 1e-8  # relative improvement below this terminates
    optimize_camera: bool = True
    observed_joints: tuple[int, ...] = (5, 6, 7, 8, 9, 10)  # shoulders, elbows, wrists
    # Charbonnier width (mm) of the reprojection term the OPTIMIZER minimizes.
    # The exact L1 objective is kinked wherever a residual is exactly zero
    # (always true of clean data at the joints the initializer already
    # explains), and steepest descent stalls on those kinks. The smoothed
    # optimum sits within O(width / bone length) radians of the exact one.
    # Reported rec/total values stay exact L1.
    rec_smooth_mm: float = 2.0

    def __post_init__(self):
        for name in ("w_rec", "w_temp", "w_reg", "tol", "rec_smooth_mm"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.w_rec <= 0.0 or min(self.w_temp, self.w_reg) < 0.0:
            raise ConfigError("w_rec must be positive; other weights non-negative")
        if self.max_iters < 1:
            raise ConfigError("iteration budget must be positive")
        if self.rec_smooth_mm < 0.0:
            raise ConfigError("smoothing width must be non-negative")
        if not self.observed_joints:
            raise ConfigError("observed_joints must name at least one joint")


def project_weak(joints3d: np.ndarray, cam: CameraWeakPerspective) -> np.ndarray:
    """(x, y) = s * (X, Y) + (tx, ty); depth dropped."""
    joints3d = np.asarray(joints3d, dtype=np.float64)
    return cam.scale * joints3d[..., :2] + np.array([cam.tx, cam.ty])


# -- differentiable forward kinematics over the body chain -------------------


def body_fk(theta: Tensor, chain: KinematicChain) -> Tensor:
    """Differentiable positions (T, J, 3) for body rotations theta (T, J, 3).

    One graph node: the motion-core FK forward, its hand-written VJP backward.
    """
    pos, rot, local = forward_kinematics_pass(theta.data, chain)

    def backward(g):
        theta._accumulate(forward_kinematics_vjp(g, theta.data, rot, local, chain))

    return Tensor(pos, _parents=(theta,), _op="body_fk", _backward=backward)


# -- loss terms --------------------------------------------------------------
# Each node replays its composed graph's arithmetic, including the order in
# which a tensor's gradient contributions are added. Only the output is
# checked for non-finite values: a non-finite intermediate reaches the sum.


class RecLoss(Tensor):
    """loss_rec's node. `exact` is the exact L1 of the node's residual: its
    own value when unsmoothed, so the log needs no second node."""

    __slots__ = ("exact",)


def loss_rec(
    joints: Tensor, observations: Observations, cam_params: Tensor,
    observed_joints: tuple[int, ...], smooth: float = 0.0,
) -> RecLoss:
    """Confidence-weighted L1 distance between observed and projected joints,
    summed over frames.

    smooth > 0 replaces |r| with sqrt(r^2 + smooth^2), used only when a
    well-behaved descent direction is needed; the default is the exact L1.
    """
    key = (slice(None), np.asarray(observed_joints), slice(0, 2))
    dtype = joints.data.dtype  # rounded as the constant leaves they stand for would be
    obs_points = observations.points.astype(dtype, copy=False)
    conf = observations.confidence[..., None].astype(dtype, copy=False)
    xy = joints.data[key]
    scale = cam_params.data[0:1].reshape(1, 1, 1)
    shift = cam_params.data[1:3].reshape(1, 1, 2)
    residual = xy * scale + shift - obs_points
    if smooth > 0.0:
        magnitude = np.sqrt(residual * residual + smooth * smooth)
    else:
        magnitude = np.abs(residual)

    def backward(g):
        g_magnitude = g * conf
        if smooth > 0.0:
            g_square = g_magnitude * 0.5 / magnitude
            g_residual = g_square * residual + g_square * residual  # r * r
        else:
            g_residual = g_magnitude * np.sign(residual)
        if joints.requires_grad:
            full = np.zeros(joints.shape, dtype=joints.data.dtype)
            np.add.at(full, key, g_residual * scale)  # observed_joints may repeat
            joints._accumulate(full)
        if cam_params.requires_grad:
            for part, g_part in ((slice(0, 1), _sum_to_shape(g_residual * xy, scale.shape)),
                                 (slice(1, 3), _sum_to_shape(g_residual, shift.shape))):
                full = np.zeros(cam_params.shape, dtype=cam_params.data.dtype)
                full[part] = g_part.reshape(-1)
                cam_params._accumulate(full)

    value = (magnitude * conf).sum(dtype=np.float64)
    node = RecLoss(value, _parents=(joints, cam_params), _op="loss_rec", _backward=backward)
    node.exact = float((np.abs(residual) * conf).sum(dtype=np.float64) if smooth > 0.0 else value)
    return node


def loss_temp(joints: Tensor) -> Tensor:
    """Sum over frames of the surface-proxy and joint displacement norms.

    FK joints stand in for mesh vertices, so the two norms run over the same
    point set and the term is twice the joint displacement sum.
    T < 2 contributes zero.
    """
    if joints.shape[0] < 2:
        return Tensor(0.0)
    diff = joints.data[1:] - joints.data[:-1]
    norms = np.sqrt((diff * diff).sum(axis=(1, 2), dtype=np.float64) + _EPS)

    def backward(g):
        g_square = (g * 2.0 * 0.5 / norms)[:, None, None]
        g_diff = g_square * diff + g_square * diff  # diff * diff
        # joints[1:] receives its gradient before joints[:-1]
        for part, g_part in ((slice(1, None), g_diff), (slice(None, -1), -g_diff)):
            full = np.zeros(joints.shape, dtype=joints.data.dtype)
            full[part] = g_part
            joints._accumulate(full)

    return Tensor(norms.sum(dtype=np.float64) * 2.0, _parents=(joints,), _op="loss_temp",
                  _backward=backward)


def loss_reg(theta: Tensor) -> Tensor:
    """Euclidean norm of the packed refined rotation parameters."""
    value = np.sqrt((theta.data * theta.data).sum(dtype=np.float64) + _EPS)

    def backward(g):
        g_square = g * 0.5 / value
        theta._accumulate(g_square * theta.data)  # theta * theta: one product per operand
        theta._accumulate(g_square * theta.data)

    return Tensor(value, _parents=(theta,), _op="loss_reg", _backward=backward)


def total_loss(
    theta: Tensor,
    cam_params: Tensor,
    observations: Observations,
    chain: KinematicChain,
    config: FitConfig,
    smooth: float = 0.0,
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """(total, rec, temp, reg) from one graph: one FK pass, one loss_rec.

    total is the weighted objective the optimizer minimizes; its
    reprojection term is smoothed by `smooth` (see loss_rec). rec, temp and
    reg are the exact terms. rec is the exact L1 even when smooth > 0: it
    comes from the residual the smoothed term computed (`RecLoss.exact`),
    as a constant; with smooth = 0 it is the term in total's graph.
    """
    joints = body_fk(theta, chain)
    rec = loss_rec(joints, observations, cam_params, config.observed_joints, smooth=smooth)
    temp = loss_temp(joints)
    reg = loss_reg(theta)
    total = weighted_sum([rec, temp, reg], [config.w_rec, config.w_temp, config.w_reg])
    if smooth > 0.0:
        rec = Tensor(rec.exact)
    return total, rec, temp, reg


@contextmanager
def _float64_graph():
    """float64 tensors, so residual signs near an exact optimum are clean; a
    non-finite value ends the fit."""
    with default_dtype(np.float64):
        try:
            yield
        except NonFiniteError as exc:
            raise TrainingDivergedError(f"pose fit produced a non-finite loss: {exc}") from exc


# -- the fit loop ----------------------------------------------------------------


@dataclass
class FitResult:
    motion: MotionSequence
    log: list[dict] = field(default_factory=list)
    camera: CameraWeakPerspective = CameraWeakPerspective()


def fit_sequence(
    init: MotionSequence,
    observations: Observations,
    cam: CameraWeakPerspective | None = None,
    config: FitConfig | None = None,
    chain: KinematicChain | None = None,
) -> FitResult:
    """Refine upper-body rotations against 2D observations of its frames.

    Hands and expression parameters of the output are bit-identical to the
    input. The log records per-iteration loss terms; accepted total losses
    are non-increasing.

    The iterate is one vector x = [body angles, scale, tx, ty], descended
    along one preconditioned direction. Each point is evaluated once, by one
    graph of the smoothed objective whose theta and camera leaves are views
    of x; the camera tracks a gradient only with `optimize_camera`, so a
    fixed camera has a zero direction and keeps every bit. An accepted
    point's graph gives the next iteration's gradient by one backward pass.
    The logged exact rec comes from the residual of that graph's smoothed
    term (see total_loss).
    """
    from .motion import build_sign_chain

    config = config or FitConfig()
    cam = cam or CameraWeakPerspective()
    full_chain = chain or build_sign_chain(init.layout)
    body_chain = full_chain.body_subchain(init.layout.body_joints)
    T = init.num_frames
    frames_seen, joints_seen = observations.confidence.shape
    if frames_seen != T:
        raise InputError(f"{frames_seen} observations for {T} frames")
    j = init.layout.body_joints
    if not all(0 <= joint < j for joint in config.observed_joints):
        raise InputError(f"observed_joints {config.observed_joints} must index the {j} body joints")
    if joints_seen != len(config.observed_joints):
        raise InputError("observation joint count does not match observed_joints")

    n = T * j * 3  # x[:n] are the body angles, x[n:] the camera
    x = np.concatenate([init.frames[:, : 3 * j].astype(np.float64).reshape(-1),
                        [cam.scale, cam.tx, cam.ty]])

    def evaluate(point) -> tuple[dict[str, float], tuple[Tensor, Tensor, Tensor]]:
        """The terms at a point and its graph (objective, theta, cam).
        `objective` is the smoothed total the optimizer minimizes; the
        logged rec/temp/reg/total values are the exact L1 quantities."""
        with _float64_graph():
            theta_t = Tensor(point[:n].reshape(T, j, 3), requires_grad=True)
            cam_t = Tensor(point[n:], requires_grad=config.optimize_camera)
            objective, rec, temp, reg = total_loss(theta_t, cam_t, observations, body_chain,
                                                   config, smooth=config.rec_smooth_mm)
        terms = {
            "objective": objective.item(),
            "rec": rec.item(),
            "temp": temp.item(),
            "reg": reg.item(),
        }
        terms["total"] = (config.w_rec * terms["rec"] + config.w_temp * terms["temp"]
                          + config.w_reg * terms["reg"])
        return terms, (objective, theta_t, cam_t)

    def gradient(graph) -> np.ndarray:
        """The smoothed objective's gradient with respect to x at an
        evaluated point."""
        objective, theta_t, cam_t = graph
        with _float64_graph():
            objective.backward()
        g_cam = cam_t.grad if cam_t.grad is not None else np.zeros(3)
        return np.concatenate([theta_t.grad.reshape(-1), g_cam])

    def log_entry(it, terms, step):
        return {"iter": it, "objective": terms["objective"], "total": terms["total"],
                "rec": terms["rec"], "temp": terms["temp"], "reg": terms["reg"],
                "step": step, "accepted": True}

    log: list[dict] = []
    terms_prev, graph = evaluate(x)
    log.append(log_entry(0, terms_prev, 0.0))
    objective_prev = terms_prev["objective"]
    step = INIT_STEP

    # diagonal preconditioning (second-moment EMA) tames the very different
    # lever arms of spine vs distal joints; still first-order + backtracking
    v = np.zeros_like(x)
    beta = 0.9

    for it in range(1, config.max_iters + 1):
        g = gradient(graph)
        v = beta * v + (1.0 - beta) * g * g
        correction = 1.0 - beta ** it
        d = g / (np.sqrt(v / correction) + 1e-8)
        for _ in range(MAX_BACKTRACKS):
            candidate = x - step * d
            if config.optimize_camera:
                candidate[n] = max(candidate[n], 1e-4)
            terms, cand_graph = evaluate(candidate)
            if terms["objective"] <= objective_prev:
                break
            step *= STEP_SHRINK
        else:
            break  # no candidate accepted
        x, graph = candidate, cand_graph
        log.append(log_entry(it, terms, step))
        improvement = objective_prev - terms["objective"]
        objective_prev = terms["objective"]
        step *= STEP_GROW
        if improvement < config.tol * max(1.0, abs(objective_prev)):
            break

    frames = init.frames.copy()
    frames[:, : 3 * j] = x[:n].reshape(T, 3 * j).astype(np.float32)
    refined = MotionSequence(frames, fps=init.fps, layout=init.layout,
                             language_tag=init.language_tag)
    return FitResult(motion=refined, log=log, camera=CameraWeakPerspective(*x[n:].tolist()))


def observe_sequence(
    seq: MotionSequence,
    cam: CameraWeakPerspective,
    chain: KinematicChain | None = None,
    observed_joints: tuple[int, ...] = FitConfig.observed_joints,
    noise_std: float = 0.0,
    seed: int = 0,
) -> Observations:
    """Synthesize fully confident 2D observations of a sequence (testing and
    demos): the weak-perspective projection of its FK joints, plus Gaussian
    noise of `noise_std` from one (T, M, 2) draw of a generator seeded by
    `seed`."""
    from .motion import build_sign_chain, forward_kinematics_sequence

    if not (np.isfinite(noise_std) and noise_std >= 0.0):
        raise ConfigError(f"noise_std must be finite and non-negative, got {noise_std}")
    chain = chain or build_sign_chain(seq.layout)
    joints = forward_kinematics_sequence(seq.frames, chain)
    points = project_weak(joints[:, list(observed_joints)], cam)
    if noise_std > 0:
        points = points + np.random.default_rng(seed).normal(0.0, noise_std, size=points.shape)
    return Observations(points, np.ones(points.shape[:2]))
