"""Pose refinement from 2D keypoints.

Given 2D joint observations of each frame (`Observations`: (T, M, 2) points
and (T, M) confidences) and an initial pose sequence, refine the upper-body
joint rotations (hands and expression stay bit-identical) by descending a
weighted sum of a confidence-weighted L1 reprojection loss, a
temporal-coherence loss, and an L2 pose regularizer, the SMPLify-X-style
objective (Pavlakos et al., 2019). The optimizer is plain gradient descent
with a backtracking step control, so accepted steps never increase the
total loss.

The objective (`objective`) is plain numpy and builds no autodiff graph.
Its value is one motion-core FK pass (`motion.forward_kinematics_pass`),
the reprojection term (`loss_rec`) on the positions it returned, and the
temporal and prior terms. Its gradient is the FK's one-pass VJP over
subtree moments (`motion.forward_kinematics_vjp`) on that pass's positions
and inner rotations, fed by the loss terms' hand-written cotangents. Value
and gradient replay the arithmetic of the graph of elementary nodes that
the tests keep as their oracle, bit for bit, including the order in which
each array's gradient contributions are added. Mesh vertices in the
temporal term are proxied by the FK joint positions; no mesh exists at
this scale.

The fit evaluates each point once: a candidate's evaluation keeps what its
gradient needs, and an accepted candidate's gives the next iteration's
gradient by one VJP. The optimizer minimizes a smoothed reprojection term;
the exact L1 term that the log reports comes from the residual the
smoothed term already computed. The body angles and the camera are one
iterate vector with one preconditioned descent.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, TrainingDivergedError
from .grad import Tensor
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


# -- the FK graph node -----------------------------------------------------------


def body_fk(theta: Tensor, chain: KinematicChain) -> Tensor:
    """Differentiable positions (T, J, 3) for body rotations theta (T, J, 3).

    One graph node: the motion-core FK forward, its hand-written VJP backward.
    The fit does not build it. It stays for the tests' graph oracles of the
    objective and for `benchmark/tracer.py`, which wraps it by name.
    """
    pos, rot = forward_kinematics_pass(theta.data, chain)

    def backward(g):
        theta._accumulate(forward_kinematics_vjp(g, theta.data, pos, rot, chain))

    return Tensor(pos, _parents=(theta,), _op="body_fk", _backward=backward)


# -- the objective -----------------------------------------------------------------
# Each cotangent replays the graph oracle's arithmetic, including the order
# in which an array's gradient contributions are added.


def loss_rec(
    joints: np.ndarray, observations: Observations, cam_params: np.ndarray,
    observed_joints: tuple[int, ...], smooth: float = 0.0,
) -> tuple[float, float, Callable[[float], tuple[np.ndarray, np.ndarray]]]:
    """Confidence-weighted L1 distance between observed and projected joints,
    summed over frames, as (value, exact, vjp).

    joints are (T, J, 3) positions and cam_params the camera [scale, tx, ty].
    smooth > 0 replaces |r| with sqrt(r^2 + smooth^2), used only when a
    well-behaved descent direction is needed; the default is the exact L1.
    `exact` is the exact L1 of the same residual. vjp(g) gives the
    cotangents of g * value on joints (T, J, 3) and on cam_params (3,).
    """
    key = (slice(None), np.asarray(observed_joints), slice(0, 2))
    conf = observations.confidence[..., None]
    xy = joints[key]
    scale = cam_params[0:1].reshape(1, 1, 1)
    shift = cam_params[1:3].reshape(1, 1, 2)
    residual = xy * scale + shift - observations.points
    if smooth > 0.0:
        magnitude = np.sqrt(residual * residual + smooth * smooth)
    else:
        magnitude = np.abs(residual)
    value = (magnitude * conf).sum(dtype=np.float64)
    exact = (np.abs(residual) * conf).sum(dtype=np.float64) if smooth > 0.0 else value

    def vjp(g):
        g_magnitude = g * conf
        if smooth > 0.0:
            g_square = g_magnitude * 0.5 / magnitude
            g_residual = g_square * residual + g_square * residual  # r * r
        else:
            g_residual = g_magnitude * np.sign(residual)
        g_joints = np.zeros(joints.shape)
        np.add.at(g_joints, key, g_residual * scale)  # observed_joints may repeat
        # the broadcast scale and shift sum their cotangents one axis at a
        # time; each half then adds a zero at the other's entries, hence + 0.0
        g_scale = (g_residual * xy).sum(axis=0).sum(axis=0).sum(axis=0, keepdims=True)
        g_shift = g_residual.sum(axis=0).sum(axis=0)
        return g_joints, np.concatenate([g_scale, g_shift]) + 0.0

    return float(value), float(exact), vjp


def objective(
    theta: np.ndarray, cam_params: np.ndarray, observations: Observations,
    chain: KinematicChain, config: FitConfig, smooth: float = 0.0,
) -> tuple[float, dict[str, float], Callable[[], tuple[np.ndarray, np.ndarray]]]:
    """The fit's objective at body angles theta (T, J, 3) and camera
    cam_params [scale, tx, ty], as (value, terms, gradient).

    value is the weighted total the optimizer minimizes, its reprojection
    term smoothed by `smooth` (see loss_rec). terms holds the exact "rec",
    "temp" and "reg"; rec is the exact L1 even when smooth > 0. gradient()
    gives value's cotangents on theta (T, J, 3) and on cam_params (3,).
    The value costs one FK pass and one loss_rec, the gradient one FK VJP.

    temp sums over frames the surface-proxy and joint displacement norms:
    FK joints stand in for mesh vertices, so the two norms run over the
    same point set and temp is twice the joint displacement sum; one frame
    contributes zero. reg is the Euclidean norm of theta.
    """
    positions, rot = forward_kinematics_pass(theta, chain)
    rec, rec_exact, rec_vjp = loss_rec(positions, observations, cam_params,
                                       config.observed_joints, smooth=smooth)
    moving = len(theta) > 1
    if moving:
        diff = positions[1:] - positions[:-1]
        norms = np.sqrt((diff * diff).sum(axis=(1, 2), dtype=np.float64) + _EPS)
        temp = norms.sum(dtype=np.float64) * 2.0
    else:
        temp = 0.0
    reg = np.sqrt((theta * theta).sum(dtype=np.float64) + _EPS)
    value = rec * config.w_rec + temp * config.w_temp + reg * config.w_reg

    def gradient():
        g_joints, g_cam = rec_vjp(config.w_rec)
        if moving:
            g_square = (config.w_temp * 2.0 * 0.5 / norms)[:, None, None]
            g_diff = g_square * diff + g_square * diff  # diff * diff
            # joints[1:] receive theirs before joints[:-1]; in place, since the
            # zeros the graph added to the other frames change no entry (the
            # scatter leaves no -0.0)
            g_joints[1:] += g_diff
            g_joints[:-1] -= g_diff
        g_theta = forward_kinematics_vjp(g_joints, theta, positions, rot, chain)
        g_square = config.w_reg * 0.5 / reg
        return g_theta + g_square * theta + g_square * theta, g_cam  # theta * theta

    return float(value), {"rec": rec_exact, "temp": float(temp), "reg": float(reg)}, gradient


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
    along one preconditioned direction. Each point is evaluated once, by
    `objective` on views of x, with the smoothed reprojection term; the
    camera's gradient is used only with `optimize_camera`, so a fixed
    camera has a zero direction and keeps every bit. An accepted point's
    evaluation gives the next iteration's gradient. The logged exact rec
    comes from the residual of that evaluation's smoothed term. A non-finite
    objective raises TrainingDivergedError: every non-finite input or
    intermediate reaches it (a zero weight or confidence times inf or NaN
    is NaN).
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

    def evaluate(point) -> tuple[dict[str, float], Callable]:
        """The terms at a point and its gradient function. `objective` is
        the smoothed total the optimizer minimizes; the logged
        rec/temp/reg/total values are the exact L1 quantities."""
        value, terms, gradient = objective(point[:n].reshape(T, j, 3), point[n:], observations,
                                           body_chain, config, smooth=config.rec_smooth_mm)
        if not math.isfinite(value):
            raise TrainingDivergedError(f"pose fit produced a non-finite loss: {value}")
        terms["objective"] = value
        terms["total"] = (config.w_rec * terms["rec"] + config.w_temp * terms["temp"]
                          + config.w_reg * terms["reg"])
        return terms, gradient

    def log_entry(it, terms, step):
        return {"iter": it, "objective": terms["objective"], "total": terms["total"],
                "rec": terms["rec"], "temp": terms["temp"], "reg": terms["reg"],
                "step": step, "accepted": True}

    log: list[dict] = []
    terms_prev, gradient = evaluate(x)
    log.append(log_entry(0, terms_prev, 0.0))
    objective_prev = terms_prev["objective"]
    step = INIT_STEP

    # diagonal preconditioning (second-moment EMA) tames the very different
    # lever arms of spine vs distal joints; still first-order + backtracking
    v = np.zeros_like(x)
    beta = 0.9

    for it in range(1, config.max_iters + 1):
        g_theta, g_cam = gradient()  # the smoothed objective's, at x
        g = np.concatenate([g_theta.reshape(-1),
                            g_cam if config.optimize_camera else np.zeros(3)])
        v = beta * v + (1.0 - beta) * g * g
        correction = 1.0 - beta ** it
        d = g / (np.sqrt(v / correction) + 1e-8)
        for _ in range(MAX_BACKTRACKS):
            candidate = x - step * d
            if config.optimize_camera:
                candidate[n] = max(candidate[n], 1e-4)
            terms, cand_gradient = evaluate(candidate)
            if terms["objective"] <= objective_prev:
                break
            step *= STEP_SHRINK
        else:
            break  # no candidate accepted
        x, gradient = candidate, cand_gradient
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
