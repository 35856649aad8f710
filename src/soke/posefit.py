"""Pose refinement from 2D keypoints.

Given per-frame 2D joint observations and an initial pose sequence, refine
the upper-body joint rotations (hands and expression stay bit-identical) by
descending a weighted sum of a confidence-weighted L1 reprojection loss, a
temporal-coherence loss, and an L2 pose regularizer. The optimizer is plain
gradient descent with a backtracking step control, so accepted steps never
increase the total loss.

The joint positions come from the motion-core forward kinematics
(`motion.forward_kinematics_pass`), entered into the autodiff graph as one
node whose backward is the FK's hand-written VJP. Mesh vertices in the
temporal term are proxied by these FK joint positions; no mesh exists at
this scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import write_jsonl
from .errors import ConfigError, InputError, NonFiniteError, TrainingDivergedError
from .grad import Tensor, default_dtype
from .motion import (
    KinematicChain,
    MotionSequence,
    forward_kinematics_pass,
    forward_kinematics_vjp,
)

_EPS = 1e-24  # inside sqrt: keeps norms differentiable at zero


@dataclass(frozen=True)
class Observation2D:
    """Observed 2D joint positions and confidences for one frame."""

    points: np.ndarray  # (M, 2)
    confidence: np.ndarray  # (M,) in [0, 1]

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        conf = np.asarray(self.confidence, dtype=np.float64)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "confidence", conf)
        if points.ndim != 2 or points.shape[1] != 2 or conf.shape != (points.shape[0],):
            raise InputError("observation needs (M,2) points and (M,) confidences")
        if points.shape[0] == 0:
            raise InputError("observation needs at least one joint")
        if not np.all(np.isfinite(points)):
            raise InputError("observation coordinates must be finite")
        if conf.min() < 0.0 or conf.max() > 1.0:
            raise InputError("confidences must lie in [0, 1]")


@dataclass(frozen=True)
class CameraWeakPerspective:
    scale: float = 1.0
    tx: float = 0.0
    ty: float = 0.0

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ConfigError("weak-perspective scale must be positive")


@dataclass(frozen=True)
class FitConfig:
    w_rec: float = 1.0
    w_temp: float = 0.1
    w_reg: float = 1e-3
    max_iters: int = 200
    tol: float = 1e-8  # relative improvement below this terminates
    init_step: float = 0.05  # directions are preconditioned to O(1) coordinates
    step_grow: float = 1.3
    step_shrink: float = 0.5
    max_backtracks: int = 30
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
    out = Tensor(pos, _parents=(theta,), _op="body_fk")

    def backward(g):
        if theta.requires_grad:
            theta._accumulate(forward_kinematics_vjp(g, theta.data, rot, local, chain))

    out._backward = backward
    return out


# -- loss terms --------------------------------------------------------------


def loss_rec(
    joints: Tensor, observations: list[Observation2D], cam_params: Tensor,
    observed_joints: tuple[int, ...], smooth: float = 0.0,
) -> Tensor:
    """Confidence-weighted L1 distance between observed and projected joints,
    summed over frames.

    smooth > 0 replaces |r| with sqrt(r^2 + smooth^2), used only when a
    well-behaved descent direction is needed; the default is the exact L1.
    """
    idx = np.asarray(observed_joints)
    obs_points = np.stack([o.points for o in observations])  # (T, M, 2)
    conf = np.stack([o.confidence for o in observations])[..., None]  # (T, M, 1)
    xy = joints[:, idx, 0:2]
    scale = cam_params[0:1].reshape(1, 1, 1)
    shift = cam_params[1:3].reshape(1, 1, 2)
    residual = xy * scale + shift - Tensor(obs_points)
    if smooth > 0.0:
        magnitude = (residual * residual + smooth * smooth).sqrt()
    else:
        magnitude = residual.abs()
    return (magnitude * Tensor(conf)).sum()


def loss_temp(joints: Tensor) -> Tensor:
    """Sum over frames of the surface-proxy and joint displacement norms.

    FK joints stand in for mesh vertices, so the two norms run over the same
    point set and the term is twice the joint displacement sum.
    T < 2 contributes zero.
    """
    T = joints.shape[0]
    if T < 2:
        return Tensor(0.0)
    diff = joints[1:] - joints[:-1]
    norms = ((diff * diff).sum(axis=(1, 2)) + _EPS).sqrt()
    return norms.sum() * 2.0


def loss_reg(theta: Tensor) -> Tensor:
    """Euclidean norm of the packed refined rotation parameters."""
    return ((theta * theta).sum() + _EPS).sqrt()


def total_loss(
    theta: Tensor,
    cam_params: Tensor,
    observations: list[Observation2D],
    chain: KinematicChain,
    config: FitConfig,
    smooth: float = 0.0,
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """(total, rec, temp, reg) with one FK pass.

    total is the weighted objective the optimizer minimizes; its
    reprojection term is smoothed by `smooth` (see loss_rec). rec, temp and
    reg are the exact terms, so rec is the exact L1 even when smooth > 0.
    """
    joints = body_fk(theta, chain)
    rec_smooth = loss_rec(joints, observations, cam_params, config.observed_joints, smooth=smooth)
    rec = (loss_rec(joints, observations, cam_params, config.observed_joints)
           if smooth > 0.0 else rec_smooth)
    temp = loss_temp(joints)
    reg = loss_reg(theta)
    total = rec_smooth * config.w_rec + temp * config.w_temp + reg * config.w_reg
    return total, rec, temp, reg


# -- the fit loop ----------------------------------------------------------------


@dataclass
class FitResult:
    motion: MotionSequence
    log: list[dict] = field(default_factory=list)
    camera: CameraWeakPerspective = CameraWeakPerspective()


def fit_sequence(
    init: MotionSequence,
    observations: list[Observation2D],
    cam: CameraWeakPerspective | None = None,
    config: FitConfig | None = None,
    chain: KinematicChain | None = None,
) -> FitResult:
    """Refine upper-body rotations against 2D observations.

    Hands and expression parameters of the output are bit-identical to the
    input. The log records per-iteration loss terms; accepted total losses
    are non-increasing.
    """
    from .motion import build_sign_chain

    config = config or FitConfig()
    cam = cam or CameraWeakPerspective()
    full_chain = chain or build_sign_chain(init.layout)
    body_chain = full_chain.body_subchain(init.layout.body_joints)
    T = init.num_frames
    if len(observations) != T:
        raise InputError(f"{len(observations)} observations for {T} frames")
    j = init.layout.body_joints
    if not all(0 <= joint < j for joint in config.observed_joints):
        raise InputError(f"observed_joints {config.observed_joints} must index the {j} body joints")
    n_obs = {o.points.shape[0] for o in observations}
    if n_obs != {len(config.observed_joints)}:
        raise InputError("observation joint count does not match observed_joints")

    theta_value = init.frames[:, : 3 * j].astype(np.float64).reshape(T, j, 3)
    cam_value = np.array([cam.scale, cam.tx, cam.ty], dtype=np.float64)

    def evaluate(theta_arr, cam_arr, with_grad: bool):
        # float64 graph: residual signs near an exact optimum must be clean.
        # `objective` is the smoothed total the optimizer minimizes; the
        # logged rec/temp/reg/total values are the exact L1 quantities.
        with default_dtype(np.float64):
            theta_t = Tensor(theta_arr, requires_grad=with_grad)
            cam_t = Tensor(cam_arr, requires_grad=with_grad and config.optimize_camera)
            try:
                objective, rec, temp, reg = total_loss(theta_t, cam_t, observations, body_chain,
                                                       config, smooth=config.rec_smooth_mm)
                if with_grad:
                    objective.backward()
            except NonFiniteError as exc:
                raise TrainingDivergedError(
                    f"pose fit produced a non-finite loss: {exc}"
                ) from exc
        grads = None
        if with_grad:
            g_cam = cam_t.grad if cam_t.grad is not None else np.zeros(3)
            grads = (theta_t.grad, g_cam)
        terms = {
            "objective": objective.item(),
            "rec": rec.item(),
            "temp": temp.item(),
            "reg": reg.item(),
        }
        terms["total"] = (config.w_rec * terms["rec"] + config.w_temp * terms["temp"]
                          + config.w_reg * terms["reg"])
        return terms, grads

    def log_entry(it, terms, step):
        return {"iter": it, "objective": terms["objective"], "total": terms["total"],
                "rec": terms["rec"], "temp": terms["temp"], "reg": terms["reg"],
                "step": step, "accepted": True}

    log: list[dict] = []
    terms_prev, _ = evaluate(theta_value, cam_value, with_grad=False)
    log.append(log_entry(0, terms_prev, 0.0))
    objective_prev = terms_prev["objective"]
    step = config.init_step

    # diagonal preconditioning (second-moment EMA) tames the very different
    # lever arms of spine vs distal joints; still first-order + backtracking
    v_theta = np.zeros_like(theta_value)
    v_cam = np.zeros_like(cam_value)
    beta = 0.9

    for it in range(1, config.max_iters + 1):
        _, (g_theta, g_cam) = evaluate(theta_value, cam_value, with_grad=True)
        v_theta = beta * v_theta + (1.0 - beta) * g_theta * g_theta
        v_cam = beta * v_cam + (1.0 - beta) * g_cam * g_cam
        correction = 1.0 - beta ** it
        d_theta = g_theta / (np.sqrt(v_theta / correction) + 1e-8)
        d_cam = g_cam / (np.sqrt(v_cam / correction) + 1e-8)
        accepted = False
        terms = None
        for _ in range(config.max_backtracks):
            cand_theta = theta_value - step * d_theta
            cand_cam = cam_value.copy()
            if config.optimize_camera:
                cand_cam = cam_value - step * d_cam
                cand_cam[0] = max(cand_cam[0], 1e-4)
            terms, _ = evaluate(cand_theta, cand_cam, with_grad=False)
            if terms["objective"] <= objective_prev:
                accepted = True
                break
            step *= config.step_shrink
        if not accepted:
            break
        theta_value, cam_value = cand_theta, cand_cam
        log.append(log_entry(it, terms, step))
        improvement = objective_prev - terms["objective"]
        objective_prev = terms["objective"]
        step *= config.step_grow
        if improvement < config.tol * max(1.0, abs(objective_prev)):
            break

    frames = init.frames.copy()
    frames[:, : 3 * j] = theta_value.reshape(T, 3 * j).astype(np.float32)
    refined = MotionSequence(frames, fps=init.fps, layout=init.layout,
                             language_tag=init.language_tag)
    camera = CameraWeakPerspective(scale=float(cam_value[0]), tx=float(cam_value[1]),
                                   ty=float(cam_value[2]))
    return FitResult(motion=refined, log=log, camera=camera)


# -- observation IO (JSON lines: {"frame_idx": i, "joints": [[x, y, conf]]}) ---


def save_observations(path: str | Path, observations: list[Observation2D]) -> None:
    write_jsonl(path, (
        {"frame_idx": i,
         "joints": [[float(x), float(y), float(c)] for (x, y), c in zip(obs.points, obs.confidence)]}
        for i, obs in enumerate(observations)
    ))


def load_observations(path: str | Path) -> list[Observation2D]:
    records = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                joints = np.asarray(rec["joints"], dtype=np.float64)
                frame_idx = int(rec["frame_idx"])
                if joints.ndim != 2 or joints.shape[1] != 3:
                    raise InputError("joints must be [[x, y, conf], ...]")
                if frame_idx in records:
                    raise InputError(f"frame_idx {frame_idx} repeats")
                records[frame_idx] = Observation2D(joints[:, :2], joints[:, 2])
            except (KeyError, ValueError, TypeError, InputError) as exc:
                raise InputError(f"{path}:{line_no}: malformed observation record: {exc}") from exc
    if sorted(records) != list(range(len(records))):
        raise InputError(f"{path}: frame_idx values must cover 0..T-1")
    return [records[i] for i in range(len(records))]


def observe_sequence(
    seq: MotionSequence,
    cam: CameraWeakPerspective,
    chain: KinematicChain | None = None,
    observed_joints: tuple[int, ...] = FitConfig.observed_joints,
    noise_std: float = 0.0,
    seed: int = 0,
) -> list[Observation2D]:
    """Synthesize 2D observations of a sequence (testing and demos)."""
    from .motion import build_sign_chain, forward_kinematics_sequence

    chain = chain or build_sign_chain(seq.layout)
    joints = forward_kinematics_sequence(seq.frames, chain)
    rng = np.random.default_rng(seed)
    out = []
    for frame_joints in joints:
        pts = project_weak(frame_joints[list(observed_joints)], cam)
        if noise_std > 0:
            pts = pts + rng.normal(0.0, noise_std, size=pts.shape)
        out.append(Observation2D(pts, np.ones(len(observed_joints))))
    return out
