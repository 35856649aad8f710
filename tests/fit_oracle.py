"""The pose fit's loop as it ran before each point was evaluated once, and
the synthetic observations as they were made one frame at a time.

`fit_sequence` here evaluates every point in two separate passes. `evaluate`
builds the smoothed objective without tracking a gradient, and a second,
exact-L1 `loss_rec` for the log. `gradient` then rebuilds the FK and the
smoothed objective at the accepted point to run the backward pass. Body
angles and camera keep their own arrays and their own second moments. The
nodes are the package's own; only the loop and the order in which it builds
them differ.
The caller passes valid input: the checks of `posefit.fit_sequence` are
not repeated.

`observe_sequence` here projects each frame's joints on its own and draws
that frame's (M, 2) noise from the generator before the next frame's.
"""

from __future__ import annotations

import numpy as np

from soke.grad import Tensor
from soke.grad.tensor import weighted_sum
from soke.motion import MotionSequence, build_sign_chain, forward_kinematics_sequence
from soke.posefit import (
    INIT_STEP,
    MAX_BACKTRACKS,
    STEP_GROW,
    STEP_SHRINK,
    CameraWeakPerspective,
    FitConfig,
    FitResult,
    _float64_graph,
    body_fk,
    loss_rec,
    loss_reg,
    loss_temp,
    project_weak,
)


def objective(theta, cam_params, observations, chain, config, smooth):
    """(joints, total, rec, temp, reg) with one FK pass, rec smoothed by
    `smooth`."""
    joints = body_fk(theta, chain)
    rec = loss_rec(joints, observations, cam_params, config.observed_joints, smooth=smooth)
    temp = loss_temp(joints)
    reg = loss_reg(theta)
    total = weighted_sum([rec, temp, reg], [config.w_rec, config.w_temp, config.w_reg])
    return joints, total, rec, temp, reg


def fit_sequence(init: MotionSequence, observations, cam: CameraWeakPerspective,
                 config: FitConfig, chain=None) -> FitResult:
    body_chain = (chain or build_sign_chain(init.layout)).body_subchain(init.layout.body_joints)
    T = init.num_frames
    j = init.layout.body_joints
    theta_value = init.frames[:, : 3 * j].astype(np.float64).reshape(T, j, 3)
    cam_value = np.array([cam.scale, cam.tx, cam.ty], dtype=np.float64)

    def evaluate(theta_arr, cam_arr):
        with _float64_graph():
            cam_t = Tensor(cam_arr)
            joints, total, rec, temp, reg = objective(Tensor(theta_arr), cam_t, observations,
                                                      body_chain, config, config.rec_smooth_mm)
            if config.rec_smooth_mm > 0.0:  # the exact L1 for the log: a second build
                rec = loss_rec(joints, observations, cam_t, config.observed_joints)
        terms = {"objective": total.item(), "rec": rec.item(), "temp": temp.item(),
                 "reg": reg.item()}
        terms["total"] = (config.w_rec * terms["rec"] + config.w_temp * terms["temp"]
                          + config.w_reg * terms["reg"])
        return terms

    def gradient(theta_arr, cam_arr):
        with _float64_graph():
            theta_t = Tensor(theta_arr, requires_grad=True)
            cam_t = Tensor(cam_arr, requires_grad=config.optimize_camera)
            objective(theta_t, cam_t, observations, body_chain, config,
                      config.rec_smooth_mm)[1].backward()
        g_cam = cam_t.grad if cam_t.grad is not None else np.zeros(3)
        return theta_t.grad, g_cam

    def log_entry(it, terms, step):
        return {"iter": it, "objective": terms["objective"], "total": terms["total"],
                "rec": terms["rec"], "temp": terms["temp"], "reg": terms["reg"],
                "step": step, "accepted": True}

    log = []
    terms_prev = evaluate(theta_value, cam_value)
    log.append(log_entry(0, terms_prev, 0.0))
    objective_prev = terms_prev["objective"]
    step = INIT_STEP
    v_theta = np.zeros_like(theta_value)
    v_cam = np.zeros_like(cam_value)
    beta = 0.9
    for it in range(1, config.max_iters + 1):
        g_theta, g_cam = gradient(theta_value, cam_value)
        v_theta = beta * v_theta + (1.0 - beta) * g_theta * g_theta
        v_cam = beta * v_cam + (1.0 - beta) * g_cam * g_cam
        correction = 1.0 - beta ** it
        d_theta = g_theta / (np.sqrt(v_theta / correction) + 1e-8)
        d_cam = g_cam / (np.sqrt(v_cam / correction) + 1e-8)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand_theta = theta_value - step * d_theta
            cand_cam = cam_value.copy()
            if config.optimize_camera:
                cand_cam = cam_value - step * d_cam
                cand_cam[0] = max(cand_cam[0], 1e-4)
            terms = evaluate(cand_theta, cand_cam)
            if terms["objective"] <= objective_prev:
                accepted = True
                break
            step *= STEP_SHRINK
        if not accepted:
            break
        theta_value, cam_value = cand_theta, cand_cam
        log.append(log_entry(it, terms, step))
        improvement = objective_prev - terms["objective"]
        objective_prev = terms["objective"]
        step *= STEP_GROW
        if improvement < config.tol * max(1.0, abs(objective_prev)):
            break

    frames = init.frames.copy()
    frames[:, : 3 * j] = theta_value.reshape(T, 3 * j).astype(np.float32)
    refined = MotionSequence(frames, fps=init.fps, layout=init.layout,
                             language_tag=init.language_tag)
    camera = CameraWeakPerspective(scale=float(cam_value[0]), tx=float(cam_value[1]),
                                   ty=float(cam_value[2]))
    return FitResult(motion=refined, log=log, camera=camera)


def observe_sequence(seq: MotionSequence, cam: CameraWeakPerspective, chain, observed_joints,
                     noise_std: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(points (T, M, 2), confidence (T, M)), one frame at a time."""
    rng = np.random.default_rng(seed)
    points = []
    for frame_joints in forward_kinematics_sequence(seq.frames, chain):
        pts = project_weak(frame_joints[list(observed_joints)], cam)
        if noise_std > 0:
            pts = pts + rng.normal(0.0, noise_std, size=pts.shape)
        points.append(pts)
    return np.array(points), np.ones((len(points), len(observed_joints)))
