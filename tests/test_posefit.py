import json
from dataclasses import replace

import numpy as np
import pytest

from soke.errors import ConfigError, InputError, TrainingDivergedError
from soke.grad import Tensor
from soke.motion import (
    MotionSequence,
    build_sign_chain,
    forward_kinematics_pass,
    forward_kinematics_sequence,
    forward_kinematics_vjp,
)
from soke.posefit import (
    CameraWeakPerspective,
    FitConfig,
    Observations,
    body_fk,
    fit_sequence,
    loss_rec,
    objective,
    observe_sequence,
    project_weak,
)

import composed_ops
import fit_oracle
from gradcheck import check_array_gradients

CHAIN = build_sign_chain()
BODY = CHAIN.body_subchain(11)


def constant_pose_sequence(theta_body: np.ndarray, frames: int = 5) -> MotionSequence:
    frame = np.zeros(133, dtype=np.float32)
    frame[: 3 * 11] = theta_body.reshape(-1)
    return MotionSequence(np.tile(frame, (frames, 1)))


class TestProjection:
    def test_identity_camera(self):
        assert np.allclose(project_weak(np.array([1.0, 2.0, 5.0]), CameraWeakPerspective()), [1, 2])

    def test_scaled_shifted(self):
        cam = CameraWeakPerspective(scale=2.0, tx=1.0, ty=0.0)
        assert np.allclose(project_weak(np.array([1.0, 2.0, 5.0]), cam), [3, 4])

    def test_depth_invariance(self):
        cam = CameraWeakPerspective(scale=1.5, tx=0.3, ty=-0.2)
        a = project_weak(np.array([1.0, 2.0, 5.0]), cam)
        b = project_weak(np.array([1.0, 2.0, -40.0]), cam)
        assert np.allclose(a, b)

    @pytest.mark.parametrize("field, value", [("scale", 0.0), ("scale", np.nan),
                                              ("scale", np.inf), ("tx", np.inf), ("ty", np.nan)])
    def test_invalid_camera_rejected(self, field, value):
        with pytest.raises(ConfigError):
            CameraWeakPerspective(**{field: value})


class TestBodyFk:
    def test_matches_plain_numpy_fk(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(-0.8, 0.8, size=(4, 11, 3))
        differentiable = body_fk(Tensor(theta), BODY).data
        frames = theta.reshape(4, 33)
        reference = forward_kinematics_sequence(frames, BODY)
        assert np.allclose(differentiable, reference, atol=1e-4)

    def test_zero_pose_smoothness(self):
        joints = body_fk(Tensor(np.zeros((2, 11, 3))), BODY).data
        expected = forward_kinematics_sequence(np.zeros((2, 33)), BODY)
        assert np.allclose(joints, expected, atol=1e-6)


IDENTITY = np.array([1.0, 0.0, 0.0])  # camera [scale, tx, ty]


def objective_terms(theta: np.ndarray) -> dict[str, float]:
    """The exact terms of the objective at body angles theta (T, 11, 3),
    against observations of the zero pose."""
    frames = len(theta)
    obs = observe_sequence(constant_pose_sequence(np.zeros((11, 3)), frames),
                           CameraWeakPerspective(), CHAIN)
    return objective(theta, IDENTITY, obs, BODY, FitConfig())[1]


class TestLossTerms:
    def test_rec_zero_on_perfect_reprojection(self):
        seq = constant_pose_sequence(np.zeros((11, 3)), frames=3)
        cam = CameraWeakPerspective()
        obs = observe_sequence(seq, cam, CHAIN)
        joints = forward_kinematics_pass(seq.frames[:, :33].reshape(3, 11, 3).astype(np.float64),
                                         BODY)[0]
        value = loss_rec(joints, obs, IDENTITY, FitConfig().observed_joints)[0]
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_rec_l1_arithmetic(self):
        # one observed joint off by (1, -2) with confidence 1 -> 3
        joints = np.zeros((1, 2, 3))
        obs = Observations(np.array([[[1.0, -2.0]]]), np.array([[1.0]]))
        assert loss_rec(joints, obs, IDENTITY, (1,))[0] == pytest.approx(3.0)

    def test_rec_exact_is_the_l1_of_the_smoothed_residual(self):
        joints = np.zeros((1, 2, 3))
        obs = Observations(np.array([[[1.0, -2.0]]]), np.array([[1.0]]))
        value, exact, _ = loss_rec(joints, obs, IDENTITY, (1,), smooth=2.0)
        assert value == pytest.approx(np.sqrt(5.0) + np.sqrt(8.0))
        assert exact == pytest.approx(3.0)

    def test_rec_zero_confidence_contributes_nothing(self):
        joints = np.zeros((1, 2, 3))
        obs = Observations(np.array([[[100.0, 50.0]]]), np.array([[0.0]]))
        assert loss_rec(joints, obs, IDENTITY, (1,))[0] == 0.0

    def test_temp_zero_for_constant_pose(self):
        theta = np.tile(np.linspace(-0.5, 0.5, 33).reshape(1, 11, 3), (5, 1, 1))
        assert objective_terms(theta)["temp"] == pytest.approx(0.0, abs=1e-9)

    def test_temp_single_frame_is_zero(self):
        assert objective_terms(np.full((1, 11, 3), 0.3))["temp"] == 0.0

    def test_temp_single_joint_move_counts_twice(self):
        base = np.zeros((2, 4, 3))
        base[1, 2, 0] = 2.0  # one joint moves distance 2 between the frames
        value = fit_oracle.loss_temp(Tensor(base)).item()
        assert value == pytest.approx(4.0, abs=1e-6)  # 2 per norm, two norms

    def test_temp_counts_each_joint_displacement_twice(self):
        theta = np.zeros((3, 11, 3))
        theta[1, 8, 2] = 0.5  # the right shoulder turns, then turns back
        joints = forward_kinematics_sequence(theta.reshape(3, 33), BODY)
        moved = np.linalg.norm(joints[1:] - joints[:-1], axis=(1, 2)).sum()
        assert moved > 1.0
        assert objective_terms(theta)["temp"] == pytest.approx(2.0 * moved, rel=1e-12)

    def test_reg_is_euclidean_norm(self):
        theta = np.zeros((1, 11, 3))
        theta[0, 0, 0] = 3.0
        theta[0, 1, 1] = 4.0
        assert objective_terms(theta)["reg"] == pytest.approx(5.0, abs=1e-6)

    def test_reg_zero_pose(self):
        assert objective_terms(np.zeros((2, 11, 3)))["reg"] == pytest.approx(0.0, abs=1e-9)


class TestGradients:
    def test_total_loss_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        cfg = FitConfig()
        seq_truth = constant_pose_sequence(rng.uniform(0.2, 0.6, size=(11, 3)), frames=2)
        obs = observe_sequence(seq_truth, CameraWeakPerspective(), CHAIN, noise_std=1.0, seed=1)
        theta = rng.uniform(0.2, 0.7, size=(2, 11, 3))
        cam = np.array([1.1, 0.4, -0.2])
        g_theta, g_cam = objective(theta, cam, obs, BODY, cfg)[2]()
        errors = check_array_gradients(lambda theta, cam: objective(theta, cam, obs, BODY, cfg)[0],
                                       {"theta": theta, "cam": cam},
                                       {"theta": g_theta, "cam": g_cam}, eps=1e-6, tol=1e-3)
        assert max(errors.values()) < 1e-3


class TestFusedObjective:
    @pytest.mark.parametrize("observed", [FitConfig.observed_joints, (5, 5, 6)])
    @pytest.mark.parametrize("optimize_camera", [True, False])
    @pytest.mark.parametrize("frames", [1, 2, 4])
    @pytest.mark.parametrize("smooth", [0.0, 2.0])
    def test_objective_equals_the_composed_graph(self, smooth, frames, optimize_camera, observed):
        # value, theta's and cam's gradients bit for bit against the graph of
        # FK, sqrt, abs, mul, add and slice nodes that the numpy objective replays
        rng = np.random.default_rng(frames)
        cfg = FitConfig(optimize_camera=optimize_camera, observed_joints=observed)
        truth = MotionSequence(rng.normal(0.0, 0.3, size=(frames, 133)).astype(np.float32))
        points = observe_sequence(truth, CameraWeakPerspective(), CHAIN,
                                  observed_joints=observed, noise_std=2.0, seed=frames).points
        obs = Observations(points, rng.uniform(0.0, 1.0, size=points.shape[:2]))
        theta0 = (truth.frames[:, :33].reshape(frames, 11, 3)
                  + rng.normal(0.0, 0.1, size=(frames, 11, 3)))
        cam0 = np.array([1.1, 0.4, -0.2])
        value, _, gradient = objective(theta0, cam0, obs, BODY, cfg, smooth)
        g_theta, g_cam = gradient()
        with fit_oracle._float64_graph():
            theta = Tensor(theta0, requires_grad=True)
            cam = Tensor(cam0, requires_grad=optimize_camera)
            total = composed_ops.objective(theta, cam, obs, BODY, cfg, smooth)
            total.backward()
        assert np.array_equal(value, total.data)
        assert np.array_equal(g_theta, theta.grad)
        if optimize_camera:
            assert np.array_equal(g_cam, cam.grad)
        else:
            assert cam.grad is None


class TestFitSequence:
    def test_already_optimal_stays_fixed(self):
        seq = constant_pose_sequence(np.full((11, 3), 0.15), frames=4)
        cam = CameraWeakPerspective()
        obs = observe_sequence(seq, cam, CHAIN)
        cfg = FitConfig(w_reg=0.0, max_iters=30, optimize_camera=False)
        result = fit_sequence(seq, obs, cam, cfg, CHAIN)
        assert np.array_equal(result.motion.frames, seq.frames)

    def test_hands_and_expression_bit_identical(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(0, 0.3, size=(4, 133)).astype(np.float32)
        seq = MotionSequence(frames)
        cam = CameraWeakPerspective()
        obs = observe_sequence(seq, cam, CHAIN, noise_std=2.0, seed=2)
        result = fit_sequence(seq, obs, cam, FitConfig(max_iters=10), CHAIN)
        assert np.array_equal(result.motion.frames[:, 33:], seq.frames[:, 33:])
        assert not np.array_equal(result.motion.frames[:, :33], seq.frames[:, :33])

    def test_accepted_losses_non_increasing(self):
        rng = np.random.default_rng(7)
        truth = constant_pose_sequence(rng.uniform(-0.4, 0.4, size=(11, 3)), frames=3)
        obs = observe_sequence(truth, CameraWeakPerspective(), CHAIN)
        init = constant_pose_sequence(np.zeros((11, 3)), frames=3)
        result = fit_sequence(init, obs, CameraWeakPerspective(), FitConfig(max_iters=60), CHAIN)
        objectives = [e["objective"] for e in result.log]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
        assert result.log[-1]["total"] < result.log[0]["total"]

    def test_a_fit_without_a_chain_shares_one_and_keeps_every_bit(self):
        rng = np.random.default_rng(9)
        seq = MotionSequence(rng.normal(0, 0.3, size=(3, 133)).astype(np.float32))
        cam = CameraWeakPerspective()
        own = replace(CHAIN)  # equal, but with nothing planned or cached yet
        obs = observe_sequence(seq, cam, noise_std=2.0, seed=4)
        assert np.array_equal(obs.points,
                              observe_sequence(seq, cam, own, noise_std=2.0, seed=4).points)
        cfg = FitConfig(max_iters=10)
        shared, given = fit_sequence(seq, obs, cam, cfg), fit_sequence(seq, obs, cam, cfg, own)
        assert np.array_equal(shared.motion.frames, given.motion.frames)
        assert shared.log == given.log and shared.camera == given.camera
        assert build_sign_chain(seq.layout) is CHAIN

    def test_each_point_is_evaluated_once(self, monkeypatch):
        # one FK pass and one loss_rec per evaluated point, no point twice, and
        # one FK VJP per iteration, on the graph of the last accepted point
        import soke.posefit as posefit

        events = []  # ("pass" | "rec" | "vjp", angles or None), in call order

        def counting_pass(angles, chain):
            events.append(("pass", angles.copy()))
            return forward_kinematics_pass(angles, chain)

        def counting_vjp(grad, angles, positions, rot, chain):
            events.append(("vjp", angles.copy()))
            return forward_kinematics_vjp(grad, angles, positions, rot, chain)

        def counting_rec(*args, **kwargs):
            events.append(("rec", None))
            return loss_rec(*args, **kwargs)

        monkeypatch.setattr(posefit, "forward_kinematics_pass", counting_pass)
        monkeypatch.setattr(posefit, "forward_kinematics_vjp", counting_vjp)
        monkeypatch.setattr(posefit, "loss_rec", counting_rec)
        seq = constant_pose_sequence(np.full((11, 3), 0.1), frames=3)
        obs = observe_sequence(seq, CameraWeakPerspective(), CHAIN, noise_std=2.0, seed=4)
        cfg = FitConfig(max_iters=4)
        result = fit_sequence(seq, obs, CameraWeakPerspective(), cfg, CHAIN)
        assert len(result.log) == cfg.max_iters + 1  # four iterations, none stopped early

        kinds = [kind for kind, _ in events]
        passes = [angles for kind, angles in events if kind == "pass"]
        assert len(passes) > len(result.log)  # some candidates were rejected
        assert len({angles.tobytes() for angles in passes}) == len(passes)
        for i, kind in enumerate(kinds):
            if kind == "pass":
                assert kinds[i + 1] == "rec"
        assert kinds.count("rec") == len(passes)
        assert kinds.count("vjp") == cfg.max_iters
        last_pass = None
        for kind, angles in events:
            if kind == "pass":
                last_pass = angles
            elif kind == "vjp":
                assert np.array_equal(angles, last_pass)
        refined = result.motion.frames[:, :33].reshape(3, 11, 3)
        assert np.array_equal(refined, last_pass.astype(np.float32))

    def test_a_fit_builds_no_graph_node(self, monkeypatch):
        built = []
        init = Tensor.__init__

        def recording_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            built.append(tensor._op)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        seq = constant_pose_sequence(np.full((11, 3), 0.1), frames=3)
        obs = observe_sequence(seq, CameraWeakPerspective(), CHAIN, noise_std=2.0, seed=4)
        result = fit_sequence(seq, obs, CameraWeakPerspective(), FitConfig(max_iters=4), CHAIN)
        assert len(result.log) == 5
        assert built == []

    def test_a_non_finite_position_ends_the_fit(self, monkeypatch):
        # one finiteness check per point, on the smoothed total
        import soke.posefit as posefit

        calls = []

        def diverging_pass(angles, chain):
            positions, rot = forward_kinematics_pass(angles, chain)
            calls.append(None)
            if len(calls) == 2:
                positions[-1, 3, 1] = np.nan  # a joint no observation sees
            return positions, rot

        monkeypatch.setattr(posefit, "forward_kinematics_pass", diverging_pass)
        seq = constant_pose_sequence(np.full((11, 3), 0.1), frames=3)
        obs = observe_sequence(seq, CameraWeakPerspective(), CHAIN, noise_std=2.0, seed=4)
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            fit_sequence(seq, obs, CameraWeakPerspective(), FitConfig(max_iters=4), CHAIN)
        assert len(calls) == 2

    def test_frame_mismatch_rejected(self):
        seq = constant_pose_sequence(np.zeros((11, 3)), frames=4)
        full = observe_sequence(seq, CameraWeakPerspective(), CHAIN)
        obs = Observations(full.points[:-1], full.confidence[:-1])
        with pytest.raises(InputError):
            fit_sequence(seq, obs, CameraWeakPerspective(), FitConfig(), CHAIN)

    def test_single_joint_recovery_against_grid_oracle(self):
        joint, axis = 8, 2  # right shoulder, z axis
        truth_theta = np.zeros((11, 3))
        truth_theta[joint, axis] = 0.5
        truth = constant_pose_sequence(truth_theta, frames=4)
        cam = CameraWeakPerspective()
        obs = observe_sequence(truth, cam, CHAIN)
        init = constant_pose_sequence(np.zeros((11, 3)), frames=4)
        cfg = FitConfig(max_iters=3000, tol=1e-12, optimize_camera=False)
        result = fit_sequence(init, obs, cam, cfg, CHAIN)
        fitted = result.motion.frames[:, 3 * joint + axis].mean()

        grid = np.arange(-np.pi, np.pi, 1e-3)
        theta = np.zeros((len(grid), 4, 11, 3))
        theta[:, :, joint, axis] = grid[:, None]
        best_angle = grid[np.argmin(_numpy_total_loss(theta, obs, cam, cfg))]
        assert abs(fitted - best_angle) < 1e-2


def _numpy_total_loss(theta: np.ndarray, obs, cam: CameraWeakPerspective,
                      cfg: FitConfig) -> np.ndarray:
    """Grid-search oracle: plain-numpy total loss via the motion-core FK, for
    a batch of pose sequences theta (..., T, J, 3)."""
    batch = theta.shape[:-3]
    frames = theta.reshape(-1, theta.shape[-2] * theta.shape[-1])
    joints = forward_kinematics_sequence(frames, BODY).reshape(theta.shape)
    proj = project_weak(joints[..., list(cfg.observed_joints), :], cam)
    rec = (np.abs(proj - obs.points) * obs.confidence[..., None]).sum(axis=(-3, -2, -1))
    temp = 2.0 * np.linalg.norm(joints[..., 1:, :, :] - joints[..., :-1, :, :],
                                axis=(-2, -1)).sum(axis=-1)
    reg = np.linalg.norm(theta.reshape(batch + (-1,)), axis=-1)
    return cfg.w_rec * rec + cfg.w_temp * temp + cfg.w_reg * reg


class TestObservations:
    @pytest.mark.parametrize("bad", [1.5, -0.5, np.nan])
    def test_bad_confidence_rejected(self, bad):
        with pytest.raises(InputError, match="confidences"):
            Observations(np.zeros((3, 2, 2)), np.array([[0.5, 0.5], [0.5, 0.5], [0.5, bad]]))

    @pytest.mark.parametrize("frames", [0, 2])
    def test_zero_joints_rejected(self, frames):
        with pytest.raises(InputError, match="at least one joint"):
            Observations(np.zeros((frames, 0, 2)), np.zeros((frames, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, bad):
        points = np.zeros((2, 3, 2))
        points[1, 2, 0] = bad
        with pytest.raises(InputError, match="finite"):
            Observations(points, np.ones((2, 3)))

    @pytest.mark.parametrize("points, confidence", [
        (np.zeros((3, 2)), np.ones(3)),  # one frame's rank
        (np.zeros((2, 3, 2, 1)), np.ones((2, 3))),
        (np.zeros((2, 3, 3)), np.ones((2, 3))),  # not 2D points
        (np.zeros((2, 3, 2)), np.ones((2, 3, 1))),  # confidence of the wrong rank
        (np.zeros((2, 3, 2)), np.ones((3, 3))),  # frame counts differ
        (np.zeros((2, 3, 2)), np.ones((2, 4))),  # joint counts differ
    ])
    def test_wrong_shape_rejected(self, points, confidence):
        with pytest.raises(InputError, match=r"\(T,M,2\) points and \(T,M\) confidences"):
            Observations(points, confidence)

    def test_arrays_become_float64(self):
        obs = Observations(np.zeros((1, 2, 2), dtype=np.float32), np.ones((1, 2), dtype=int))
        assert obs.points.dtype == obs.confidence.dtype == np.float64

    @pytest.mark.parametrize("observed", [FitConfig.observed_joints, (5, 5, 6)])
    @pytest.mark.parametrize("noise_std", [0.0, 2.0])
    @pytest.mark.parametrize("frames", [1, 2, 5])
    def test_observe_sequence_equals_the_per_frame_oracle(self, frames, noise_std, observed):
        rng = np.random.default_rng(frames)
        seq = MotionSequence(rng.normal(0.0, 0.3, size=(frames, 133)).astype(np.float32))
        cam = CameraWeakPerspective(scale=1.05, tx=0.5, ty=-0.3)
        obs = observe_sequence(seq, cam, CHAIN, observed_joints=observed, noise_std=noise_std,
                               seed=7)
        points, confidence = fit_oracle.observe_sequence(seq, cam, CHAIN, observed, noise_std,
                                                         seed=7)
        assert obs.points.shape == (frames, len(observed), 2)
        assert obs.points.tobytes() == points.tobytes()
        assert obs.confidence.tobytes() == confidence.tobytes()

    @pytest.mark.parametrize("noise_std", [-1.0, -1e-12, np.nan, np.inf])
    def test_observe_sequence_rejects_a_bad_noise_std(self, noise_std):
        seq = constant_pose_sequence(np.zeros((11, 3)), frames=2)
        with pytest.raises(ConfigError, match="noise_std"):
            observe_sequence(seq, CameraWeakPerspective(), CHAIN, noise_std=noise_std)


class TestFitConfig:
    @pytest.mark.parametrize("field", ["w_rec", "w_temp", "w_reg", "tol", "rec_smooth_mm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_setting_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            FitConfig(**{field: value})


class TestObservedJoints:
    def test_repeated_joint_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        cfg = FitConfig(observed_joints=(5, 5, 6))
        seq_truth = constant_pose_sequence(rng.uniform(0.2, 0.6, size=(11, 3)), frames=1)
        obs = observe_sequence(seq_truth, CameraWeakPerspective(), CHAIN,
                               observed_joints=cfg.observed_joints, noise_std=1.0, seed=1)
        theta = rng.uniform(0.2, 0.7, size=(1, 11, 3))
        cam = np.array([1.1, 0.4, -0.2])

        def rec(theta, cam):
            return loss_rec(forward_kinematics_pass(theta, BODY)[0], obs, cam,
                            cfg.observed_joints, smooth=2.0)[0]

        positions, rot = forward_kinematics_pass(theta, BODY)
        g_joints, g_cam = loss_rec(positions, obs, cam, cfg.observed_joints, smooth=2.0)[2](1.0)
        g_theta = forward_kinematics_vjp(g_joints, theta, positions, rot, BODY)
        errors = check_array_gradients(rec, {"theta": theta, "cam": cam},
                                       {"theta": g_theta, "cam": g_cam}, eps=1e-6, tol=1e-3)
        assert max(errors.values()) < 1e-3

    def test_empty_joint_list_rejected(self):
        with pytest.raises(ConfigError, match="observed_joints"):
            FitConfig(observed_joints=())

    def test_observation_joint_count_off_the_config_rejected(self):
        seq = constant_pose_sequence(np.zeros((11, 3)), frames=2)
        obs = Observations(np.zeros((2, 2, 2)), np.ones((2, 2)))
        with pytest.raises(InputError, match="joint count"):
            fit_sequence(seq, obs, config=FitConfig(observed_joints=(5,)), chain=CHAIN)

    @pytest.mark.parametrize("joints", [(20,), (-1,)])
    def test_joint_outside_the_body_rejected(self, joints):
        seq = constant_pose_sequence(np.zeros((11, 3)), frames=2)
        obs = Observations(np.zeros((2, 1, 2)), np.ones((2, 1)))
        with pytest.raises(InputError, match="observed_joints"):
            fit_sequence(seq, obs, config=FitConfig(observed_joints=joints), chain=CHAIN)


# -- the fit against the parent's loop (fit_oracle.py) ----------------------------


def _stop_reason(log: list[dict], cfg: FitConfig) -> str:
    if len(log) == cfg.max_iters + 1:
        return "budget"
    if len(log) >= 2:
        last = log[-1]["objective"]
        if log[-2]["objective"] - last < cfg.tol * max(1.0, abs(last)):
            return "tol"
    return "backtracks"  # the last iteration accepted no candidate


def _noisy_case(frames: int, observed: tuple[int, ...], seed: int):
    rng = np.random.default_rng(seed)
    truth = MotionSequence(rng.normal(0.0, 0.3, size=(frames, 133)).astype(np.float32))
    points = observe_sequence(truth, CameraWeakPerspective(), CHAIN,
                              observed_joints=observed, noise_std=2.0, seed=seed).points
    obs = Observations(points, rng.uniform(0.2, 1.0, size=points.shape[:2]))
    frames_init = truth.frames.copy()
    frames_init[:, :33] += rng.normal(0.0, 0.1, size=(frames, 33)).astype(np.float32)
    return MotionSequence(frames_init), obs


class TestParentLoopOracle:
    def _assert_same_fit(self, init, obs, cam, cfg):
        result = fit_sequence(init, obs, cam, cfg, CHAIN)
        oracle = fit_oracle.fit_sequence(init, obs, cam, cfg, CHAIN)
        assert json.dumps(result.log) == json.dumps(oracle.log)
        assert result.motion.frames.tobytes() == oracle.motion.frames.tobytes()
        assert result.camera == oracle.camera
        return result

    @pytest.mark.parametrize("observed", [FitConfig.observed_joints, (5, 5, 6, 9)])
    @pytest.mark.parametrize("smooth", [0.0, 2.0])
    @pytest.mark.parametrize("optimize_camera", [True, False])
    @pytest.mark.parametrize("frames", [1, 3, 4])
    def test_log_frames_and_camera_are_identical(self, frames, optimize_camera, smooth,
                                                 observed):
        init, obs = _noisy_case(frames, observed, seed=frames)
        cfg = FitConfig(max_iters=12, optimize_camera=optimize_camera, rec_smooth_mm=smooth,
                        observed_joints=observed)
        cam = CameraWeakPerspective(scale=1.05, tx=0.5, ty=-0.3)
        result = self._assert_same_fit(init, obs, cam, cfg)
        assert _stop_reason(result.log, cfg) == "budget"

    def test_fit_stopping_on_tol(self):
        init, obs = _noisy_case(3, FitConfig.observed_joints, seed=1)
        cfg = FitConfig(max_iters=60, tol=1e-3)
        result = self._assert_same_fit(init, obs, CameraWeakPerspective(), cfg)
        assert _stop_reason(result.log, cfg) == "tol"
        assert len(result.log) > 2

    def test_fit_exhausting_the_backtracks(self):
        # at the exact optimum of the unsmoothed L1 every step toward a smaller
        # prior raises the reprojection term
        truth = constant_pose_sequence(np.full((11, 3), 0.15), frames=3)
        obs = observe_sequence(truth, CameraWeakPerspective(), CHAIN)
        cfg = FitConfig(max_iters=30, rec_smooth_mm=0.0, optimize_camera=False)
        result = self._assert_same_fit(truth, obs, CameraWeakPerspective(), cfg)
        assert _stop_reason(result.log, cfg) == "backtracks"
