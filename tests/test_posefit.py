import numpy as np
import pytest

from soke.errors import ConfigError, InputError
from soke.grad import Tensor, default_dtype
from soke.motion import (
    MotionSequence,
    build_sign_chain,
    forward_kinematics_sequence,
)
from soke.posefit import (
    CameraWeakPerspective,
    FitConfig,
    Observation2D,
    body_fk,
    fit_sequence,
    load_observations,
    loss_rec,
    loss_reg,
    loss_temp,
    observe_sequence,
    project_weak,
    save_observations,
    total_loss,
)

from gradcheck import check_gradients

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

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigError):
            CameraWeakPerspective(scale=0.0)


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


class TestLossTerms:
    def test_rec_zero_on_perfect_reprojection(self):
        seq = constant_pose_sequence(np.zeros((11, 3)), frames=3)
        cam = CameraWeakPerspective()
        obs = observe_sequence(seq, cam, CHAIN)
        joints = body_fk(Tensor(seq.frames[:, :33].reshape(3, 11, 3).astype(np.float64)), BODY)
        value = loss_rec(joints, obs, Tensor(np.array([1.0, 0.0, 0.0])),
                         FitConfig().observed_joints)
        assert value.item() == pytest.approx(0.0, abs=1e-6)

    def test_rec_l1_arithmetic(self):
        # one observed joint off by (1, -2) with confidence 1 -> 3
        joints = Tensor(np.zeros((1, 2, 3)))
        obs = [Observation2D(np.array([[1.0, -2.0]]), np.array([1.0]))]
        value = loss_rec(joints, obs, Tensor(np.array([1.0, 0.0, 0.0])), (1,))
        assert value.item() == pytest.approx(3.0)

    def test_rec_zero_confidence_contributes_nothing(self):
        joints = Tensor(np.zeros((1, 2, 3)))
        obs = [Observation2D(np.array([[100.0, 50.0]]), np.array([0.0]))]
        value = loss_rec(joints, obs, Tensor(np.array([1.0, 0.0, 0.0])), (1,))
        assert value.item() == 0.0

    def test_temp_zero_for_constant_pose(self):
        joints = Tensor(np.tile(np.arange(12.0).reshape(1, 4, 3), (5, 1, 1)))
        assert loss_temp(joints).item() == pytest.approx(0.0, abs=1e-9)

    def test_temp_single_frame_is_zero(self):
        joints = Tensor(np.zeros((1, 4, 3)))
        assert loss_temp(joints).item() == 0.0

    def test_temp_single_joint_move_counts_twice(self):
        base = np.zeros((2, 4, 3))
        base[1, 2, 0] = 2.0  # one joint moves distance 2 between the frames
        value = loss_temp(Tensor(base)).item()
        assert value == pytest.approx(4.0, abs=1e-6)  # 2 per norm, two norms

    def test_reg_is_euclidean_norm(self):
        theta = np.zeros((1, 2, 3))
        theta[0, 0, 0] = 3.0
        theta[0, 1, 1] = 4.0
        assert loss_reg(Tensor(theta)).item() == pytest.approx(5.0, abs=1e-6)

    def test_reg_zero_pose(self):
        assert loss_reg(Tensor(np.zeros((2, 3, 3)))).item() == pytest.approx(0.0, abs=1e-9)


class TestGradients:
    def test_total_loss_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        cfg = FitConfig()
        seq_truth = constant_pose_sequence(rng.uniform(0.2, 0.6, size=(11, 3)), frames=2)
        obs = observe_sequence(seq_truth, CameraWeakPerspective(), CHAIN, noise_std=1.0, seed=1)
        with default_dtype(np.float64):
            theta = Tensor(rng.uniform(0.2, 0.7, size=(2, 11, 3)), requires_grad=True)
            cam = Tensor(np.array([1.1, 0.4, -0.2]), requires_grad=True)

            def loss_fn():
                return total_loss(theta, cam, obs, BODY, cfg)[0]

            errors = check_gradients(loss_fn, [("theta", theta), ("cam", cam)],
                                     eps=1e-6, tol=1e-3)
        assert max(errors.values()) < 1e-3


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

    def test_frame_mismatch_rejected(self):
        seq = constant_pose_sequence(np.zeros((11, 3)), frames=4)
        obs = observe_sequence(seq, CameraWeakPerspective(), CHAIN)[:-1]
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
        best_angle, best_value = None, np.inf
        for angle in grid:
            theta = np.zeros((4, 11, 3))
            theta[:, joint, axis] = angle
            value = _numpy_total_loss(theta, obs, cam, cfg)
            if value < best_value:
                best_angle, best_value = angle, value
        assert abs(fitted - best_angle) < 1e-2


def _numpy_total_loss(theta: np.ndarray, obs, cam: CameraWeakPerspective, cfg: FitConfig) -> float:
    """Grid-search oracle: plain-numpy total loss via the motion-core FK."""
    T = theta.shape[0]
    joints = forward_kinematics_sequence(theta.reshape(T, -1), BODY)
    idx = list(cfg.observed_joints)
    rec = 0.0
    for f in range(T):
        proj = project_weak(joints[f, idx], cam)
        rec += float((np.abs(proj - obs[f].points) * obs[f].confidence[:, None]).sum())
    temp = 0.0
    for f in range(1, T):
        temp += 2.0 * float(np.linalg.norm(joints[f] - joints[f - 1]))
    reg = float(np.linalg.norm(theta))
    return cfg.w_rec * rec + cfg.w_temp * temp + cfg.w_reg * reg


class TestObservationIO:
    def test_round_trip(self, tmp_path):
        seq = constant_pose_sequence(np.full((11, 3), 0.1), frames=3)
        obs = observe_sequence(seq, CameraWeakPerspective(), CHAIN, noise_std=0.5, seed=3)
        path = tmp_path / "obs.jsonl"
        save_observations(path, obs)
        loaded = load_observations(path)
        assert len(loaded) == len(obs)
        for a, b in zip(obs, loaded):
            assert np.allclose(a.points, b.points)
            assert np.allclose(a.confidence, b.confidence)

    def test_bad_confidence_rejected(self):
        with pytest.raises(InputError):
            Observation2D(np.zeros((2, 2)), np.array([0.5, 1.5]))

    def test_zero_joints_rejected(self):
        with pytest.raises(InputError, match="at least one joint"):
            Observation2D(np.zeros((0, 2)), np.zeros(0))


class TestObservedJoints:
    def test_repeated_joint_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        cfg = FitConfig(observed_joints=(5, 5, 6))
        seq_truth = constant_pose_sequence(rng.uniform(0.2, 0.6, size=(11, 3)), frames=1)
        obs = observe_sequence(seq_truth, CameraWeakPerspective(), CHAIN,
                               observed_joints=cfg.observed_joints, noise_std=1.0, seed=1)
        with default_dtype(np.float64):
            theta = Tensor(rng.uniform(0.2, 0.7, size=(1, 11, 3)), requires_grad=True)
            cam = Tensor(np.array([1.1, 0.4, -0.2]), requires_grad=True)

            def loss_fn():
                return loss_rec(body_fk(theta, BODY), obs, cam, cfg.observed_joints, smooth=2.0)

            errors = check_gradients(loss_fn, [("theta", theta), ("cam", cam)],
                                     eps=1e-6, tol=1e-3)
        assert max(errors.values()) < 1e-3

    def test_empty_joint_list_rejected(self):
        with pytest.raises(ConfigError, match="observed_joints"):
            FitConfig(observed_joints=())

    @pytest.mark.parametrize("joints", [(20,), (-1,)])
    def test_joint_outside_the_body_rejected(self, joints):
        seq = constant_pose_sequence(np.zeros((11, 3)), frames=2)
        obs = [Observation2D(np.zeros((1, 2)), np.ones(1)) for _ in range(2)]
        with pytest.raises(InputError, match="observed_joints"):
            fit_sequence(seq, obs, config=FitConfig(observed_joints=joints), chain=CHAIN)


class TestMalformedObservationFile:
    def _write(self, tmp_path, lines):
        path = tmp_path / "obs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_truncated_line_names_file_and_line(self, tmp_path):
        path = self._write(tmp_path, ['{"frame_idx": 0, "joints": [[0, 0, 1]]}',
                                      '{"frame_idx": 1, "joints": [[0, 0'])
        with pytest.raises(InputError, match="obs.jsonl:2"):
            load_observations(path)

    @pytest.mark.parametrize("record", ['{"frame_idx": 0}', '{"joints": [[0, 0, 1]]}'])
    def test_missing_key_names_file_and_line(self, tmp_path, record):
        path = self._write(tmp_path, [record])
        with pytest.raises(InputError, match="obs.jsonl:1"):
            load_observations(path)

    @pytest.mark.parametrize("second", ['{"frame_idx": 0, "joints": [[5, 5, 1]]}',
                                        '{"frame_idx": 1, "joints": [[0, 0, 2]]}'])
    def test_invalid_record_names_file_and_line(self, tmp_path, second):
        # a repeated frame_idx, then a confidence outside [0, 1]
        path = self._write(tmp_path, ['{"frame_idx": 0, "joints": [[0, 0, 1]]}', second])
        with pytest.raises(InputError, match="obs.jsonl:2"):
            load_observations(path)
