import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soke.errors import ConfigError, InputError, LayoutError
from soke.grad import Tensor, default_dtype
from soke.motion import (
    MotionSequence,
    Part,
    PartLayout,
    SynthConfig,
    axis_angle_matrices,
    build_lexicon,
    build_sign_chain,
    forward_kinematics_pass,
    forward_kinematics_sequence,
    forward_kinematics_vjp,
    load_motions,
    merge_parts,
    save_motions,
    split_parts,
    synthesize_dataset,
)
from soke.motion.kinematics import KinematicChain, axis_angle_vjp
from soke.posefit import body_fk

import fk_oracle
from composed_ops import reduce_sum
from gradcheck import check_gradients


def forward_kinematics(frame: np.ndarray, chain) -> np.ndarray:
    """3D joint positions (J, 3) for one flat parameter frame."""
    return forward_kinematics_sequence(np.asarray(frame, dtype=np.float64)[None, :], chain)[0]


def random_sequence(rng, frames=6, layout=None):
    layout = layout or PartLayout()
    return MotionSequence(rng.normal(size=(frames, layout.total_dims)).astype(np.float32))


class TestLayout:
    def test_default_dimensions(self):
        layout = PartLayout()
        assert layout.total_dims == 133
        assert layout.body_width == 43  # 33 rotations + 10 expression dims
        assert layout.hand_width == 45

    def test_slices_cover_everything_disjointly(self):
        layout = PartLayout()
        slices = [layout.part_slice(p) for p in (Part.BODY, Part.LEFT_HAND, Part.RIGHT_HAND)]
        covered = []
        for s in slices:
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(133))

    def test_split_widths(self):
        seq = random_sequence(np.random.default_rng(0))
        body, left, right = split_parts(seq)
        assert (body.width, left.width, right.width) == (43, 45, 45)

    def test_split_zero_sequence(self):
        seq = MotionSequence(np.zeros((4, 133), dtype=np.float32))
        for pm in split_parts(seq):
            assert not pm.frames.any()

    def test_split_merge_round_trip_is_exact(self):
        seq = random_sequence(np.random.default_rng(1), frames=9)
        merged = merge_parts(*split_parts(seq), layout=seq.layout, fps=seq.fps,
                             language_tag=seq.language_tag)
        assert np.array_equal(merged.frames, seq.frames)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_split_merge_property(self, frames, seed):
        seq = random_sequence(np.random.default_rng(seed), frames=frames)
        merged = merge_parts(*split_parts(seq))
        assert np.array_equal(merged.frames, seq.frames)

    def test_width_mismatch_raises(self):
        with pytest.raises(LayoutError):
            MotionSequence(np.zeros((3, 100), dtype=np.float32))

    def test_nonfinite_frames_rejected(self):
        frames = np.zeros((3, 133), dtype=np.float32)
        frames[1, 5] = np.nan
        with pytest.raises(LayoutError):
            MotionSequence(frames)

    def test_empty_sequence_rejected(self):
        with pytest.raises(LayoutError):
            MotionSequence(np.zeros((0, 133), dtype=np.float32))


class TestKinematics:
    def test_rest_pose_is_cumulative_offsets(self):
        chain = build_sign_chain()
        joints = forward_kinematics(np.zeros(133), chain)
        expected = np.zeros((chain.num_joints, 3))
        for j in range(1, chain.num_joints):
            expected[j] = expected[chain.parents[j]] + chain.offsets[j]
        assert np.allclose(joints, expected)

    def test_root_rotation_by_pi_flips_child(self):
        # 2-joint chain: child offset (1,0,0); rotating the root by pi about z
        # sends the child to (-1,0,0) relative to the root.
        chain = KinematicChain(
            parents=(-1, 0),
            offsets=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            param_offsets=(0, 3),
            root_position=np.zeros(3),
            joint_names=("root", "child"),
        )
        frame = np.zeros(6)
        frame[2] = np.pi  # axis-angle (0, 0, pi)
        joints = forward_kinematics(frame, chain)
        assert np.allclose(joints[1] - joints[0], [-1.0, 0.0, 0.0], atol=1e-12)

    def test_wrist_rotation_leaves_body_fixed(self):
        chain = build_sign_chain()
        rng = np.random.default_rng(3)
        frame = rng.normal(scale=0.4, size=133)
        base = forward_kinematics(frame, chain)
        bumped = frame.copy()
        bumped[21:24] += 0.7  # l_wrist rotation (joint 7)
        moved = forward_kinematics(bumped, chain)
        assert np.allclose(moved[:11], base[:11])
        assert not np.allclose(moved[11:26], base[11:26])

    def test_global_rotation_equivariance(self):
        chain = build_sign_chain()
        rng = np.random.default_rng(4)
        frame = rng.normal(scale=0.3, size=133)
        base = forward_kinematics(frame, chain)

        rot_vec = rng.normal(size=3)
        rot = axis_angle_matrices(rot_vec)
        # compose the global rotation into the root joint
        rotated_frame = frame.copy()
        root_rot = axis_angle_matrices(frame[0:3])
        combined = rot @ root_rot
        rotated_frame[0:3] = _matrix_to_axis_angle(combined)
        rotated = forward_kinematics(rotated_frame, chain)
        expected = (base - chain.root_position) @ rot.T + chain.root_position
        assert np.allclose(rotated, expected, atol=1e-8)

    def test_sequence_fk_matches_per_frame(self):
        chain = build_sign_chain()
        rng = np.random.default_rng(5)
        frames = rng.normal(scale=0.4, size=(5, 133))
        batch = forward_kinematics_sequence(frames, chain)
        for i, frame in enumerate(frames):
            assert np.allclose(batch[i], forward_kinematics(frame, chain))

    def test_sequence_fk_equals_per_joint_oracle(self):
        chain = build_sign_chain()
        rng = np.random.default_rng(6)
        frames = rng.normal(scale=0.5, size=(7, 133))
        assert np.array_equal(forward_kinematics_sequence(frames, chain), fk_per_joint(frames, chain))

    @pytest.mark.parametrize("frames", [1, 9, 29])
    def test_fk_of_concatenated_frames_equals_two_calls(self, frames):
        chain = build_sign_chain()
        rng = np.random.default_rng(frames)
        a, b = rng.normal(scale=0.4, size=(2, frames, 133)).astype(np.float32)
        both = forward_kinematics_sequence(np.concatenate([a, b]), chain)
        assert np.array_equal(both[:frames], forward_kinematics_sequence(a, chain))
        assert np.array_equal(both[frames:], forward_kinematics_sequence(b, chain))

    def test_mean_bone_length_is_100mm(self):
        chain = build_sign_chain()
        lengths = np.linalg.norm(chain.offsets[1:], axis=1)
        assert lengths.mean() == pytest.approx(100.0)

    def test_axis_angle_small_angle_continuity(self):
        tiny = axis_angle_matrices(np.array([1e-9, 0.0, 0.0]))
        assert np.allclose(tiny, np.eye(3), atol=1e-8)


BODY = build_sign_chain().body_subchain(11)
CHEST_CHILDREN = [3, 5, 8]  # neck and both shoulders: one parent at one depth level


def _angles(kind: str, rng, frames: int = 3) -> np.ndarray:
    """Body rotations (frames, 11, 3) of one regime of the Rodrigues VJP."""
    random = rng.uniform(-1.5, 1.5, size=(frames, 11, 3))
    directions = random / np.linalg.norm(random, axis=-1, keepdims=True)
    taylor = directions * rng.uniform(1e-7, 5e-3, size=(frames, 11, 1))  # t < 1e-2
    if kind == "random":
        return random
    if kind == "zero":
        return np.zeros_like(random)
    if kind == "taylor":
        return taylor
    mixed = random.copy()
    mixed[:, [1, 4]] = 0.0
    mixed[:, [2, 6, 9]] = taylor[:, [2, 6, 9]]
    return mixed


class TestBodyFkVjp:
    @pytest.mark.parametrize("kind", ["random", "zero", "taylor", "mixed"])
    @pytest.mark.parametrize("weighted", ["all", "chest_children"])
    def test_gradient_matches_finite_differences(self, kind, weighted):
        rng = np.random.default_rng(11)
        weights = rng.normal(size=(3, 11, 3))
        if weighted == "chest_children":
            # only the chest's children see the loss: the chest and its
            # ancestors get their gradient through the shared-parent sum
            mask = np.zeros((1, 11, 1))
            mask[:, CHEST_CHILDREN] = 1.0
            weights = weights * mask
        with default_dtype(np.float64):
            theta = Tensor(_angles(kind, rng), requires_grad=True)

            def loss_fn():
                return reduce_sum(body_fk(theta, BODY) * Tensor(weights))

            errors = check_gradients(loss_fn, [("theta", theta)], eps=1e-6, tol=1e-6)
        assert errors["theta"] < 1e-6

    def test_taylor_branch_meets_closed_form_at_its_threshold(self):
        # A'(t)/t and B'(t)/t switch to their series below t = 1e-2; terms
        # of order t^2 are below what finite differences resolve, so check
        # that both forms agree where they meet
        rng = np.random.default_rng(13)
        axis = rng.normal(size=(5, 3))
        axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
        grad = rng.normal(size=(5, 3, 3))
        below = axis_angle_vjp(axis * (1e-2 - 1e-13), grad)
        above = axis_angle_vjp(axis * (1e-2 + 1e-13), grad)
        assert np.abs(below - above).max() < 1e-12 * np.abs(above).max()

    def test_single_graph_node_on_theta(self):
        theta = Tensor(np.zeros((2, 11, 3)), requires_grad=True)
        joints = body_fk(theta, BODY)
        assert joints._parents == (theta,)

    def test_positions_equal_motion_core_fk_bit_for_bit(self):
        theta = _angles("mixed", np.random.default_rng(12), frames=4)
        with default_dtype(np.float64):
            joints = body_fk(Tensor(theta), BODY).data
        assert np.array_equal(joints, forward_kinematics_sequence(theta.reshape(4, 33), BODY))


FULL = build_sign_chain()
CHAINS = {"full": FULL, "body": BODY}


def _leaves(chain) -> list[int]:
    return sorted(set(range(chain.num_joints)) - set(chain.parents))


class TestFkAgainstOracle:
    """The pass and its VJP against the level-by-level oracle (fk_oracle.py)."""

    @pytest.mark.parametrize("frames", [1, 4, 29, 60])
    @pytest.mark.parametrize("name", ["full", "body"])
    def test_positions_are_the_oracle_bytes(self, name, frames):
        rng = np.random.default_rng(frames)
        x = rng.normal(scale=0.6, size=(frames, 133)).astype(np.float32)
        got = forward_kinematics_sequence(x, CHAINS[name])
        want = fk_oracle.forward_kinematics_sequence(x, CHAINS[name])
        assert got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @staticmethod
    def _assert_vjp_is_the_oracle(angles, grad, chain):
        pos, rot, local = forward_kinematics_pass(angles, chain)
        got = forward_kinematics_vjp(grad, angles, rot, local, chain)
        want_pos, want_rot, want_local = fk_oracle.forward_kinematics_pass(angles, chain)
        want = fk_oracle.forward_kinematics_vjp(grad, angles, want_rot, want_local, chain)
        assert pos.flags.c_contiguous and pos.tobytes() == want_pos.tobytes()
        # the inner joints' rotations, joint-major in plan order
        inner = chain.placement.inner
        assert rot.tobytes() == np.swapaxes(want_rot, 0, 1)[inner].tobytes()
        assert local.tobytes() == np.swapaxes(want_local, 0, 1)[inner].tobytes()
        assert got.flags.c_contiguous and got.shape == want.shape
        assert np.array_equal(got, want)
        # a leaf's rotation moves no joint: its angles' cotangent is zero, and
        # only the sign of that zero may differ
        differs = got.view(np.uint64) != want.view(np.uint64)
        assert set(np.nonzero(differs)[1]) <= set(_leaves(chain))
        assert not got[differs].any()

    @pytest.mark.parametrize("kind", ["random", "zero", "taylor", "mixed"])
    @pytest.mark.parametrize("weighted", ["all", "chest_children"])
    def test_body_vjp_equals_the_oracle(self, kind, weighted):
        rng = np.random.default_rng(21)
        angles = _angles(kind, rng, frames=4)
        grad = rng.normal(size=(4, 11, 3))
        if weighted == "chest_children":
            mask = np.zeros((1, 11, 1))
            mask[:, CHEST_CHILDREN] = 1.0
            grad = grad * mask
        self._assert_vjp_is_the_oracle(angles, grad, BODY)

    @pytest.mark.parametrize("scale", [0.6, 2.5])
    @pytest.mark.parametrize("frames", [1, 29])
    def test_full_chain_vjp_equals_the_oracle(self, frames, scale):
        rng = np.random.default_rng(frames)
        angles = rng.normal(scale=scale, size=(frames, FULL.num_joints, 3))
        angles[:, ::7] = 0.0
        grad = rng.normal(size=(frames, FULL.num_joints, 3))
        self._assert_vjp_is_the_oracle(angles, grad, FULL)


    @pytest.mark.parametrize("scale", [0.0, 1e-8, 3e-3, 0.6, 2.5, 40.0])
    def test_rodrigues_and_its_vjp_are_the_oracle_bytes(self, scale):
        rng = np.random.default_rng(7)
        v = rng.normal(scale=scale, size=(5, 9, 3))
        v[0, 0] = -0.0
        grad = rng.normal(size=(5, 9, 3, 3))
        assert axis_angle_matrices(v).tobytes() == fk_oracle.axis_angle_matrices(v).tobytes()
        assert axis_angle_vjp(v, grad).tobytes() == fk_oracle.axis_angle_vjp(v, grad).tobytes()

    def test_mixed_siblings_match_the_oracle_to_rounding(self):
        # a joint with both a leaf and an inner child gets its leaf's shares
        # first, out of index order, so only rounding may differ
        chain = KinematicChain(
            parents=(-1, 0, 1, 1, 3, 0), offsets=np.arange(18.0).reshape(6, 3) - 8.0,
            param_offsets=tuple(range(0, 18, 3)), root_position=np.ones(3),
            joint_names=tuple("abcdef"))
        rng = np.random.default_rng(8)
        angles = rng.normal(size=(4, 6, 3))
        grad = rng.normal(size=(4, 6, 3))
        pos, rot, local = forward_kinematics_pass(angles, chain)
        want_pos, want_rot, want_local = fk_oracle.forward_kinematics_pass(angles, chain)
        assert pos.tobytes() == want_pos.tobytes()
        np.testing.assert_allclose(
            forward_kinematics_vjp(grad, angles, rot, local, chain),
            fk_oracle.forward_kinematics_vjp(grad, angles, want_rot, want_local, chain),
            rtol=1e-12, atol=1e-12)

    def test_a_lone_root_is_placed(self):
        chain = KinematicChain(parents=(-1,), offsets=np.zeros((1, 3)), param_offsets=(0,),
                               root_position=np.array([1.0, 2.0, 3.0]), joint_names=("root",))
        angles = np.full((2, 1, 3), 0.3)
        pos, rot, local = forward_kinematics_pass(angles, chain)
        assert np.array_equal(pos, np.tile([1.0, 2.0, 3.0], (2, 1, 1)))
        assert not forward_kinematics_vjp(np.ones((2, 1, 3)), angles, rot, local, chain).any()


class TestPlacement:
    @pytest.mark.parametrize("name", ["full", "body"])
    def test_plan_places_each_joint_once_after_its_parent(self, name):
        chain = CHAINS[name]
        plan = chain.placement
        order = plan.order.tolist()
        assert sorted(order) == list(range(chain.num_joints))
        slot = {joint: i for i, joint in enumerate(order)}
        assert all(slot[p] < slot[j] for j, p in enumerate(chain.parents) if p >= 0)
        assert order[0] == 0
        leaves = order[plan.leaves.start:]
        assert leaves == _leaves(chain)

    @pytest.mark.parametrize("name", ["full", "body"])
    def test_levels_are_the_inner_depths_in_index_order(self, name):
        chain = CHAINS[name]
        plan = chain.placement
        depth = [0] * chain.num_joints
        for j, p in enumerate(chain.parents[1:], start=1):
            depth[j] = depth[p] + 1
        bounds = [(level.start, level.stop) for level in plan.levels]
        assert bounds[0][0] == 1 and bounds[-1][1] == plan.leaves.start
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        order = plan.order.tolist()
        for d, level in enumerate(plan.levels, start=1):
            joints = order[level.start:level.stop]
            assert joints == sorted(joints) and {depth[j] for j in joints} == {d}
        for level in (*plan.levels, plan.leaves):
            joints = order[level.start:level.stop]
            parents = np.arange(chain.num_joints)[level.parents].tolist()
            assert [order[p] for p in parents] == [chain.parents[j] for j in joints]
            ranked = []
            for members, rank_parents in level.ranks:
                rank_parents = np.arange(chain.num_joints)[rank_parents].tolist()
                assert len(set(rank_parents)) == len(rank_parents)
                ranked += [(parents[i], i) for i in np.arange(len(joints))[members].tolist()]
            assert sorted(ranked) == sorted(zip(parents, range(len(joints))))

    def test_body_subchain_and_its_plan_are_built_once_per_chain(self):
        chain = build_sign_chain()
        body = chain.body_subchain(11)
        assert chain.body_subchain(11) is body
        assert body.placement is chain.body_subchain(11).placement
        assert chain.body_subchain(5).num_joints == 5
        assert replace(chain).body_subchain(11) is not body
        assert body.parents == CHAINS["body"].parents
        assert np.array_equal(body.offsets, CHAINS["body"].offsets)

    def test_sign_chain_is_built_once_per_layout_and_read_only(self):
        chain = build_sign_chain()
        assert build_sign_chain() is chain and build_sign_chain(PartLayout()) is chain
        for array in (chain.offsets, chain.root_position, chain.body_subchain(11).offsets):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        offsets = np.ones((2, 3))
        copied = KinematicChain((-1, 0), offsets, (0, 3), np.zeros(3), ("a", "b"))
        offsets[1] = 2.0  # the caller's array is copied, not shared
        assert np.array_equal(copied.offsets, np.ones((2, 3)))

    @pytest.mark.parametrize("name", ["full", "body"])
    def test_no_joint_has_both_a_leaf_and_an_inner_child(self, name):
        # the VJP passes the leaves' shares first; on these chains that keeps
        # every parent's sum in its children's index order
        chain = CHAINS[name]
        leaves = set(_leaves(chain))
        for p in set(chain.parents) - {-1}:
            kinds = {j in leaves for j, q in enumerate(chain.parents) if q == p}
            assert len(kinds) == 1, chain.joint_names[p]


class TestFkLayoutErrors:
    @pytest.mark.parametrize("shape", [(3,), (3, 120), (2, 3, 133), (4, 32)])
    def test_frames_off_the_chain_name_their_shape(self, shape):
        chain = BODY if shape == (4, 32) else FULL
        with pytest.raises(LayoutError, match=re.escape(str(shape))):
            forward_kinematics_sequence(np.zeros(shape), chain)


def fk_per_joint(frames: np.ndarray, chain) -> np.ndarray:
    """Forward kinematics composed one joint at a time, in topological order."""
    T, J = frames.shape[0], chain.num_joints
    pos = np.empty((T, J, 3))
    rot = np.empty((T, J, 3, 3))
    for j in range(J):
        o = chain.param_offsets[j]
        local = axis_angle_matrices(frames[:, o: o + 3])
        p = chain.parents[j]
        if p < 0:
            rot[:, j] = local
            pos[:, j] = chain.root_position
        else:
            rot[:, j] = rot[:, p] @ local
            pos[:, j] = pos[:, p] + (rot[:, p] @ chain.offsets[j])
    return pos


def _matrix_to_axis_angle(R: np.ndarray) -> np.ndarray:
    angle = np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
    if angle < 1e-12:
        return np.zeros(3)
    axis = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    axis /= 2.0 * np.sin(angle)
    return axis * angle


class TestSynthetic:
    def test_same_seed_same_corpus(self):
        cfg = SynthConfig(lexicon_size=20, num_sentences=50)
        a = synthesize_dataset(cfg, seed=7)
        b = synthesize_dataset(cfg, seed=7)
        assert [t for t, _ in a] == [t for t, _ in b]
        for (_, sa), (_, sb) in zip(a, b):
            assert np.array_equal(sa.frames, sb.frames)

    def test_different_seed_differs(self):
        cfg = SynthConfig(lexicon_size=20, num_sentences=10)
        a = synthesize_dataset(cfg, seed=1)
        b = synthesize_dataset(cfg, seed=2)
        assert [t for t, _ in a] != [t for t, _ in b]

    def test_single_word_no_noise_equals_motif(self):
        cfg = SynthConfig(lexicon_size=6, num_sentences=40, sentence_words=(1, 1), noise_std=0.0)
        lexicon = build_lexicon(cfg)
        for text, seq in synthesize_dataset(cfg, seed=3):
            assert np.array_equal(seq.frames, lexicon.motifs[text])

    def test_length_is_sum_of_motif_lengths(self):
        cfg = SynthConfig(lexicon_size=8, num_sentences=30, sentence_words=(3, 3))
        lexicon = build_lexicon(cfg)
        for text, seq in synthesize_dataset(cfg, seed=11):
            words = text.split()
            assert len(words) == 3
            assert seq.num_frames == sum(lexicon.motifs[w].shape[0] for w in words)

    def test_all_words_from_lexicon(self):
        cfg = SynthConfig(lexicon_size=10, num_sentences=25)
        lexicon = build_lexicon(cfg)
        for text, _ in synthesize_dataset(cfg, seed=13):
            assert set(text.split()) <= set(lexicon.words)

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(lexicon_size=0)


class TestMotionIO:
    def test_round_trip(self, tmp_path):
        cfg = SynthConfig(lexicon_size=5, num_sentences=4, noise_std=0.01)
        pairs = synthesize_dataset(cfg, seed=2)
        path = tmp_path / "motions.jsonl"
        save_motions(path, pairs)
        loaded = load_motions(path)
        assert len(loaded) == len(pairs)
        for (t0, s0), (t1, s1) in zip(pairs, loaded):
            assert t0 == t1
            assert s0.language_tag == s1.language_tag
            assert s0.fps == s1.fps
            assert np.array_equal(s0.frames, s1.frames)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "hi", "lang": "ASL"}\n')
        with pytest.raises(InputError):
            load_motions(path)

    def test_record_without_text_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {"frames": np.zeros((2, PartLayout().total_dims)).tolist(), "fps": 25.0,
                  "lang": "ASL"}
        path.write_text(json.dumps({"text": "hi", **record}) + "\n\n" + json.dumps(record) + "\n")
        with pytest.raises(InputError, match=r"bad\.jsonl:3"):
            load_motions(path)

    def _write_second_frames(self, tmp_path, frames: str):
        path = tmp_path / "bad.jsonl"
        good = {"text": "hi", "lang": "ASL", "fps": 25.0,
                "frames": np.zeros((2, PartLayout().total_dims)).tolist()}
        path.write_text(json.dumps(good) + "\n"
                        + '{"text": "hi", "lang": "ASL", "fps": 25.0, "frames": ' + frames + "}\n")
        return path

    def test_frame_width_off_the_layout_names_the_line(self, tmp_path):
        path = self._write_second_frames(tmp_path, "[[0.0]]")
        with pytest.raises(InputError, match=r"bad\.jsonl:2: .*frame width 1"):
            load_motions(path)

    def test_non_finite_frame_names_the_line(self, tmp_path):
        row = ["0.0"] * PartLayout().total_dims
        row[4] = "NaN"
        path = self._write_second_frames(tmp_path, "[[" + ", ".join(row) + "]]")
        with pytest.raises(InputError, match=r"bad\.jsonl:2: .*non-finite"):
            load_motions(path)
