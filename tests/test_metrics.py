import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soke.errors import DegenerateAlignmentError, InputError
import soke.metrics.evaluate as evaluate
from soke.metrics import (
    dtw,
    dtw_joint_metrics,
    evaluate_split,
    procrustes_align,
    reconstruction_pa_mpjpe,
)
from soke.motion import (
    MotionSequence,
    SynthConfig,
    build_sign_chain,
    body_joint_indices,
    forward_kinematics_sequence,
    hand_joint_indices,
    synthesize_dataset,
)


def frame_jpe(gen_joints: np.ndarray, ref_joints: np.ndarray) -> float:
    """Mean Euclidean distance over corresponding joints of one frame pair."""
    gen_joints = np.asarray(gen_joints, dtype=np.float64)
    ref_joints = np.asarray(ref_joints, dtype=np.float64)
    if gen_joints.shape != ref_joints.shape:
        raise InputError(f"joint sets differ: {gen_joints.shape} vs {ref_joints.shape}")
    return float(np.linalg.norm(gen_joints - ref_joints, axis=-1).mean())


def frame_pa_jpe(gen_joints: np.ndarray, ref_joints: np.ndarray) -> float:
    """frame_jpe after Procrustes-aligning the generated joints to the reference."""
    aligned, _ = procrustes_align(gen_joints, ref_joints)
    return frame_jpe(aligned, ref_joints)


def aligned_residual(A, B):
    """Mean per-point Euclidean error after Procrustes alignment of A to B."""
    aligned, _ = procrustes_align(A, B)
    return float(np.linalg.norm(aligned - np.asarray(B, dtype=np.float64), axis=1).mean())


def dtw_brute_force(gen, ref, cost):
    """Exhaustive minimum over all monotone alignment paths; exponential, keep
    lengths small."""
    n, m = len(gen), len(ref)
    best = [np.inf]

    def walk(i, j, acc):
        acc += cost(gen[i], ref[j])
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return float(best[0])


def dtw_per_cell(gen, ref, cost):
    """DTW filled one cell at a time with a per-cell argmin over the
    (diagonal, vertical, horizontal) predecessors. Returns (total, path)."""
    n, m = len(gen), len(ref)
    local = np.array([[cost(g, r) for r in ref] for g in gen], dtype=np.float64)
    acc = np.full((n, m), np.inf)
    step = np.full((n, m), -1, dtype=np.int8)
    acc[0, 0] = local[0, 0]
    for i in range(1, n):
        acc[i, 0] = acc[i - 1, 0] + local[i, 0]
        step[i, 0] = 1
    for j in range(1, m):
        acc[0, j] = acc[0, j - 1] + local[0, j]
        step[0, j] = 2
    for i in range(1, n):
        for j in range(1, m):
            candidates = (acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
            best = int(np.argmin(candidates))
            acc[i, j] = candidates[best] + local[i, j]
            step[i, j] = best
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        s = step[i, j]
        i, j = (i - 1, j - 1) if s == 0 else (i - 1, j) if s == 1 else (i, j - 1)
        path.append((i, j))
    return float(acc[n - 1, m - 1]), tuple(reversed(path))


def dtw_joint_metrics_per_cell(gen_track, ref_track, body_idx, hand_idx):
    """DTW joint metrics with one 2D Procrustes solve per DTW cell and again
    along the chosen path. Returns ((jpe_body, jpe_hand, pa_body, pa_hand),
    raw path, PA path)."""

    def subset_means(path, aligned):
        body_sum = hand_sum = 0.0
        for i, j in path:
            gen_frame = gen_track[i]
            if aligned:
                gen_frame, _ = procrustes_align(gen_frame, ref_track[j])
            err = np.linalg.norm(gen_frame - ref_track[j], axis=-1)
            body_sum += err[body_idx].mean()
            hand_sum += err[hand_idx].mean()
        return body_sum / len(path), hand_sum / len(path)

    _, raw_path = dtw_per_cell(gen_track, ref_track, frame_jpe)
    _, pa_path = dtw_per_cell(gen_track, ref_track, frame_pa_jpe)
    return subset_means(raw_path, False) + subset_means(pa_path, True), raw_path, pa_path


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestProcrustes:
    def test_self_alignment_is_identity(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(8, 3))
        aligned, tf = procrustes_align(A, A)
        assert np.allclose(aligned, A, atol=1e-10)
        assert np.allclose(tf.rotation, np.eye(3), atol=1e-10)
        assert tf.scale == pytest.approx(1.0)
        assert np.allclose(tf.translation, 0.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_similarity_transform_recovery(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(10, 3))
        R = random_rotation(rng)
        t = rng.normal(size=3)
        B = 2.0 * A @ R.T + t
        aligned, tf = procrustes_align(A, B)
        assert np.linalg.norm(aligned - B, axis=1).max() < 1e-8
        assert tf.scale == pytest.approx(2.0)
        assert np.linalg.det(tf.rotation) == pytest.approx(1.0)

    def test_reflection_is_disallowed(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(12, 3))
        B = A.copy()
        B[:, 0] = -B[:, 0]  # mirror; only a reflection matches exactly
        aligned, tf = procrustes_align(A, B)
        assert np.linalg.det(tf.rotation) == pytest.approx(1.0)
        assert np.linalg.norm(aligned - B, axis=1).mean() > 1e-3

    def test_residual_invariant_under_source_similarity(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(9, 3))
        B = rng.normal(size=(9, 3))
        base = aligned_residual(A, B)
        R = random_rotation(rng)
        A2 = 0.7 * A @ R.T + rng.normal(size=3)
        assert aligned_residual(A2, B) == pytest.approx(base, abs=1e-8)

    def test_collinear_points_rejected(self):
        A = np.outer(np.arange(5.0), np.array([1.0, 2.0, 3.0]))
        B = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(DegenerateAlignmentError):
            procrustes_align(A, B)

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateAlignmentError):
            procrustes_align(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("shapes", [((4, 3), (5, 3)), ((2, 4, 3), (3, 4, 3)), ((4, 2), (4, 2))])
    def test_mismatched_shapes_rejected(self, shapes):
        with pytest.raises(DegenerateAlignmentError):
            procrustes_align(np.ones(shapes[0]), np.ones(shapes[1]))

    def test_plain_call_returns_float_scale(self):
        rng = np.random.default_rng(6)
        _, tf = procrustes_align(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
        assert type(tf.scale) is float

    def test_broadcast_matches_loop_of_plain_calls(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 1, 9, 3))
        B = 1.3 * rng.normal(size=(1, 4, 9, 3)) + rng.normal(size=(1, 4, 1, 3))
        aligned, tf = procrustes_align(A, B)
        assert aligned.shape == (5, 4, 9, 3)
        assert tf.scale.shape == (5, 4)
        for i, j in itertools.product(range(5), range(4)):
            ref_aligned, ref_tf = procrustes_align(A[i, 0], B[0, j])
            assert np.allclose(aligned[i, j], ref_aligned, rtol=1e-12, atol=1e-12)
            assert np.allclose(tf.rotation[i, j], ref_tf.rotation, rtol=1e-12, atol=1e-12)
            assert tf.scale[i, j] == pytest.approx(ref_tf.scale, rel=1e-12)
            assert np.allclose(tf.translation[i, j], ref_tf.translation, rtol=1e-12, atol=1e-12)
            assert np.allclose(tf.apply(A)[i, j], ref_tf.apply(A[i, 0]), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("degenerate", ["collinear", "coincident"])
    def test_one_degenerate_pair_in_batch_rejected(self, degenerate):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(6, 7, 3))
        B = rng.normal(size=(6, 7, 3))
        if degenerate == "collinear":
            A[3] = np.outer(np.arange(7.0), rng.normal(size=3))
        else:
            A[3] = rng.normal(size=3)
        procrustes_align(np.delete(A, 3, axis=0), np.delete(B, 3, axis=0))
        with pytest.raises(DegenerateAlignmentError):
            procrustes_align(A, B)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(3, 5, 3))
        B = rng.normal(size=(3, 5, 3))
        B[1, 2, 0] = bad
        with pytest.raises(InputError, match="target"):
            procrustes_align(A, B)
        with pytest.raises(InputError, match="source"):
            procrustes_align(B, A)


class TestFrameJpe:
    def test_identical_frames(self):
        J = np.random.default_rng(0).normal(size=(5, 3))
        assert frame_jpe(J, J) == 0.0

    def test_pythagorean_offset(self):
        a = np.zeros((1, 3))
        b = np.array([[3.0, 4.0, 0.0]])
        assert frame_jpe(a, b) == pytest.approx(5.0)

    def test_pa_variant_removes_similarity(self):
        rng = np.random.default_rng(1)
        J = rng.normal(size=(8, 3))
        moved = 1.5 * J @ random_rotation(rng).T + rng.normal(size=3)
        assert frame_pa_jpe(moved, J) < 1e-8

    def test_subset_mismatch(self):
        with pytest.raises(InputError):
            frame_jpe(np.zeros((4, 3)), np.zeros((5, 3)))


def abs_cost(a, b):
    return abs(float(a) - float(b))


class TestDtw:
    def test_identical_sequences_cost_zero(self):
        x = [0.0, 1.0, 2.0, 1.0]
        result = dtw(x, x, abs_cost)
        assert result.total == 0.0
        assert result.path == tuple((i, i) for i in range(4))

    def test_worked_example(self):
        # A=[0,1,2], B=[0,2]: optimal total 1 over path length 3
        result = dtw([0.0, 1.0, 2.0], [0.0, 2.0], abs_cost)
        assert result.total == pytest.approx(1.0)
        assert len(result.path) == 3
        assert result.normalized == pytest.approx(1.0 / 3.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(InputError):
            dtw([], [1.0], abs_cost)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 7, size=2)
        a = rng.normal(size=n)
        b = rng.normal(size=m)
        assert dtw(a, b, abs_cost).total == pytest.approx(dtw_brute_force(a, b, abs_cost))

    @given(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=6),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_oracle_property(self, a, b):
        assert dtw(a, b, abs_cost).total == pytest.approx(dtw_brute_force(a, b, abs_cost))

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=5)
        b = rng.normal(size=7)
        assert dtw(a, b, abs_cost).total == pytest.approx(dtw(b, a, abs_cost).total)

    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=7),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=7),
    )
    @settings(max_examples=150, deadline=None)
    def test_array_cost_matches_callable_and_per_cell_oracle(self, a, b):
        # small integer costs tie often, so this also pins the tie-breaking order
        matrix = np.abs(np.subtract.outer(np.array(a, float), np.array(b, float)))
        by_array = dtw(a, b, matrix)
        by_callable = dtw(a, b, abs_cost)
        assert by_array == by_callable
        assert (by_array.total, by_array.path) == dtw_per_cell(a, b, abs_cost)

    def test_array_cost_shape_checked(self):
        with pytest.raises(InputError):
            dtw([0.0, 1.0], [0.0, 1.0, 2.0], np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cost_rejected(self, bad):
        matrix = np.zeros((2, 3))
        matrix[1, 1] = bad
        with pytest.raises(InputError):
            dtw([0.0, 1.0], [0.0, 1.0, 2.0], matrix)


@pytest.fixture(scope="module")
def chain():
    return build_sign_chain()


@pytest.fixture(scope="module")
def toy_pairs():
    cfg = SynthConfig(lexicon_size=6, num_sentences=4, sentence_words=(1, 2))
    return synthesize_dataset(cfg, seed=5)


class TestDtwJointMetrics:
    def test_translated_track_pa_zero_raw_positive(self, chain, toy_pairs):
        _, seq = toy_pairs[0]
        track = forward_kinematics_sequence(seq.frames, chain)
        shifted = track + np.array([500.0, 0.0, 0.0])
        body_idx, hand_idx = body_joint_indices(chain), hand_joint_indices(chain)
        summary = dtw_joint_metrics(shifted, track, body_idx, hand_idx)
        assert summary.pa_jpe_body < 1e-8
        assert summary.pa_jpe_hand < 1e-8
        # diagonal alignment: raw error equals the constant per-frame offset
        assert summary.jpe_body == pytest.approx(500.0, rel=1e-9)
        assert summary.jpe_hand == pytest.approx(500.0, rel=1e-9)

    def test_identical_tracks_are_zero(self, chain, toy_pairs):
        _, seq = toy_pairs[1]
        track = forward_kinematics_sequence(seq.frames, chain)
        summary = dtw_joint_metrics(track, track, body_joint_indices(chain), hand_joint_indices(chain))
        assert summary.jpe_body == 0.0
        assert summary.pa_jpe_hand < 1e-9  # SVD noise only

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_cell_oracle(self, chain, toy_pairs, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        _, gen_seq = toy_pairs[seed % len(toy_pairs)]
        _, ref_seq = toy_pairs[(seed + 1) % len(toy_pairs)]
        noise = rng.normal(0.0, 0.1, size=gen_seq.frames.shape)
        gen_track = forward_kinematics_sequence(gen_seq.frames[seed % 2::2] + noise[seed % 2::2], chain)
        ref_track = forward_kinematics_sequence(ref_seq.frames, chain)
        assert len(gen_track) != len(ref_track)
        body_idx, hand_idx = body_joint_indices(chain), hand_joint_indices(chain)

        paths = []
        recording = evaluate.dtw

        def record(gen, ref, cost):
            result = recording(gen, ref, cost)
            paths.append(result.path)
            return result

        monkeypatch.setattr(evaluate, "dtw", record)
        summary = dtw_joint_metrics(gen_track, ref_track, body_idx, hand_idx)
        expected, raw_path, pa_path = dtw_joint_metrics_per_cell(gen_track, ref_track, body_idx, hand_idx)
        assert paths == [raw_path, pa_path]
        got = (summary.jpe_body, summary.jpe_hand, summary.pa_jpe_body, summary.pa_jpe_hand)
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_track_named(self, chain, toy_pairs, bad):
        _, seq = toy_pairs[0]
        track = forward_kinematics_sequence(seq.frames, chain)
        broken = track.copy()
        broken[2, 5, 1] = bad
        body_idx, hand_idx = body_joint_indices(chain), hand_joint_indices(chain)
        with pytest.raises(InputError, match="gen_track"):
            dtw_joint_metrics(broken, track, body_idx, hand_idx)
        with pytest.raises(InputError, match="ref_track"):
            dtw_joint_metrics(track, broken, body_idx, hand_idx)

    def test_joint_count_mismatch_rejected(self, chain, toy_pairs):
        _, seq = toy_pairs[0]
        track = forward_kinematics_sequence(seq.frames, chain)
        with pytest.raises(InputError):
            dtw_joint_metrics(track[:, :-1], track, body_joint_indices(chain), hand_joint_indices(chain))


class TestEvaluateSplit:
    def test_oracle_pipeline_scores_zero(self, chain, toy_pairs):
        lookup = {text: seq for text, seq in toy_pairs}

        def oracle(text, lang):
            return lookup[text], 3 * len(lookup[text].frames)

        report = evaluate_split(oracle, toy_pairs, chain, split="train")
        agg = report.aggregates
        assert agg["dtw_jpe_body"] == 0.0
        assert agg["dtw_pa_jpe_hand"] < 1e-9  # SVD noise only
        assert agg["num_samples"] == len(toy_pairs)

    def test_aggregates_match_sample_recomputation(self, chain, toy_pairs):
        rng = np.random.default_rng(0)
        lookup = {text: seq for text, seq in toy_pairs}

        def noisy(text, lang):
            ref = lookup[text]
            frames = ref.frames + rng.normal(0, 0.05, size=ref.frames.shape).astype(np.float32)
            return MotionSequence(frames, fps=ref.fps, layout=ref.layout,
                                  language_tag=ref.language_tag), 7

        report = evaluate_split(noisy, toy_pairs, chain)
        recomputed = float(np.mean([s.dtw_pa_jpe_body for s in report.samples]))
        assert report.aggregates["dtw_pa_jpe_body"] == pytest.approx(recomputed)
        assert report.aggregates["mean_step_count"] == pytest.approx(7.0)

    def test_reconstruction_pa_mpjpe_zero_for_identity(self, chain, toy_pairs):
        _, seq = toy_pairs[2]
        assert reconstruction_pa_mpjpe(seq, seq, chain) < 1e-9

    def test_reconstruction_requires_equal_lengths(self, chain, toy_pairs):
        _, seq = toy_pairs[2]
        shorter = MotionSequence(seq.frames[:-1], fps=seq.fps, layout=seq.layout)
        with pytest.raises(InputError):
            reconstruction_pa_mpjpe(shorter, seq, chain)
