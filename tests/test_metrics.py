import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soke.errors import DegenerateAlignmentError, InputError
import soke.metrics.evaluate as evaluate
import soke.metrics.procrustes as procrustes
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

import procrustes_oracle


def frame_jpe(gen_joints: np.ndarray, ref_joints: np.ndarray) -> float:
    """Mean Euclidean distance over corresponding joints of one frame pair."""
    gen_joints = np.asarray(gen_joints, dtype=np.float64)
    ref_joints = np.asarray(ref_joints, dtype=np.float64)
    if gen_joints.shape != ref_joints.shape:
        raise InputError(f"joint sets differ: {gen_joints.shape} vs {ref_joints.shape}")
    return float(np.linalg.norm(gen_joints - ref_joints, axis=-1).mean())


def frame_pa_jpe(gen_joints: np.ndarray, ref_joints: np.ndarray) -> float:
    """frame_jpe after Procrustes-aligning the generated joints to the reference."""
    aligned = procrustes_align(gen_joints, ref_joints).apply(gen_joints)
    return frame_jpe(aligned, ref_joints)


def aligned_residual(A, B):
    """Mean per-point Euclidean error after Procrustes alignment of A to B."""
    aligned = procrustes_align(A, B).apply(A)
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
                gen_frame = procrustes_align(gen_frame, ref_track[j]).apply(gen_frame)
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
        tf = procrustes_align(A, A)
        aligned = tf.apply(A)
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
        tf = procrustes_align(A, B)
        aligned = tf.apply(A)
        assert np.linalg.norm(aligned - B, axis=1).max() < 1e-8
        assert tf.scale == pytest.approx(2.0)
        assert np.linalg.det(tf.rotation) == pytest.approx(1.0)

    def test_reflection_is_disallowed(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(12, 3))
        B = A.copy()
        B[:, 0] = -B[:, 0]  # mirror; only a reflection matches exactly
        tf = procrustes_align(A, B)
        aligned = tf.apply(A)
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
        tf = procrustes_align(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
        assert type(tf.scale) is float

    def test_broadcast_matches_loop_of_plain_calls(self):
        rng = np.random.default_rng(7)
        # 5 x 4 pairs go to eigh, 12 x 11 to the closed form; a plain call is one pair, on eigh
        for n, m in ((5, 4), (12, 11)):
            A = rng.normal(size=(n, 1, 9, 3))
            B = 1.3 * rng.normal(size=(1, m, 9, 3)) + rng.normal(size=(1, m, 1, 3))
            tf = procrustes_align(A, B)
            aligned = tf.apply(A)
            assert aligned.shape == (n, m, 9, 3)
            assert tf.scale.shape == (n, m)
            for i, j in itertools.product(range(n), range(m)):
                ref_tf = procrustes_align(A[i, 0], B[0, j])
                ref_aligned = ref_tf.apply(A[i, 0])
                assert np.allclose(aligned[i, j], ref_aligned, rtol=1e-12, atol=1e-12)
                assert np.allclose(tf.rotation[i, j], ref_tf.rotation, rtol=1e-12, atol=1e-12)
                assert tf.scale[i, j] == pytest.approx(ref_tf.scale, rel=1e-12)
                assert np.allclose(tf.translation[i, j], ref_tf.translation, rtol=1e-12, atol=1e-12)
                assert np.allclose(tf.apply(A)[i, j], ref_tf.apply(A[i, 0]), rtol=1e-12, atol=1e-12)
        assert m * n >= procrustes.CLOSED_FORM_MIN_PAIRS > 5 * 4

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


JOINTS = 41
PAIR_KINDS = ("random", "mirror", "half_turn", "planar", "identical", "rest_pose",
              "near_collinear_1e-3", "near_collinear_1e-6")
# one batch on each side of the solver crossover
BATCH_SIZES = (8, procrustes.CLOSED_FORM_MIN_PAIRS + 28)


def similar_copy(rng, A):
    """A under a random similarity transform."""
    return rng.uniform(0.5, 2.0) * A @ random_rotation(rng).T + rng.normal(size=3)


def point_set_pair(kind: str, rng, chain) -> tuple[np.ndarray, np.ndarray]:
    """One (source, target) pair of JOINTS points of the named kind."""
    if kind == "random":
        return rng.normal(size=(JOINTS, 3)), rng.normal(size=(JOINTS, 3))
    if kind == "mirror":  # det cov < 0: only a reflection would fit
        A = rng.normal(size=(JOINTS, 3))
        return A, similar_copy(rng, A * [-1.0, 1.0, 1.0]) + 0.01 * rng.normal(size=(JOINTS, 3))
    if kind == "half_turn":  # the rotation's quaternion has a zero real part
        A = rng.normal(size=(JOINTS, 3))
        return A, A * [-1.0, -1.0, 1.0]
    if kind == "planar":
        A = rng.normal(size=(JOINTS, 3)) * [1.0, 1.0, 0.0]
        B = similar_copy(rng, A + 0.1 * rng.normal(size=(JOINTS, 3)) * [1.0, 1.0, 0.0])
        return A @ random_rotation(rng).T, B
    if kind == "identical":
        A = rng.normal(size=(JOINTS, 3))
        return A, A.copy()
    if kind == "rest_pose":
        rest = forward_kinematics_sequence(np.zeros((1, 133)), chain)[0]
        return rest, forward_kinematics_sequence(rng.normal(scale=0.4, size=(1, 133)), chain)[0]
    ratio = float(kind.rsplit("_", 1)[1])  # near_collinear_<σ2/σ1>, roughly
    A = rng.normal(size=(JOINTS, 3)) * [1.0, np.sqrt(ratio), np.sqrt(ratio) / 2]
    A = A @ random_rotation(rng).T
    return A, similar_copy(rng, A) + 1e-3 * np.sqrt(ratio) * rng.normal(size=(JOINTS, 3))


def point_set_batch(kinds, size: int, rng, chain) -> tuple[np.ndarray, np.ndarray]:
    pairs = [point_set_pair(kinds[i % len(kinds)], rng, chain) for i in range(size)]
    return np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs])


class TestProcrustesAgainstSvdOracle:
    """The eigen solvers against the SVD solver in tests/procrustes_oracle.py."""

    @pytest.mark.parametrize("size", BATCH_SIZES)
    @pytest.mark.parametrize("kind", [*PAIR_KINDS, "mixed"])
    def test_matches_the_svd_oracle(self, chain, kind, size):
        rng = np.random.default_rng(size)
        A, B = point_set_batch(PAIR_KINDS if kind == "mixed" else (kind,), size, rng, chain)
        tf = procrustes_align(A, B)
        oracle = procrustes_oracle.procrustes_align(A, B)
        aligned, expected = tf.apply(A), oracle.apply(A)
        assert np.abs(aligned - expected).max() <= 1e-9 * np.abs(B).max()
        assert np.allclose(tf.scale, oracle.scale, rtol=1e-9, atol=0.0)
        assert np.allclose(np.linalg.det(tf.rotation), 1.0, rtol=0.0, atol=1e-12)
        # near-collinear rotations are ill-conditioned, so two correct solvers differ there
        cov = np.swapaxes(B - B.mean(axis=1, keepdims=True), 1, 2) @ (A - A.mean(axis=1, keepdims=True))
        sigma = np.linalg.svd(cov, compute_uv=False)
        determined = sigma[:, 1] >= 1e-2 * sigma[:, 0]
        assert determined.any() or kind.startswith("near_collinear")
        assert np.allclose(tf.rotation[determined], oracle.rotation[determined], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("size", [1, *BATCH_SIZES])
    @pytest.mark.parametrize("degenerate", ["collinear", "coincident_source", "coincident_target",
                                            "coincident_target_inexact"])
    def test_degenerate_pair_raises_like_the_oracle(self, degenerate, size):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(size, JOINTS, 3))
        B = rng.normal(size=(size, JOINTS, 3))
        if degenerate == "collinear":
            A[size // 2] = np.outer(rng.normal(size=JOINTS), rng.normal(size=3)) + rng.normal(size=3)
        elif degenerate == "coincident_source":
            A[size // 2] = rng.normal(size=3)
        elif degenerate == "coincident_target":  # exactly representable: centres to exact zeros
            B[size // 2] = [1.5, -2.0, 0.25]
        else:  # centring leaves equal rounding residues (~1e-16), so the covariance is
            # ~1e-32 with σ2/σ1 of order one and passes the collinearity rule
            B[size // 2] = rng.normal(size=3)
            assert np.abs(B[size // 2] - B[size // 2].mean(axis=0)).max() > 0.0
        messages = []
        for solve in (procrustes_align, procrustes_oracle.procrustes_align):
            with pytest.raises(DegenerateAlignmentError) as raised:
                solve(A, B)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        if degenerate.startswith("coincident_target"):
            assert messages[0] == "target points are coincident"

    def test_closed_form_leaves_only_screened_pairs_to_eigh(self, chain, monkeypatch):
        rng = np.random.default_rng(12)
        A, B = point_set_batch(("random", "rest_pose", "identical"), 40, rng, chain)
        B[1] = [1.5, -2.0, 0.25]  # a zero covariance: this target centres to exact zeros
        # σ2/σ1 = 3e-4 fails only the minor screen; σ2 ≈ σ3 with det cov < 0 puts λ
        # 2e-4 from the next eigenvalue, which fails only the gap screen; σ2/σ1 = 1e-7 fails both
        A[2], B[2] = spectrum_pair(rng, (1.0, 3e-4, 1e-4))
        A[3], B[3] = spectrum_pair(rng, (1.0, 0.5, 0.4999), mirror=True)
        A[4], B[4] = spectrum_pair(rng, (1.0, 1e-7, 0.0))
        lam, quat, left = closed_form(A, B)
        assert left.tolist() == [1, 2, 3, 4]
        oracle = procrustes_oracle.procrustes_align(A[5:], B[5:])
        var_a = ((A[5:] - A[5:].mean(axis=1, keepdims=True)) ** 2).sum(axis=(1, 2)) / JOINTS
        assert np.allclose(lam[5:] / var_a, oracle.scale, rtol=1e-12, atol=0.0)
        assert np.allclose(np.linalg.norm(quat[5:], axis=1), 1.0, rtol=0.0, atol=1e-14)
        monkeypatch.setattr(procrustes, "_NEWTON_STEPS", 1)
        assert set(range(0, 40, 3)) <= set(closed_form(A, B)[2].tolist())


def spectrum_pair(rng, sigma, mirror=False) -> tuple[np.ndarray, np.ndarray]:
    """A source and a similar copy of it, or of its mirror image, whose
    covariance has singular values proportional to sigma."""
    centred = rng.normal(size=(JOINTS, 3))
    basis, _ = np.linalg.qr(centred - centred.mean(axis=0))
    A = basis * np.sqrt(sigma) @ random_rotation(rng).T
    return A, similar_copy(rng, A * [-1.0, 1.0, 1.0] if mirror else A)


def closed_form(A, B):
    """procrustes._closed_form on the (K, N, 3) pairs A, B."""
    A0 = A - A.mean(axis=1, keepdims=True)
    B0 = B - B.mean(axis=1, keepdims=True)
    flat = (np.swapaxes(B0, 1, 2) @ A0 / A.shape[1]).reshape(-1, 9)
    bound = np.sqrt((A0 * A0).sum(axis=(1, 2)) * (B0 * B0).sum(axis=(1, 2))) / A.shape[1]
    return procrustes._closed_form(flat, (flat @ procrustes._HORN).reshape(-1, 4, 4), bound)


def norm_form(a, b):
    """The per-point residual as np.linalg.norm over an (..., N, 3) difference."""
    return np.linalg.norm(np.asarray(a, dtype=np.float64) - b, axis=-1)


def point_array_form(a, b):
    """The raw DTW-JPE residual as evaluate built it on (..., N, 3) arrays."""
    d = np.asarray(a, dtype=np.float64) - b
    d *= d
    return np.sqrt(d[..., 0] + d[..., 1] + d[..., 2])


class TestResidualPlanes:
    """SimilarityTransform.distances and the raw residual against the forms
    that build (..., N, 3) arrays, bit for bit."""

    def test_single_pair(self, chain):
        A, B = point_set_pair("rest_pose", np.random.default_rng(20), chain)
        tf = procrustes_align(A, B)
        assert tf.distances(A, B).shape == (JOINTS,)
        assert np.array_equal(tf.distances(A, B), norm_form(tf.apply(A), B))
        targets = np.stack([B, A, 2.0 * B])  # more targets than transforms
        assert np.array_equal(tf.distances(A, targets), norm_form(tf.apply(A), targets))

    @pytest.mark.parametrize("size", [8, procrustes.CLOSED_FORM_MIN_PAIRS - 1,
                                      procrustes.CLOSED_FORM_MIN_PAIRS])
    def test_paired_batches_below_and_at_the_crossover(self, chain, size):
        A, B = point_set_batch(PAIR_KINDS, size, np.random.default_rng(size), chain)
        tf = procrustes_align(A, B)
        assert np.array_equal(tf.distances(A, B), norm_form(tf.apply(A), B))

    @pytest.mark.parametrize("n, m", [(9, 11), (10, 10), (13, 12)])
    def test_outer_product_of_two_tracks(self, chain, n, m):
        rng = np.random.default_rng(n * m)
        frames = rng.normal(scale=0.4, size=(n + m, 133))
        joints = forward_kinematics_sequence(frames, chain)
        gen, ref = joints[:n, None], joints[None, n:]
        tf = procrustes_align(gen, ref)
        err = tf.distances(gen, ref)
        assert err.shape == (n, m, JOINTS)
        assert np.array_equal(err, norm_form(tf.apply(gen), ref))
        assert np.array_equal(err, point_array_form(tf.apply(gen), ref))
        assert np.array_equal(evaluate._distances(gen, ref), point_array_form(gen, ref))
        assert np.array_equal(evaluate._distances(gen, ref), norm_form(gen, ref))

    @pytest.mark.parametrize("n, m", [(9, 11), (13, 12)])
    def test_grid_products_are_the_per_pair_arithmetic(self, chain, n, m):
        # one matmul per generated frame serves all m reference frames; each
        # pair's own transform, applied alone, gives the same errors
        rng = np.random.default_rng(n + m)
        joints = forward_kinematics_sequence(rng.normal(scale=0.4, size=(n + m, 133)), chain)
        gen, ref = joints[:n, None], joints[None, n:]
        tf = procrustes_align(gen, ref)
        assert tf.apply(gen).shape == (n, m, JOINTS, 3)
        err = tf.distances(gen, ref)
        for i, j in itertools.product(range(n), range(m)):
            pair = procrustes.SimilarityTransform(tf.rotation[i, j], tf.scale[i, j],
                                                  tf.translation[i, j])
            np.testing.assert_allclose(err[i, j], pair.distances(gen[i, 0], ref[0, j]),
                                       rtol=1e-13, atol=0.0)

    def test_exactly_zero_residuals(self, chain):
        rng = np.random.default_rng(21)
        A, B = point_set_batch(("random", "rest_pose"), 6, rng, chain)
        tf = procrustes_align(A, B)
        assert not tf.distances(A, tf.apply(A)).any()
        identity = procrustes.SimilarityTransform(np.broadcast_to(np.eye(3), (6, 3, 3)),
                                                  np.ones(6), np.zeros((6, 3)))
        assert not identity.distances(A, A).any()
        assert not evaluate._distances(A, A).any()
        assert np.array_equal(tf.distances(A, B), norm_form(tf.apply(A), B))


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


def abs_costs(a, b):
    """The (len(a), len(b)) matrix of abs_cost."""
    return np.abs(np.subtract.outer(np.array(a, float), np.array(b, float)))


class TestDtw:
    def test_identical_sequences_cost_zero(self):
        x = [0.0, 1.0, 2.0, 1.0]
        result = dtw(x, x, abs_costs(x, x))
        assert result.total == 0.0
        assert result.path == tuple((i, i) for i in range(4))

    def test_worked_example(self):
        # A=[0,1,2], B=[0,2]: optimal total 1 over path length 3
        result = dtw([0.0, 1.0, 2.0], [0.0, 2.0], abs_costs([0.0, 1.0, 2.0], [0.0, 2.0]))
        assert result.total == pytest.approx(1.0)
        assert len(result.path) == 3
        assert result.normalized == pytest.approx(1.0 / 3.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(InputError):
            dtw([], [1.0], abs_costs([], [1.0]))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 7, size=2)
        a = rng.normal(size=n)
        b = rng.normal(size=m)
        assert dtw(a, b, abs_costs(a, b)).total == pytest.approx(dtw_brute_force(a, b, abs_cost))

    @given(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=6),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_oracle_property(self, a, b):
        assert dtw(a, b, abs_costs(a, b)).total == pytest.approx(dtw_brute_force(a, b, abs_cost))

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=5)
        b = rng.normal(size=7)
        assert dtw(a, b, abs_costs(a, b)).total == pytest.approx(dtw(b, a, abs_costs(b, a)).total)

    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=7),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=7),
    )
    @settings(max_examples=150, deadline=None)
    def test_array_cost_matches_callable_and_per_cell_oracle(self, a, b):
        # small integer costs tie often, so this also pins the tie-breaking order
        result = dtw(a, b, abs_costs(a, b))
        assert (result.total, result.path) == dtw_per_cell(a, b, abs_cost)

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
        assert summary.pa_jpe_hand < 1e-9  # solver noise only

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

    def test_reconstruction_pa_mpjpe_matches_a_per_frame_oracle_loop(self, chain, toy_pairs):
        _, ref = toy_pairs[2]
        noise = np.random.default_rng(13).normal(0.0, 0.1, size=ref.frames.shape).astype(np.float32)
        gen = MotionSequence(ref.frames + noise, fps=ref.fps, layout=ref.layout)
        errors = []
        for g, r in zip(forward_kinematics_sequence(gen.frames, chain),
                        forward_kinematics_sequence(ref.frames, chain)):
            aligned = procrustes_oracle.procrustes_align(g, r).apply(g)
            errors.append(np.linalg.norm(aligned - r, axis=-1).mean())
        assert np.mean(errors) > 1.0
        assert reconstruction_pa_mpjpe(gen, ref, chain) == pytest.approx(np.mean(errors), rel=1e-12)

    def test_reconstruction_requires_equal_lengths(self, chain, toy_pairs):
        _, seq = toy_pairs[2]
        shorter = MotionSequence(seq.frames[:-1], fps=seq.fps, layout=seq.layout)
        with pytest.raises(InputError):
            reconstruction_pa_mpjpe(shorter, seq, chain)
