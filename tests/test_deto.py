import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soke.deto.tokenizer as tokenizer_module
from soke.errors import ConfigError, InputError, SokeError
from soke.deto import (
    DOWNSAMPLE,
    Codebook,
    DecoupledTokenizer,
    DetoConfig,
    DetoTrainConfig,
    PartTokenizer,
    TokenSeq,
    load_deto,
    nearest_code_ids,
    quantize,
    save_deto,
    train_tokenizer,
    vq_loss_terms,
)
from soke.grad import Tensor, default_dtype, load_checkpoint, save_checkpoint
from soke.motion import (
    MotionSequence,
    Part,
    PartLayout,
    PartMotion,
    SynthConfig,
    split_parts,
    synthesize_dataset,
)

import composed_ops
from composed_ops import mean, power, sub
from gradcheck import check_gradients

TINY = DetoConfig(code_dim=6, codebook_sizes=(5, 7, 7), hidden_channels=4)


def brute_force_nearest(latent_row: np.ndarray, codes: np.ndarray) -> int:
    best_idx, best_d2 = 0, np.inf
    for j in range(codes.shape[0]):
        diff = latent_row.astype(np.float64) - codes[j].astype(np.float64)
        d2 = (diff * diff).sum()
        if d2 < best_d2:
            best_idx, best_d2 = j, d2
    return best_idx


def round_trip(deto: DecoupledTokenizer, seq: MotionSequence) -> MotionSequence:
    tokens = deto.encode_sequence(seq)
    return deto.decode_tokens(
        tokens, num_frames=seq.num_frames, fps=seq.fps, language_tag=seq.language_tag
    )


def frozen_vq_loss_fn(tok: PartTokenizer, motion: PartMotion):
    """Total VQ loss with every stop-gradient operand frozen at the current
    operating point.

    The quantizer becomes latents + const(codes0 - latents0) and the detached
    sides of the embedding/commitment terms become constants, which is
    exactly the surrogate whose true gradient the straight-through estimator
    computes. Its finite differences are therefore comparable to backward()
    on the live loss at this point.
    """
    latents0 = tok.encode_latents(motion.frames).data.copy()
    ids0 = nearest_code_ids(latents0, tok.codebook.codes.data)
    codes0 = tok.codebook.codes.data[ids0].copy()
    delta0 = codes0 - latents0
    T = motion.frames.shape[0]
    cfg = tok.config

    def loss_fn() -> Tensor:
        latents = tok.encode_latents(motion.frames)
        quantized = latents + Tensor(delta0)
        recon = tok.decode_latents(quantized)[:T]
        rec = mean(power(sub(recon, Tensor(motion.frames)), 2))
        codes = tok.codebook.codes[ids0]
        emb = mean(power(sub(codes, Tensor(latents0)), 2)) * cfg.w_emb
        com = mean(power(sub(latents, Tensor(codes0)), 2)) * cfg.w_com
        return rec + emb + com

    return loss_fn


class TestQuantize:
    def test_codebook_row_maps_to_itself(self):
        rng = np.random.default_rng(0)
        codes = rng.normal(size=(8, 4)).astype(np.float32)
        book = Codebook(Part.BODY, codes)
        result = quantize(codes[5:6], book)
        assert result.ids == (5,)

    def test_two_code_worked_example(self):
        book = Codebook(Part.BODY, np.array([[0.0, 0.0], [1.0, 0.0]]))
        result = quantize(np.array([[0.9, 0.1]]), book)
        assert result.ids == (1,)  # distance 0.141 beats 0.906

    def test_tie_breaks_to_lowest_index(self):
        book = Codebook(Part.BODY, np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]))
        assert quantize(np.array([[0.0, 0.0]]), book).ids == (0,)

    @pytest.mark.parametrize("n_codes", [96, 192])
    def test_matches_brute_force_on_random_pairs(self, n_codes):
        rng = np.random.default_rng(17)
        codes = rng.normal(size=(n_codes, 16)).astype(np.float32)
        latents = rng.normal(size=(200, 16)).astype(np.float32)
        fast = nearest_code_ids(latents, codes)
        slow = [brute_force_nearest(row, codes) for row in latents]
        assert fast.tolist() == slow

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.normal(size=(rng.integers(1, 20), rng.integers(1, 6))).astype(np.float32)
        latents = rng.normal(size=(rng.integers(1, 8), codes.shape[1])).astype(np.float32)
        fast = nearest_code_ids(latents, codes)
        assert fast.tolist() == [brute_force_nearest(row, codes) for row in latents]

    def test_idempotent_on_code_rows(self):
        rng = np.random.default_rng(23)
        codes = rng.normal(size=(10, 3)).astype(np.float32)
        book = Codebook(Part.LEFT_HAND, codes)
        assert quantize(codes, book).ids == tuple(range(10))

    def test_empty_latent_rejected(self):
        book = Codebook(Part.BODY, np.zeros((2, 3)))
        with pytest.raises(InputError):
            quantize(np.zeros((0, 3)), book)

    def test_empty_token_seq_rejected(self):
        with pytest.raises(InputError):
            TokenSeq(Part.BODY, ())


class TestEncodeDecode:
    @pytest.fixture()
    def tok(self):
        return PartTokenizer(Part.BODY, width=43, config=TINY, rng=np.random.default_rng(1))

    def test_encode_length_is_ceil_t_over_f(self, tok):
        motion = PartMotion(Part.BODY, np.random.default_rng(0).normal(size=(16, 43)))
        assert len(tok.encode(motion)) == 4
        motion = PartMotion(Part.BODY, np.random.default_rng(0).normal(size=(18, 43)))
        assert len(tok.encode(motion)) == 5

    def test_encode_is_deterministic(self, tok):
        motion = PartMotion(Part.BODY, np.random.default_rng(2).normal(size=(12, 43)))
        assert tok.encode(motion).ids == tok.encode(motion).ids

    def test_too_short_motion_rejected(self, tok):
        with pytest.raises(InputError):
            tok.encode(PartMotion(Part.BODY, np.zeros((3, 43))))

    def test_decode_length_is_f_times_tokens(self, tok):
        tokens = TokenSeq(Part.BODY, (0, 1, 2, 3))
        assert tok.decode(tokens).num_frames == 16

    def test_decode_trims_and_pads_to_requested_length(self, tok):
        tokens = TokenSeq(Part.BODY, (0, 1, 2, 3))
        assert tok.decode(tokens, num_frames=14).num_frames == 14
        assert tok.decode(tokens, num_frames=20).num_frames == 20

    def test_decode_deterministic(self, tok):
        tokens = TokenSeq(Part.BODY, (4, 0, 2))
        a = tok.decode(tokens)
        b = tok.decode(tokens)
        assert np.array_equal(a.frames, b.frames)

    def test_decode_rejects_out_of_range_ids(self, tok):
        with pytest.raises(InputError):
            tok.decode(TokenSeq(Part.BODY, (0, 99)))

    def test_round_trip_frame_count(self):
        deto = DecoupledTokenizer(PartLayout(), TINY, seed=3)
        seq = MotionSequence(np.random.default_rng(5).normal(size=(17, 133)).astype(np.float32))
        out = round_trip(deto, seq)
        assert out.num_frames == seq.num_frames

    def test_decode_tokens_needs_one_sequence_per_part(self):
        deto = DecoupledTokenizer(PartLayout(), TINY, seed=3)
        tokens = {part: TokenSeq(part, (0, 1, 2)) for part in (Part.BODY, Part.LEFT_HAND)}
        with pytest.raises(InputError, match=r"lengths \{'B': 3, 'LH': 3\}"):
            deto.decode_tokens(tokens)

    @pytest.mark.parametrize("num_frames", [None, 12])
    def test_decode_tokens_rejects_parts_of_different_lengths(self, num_frames):
        deto = DecoupledTokenizer(PartLayout(), TINY, seed=3)
        tokens = {Part.BODY: TokenSeq(Part.BODY, (0, 1, 2)),
                  Part.LEFT_HAND: TokenSeq(Part.LEFT_HAND, (0, 1)),
                  Part.RIGHT_HAND: TokenSeq(Part.RIGHT_HAND, (0, 1))}
        with pytest.raises(InputError, match=r"lengths \{'B': 3, 'LH': 2, 'RH': 2\}"):
            deto.decode_tokens(tokens, num_frames=num_frames)


class TestVqLoss:
    def test_all_terms_vanish_when_everything_matches(self):
        x = np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32)
        latents = Tensor(np.ones((2, 5)), requires_grad=True)
        codes = Tensor(np.ones((2, 5)))
        total, rec, emb, com = vq_loss_terms(latents, codes, Tensor(x), x, 1.0, 0.25)
        assert total.item() == 0.0
        assert rec.item() == emb.item() == com.item() == 0.0

    def test_scalar_worked_example(self):
        # latent 0.6, nearest code 1.0, w_com = 0.25 -> emb = 0.16, com = 0.04
        latents = Tensor(np.array([[0.6]]), requires_grad=True)
        codes = Tensor(np.array([[1.0]]))
        x = np.array([[0.0]], dtype=np.float32)
        _, _, emb, com = vq_loss_terms(latents, codes, Tensor(x), x, 1.0, 0.25)
        assert emb.item() == pytest.approx(0.16, abs=1e-7)
        assert com.item() == pytest.approx(0.04, abs=1e-7)

    def test_total_is_sum_of_components(self):
        tok = PartTokenizer(Part.LEFT_HAND, width=45, config=TINY, rng=np.random.default_rng(7))
        motion = PartMotion(Part.LEFT_HAND, np.random.default_rng(8).normal(size=(9, 45)))
        total, rec, emb, com = tok.vq_loss(motion)
        assert total.item() == pytest.approx(rec.item() + emb.item() + com.item(), abs=1e-6)
        assert min(rec.item(), emb.item(), com.item()) >= 0.0

    def test_rejects_another_parts_motion(self):
        # both hands are 45 wide, so only the part tag tells them apart
        tok = PartTokenizer(Part.LEFT_HAND, width=45, config=TINY, rng=np.random.default_rng(7))
        motion = PartMotion(Part.RIGHT_HAND, np.random.default_rng(8).normal(size=(9, 45)))
        with pytest.raises(InputError, match="LH.*RH"):
            tok.vq_loss(motion)

    @pytest.mark.parametrize("part", list(Part))
    def test_one_backward_reaches_every_parameter_the_optimizer_holds(self, part):
        deto = DecoupledTokenizer(PartLayout(), TINY, seed=2)
        seq = MotionSequence(np.random.default_rng(4).normal(size=(9, 133)).astype(np.float32))
        motion = next(pm for pm in split_parts(seq) if pm.part is part)
        deto[part].vq_loss(motion)[0].backward()
        assert [name for name, p in deto[part].parameters() if p.grad is None] == []

    def test_too_short_motion_error_names_the_part_and_frame_count(self):
        tok = PartTokenizer(Part.LEFT_HAND, width=45, config=TINY, rng=np.random.default_rng(7))
        with pytest.raises(InputError, match=r"LH motion of 3 frames"):
            tok.vq_loss(PartMotion(Part.LEFT_HAND, np.zeros((3, 45))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("frames", [4, 5, 32, 37])
    def test_node_equals_the_composed_graph(self, frames, dtype, monkeypatch):
        def run():
            with default_dtype(dtype):
                # three codes for up to ten latents, so ids repeat and the
                # codebook gradient adds up rows
                tok = PartTokenizer(Part.BODY, width=3, config=DetoConfig(
                    code_dim=4, codebook_sizes=(3, 3, 3), hidden_channels=3, w_emb=0.7,
                    w_com=0.3), rng=np.random.default_rng(21))
                motion = PartMotion(Part.BODY, np.random.default_rng(22).normal(size=(frames, 3)))
                total, *terms = tok.vq_loss(motion)
                # weights and an upstream gradient that are not powers of two
                # make the order of the scalar products show
                (total * (1.0 / 3.0)).backward()
            return tok.encode(motion).ids, total, terms, tok.parameters()

        ids, total, terms, params = run()
        monkeypatch.setattr(tokenizer_module, "vq_loss_terms", composed_ops.vq_loss_terms)
        oracle_ids, oracle_total, oracle_terms, oracle_params = run()
        assert ids == oracle_ids
        if frames >= 32:
            assert len(set(ids)) < len(ids)
        assert total._op == "vq_loss" and oracle_total._op == "add"
        assert total.data.dtype == oracle_total.data.dtype == dtype
        assert np.array_equal(total.data, oracle_total.data)
        for term, oracle in zip(terms, oracle_terms):
            assert term.dtype == dtype and np.array_equal(term, oracle.data)
        for (name, p), (_, oracle) in zip(params, oracle_params):
            assert p.grad.dtype == dtype and np.array_equal(p.grad, oracle.grad), name

    def test_gradients_match_finite_differences_of_frozen_surrogate(self):
        with default_dtype(np.float64):
            tok = PartTokenizer(Part.BODY, width=3, config=DetoConfig(
                code_dim=4, codebook_sizes=(5, 5, 5), hidden_channels=3),
                rng=np.random.default_rng(11))
            motion = PartMotion(Part.BODY, np.random.default_rng(12).normal(size=(6, 3)))
            frozen = frozen_vq_loss_fn(tok, motion)

            # backward on the live loss equals backward on the frozen surrogate
            for _, p in tok.parameters():
                p.zero_grad()
            live_total, _, _, _ = tok.vq_loss(motion)
            live_total.backward()
            live_grads = {name: p.grad.copy() for name, p in tok.parameters()}
            for _, p in tok.parameters():
                p.zero_grad()
            frozen().backward()
            for name, p in tok.parameters():
                assert np.allclose(live_grads[name], p.grad, atol=1e-12), name

            errors = check_gradients(frozen, tok.parameters(), eps=1e-5, tol=1e-3)
            assert max(errors.values()) < 1e-3


@pytest.fixture(scope="module")
def small_corpus():
    cfg = SynthConfig(lexicon_size=4, num_sentences=6, sentence_words=(1, 2), noise_std=0.01)
    return [seq for _, seq in synthesize_dataset(cfg, seed=9)]


class TestTraining:
    def test_loss_decreases_on_overfit(self, small_corpus):
        deto, log = train_tokenizer(
            small_corpus,
            config=DetoConfig(code_dim=24, codebook_sizes=(12, 12, 12), hidden_channels=16),
            train_config=DetoTrainConfig(steps=240, lr=4e-3),
            seed=1,
        )
        for part in ("B", "LH", "RH"):
            entries = [e for e in log if e["part"] == part]
            assert entries[-1]["rec"] < entries[0]["rec"]

    def test_zero_motion_corpus_reaches_tiny_rec_loss(self):
        corpus = [MotionSequence(np.zeros((12, 133), dtype=np.float32)) for _ in range(2)]
        deto, log = train_tokenizer(
            corpus,
            config=DetoConfig(code_dim=8, codebook_sizes=(4, 4, 4), hidden_channels=6),
            train_config=DetoTrainConfig(steps=500, lr=5e-3),
            seed=2,
        )
        for part in ("B", "LH", "RH"):
            entries = [e for e in log if e["part"] == part]
            assert entries[-1]["rec"] < 1e-6

    def test_same_seed_identical_checkpoints(self, small_corpus, tmp_path):
        kwargs = dict(
            config=DetoConfig(code_dim=12, codebook_sizes=(6, 6, 6), hidden_channels=8),
            train_config=DetoTrainConfig(steps=60),
            seed=5,
        )
        deto_a, _ = train_tokenizer(small_corpus, **kwargs)
        deto_b, _ = train_tokenizer(small_corpus, **kwargs)
        for (name_a, pa), (_, pb) in zip(deto_a.parameters(), deto_b.parameters()):
            assert np.array_equal(pa.data, pb.data), name_a

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            train_tokenizer([])

    def test_save_load_round_trip(self, small_corpus, tmp_path):
        deto, log = train_tokenizer(
            small_corpus,
            config=DetoConfig(code_dim=12, codebook_sizes=(6, 6, 6), hidden_channels=8),
            train_config=DetoTrainConfig(steps=30),
            seed=6,
        )
        save_deto(tmp_path / "deto", deto, log)
        loaded = load_deto(tmp_path / "deto")
        seq = small_corpus[0]
        original = deto.encode_sequence(seq)
        restored = loaded.encode_sequence(seq)
        for part in original:
            assert original[part].ids == restored[part].ids


class TestConfig:
    @pytest.mark.parametrize("sizes", [(64, 192, 192), (128, 192, 192), (96, 128, 128), (96, 256, 256)])
    def test_alternate_codebook_sizes_accepted(self, sizes):
        cfg = DetoConfig(code_dim=8, codebook_sizes=sizes, hidden_channels=4)
        deto = DecoupledTokenizer(PartLayout(), cfg, seed=0)
        assert deto[Part.BODY].codebook.num_codes == sizes[0]
        assert deto[Part.LEFT_HAND].codebook.num_codes == sizes[1]

    def test_default_matches_reported_best(self):
        cfg = DetoConfig()
        assert cfg.codebook_sizes == (96, 192, 192)
        assert cfg.code_dim == 512

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigError):
            DetoConfig(codebook_sizes=(0, 192, 192))

    @pytest.mark.parametrize("weights", [dict(w_com=float("nan")), dict(w_emb=-1.0),
                                         dict(w_emb=float("inf")), dict(w_com=-0.25)])
    def test_bad_loss_weights_rejected(self, weights):
        with pytest.raises(ConfigError, match="w_emb and w_com"):
            DetoConfig(**weights)

    def test_zero_loss_weights_accepted(self):
        assert DetoConfig(w_emb=0.0, w_com=0.0).w_com == 0.0

    @pytest.mark.parametrize("rates", [dict(lr=float("nan")), dict(lr=-1.0), dict(lr=0.0),
                                       dict(lr=float("inf")), dict(min_lr=float("nan")),
                                       dict(min_lr=-1e-4), dict(lr=1e-3, min_lr=2e-3)])
    def test_bad_learning_rates_rejected(self, rates):
        with pytest.raises(ConfigError, match="lr"):
            DetoTrainConfig(**rates)

    def test_constant_learning_rate_accepted(self):
        assert DetoTrainConfig(lr=1e-3, min_lr=1e-3).min_lr == 1e-3

    @pytest.mark.parametrize("warmup", [0, -2])
    def test_warm_start_without_a_sequence_rejected(self, warmup):
        # the codebook's warm start needs encoder outputs of at least one
        # sequence; the run config must not record a count it did not use
        with pytest.raises(ConfigError, match="warmup_sequences"):
            DetoTrainConfig(warmup_sequences=warmup)


def _holder(payload: dict, key: str) -> dict:
    """The object of a sidecar that holds `key`: the top level or one level down."""
    if key in payload:
        return payload
    return next(v for v in payload.values() if isinstance(v, dict) and key in v)


def _drop_w_com(text: str) -> str:
    payload = json.loads(text)
    del _holder(payload, "w_com")["w_com"]
    return json.dumps(payload)


def _string_code_dim(text: str) -> str:
    payload = json.loads(text)
    _holder(payload, "code_dim")["code_dim"] = "8"
    return json.dumps(payload)


def _unknown_key(text: str) -> str:
    payload = json.loads(text)
    _holder(payload, "code_dim")["dropout"] = 0.1
    return json.dumps(payload)


class TestCorruptSidecar:
    @pytest.fixture()
    def saved(self, tmp_path):
        out = tmp_path / "deto"
        save_deto(out, DecoupledTokenizer(PartLayout(), TINY, seed=0))
        return out

    @pytest.mark.parametrize("corrupt", [
        _drop_w_com,
        lambda text: text[: len(text) // 2],
        _string_code_dim,
        _unknown_key,
    ], ids=["missing-key", "truncated", "wrong-type", "unknown-key"])
    def test_corrupt_sidecar_names_the_file(self, saved, corrupt):
        sidecar = saved / "deto.json"
        sidecar.write_text(corrupt(sidecar.read_text()))
        with pytest.raises(SokeError, match="deto.json"):
            load_deto(saved)

    def test_sidecar_is_the_two_dataclasses(self, saved):
        payload = json.loads((saved / "deto.json").read_text())
        assert payload == {
            "layout": {"body_joints": 11, "hand_joints_per_hand": 15, "expression_dims": 10},
            "config": {"code_dim": 6, "codebook_sizes": [5, 7, 7], "hidden_channels": 4,
                       "w_emb": 1.0, "w_com": 0.25},
        }
        loaded = load_deto(saved)
        assert loaded.layout == PartLayout() and loaded.config == TINY

    def test_sidecar_with_the_dropped_downsample_field_names_the_file(self, saved):
        # deto.json files written while the factor was a config field hold it
        sidecar = saved / "deto.json"
        payload = json.loads(sidecar.read_text())
        payload["config"]["downsample"] = 4
        sidecar.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="deto.json"):
            load_deto(saved)


class TestCheckpointLayout:
    """deto.ckpt keeps each conv weight as a (C_out, C_in, K) filter bank, the
    layout of checkpoints written before conv1d took its (K * C_in, C_out)
    filter matrix."""

    CONV = {"enc_w1": 4, "enc_w2": 4, "dec_w1": 3, "dec_w2": 3}

    @pytest.fixture()
    def banks(self, tmp_path):
        """A deto directory whose checkpoint holds random filter banks."""
        deto = DecoupledTokenizer(PartLayout(), TINY, seed=0)
        save_deto(tmp_path, deto)
        rng = np.random.default_rng(3)
        stored = load_checkpoint(tmp_path / "deto.ckpt")
        for name, value in stored.items():
            stored[name] = rng.normal(size=value.shape).astype(np.float32)
        save_checkpoint(tmp_path / "deto.ckpt", stored)
        return tmp_path, stored

    def test_filter_banks_are_stored_channels_out_in_then_taps(self, banks):
        _, stored = banks
        tok = DecoupledTokenizer(PartLayout(), TINY, seed=0)[Part.LEFT_HAND]
        c_in = {"enc_w1": tok.width, "enc_w2": 4, "dec_w1": 6, "dec_w2": 4}
        c_out = {"enc_w1": 4, "enc_w2": 6, "dec_w1": 4, "dec_w2": tok.width}
        for name, k in self.CONV.items():
            assert stored[f"LH.{name}"].shape == (c_out[name], c_in[name], k)

    def test_a_bank_checkpoint_loads_as_filter_matrices_exactly(self, banks):
        out_dir, stored = banks
        for name, p in load_deto(out_dir).parameters():
            bank = stored[name]
            expected = (bank.transpose(2, 1, 0).reshape(-1, bank.shape[0])
                        if name.split(".")[1] in self.CONV else bank)
            assert p.data.dtype == np.float32 and np.array_equal(p.data, expected), name

    def test_loading_draws_no_random_numbers(self, banks, no_normal_draws):
        out_dir, stored = banks
        with pytest.raises(AssertionError, match="random normal"):
            DecoupledTokenizer(PartLayout(), TINY, seed=0)
        assert [name for name, _ in load_deto(out_dir).parameters()] == list(stored)

    def test_save_writes_the_banks_it_loaded(self, banks, tmp_path_factory):
        out_dir, stored = banks
        again = tmp_path_factory.mktemp("again")
        save_deto(again, load_deto(out_dir))
        assert (again / "deto.ckpt").read_bytes() == (out_dir / "deto.ckpt").read_bytes()
        assert load_checkpoint(again / "deto.ckpt").keys() == stored.keys()

    @pytest.mark.parametrize("reshape", [
        lambda bank: bank.transpose(2, 1, 0).reshape(-1, bank.shape[0]),  # a filter matrix
        lambda bank: bank.reshape(bank.shape[0], bank.shape[2], bank.shape[1]),
        lambda bank: bank[..., :-1],
    ], ids=["filter-matrix", "in-and-taps-swapped", "one-tap-short"])
    def test_a_misshaped_conv_tensor_names_the_parameter(self, banks, reshape):
        out_dir, stored = banks
        stored["RH.dec_w1"] = np.ascontiguousarray(reshape(stored["RH.dec_w1"]))
        save_checkpoint(out_dir / "deto.ckpt", stored)
        with pytest.raises(InputError, match=r"RH\.dec_w1"):
            load_deto(out_dir)


def _direct_nearest(latents: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The (T, N, C) difference-tensor form of the nearest-code rule."""
    diff = latents.astype(np.float64)[:, None, :] - codes.astype(np.float64)[None, :, :]
    return (diff * diff).sum(axis=-1).argmin(axis=1)


def _ulp_codebook(rng, n, dim, scale):
    """Codes in pairs and triples: exact duplicates and rows one float32 ulp apart."""
    base = (rng.normal(size=(n // 4, dim)) * scale).astype(np.float32)
    up = np.nextafter(base, np.float32(np.inf))
    one_coord = base.copy()
    one_coord[:, 0] = np.nextafter(base[:, 0], np.float32(-np.inf))
    return np.concatenate([base, base, up, one_coord])[rng.permutation(4 * (n // 4))]


class TestNearestCodeIdsExact:
    """The expanded-form quantizer picks exactly the brute-force ids."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_duplicate_and_one_ulp_codes(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 5)
        codes = _ulp_codebook(rng, 48, 16, scale)
        jitter = (rng.normal(size=codes.shape) * scale * 1e-7).astype(np.float32)
        halfway = (codes[:-1] + codes[1:]) * np.float32(0.5)
        latents = np.concatenate([codes, codes + jitter, halfway])
        ids = nearest_code_ids(latents, codes)
        assert ids.tolist() == [brute_force_nearest(row, codes) for row in latents]
        assert np.array_equal(ids, _direct_nearest(latents, codes))

    @pytest.mark.parametrize("latent_scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("code_scale", [1e-3, 1.0, 1e3])
    def test_latent_norms_far_from_the_codes(self, latent_scale, code_scale):
        rng = np.random.default_rng(7)
        codes = _ulp_codebook(rng, 64, 32, code_scale)
        latents = (rng.normal(size=(40, 32)) * latent_scale).astype(np.float32)
        ids = nearest_code_ids(latents, codes)
        assert ids.tolist() == [brute_force_nearest(row, codes) for row in latents]
        assert np.array_equal(ids, _direct_nearest(latents, codes))

    def test_all_equal_codes_tie_to_index_zero(self):
        codes = np.ones((9, 4), dtype=np.float32)
        latents = np.random.default_rng(3).normal(size=(5, 4)).astype(np.float32)
        assert nearest_code_ids(latents, codes).tolist() == [0] * 5

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_direct_form_on_trained_size_codebooks(self, seed):
        rng = np.random.default_rng(seed)
        codes = _ulp_codebook(rng, 96, 64, 10.0 ** rng.uniform(-3, 3))
        latents = codes[rng.integers(0, len(codes), size=8)] * np.float32(1.0 + 1e-7)
        assert np.array_equal(nearest_code_ids(latents, codes), _direct_nearest(latents, codes))


@pytest.mark.parametrize("frames", [8, 9, 10, 11])
def test_padding_repeats_the_last_frame_like_np_pad(frames):
    tok = PartTokenizer(Part.BODY, 3, TINY, np.random.default_rng(0))
    motion = np.random.default_rng(frames).normal(size=(frames, 3)).astype(np.float32)
    pad = (-frames) % DOWNSAMPLE
    expected = np.pad(motion, ((0, pad), (0, 0)), mode="edge")
    padded = tok._padded(motion)
    assert padded.dtype == expected.dtype
    assert np.array_equal(padded, expected)
