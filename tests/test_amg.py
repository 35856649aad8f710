import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from soke.errors import ConfigError, InputError, SokeError, VocabularyError
from soke.amg import (
    MODES,
    AmgConfig,
    AmgTrainConfig,
    DecoderCache,
    GeneratorModel,
    PartTokenTriple,
    TrainPair,
    Vocabulary,
    flatten,
    fuse_embeddings,
    generate_triples,
    generator_loss,
    greedy_decode,
    load_generator,
    load_vocab,
    save_generator,
    train_generator,
    unflatten,
)
from soke.amg.model import MODE_SPECS, tile_rows
from soke.amg.training import _teacher_batch
from soke.config import load_run_config
from soke.grad import Tensor, concat, cross_entropy, load_checkpoint, no_grad, save_checkpoint
from soke.motion import PARTS, Part

import trunk_oracle

SIZES = (6, 8, 8)
WORDS = ["alpha", "beta", "gamma", "delta"]
TINY_CFG = AmgConfig(d_model=32, num_heads=2, enc_layers=1, dec_layers=1, ffn_dim=64,
                     k_max=8, enc_max_len=24)


@pytest.fixture()
def vocab():
    return Vocabulary(WORDS, SIZES)


def token_string(vocab: Vocabulary, token_id: int) -> str:
    return vocab._tokens[token_id]


class TestVocabulary:
    def test_ids_are_a_bijection(self, vocab):
        ids = [vocab.motion_id(Part.BODY, 0), vocab.lang_id("ASL"), vocab.pad_id]
        assert len(set(ids)) == len(ids)
        all_ids = set(range(len(vocab)))
        seen = {vocab.motion_id(p, c) for p in (Part.BODY, Part.LEFT_HAND, Part.RIGHT_HAND)
                for c in range(vocab.codebook_sizes[0] if p is Part.BODY else 8)}
        assert seen <= all_ids

    def test_motion_ranges_are_disjoint_and_complete(self, vocab):
        ranges = [vocab.part_range(p) for p in (Part.BODY, Part.LEFT_HAND, Part.RIGHT_HAND)]
        spans = [set(range(lo, hi)) for lo, hi in ranges]
        assert not (spans[0] & spans[1]) and not (spans[1] & spans[2])
        assert sum(len(s) for s in spans) == sum(SIZES)

    def test_every_code_has_exactly_one_token(self, vocab):
        for part, n in zip((Part.BODY, Part.LEFT_HAND, Part.RIGHT_HAND), SIZES):
            ids = [vocab.motion_id(part, c) for c in range(n)]
            assert len(set(ids)) == n
            for c, token_id in enumerate(ids):
                assert vocab.code_of(token_id) == (part, c)

    def test_text_encoding_with_unk(self, vocab):
        ids = vocab.encode_text("alpha zeta BETA")
        assert ids[0] != vocab.unk_id
        assert ids[1] == vocab.unk_id
        assert ids[2] == ids[0] or token_string(vocab, ids[2]) == "beta"

    def test_unknown_language_rejected(self, vocab):
        with pytest.raises(VocabularyError):
            vocab.lang_id("KSL")
        with pytest.raises(VocabularyError):
            vocab.lang_part_id("KSL", Part.BODY)

    @pytest.mark.parametrize("sizes", [(4, 4), (4, -2, 4), (4, 0, 4), (4, 4, 4, 4), (4, 2.5, 4),
                                       (4, True, 4)])
    def test_codebook_sizes_must_be_three_positive_ints(self, sizes):
        with pytest.raises(VocabularyError):
            Vocabulary(WORDS, sizes)

    def test_support_mask(self, vocab):
        mask = vocab.part_support_mask(Part.LEFT_HAND)
        lo, hi = vocab.part_range(Part.LEFT_HAND)
        assert mask[lo:hi].all()
        assert mask[vocab.eos_id]
        assert mask.sum() == (hi - lo) + 1

    def test_json_round_trip(self, vocab):
        clone = Vocabulary.from_json(vocab.to_json())
        assert len(clone) == len(vocab)
        assert clone.motion_id(Part.RIGHT_HAND, 3) == vocab.motion_id(Part.RIGHT_HAND, 3)


def teacher_forced_loss(model, pairs):
    """generator_loss on the batch train_generator would build from pairs."""
    return generator_loss(model, _teacher_batch(model, pairs, []))


def make_triples(vocab, codes):
    return [
        PartTokenTriple(
            vocab.motion_id(Part.BODY, b),
            vocab.motion_id(Part.LEFT_HAND, lh),
            vocab.motion_id(Part.RIGHT_HAND, rh),
        )
        for b, lh, rh in codes
    ]


class TestFlatten:
    def test_empty(self, vocab):
        assert flatten([], vocab) == []
        assert unflatten([], vocab) == []

    def test_k5_gives_15_tokens(self, vocab):
        triples = make_triples(vocab, [(i % 6, i % 8, (i + 1) % 8) for i in range(5)])
        assert len(flatten(triples, vocab)) == 15

    def test_round_trip(self, vocab):
        rng = np.random.default_rng(0)
        triples = make_triples(vocab, [(rng.integers(6), rng.integers(8), rng.integers(8))
                                       for _ in range(7)])
        assert unflatten(flatten(triples, vocab), vocab) == triples

    def test_bad_length_rejected(self, vocab):
        with pytest.raises(InputError):
            unflatten([vocab.motion_id(Part.BODY, 0)] * 4, vocab)

    def test_wrong_slot_rejected(self, vocab):
        bad = [vocab.motion_id(Part.LEFT_HAND, 0), vocab.motion_id(Part.LEFT_HAND, 0),
               vocab.motion_id(Part.RIGHT_HAND, 0)]
        with pytest.raises(InputError):
            unflatten(bad, vocab)


class TestFuseEmbeddings:
    def test_third_gives_equal_weights(self):
        e = [Tensor(np.array([3.0, 0.0])), Tensor(np.array([0.0, 3.0])), Tensor(np.array([3.0, 3.0]))]
        fused = fuse_embeddings(*e, 1.0 / 3.0)
        assert np.allclose(fused.data, [2.0, 2.0])

    def test_identical_inputs_any_lambda(self):
        v = Tensor(np.array([1.5, -2.0, 0.5]))
        for lam in (0.1, 0.25, 0.49):
            assert np.allclose(fuse_embeddings(v, v, v, lam).data, v.data, atol=1e-6)

    def test_hand_arithmetic(self):
        fused = fuse_embeddings(
            Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 1.0])), Tensor(np.array([0.0, 0.0])),
            0.2,
        )
        assert np.allclose(fused.data, [0.6, 0.2], atol=1e-7)

    def test_weights_sum_to_one(self):
        ones = Tensor(np.ones(4))
        for lam in (0.05, 1.0 / 3.0, 0.45):
            assert np.allclose(fuse_embeddings(ones, ones, ones, lam).data, 1.0, atol=1e-6)

    def test_hand_permutation_invariance(self):
        rng = np.random.default_rng(1)
        b, lh, rh = (Tensor(rng.normal(size=5)) for _ in range(3))
        a = fuse_embeddings(b, lh, rh, 0.3).data
        c = fuse_embeddings(b, rh, lh, 0.3).data
        assert np.allclose(a, c)

    def test_lambda_outside_open_interval_rejected(self):
        v = Tensor(np.ones(2))
        for lam in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ConfigError):
                fuse_embeddings(v, v, v, lam)
        with pytest.raises(ConfigError):
            AmgConfig(fuse_lambda=0.5)


class ScriptedModel:
    """Duck-typed stand-in whose head logits follow a fixed token plan, over
    the head columns the real model has."""

    def __init__(self, vocab, mode, plan, lang="ASL", k_max=10, d=8):
        self.vocab = vocab
        self.mode = mode
        self.head_columns = MODE_SPECS[mode].head_columns(vocab)
        self.plan = plan
        self.lang = lang
        self.d = d
        self.config = AmgConfig(d_model=8, num_heads=2, enc_layers=1, dec_layers=1,
                                ffn_dim=8, k_max=k_max, enc_max_len=16)

    def token_embeddings(self, ids):
        ids = np.asarray(ids)
        emb = np.zeros(ids.shape + (self.d,), dtype=np.float32)
        emb[..., 0] = ids
        return Tensor(emb)

    def decode_hidden(self, dec_emb, h_en, enc_mask, cache=None):
        if cache is None:
            return dec_emb
        # keep the whole prefix in the cache: head_logits reads the step from
        # its length and the start token from its first position
        cache.layers.append(dec_emb)
        cache.length += dec_emb.shape[1]
        return concat(cache.layers, axis=1)

    def head_logits(self, hidden, part):
        step = hidden.shape[1] - 1
        columns = self.head_columns[part]
        logits = np.zeros(hidden.shape[:2] + (len(columns),), dtype=np.float32)
        for row in range(hidden.shape[0]):
            if self.mode == "sequential":
                tokens = self.plan
            elif self.mode == "parallel":
                start = int(hidden.data[row, 0, 0])
                stream_part = next(
                    p for p in (Part.BODY, Part.LEFT_HAND, Part.RIGHT_HAND)
                    if self.vocab.lang_part_id(self.lang, p) == start
                )
                tokens = self.plan[stream_part]
            else:
                tokens = self.plan[part]
            token = tokens[step] if step < len(tokens) else self.vocab.eos_id
            logits[row, -1, columns == token] = 10.0  # nothing if the head cannot emit it
        return Tensor(logits)


def dummy_state(d=8):
    return Tensor(np.zeros((1, 2, d), dtype=np.float32)), np.ones((1, 2), dtype=bool)


class TestScriptedDecoding:
    def test_sequential_step_count_is_3k(self, vocab):
        plan = flatten(make_triples(vocab, [(1, 2, 3), (4, 5, 6), (0, 7, 1)]), vocab)
        model = ScriptedModel(vocab, "sequential", plan)
        h, m = dummy_state()
        result = greedy_decode(model, h, m)
        assert len(result.triples) == 3
        assert result.step_count == 9
        assert result.forward_passes == 10  # EOS pass excluded from step_count

    def test_sequential_drops_trailing_partial_triple(self, vocab):
        plan = flatten(make_triples(vocab, [(1, 2, 3), (4, 5, 6)]), vocab)
        plan += [vocab.motion_id(Part.BODY, 2)]  # partial third triple before EOS
        model = ScriptedModel(vocab, "sequential", plan)
        result = greedy_decode(model, *dummy_state())
        assert len(result.triples) == 2
        assert result.step_count == 6

    def test_sequential_k_max_zero(self, vocab):
        model = ScriptedModel(vocab, "sequential", [])
        result = greedy_decode(model, *dummy_state(), k_max=0)
        assert result.triples == ()
        assert result.step_count == 0
        assert result.forward_passes == 0

    def test_parallel_truncates_at_earliest_eos(self, vocab):
        plan = {
            Part.BODY: [vocab.motion_id(Part.BODY, i % 6) for i in range(4)],
            Part.LEFT_HAND: [vocab.motion_id(Part.LEFT_HAND, i % 8) for i in range(6)],
            Part.RIGHT_HAND: [vocab.motion_id(Part.RIGHT_HAND, i % 8) for i in range(7)],
        }
        model = ScriptedModel(vocab, "parallel", plan)
        result = greedy_decode(model, *dummy_state(), lang="ASL")
        assert len(result.triples) == 4
        assert result.step_count == 4

    def test_parallel_counts_one_pass_per_step(self, vocab):
        plan = {
            Part.BODY: [vocab.motion_id(Part.BODY, i % 6) for i in range(4)],
            Part.LEFT_HAND: [vocab.motion_id(Part.LEFT_HAND, i % 8) for i in range(6)],
            Part.RIGHT_HAND: [vocab.motion_id(Part.RIGHT_HAND, i % 8) for i in range(7)],
        }
        model = ScriptedModel(vocab, "parallel", plan)
        on_eos = greedy_decode(model, *dummy_state(), lang="ASL")
        assert on_eos.forward_passes == len(on_eos.triples) + 1 == 5
        at_limit = greedy_decode(model, *dummy_state(), lang="ASL", k_max=3)
        assert at_limit.forward_passes == len(at_limit.triples) == 3

    def test_parallel_unknown_language(self, vocab):
        model = ScriptedModel(vocab, "parallel", {p: [] for p in
                                                  (Part.BODY, Part.LEFT_HAND, Part.RIGHT_HAND)})
        with pytest.raises(VocabularyError):
            greedy_decode(model, *dummy_state(), lang="XXX")

    def test_multihead_stops_when_any_head_emits_eos(self, vocab):
        plan = {
            Part.BODY: [vocab.motion_id(Part.BODY, 0), vocab.motion_id(Part.BODY, 1)],
            Part.LEFT_HAND: [vocab.motion_id(Part.LEFT_HAND, i) for i in range(5)],
            Part.RIGHT_HAND: [vocab.motion_id(Part.RIGHT_HAND, i) for i in range(5)],
        }
        model = ScriptedModel(vocab, "multihead", plan)
        result = greedy_decode(model, *dummy_state())
        # head B runs out after 2 tokens -> EOS at step 3, which is excluded
        assert len(result.triples) == 2
        assert result.step_count == 2
        assert result.forward_passes == 3

    def test_multihead_step_count_equals_k(self, vocab):
        plan = {p: [vocab.motion_id(p, i % 6) for i in range(4)]
                for p in (Part.BODY, Part.LEFT_HAND, Part.RIGHT_HAND)}
        model = ScriptedModel(vocab, "multihead", plan)
        result = greedy_decode(model, *dummy_state())
        assert result.step_count == len(result.triples) == 4

    def test_step_count_law_sequential_is_triple_multihead(self, vocab):
        codes = [(i % 6, i % 8, (2 * i) % 8) for i in range(5)]
        seq_model = ScriptedModel(vocab, "sequential", flatten(make_triples(vocab, codes), vocab))
        mh_plan = {
            Part.BODY: [vocab.motion_id(Part.BODY, c[0]) for c in codes],
            Part.LEFT_HAND: [vocab.motion_id(Part.LEFT_HAND, c[1]) for c in codes],
            Part.RIGHT_HAND: [vocab.motion_id(Part.RIGHT_HAND, c[2]) for c in codes],
        }
        mh_model = ScriptedModel(vocab, "multihead", mh_plan)
        seq = greedy_decode(seq_model, *dummy_state())
        mh = greedy_decode(mh_model, *dummy_state())
        assert seq.triples == mh.triples
        assert seq.step_count == 3 * mh.step_count


class TestPartMaskingProperty:
    def test_sequential_never_emits_wrong_part(self, vocab):
        # adversarial plan: every step shouts for a wrong-part token
        wrong = [vocab.motion_id(Part.RIGHT_HAND, 0)] * 9
        model = ScriptedModel(vocab, "sequential", wrong)
        result = greedy_decode(model, *dummy_state())
        for triple in result.triples:
            assert vocab.part_of(triple.body) is Part.BODY
            assert vocab.part_of(triple.left) is Part.LEFT_HAND
            assert vocab.part_of(triple.right) is Part.RIGHT_HAND


def make_pairs(vocab, n=8, k=3, seed=0):
    rng = np.random.default_rng(seed)
    word_ids = [vocab.encode_text(w)[0] for w in WORDS]
    pairs = []
    for i in range(n):
        # distinct word combination per pair so the mapping is learnable
        combo = [word_ids[i % 4], word_ids[(i // 4) % 4], word_ids[(i // 16) % 4]]
        prompt = [vocab.lang_id("ASL")] + combo
        codes = [(int(rng.integers(SIZES[0])), int(rng.integers(SIZES[1])),
                  int(rng.integers(SIZES[2]))) for _ in range(k)]
        pairs.append(TrainPair(tuple(int(t) for t in prompt),
                               tuple(make_triples(vocab, codes)), "ASL"))
    return pairs


def exact_match_rate(model: GeneratorModel, pairs: list[TrainPair]) -> tuple[float, list[bool]]:
    """Fraction of pairs whose greedy decode reproduces the target triples."""
    hits = []
    for pair in pairs:
        result = generate_triples(model, list(pair.prompt_ids), pair.lang)
        hits.append(tuple(result.triples) == tuple(pair.triples))
    return (float(np.mean(hits)) if hits else 0.0), hits


def parallel_oracle(model, h_en, enc_mask, lang, k_max):
    """Parallel decoding as three separate B=1 greedy streams, each run to its
    own EOS, then truncated to the shortest."""
    vocab = model.vocab
    streams = []
    columns = model.head_columns[Part.BODY]
    for part in (Part.BODY, Part.LEFT_HAND, Part.RIGHT_HAND):
        support = vocab.part_support_mask(part)[columns]
        ids = [vocab.lang_part_id(lang, part)]
        for _ in range(k_max):
            hidden = model.decode_hidden(model.token_embeddings(np.asarray([ids])), h_en, enc_mask)
            logits = model.head_logits(hidden, Part.BODY).data[0, -1]
            token = int(columns[np.argmax(np.where(support, logits.astype(np.float64), -np.inf))])
            if token == vocab.eos_id:
                break
            ids.append(token)
        streams.append(ids[1:])
    k = min(len(stream) for stream in streams)
    return tuple(PartTokenTriple(*(stream[i] for stream in streams)) for i in range(k))


class TestRealModel:
    def test_parallel_matches_three_separate_streams(self, vocab):
        model = GeneratorModel(vocab, TINY_CFG, "parallel", seed=6)
        pairs = make_pairs(vocab, n=8, k=3, seed=5)
        train_generator(pairs, model, AmgTrainConfig(epochs=40))
        lengths = []
        for pair in pairs:
            h_en, enc_mask = model.encode([pair.prompt_ids])
            for k_max in (TINY_CFG.k_max, 2):
                result = greedy_decode(model, h_en, enc_mask, "ASL", k_max=k_max)
                assert result.triples == parallel_oracle(model, h_en, enc_mask, "ASL", k_max)
                assert result.step_count == len(result.triples)
                lengths.append(len(result.triples))
        assert max(lengths) > 0

    @pytest.mark.parametrize("mode", ["sequential", "parallel", "multihead"])
    def test_initial_loss_is_log_support_size(self, vocab, mode):
        model = GeneratorModel(vocab, TINY_CFG, mode, seed=0)
        pairs = make_pairs(vocab, n=4, k=3)
        loss = teacher_forced_loss(model, pairs).item()
        ln = np.log
        if mode == "multihead":
            expected = (ln(SIZES[0] + 1) + ln(SIZES[1] + 1) + ln(SIZES[2] + 1)) / 3.0
        elif mode == "sequential":
            # positions cycle B, LH, RH; EOS rides on a B slot
            b, lh, rh = SIZES
            ln_slots = np.array([ln(b + 1), ln(lh + 1), ln(rh + 1)])
            widths = [3 * 3 + 1 for _ in range(4)]  # k=3 triples + EOS
            total = weight = 0.0
            for w in widths:
                for t in range(w):
                    total += ln_slots[t % 3]
                    weight += 1
            expected = total / weight
        else:
            expected = (ln(SIZES[0] + 1) + ln(SIZES[1] + 1) + ln(SIZES[2] + 1)) / 3.0
        assert loss == pytest.approx(expected, rel=1e-5)

    def test_multihead_overfits_tiny_corpus(self, vocab):
        model = GeneratorModel(vocab, TINY_CFG, "multihead", seed=1)
        pairs = make_pairs(vocab, n=6, k=3, seed=3)
        _, log = train_generator(pairs, model, AmgTrainConfig(epochs=250, lr=4e-3))
        rate, _ = exact_match_rate(model, pairs)
        assert rate >= 0.9
        assert log[-1]["loss"] < log[0]["loss"]

    def test_training_is_deterministic(self, vocab):
        def run():
            model = GeneratorModel(vocab, TINY_CFG, "multihead", seed=5)
            train_generator(make_pairs(vocab, n=4, k=2, seed=7), model,
                            AmgTrainConfig(epochs=20))
            return {name: p.data.copy() for name, p in model.parameters()}

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_greedy_decode_is_deterministic(self, vocab):
        model = GeneratorModel(vocab, TINY_CFG, "multihead", seed=2)
        prompt = [vocab.lang_id("ASL"), 6, 7]
        a = generate_triples(model, prompt, "ASL")
        b = generate_triples(model, prompt, "ASL")
        assert a.triples == b.triples

    def test_prompt_truncation_recorded(self, vocab):
        model = GeneratorModel(vocab, TINY_CFG, "multihead", seed=0)
        long_prompt = tuple([vocab.lang_id("ASL")] + [6] * 40)
        pair = TrainPair(long_prompt, tuple(make_triples(vocab, [(0, 0, 0)])), "ASL")
        log: list[dict] = []
        _teacher_batch(model, [pair], log)
        assert any(e.get("warning") == "prompt_truncated" for e in log)

    @pytest.mark.parametrize("mode", ["sequential", "parallel", "multihead"])
    def test_pairs_longer_than_decoder_positions_rejected(self, vocab, mode):
        cfg = AmgConfig(d_model=32, num_heads=2, enc_layers=1, dec_layers=1, ffn_dim=64,
                        k_max=2, enc_max_len=24)
        model = GeneratorModel(vocab, cfg, mode, seed=0)
        with pytest.raises(InputError, match="decoder positions"):
            train_generator(make_pairs(vocab, n=3, k=4), model, AmgTrainConfig(epochs=1))

    def test_save_load_round_trip(self, vocab, tmp_path):
        model = GeneratorModel(vocab, TINY_CFG, "sequential", seed=4)
        pairs = make_pairs(vocab, n=3, k=2, seed=13)
        train_generator(pairs, model, AmgTrainConfig(epochs=15))
        save_generator(tmp_path / "amg", model)
        loaded = load_generator(tmp_path / "amg")
        prompt = list(pairs[0].prompt_ids)
        assert generate_triples(model, prompt, "ASL").triples == \
            generate_triples(loaded, prompt, "ASL").triples

    @pytest.mark.parametrize("layers", [(1, 1), (0, 1), (2, 2)], ids=lambda l: "enc%d-dec%d" % l)
    @pytest.mark.parametrize("mode", MODES)
    def test_one_backward_reaches_every_parameter_the_optimizer_holds(self, vocab, mode, layers):
        # the model holds only the heads its mode reads, and every accepted
        # layer count has a decoder reading the prompt, so Adam never sees a
        # parameter without a gradient
        config = dataclasses.replace(TINY_CFG, enc_layers=layers[0], dec_layers=layers[1])
        model = GeneratorModel(vocab, config, mode, seed=0)
        teacher_forced_loss(model, make_pairs(vocab, n=3, k=2)).backward()
        assert [name for name, p in model.parameters() if p.grad is None] == []
        heads = {name for name, _ in model.parameters() if name.startswith("head_")}
        assert heads == {f"head_{part.value}.{key}" for part in MODE_SPECS[mode].heads
                         for key in ("w", "b")}


def full_prefix_greedy(model, h_en, enc_mask, lang, k_max):
    """Greedy decoding without the decoder cache: every pass re-runs the
    decoder over each row's whole prefix. Returns (triples, step_count,
    forward_passes, the last-position hidden states of every pass)."""
    spec = MODE_SPECS[model.mode]
    vocab = model.vocab
    h_en, enc_mask = tile_rows(h_en, enc_mask, len(spec.starts))
    inputs = [model.token_embeddings(np.asarray(spec.start_ids(vocab, lang))[:, None])]
    picks, hiddens = [], []
    max_steps = len(spec.schedule) * k_max
    passes = max_steps
    for t in range(max_steps):
        hidden = model.decode_hidden(concat(inputs, axis=1), h_en, enc_mask)
        hiddens.append(hidden.data[:, -1])
        tokens = []
        for row, head, part in spec.schedule[t % len(spec.schedule)]:
            logits = model.head_logits(hidden, head).data[row, -1]
            columns = model.head_columns[head]
            support = vocab.part_support_mask(part)[columns]
            tokens.append(int(columns[np.argmax(np.where(support, logits.astype(np.float64),
                                                         -np.inf))]))
        if vocab.eos_id in tokens:
            passes = t + 1
            break
        picks.extend(tokens)
        if spec.fuse:
            embs = [model.token_embeddings(np.asarray([[token]])) for token in tokens]
            inputs.append(fuse_embeddings(*embs, model.config.fuse_lambda))
        else:
            inputs.append(model.token_embeddings(np.asarray(tokens)[:, None]))
    k = len(picks) // 3
    triples = tuple(unflatten(picks[: 3 * k], vocab))
    return triples, len(spec.schedule) * k, passes, hiddens


class TestIncrementalDecoding:
    @pytest.mark.parametrize("mode", MODES)
    def test_cached_greedy_matches_full_prefix_oracle(self, vocab, mode):
        model = GeneratorModel(vocab, TINY_CFG, mode, seed=4)
        pairs = make_pairs(vocab, n=6, k=3, seed=9)
        train_generator(pairs, model, AmgTrainConfig(epochs=60, lr=4e-3))
        trunk = model.decode_hidden
        cached_hiddens = []

        def recording_trunk(*args, **kwargs):
            hidden = trunk(*args, **kwargs)
            cached_hiddens.append(hidden.data[:, -1])
            return hidden

        lengths = []
        for pair in pairs:
            h_en, enc_mask = model.encode([pair.prompt_ids])
            for k_max in (TINY_CFG.k_max, 2):
                triples, steps, passes, hiddens = full_prefix_greedy(
                    model, h_en, enc_mask, "ASL", k_max)
                cached_hiddens.clear()
                model.decode_hidden = recording_trunk
                result = greedy_decode(model, h_en, enc_mask, "ASL", k_max)
                del model.decode_hidden
                assert result.triples == triples
                assert (result.step_count, result.forward_passes) == (steps, passes)
                assert len(cached_hiddens) == len(hiddens) == passes
                for cached, full in zip(cached_hiddens, hiddens):
                    assert np.abs(cached - full).max() <= 1e-5 * np.abs(full).max()
                lengths.append(len(triples))
        assert max(lengths) > 0

    def test_one_pass_over_several_positions_matches_the_full_prefix(self, vocab):
        model = GeneratorModel(vocab, TINY_CFG, "parallel", seed=2)
        train_generator(make_pairs(vocab, n=4, k=2, seed=1), model, AmgTrainConfig(epochs=20))
        h_en, enc_mask = tile_rows(*model.encode([[vocab.lang_id("ASL"), 6, 7]]), 3)
        ids = np.asarray([[vocab.lang_part_id("ASL", part), vocab.motion_id(part, 1),
                           vocab.motion_id(part, 2), vocab.motion_id(part, 3)] for part in PARTS])
        full = model.decode_hidden(model.token_embeddings(ids), h_en, enc_mask).data
        cache = DecoderCache()
        with no_grad():
            first = model.decode_hidden(model.token_embeddings(ids[:, :3]), h_en, enc_mask, cache)
            last = model.decode_hidden(model.token_embeddings(ids[:, 3:]), h_en, enc_mask, cache)
        assert cache.length == 4
        cached = np.concatenate([first.data, last.data], axis=1)
        assert np.abs(cached - full).max() <= 1e-5 * np.abs(full).max()

    def test_cached_pass_beyond_decoder_positions_raises(self, vocab):
        model = GeneratorModel(vocab, TINY_CFG, "multihead", seed=0)
        h_en, enc_mask = model.encode([[vocab.lang_id("ASL"), 6]])
        bos = model.token_embeddings(np.asarray([[vocab.bos_id]]))
        too_long = model.token_embeddings(np.full((1, model.dec_max_len + 1), vocab.bos_id))
        with pytest.raises(InputError) as uncached:
            model.decode_hidden(too_long, h_en, enc_mask)
        cache = DecoderCache()
        with no_grad():
            for _ in range(model.dec_max_len):
                model.decode_hidden(bos, h_en, enc_mask, cache)
            with pytest.raises(InputError) as cached:
                model.decode_hidden(bos, h_en, enc_mask, cache)
        assert str(cached.value) == str(uncached.value)

    def test_decoding_builds_no_graph_and_leaves_grads_untouched(self, vocab):
        model = GeneratorModel(vocab, TINY_CFG, "multihead", seed=3)
        train_generator(make_pairs(vocab, n=4, k=2, seed=2), model, AmgTrainConfig(epochs=5))
        before = {name: p.grad.copy() for name, p in model.parameters()}
        trunk = model.decode_hidden
        outputs = []

        def recording_trunk(*args, **kwargs):
            outputs.append(trunk(*args, **kwargs))
            return outputs[-1]

        model.decode_hidden = recording_trunk
        generate_triples(model, [vocab.lang_id("ASL"), 6, 7], "ASL")
        assert outputs and all(out._parents == () for out in outputs)
        for name, p in model.parameters():
            assert np.array_equal(p.grad, before[name]), name


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


class TestCorruptSidecar:
    @pytest.fixture()
    def saved(self, vocab, tmp_path):
        out = tmp_path / "amg"
        save_generator(out, GeneratorModel(vocab, TINY_CFG, "sequential", seed=0))
        return out

    def test_loading_draws_no_random_numbers(self, vocab, saved, no_normal_draws):
        with pytest.raises(AssertionError, match="random normal"):
            GeneratorModel(vocab, TINY_CFG, "sequential", seed=0)
        loaded = load_generator(saved)
        expected = load_checkpoint(saved / "amg.ckpt")
        assert [name for name, _ in loaded.parameters()] == list(expected)
        assert all(np.array_equal(p.data, expected[name]) for name, p in loaded.parameters())

    def test_unknown_config_key_names_the_file(self, saved):
        _edit_json(saved / "amg.json", lambda p: p["config"].update(dropout=0.1))
        with pytest.raises(SokeError, match="amg.json"):
            load_generator(saved)

    def test_missing_mode_names_the_file(self, saved):
        _edit_json(saved / "amg.json", lambda p: p.pop("mode"))
        with pytest.raises(SokeError, match="amg.json"):
            load_generator(saved)

    def test_truncated_sidecar_names_the_file(self, saved):
        text = (saved / "amg.json").read_text()
        (saved / "amg.json").write_text(text[: len(text) // 2])
        with pytest.raises(SokeError, match="amg.json"):
            load_generator(saved)

    def test_vocab_without_codebook_sizes_names_the_file(self, saved):
        _edit_json(saved / "vocab.json", lambda p: p.pop("codebook_sizes"))
        with pytest.raises(SokeError, match="vocab.json"):
            load_generator(saved)

    @pytest.mark.parametrize("sizes", [[6, 8], [6, -2, 8]])
    def test_vocab_with_bad_codebook_sizes_names_the_file(self, saved, sizes):
        _edit_json(saved / "vocab.json", lambda p: p.update(codebook_sizes=sizes))
        with pytest.raises(InputError, match="vocab.json"):
            load_generator(saved)

    def test_checkpoint_with_full_vocabulary_heads_names_the_file_and_head(self, saved):
        # the checkpoint format of generators whose heads spanned the vocabulary
        params = load_checkpoint(saved / "amg.ckpt")
        width = len(load_vocab(saved / "vocab.json"))
        params["head_B.w"] = np.zeros((TINY_CFG.d_model, width), dtype=np.float32)
        params["head_B.b"] = np.zeros(width, dtype=np.float32)
        save_checkpoint(saved / "amg.ckpt", params)
        with pytest.raises(InputError, match=r"amg\.ckpt.*head_B\.w"):
            load_generator(saved)

    def test_checkpoint_with_key_biases_names_the_file_and_biases(self, saved):
        # the checkpoint format of generators whose key projections had a bias
        params = load_checkpoint(saved / "amg.ckpt")
        key_biases = ["dec0.cross.bk", "dec0.self.bk", "enc0.attn.bk"]
        for name in key_biases:
            params[name] = np.zeros(TINY_CFG.d_model, dtype=np.float32)
        save_checkpoint(saved / "amg.ckpt", params)
        with pytest.raises(InputError, match=r"amg\.ckpt.*unexpected") as raised:
            load_generator(saved)
        assert all(name in str(raised.value) for name in key_biases)

    def test_sidecar_is_the_config_dataclass(self, saved):
        payload = json.loads((saved / "amg.json").read_text())
        assert payload == {"mode": "sequential", "config": {
            "d_model": 32, "num_heads": 2, "enc_layers": 1, "dec_layers": 1, "ffn_dim": 64,
            "fuse_lambda": 1.0 / 3.0, "k_max": 8, "enc_max_len": 24,
        }}


# -- the per-mode teacher-forcing builders that MODE_SPECS replaced, kept as
# the oracle of generator_loss ------------------------------------------------


def _oracle_sequential_batch(pairs, vocab):
    flat_targets = [
        [t for triple in pair.triples for t in triple.as_tuple()] + [vocab.eos_id]
        for pair in pairs
    ]
    width = max(len(f) for f in flat_targets)
    inputs = np.full((len(pairs), width), vocab.pad_id, dtype=np.int64)
    targets = np.full((len(pairs), width), vocab.eos_id, dtype=np.int64)
    weights = np.zeros((len(pairs), width))
    for i, flat in enumerate(flat_targets):
        inputs[i, 0] = vocab.bos_id
        inputs[i, 1: len(flat)] = flat[:-1]
        targets[i, : len(flat)] = flat
        weights[i, : len(flat)] = 1.0
    support = np.stack([vocab.part_support_mask(PARTS[t % 3]) for t in range(width)])[None]
    return inputs, targets, weights, support


def _oracle_stream_batch(pairs, vocab):
    k_width = max(len(pair.triples) for pair in pairs) + 1
    b = len(pairs)
    inputs = np.full((3 * b, k_width), vocab.pad_id, dtype=np.int64)
    targets = np.full((3 * b, k_width), vocab.eos_id, dtype=np.int64)
    weights = np.zeros((3 * b, k_width))
    support = np.zeros((3 * b, 1, len(vocab)), dtype=bool)
    for j, part in enumerate(PARTS):
        part_mask = vocab.part_support_mask(part)
        for i, pair in enumerate(pairs):
            row = j * b + i
            stream = [triple.as_tuple()[j] for triple in pair.triples]
            inputs[row, 0] = vocab.lang_part_id(pair.lang, part)
            inputs[row, 1: 1 + len(stream)] = stream
            targets[row, : len(stream)] = stream
            targets[row, len(stream)] = vocab.eos_id
            weights[row, : len(stream) + 1] = 1.0
            support[row, 0] = part_mask
    return inputs, targets, weights, support


def _oracle_multihead_batch(pairs, vocab):
    k_width = max(len(pair.triples) for pair in pairs) + 1
    b = len(pairs)
    in_triples = np.full((b, k_width - 1, 3), vocab.pad_id, dtype=np.int64)
    targets = {part: np.full((b, k_width), vocab.eos_id, dtype=np.int64) for part in PARTS}
    weights = np.zeros((b, k_width))
    for i, pair in enumerate(pairs):
        k = len(pair.triples)
        for step, triple in enumerate(pair.triples):
            in_triples[i, step] = triple.as_tuple()
            targets[Part.BODY][i, step] = triple.body
            targets[Part.LEFT_HAND][i, step] = triple.left
            targets[Part.RIGHT_HAND][i, step] = triple.right
        weights[i, : k + 1] = 1.0
    return in_triples, targets, weights


def _narrow_head_loss(model, hidden, head, targets, support, weights):
    """cross_entropy of one head given vocabulary-id targets and full-width
    support masks, both read at the head's own columns."""
    columns = model.head_columns[head]
    assert np.isin(targets, columns).all()
    return cross_entropy(model.head_logits(hidden, head), np.searchsorted(columns, targets),
                         support_mask=support[..., columns], weights=weights)


def _oracle_generator_loss(model, pairs):
    vocab = model.vocab
    width = max(len(pair.prompt_ids) for pair in pairs)
    prompts = np.full((len(pairs), width), vocab.pad_id, dtype=np.int64)
    for i, pair in enumerate(pairs):
        prompts[i, : len(pair.prompt_ids)] = pair.prompt_ids
    h_en, enc_mask = model.encode(prompts)
    if model.mode == "sequential":
        inputs, targets, weights, support = _oracle_sequential_batch(pairs, vocab)
        hidden = model.decode_hidden(model.token_embeddings(inputs), h_en, enc_mask)
        return _narrow_head_loss(model, hidden, Part.BODY, targets, support, weights)
    if model.mode == "parallel":
        inputs, targets, weights, support = _oracle_stream_batch(pairs, vocab)
        h_rep = concat([h_en, h_en, h_en], axis=0)
        mask_rep = np.concatenate([enc_mask] * 3, axis=0)
        hidden = model.decode_hidden(model.token_embeddings(inputs), h_rep, mask_rep)
        return _narrow_head_loss(model, hidden, Part.BODY, targets, support, weights)
    in_triples, targets, weights = _oracle_multihead_batch(pairs, vocab)
    b = in_triples.shape[0]
    bos = model.token_embeddings(np.full((b, 1), vocab.bos_id, dtype=np.int64))
    fused = fuse_embeddings(*(model.token_embeddings(in_triples[:, :, j]) for j in range(3)),
                            model.config.fuse_lambda)
    hidden = model.decode_hidden(concat([bos, fused], axis=1), h_en, enc_mask)
    losses = [_narrow_head_loss(model, hidden, part, targets[part],
                                vocab.part_support_mask(part)[None, None, :], weights)
              for part in PARTS]
    return (losses[0] + losses[1] + losses[2]) * (1.0 / 3.0)


class TestTeacherForcingOracle:
    @pytest.mark.parametrize("mode", ["sequential", "parallel", "multihead"])
    def test_loss_and_gradients_match_per_mode_builders(self, vocab, mode):
        rng = np.random.default_rng(17)
        pairs = []
        for i, (k, lang) in enumerate([(3, "ASL"), (1, "CSL"), (5, "CSL"), (2, "ASL")]):
            codes = [(int(rng.integers(SIZES[0])), int(rng.integers(SIZES[1])),
                      int(rng.integers(SIZES[2]))) for _ in range(k)]
            prompt = [vocab.lang_id(lang)] + [vocab.encode_text(WORDS[i])[0]] * (i + 1)
            pairs.append(TrainPair(tuple(prompt), tuple(make_triples(vocab, codes)), lang))
        model = GeneratorModel(vocab, TINY_CFG, mode, seed=23)
        # a few steps away from the zero-initialized heads, so every gradient is live
        train_generator(pairs, model, AmgTrainConfig(epochs=3))

        def loss_and_grads(loss_fn):
            for _, p in model.parameters():
                p.zero_grad()
            loss = loss_fn(model, pairs)
            loss.backward()
            return loss.data.copy(), {name: p.grad.copy() for name, p in model.parameters()}

        loss, grads = loss_and_grads(teacher_forced_loss)
        oracle_loss, oracle_grads = loss_and_grads(_oracle_generator_loss)
        assert np.array_equal(loss, oracle_loss)
        assert grads.keys() == oracle_grads.keys()
        for name, grad in grads.items():
            assert np.array_equal(grad, oracle_grads[name]), name


# -- generator_loss against full-vocabulary heads under support masks ------------


def _full_vocabulary_loss(model, pairs):
    """Every head's cross-entropy over the whole vocabulary, with one support
    mask per (decoder row, step) read off the mode's slot table; the model's
    heads must span the whole vocabulary (_pad_heads)."""
    vocab, spec = model.vocab, MODE_SPECS[model.mode]
    b, rows, period, heads = len(pairs), len(spec.starts), len(spec.schedule), spec.heads
    width = period * max(len(pair.triples) for pair in pairs) + 1
    support = np.zeros((len(heads), rows * b, width, len(vocab)), dtype=bool)
    targets = np.full((len(heads), rows * b, width), vocab.eos_id, dtype=np.int64)
    weights = np.zeros((rows * b, width))
    slots = [(t, r, heads.index(head), part) for t in range(width)
             for r, head, part in spec.schedule[t % period]]
    for i, pair in enumerate(pairs):
        flat = [token for triple in pair.triples for token in triple.as_tuple()]
        for r in range(rows):
            weights[r * b + i, : period * len(pair.triples) + 1] = 1.0
        for n, (t, r, h, part) in enumerate(slots):
            support[h, r * b + i, t] = vocab.part_support_mask(part)
            if n < len(flat):
                targets[h, r * b + i, t] = flat[n]
    inputs = np.full((rows * b, width, len(heads)), vocab.pad_id, dtype=np.int64)
    inputs[:, 0] = np.array([spec.start_ids(vocab, pair.lang) for pair in pairs]).T.reshape(-1, 1)
    shifted = np.moveaxis(targets, 0, -1)[:, :-1]
    inputs[:, 1:] = np.where(shifted == vocab.eos_id, vocab.pad_id, shifted)
    width_p = max(len(pair.prompt_ids) for pair in pairs)
    prompts = np.full((b, width_p), vocab.pad_id, dtype=np.int64)
    for i, pair in enumerate(pairs):
        prompts[i, : len(pair.prompt_ids)] = pair.prompt_ids
    h_en, enc_mask = tile_rows(*model.encode(prompts), rows)
    if spec.fuse:
        fused = fuse_embeddings(*(model.token_embeddings(inputs[:, 1:, j]) for j in range(3)),
                                model.config.fuse_lambda)
        dec_emb = concat([model.token_embeddings(inputs[:, :1, 0]), fused], axis=1)
    else:
        dec_emb = model.token_embeddings(inputs[..., 0])
    hidden = model.decode_hidden(dec_emb, h_en, enc_mask)
    losses = [cross_entropy(model.head_logits(hidden, head), targets[j], support_mask=support[j],
                            weights=weights) for j, head in enumerate(heads)]
    return sum(losses[1:], losses[0]) * (1.0 / len(losses))


def _pad_heads(model):
    """Widen every head to the whole vocabulary: its own columns keep their
    values, every other id gets a zero weight column and a zero bias."""
    for head, columns in model.head_columns.items():
        for key, narrow in model.heads[head].items():
            wide = np.zeros(narrow.shape[:-1] + (len(model.vocab),), dtype=np.float32)
            wide[..., columns] = narrow.data
            model.heads[head][key] = Tensor(wide, requires_grad=True)
    return model


def _split_padded(model, name, array):
    """A padded head parameter's entries (or gradient) at its head's columns,
    and at every other id."""
    columns = model.head_columns[Part(name.split(".")[0].removeprefix("head_"))]
    return array[..., columns], np.delete(array, columns, axis=-1)


def _assert_close(actual, expected, name, rel):
    """Within `rel` of the largest expected entry. The narrow normaliser sums
    fewer float64 terms than the full-width one, so the two differ in their
    last bits; float32 storage turns that into an ulp here and there, which
    backward passes and Adam steps carry into every tensor."""
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max(), name


def _mixed_pairs(vocab, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for i, (k, lang) in enumerate([(2, "ASL"), (4, "CSL"), (1, "DGS"), (3, "ASL"), (2, "CSL")]):
        codes = [tuple(int(rng.integers(n)) for n in SIZES) for _ in range(k)]
        prompt = [vocab.lang_id(lang)] + [vocab.encode_text(WORDS[i % 4])[0]] * (i + 1)
        pairs.append(TrainPair(tuple(prompt), tuple(make_triples(vocab, codes)), lang))
    return pairs


class TestHeadColumns:
    @pytest.mark.parametrize("mode", MODES)
    def test_each_head_spans_the_ids_its_slots_can_emit(self, vocab, mode):
        spec = MODE_SPECS[mode]
        model = GeneratorModel(vocab, TINY_CFG, mode, seed=0)
        slots = [slot for step in spec.schedule for slot in step]
        for head in spec.heads:
            emit = {vocab.eos_id}
            for _, slot_head, part in slots:
                if slot_head == head:
                    emit.update(range(*vocab.part_range(part)))
            assert model.head_columns[head].tolist() == sorted(emit)
            assert model.heads[head]["w"].shape == (TINY_CFG.d_model, len(emit))
            assert model.heads[head]["b"].shape == (len(emit),)

    @pytest.mark.parametrize("mode, widths", [
        ("sequential", {Part.BODY: 161}),
        ("parallel", {Part.BODY: 161}),
        ("multihead", {Part.BODY: 33, Part.LEFT_HAND: 65, Part.RIGHT_HAND: 65}),
    ])
    def test_head_widths_at_the_train_config(self, mode, widths):
        config = load_run_config(Path(__file__).resolve().parents[1] / "benchmark" / "configs"
                                 / "train.json")
        assert config.deto.codebook_sizes == (32, 64, 64)
        model = GeneratorModel(Vocabulary(WORDS, config.deto.codebook_sizes), config.amg, mode)
        assert {head: p["w"].shape for head, p in model.heads.items()} == \
            {head: (config.amg.d_model, width) for head, width in widths.items()}


class TestFullVocabularyOracle:
    @pytest.mark.parametrize("mode", MODES)
    def test_loss_and_every_gradient_match_padded_heads(self, vocab, mode):
        pairs = _mixed_pairs(vocab, 5)
        model = GeneratorModel(vocab, TINY_CFG, mode, seed=3)
        train_generator(pairs, model, AmgTrainConfig(epochs=4))  # heads away from zero

        def loss_and_grads(loss_fn):
            for _, p in model.parameters():
                p.zero_grad()
            loss = loss_fn(model, pairs)
            loss.backward()
            return loss.data.copy(), {name: p.grad.copy() for name, p in model.parameters()}

        loss, grads = loss_and_grads(teacher_forced_loss)
        _pad_heads(model)
        oracle_loss, oracle_grads = loss_and_grads(_full_vocabulary_loss)
        _assert_close(loss, oracle_loss, "loss", 1e-6)
        for name, grad in grads.items():
            oracle = oracle_grads[name]
            if name.startswith("head_"):
                # why a head needs no other columns: they get exactly +0.0
                oracle, outside = _split_padded(model, name, oracle)
                assert not outside.any() and not np.signbit(outside).any(), name
            _assert_close(grad, oracle, name, 1e-5)  # measured: at most 1.4e-6

    @pytest.mark.parametrize("mode", MODES)
    def test_training_run_matches_padded_heads(self, vocab, mode):
        from adam_reference import PerParameterAdam
        from soke.grad import CosineSchedule

        pairs = _mixed_pairs(vocab, 9)
        cfg = AmgTrainConfig(epochs=12, lr=1e-2)
        model = GeneratorModel(vocab, TINY_CFG, mode, seed=4)
        _, log = train_generator(pairs, model, cfg)
        oracle = _pad_heads(GeneratorModel(vocab, TINY_CFG, mode, seed=4))
        opt = PerParameterAdam([p for _, p in oracle.parameters()],
                               schedule=CosineSchedule(cfg.lr, cfg.epochs, cfg.min_lr))
        losses = []
        for _ in range(cfg.epochs):
            opt.zero_grad()
            loss = _full_vocabulary_loss(oracle, pairs)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert [entry["loss"] for entry in log] == pytest.approx(
            [losses[e["epoch"]] for e in log], rel=1e-6)
        for (name, p), (_, q) in zip(model.parameters(), oracle.parameters()):
            expected = q.data
            if name.startswith("head_"):  # Adam leaves a zero gradient's entries at +0.0
                expected, outside = _split_padded(oracle, name, expected)
                assert not outside.any() and not np.signbit(outside).any(), name
            _assert_close(p.data, expected, name, 1e-4)  # measured: at most 2.9e-5


# -- the trunk against its two-branch form (trunk_oracle.py) ---------------------

TRUNK_CFG = AmgConfig(d_model=32, num_heads=2, enc_layers=2, dec_layers=2, ffn_dim=64,
                      k_max=6, enc_max_len=24)


class TestTwoBranchTrunkOracle:
    @pytest.mark.parametrize("mode", MODES)
    def test_loss_and_every_gradient_are_bit_identical(self, vocab, mode, monkeypatch):
        pairs = _mixed_pairs(vocab, 11)  # prompts of several lengths, so some are padded
        model = GeneratorModel(vocab, TRUNK_CFG, mode, seed=6)
        train_generator(pairs, model, AmgTrainConfig(epochs=4))  # heads away from zero

        def loss_and_grads():
            for _, p in model.parameters():
                p.zero_grad()
            loss = teacher_forced_loss(model, pairs)
            loss.backward()
            return loss.data.copy(), {name: p.grad.copy() for name, p in model.parameters()}

        loss, grads = loss_and_grads()
        trunk_oracle.install(monkeypatch, model)
        oracle_loss, oracle_grads = loss_and_grads()
        assert np.array_equal(loss, oracle_loss)
        assert grads.keys() == oracle_grads.keys()
        for name, grad in grads.items():
            assert np.array_equal(grad, oracle_grads[name]), name
        assert np.abs(grads["dec1.self.wq"]).max() > 0  # the last layer's self-attention is live

    @pytest.mark.parametrize("mode", MODES)
    def test_greedy_decode_is_the_same(self, vocab, mode, monkeypatch):
        pairs = _mixed_pairs(vocab, 12)
        model = GeneratorModel(vocab, TRUNK_CFG, mode, seed=7)
        train_generator(pairs, model, AmgTrainConfig(epochs=40, lr=4e-3))
        prompts = [(list(pair.prompt_ids), pair.lang) for pair in pairs]
        prompts.append(([vocab.lang_id("ASL")] + vocab.encode_text("gamma alpha delta"), "ASL"))

        def decode_all():
            return [(generate_triples(model, prompt, lang),
                     greedy_decode(model, *model.encode([prompt]), lang, k_max=2))
                    for prompt, lang in prompts]

        results = decode_all()
        trunk_oracle.install(monkeypatch, model)
        assert decode_all() == results
        assert any(result.triples for result, _ in results)
