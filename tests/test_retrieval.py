import json

import numpy as np
import pytest

from soke.amg import Vocabulary
from soke.deto import DetoConfig, DetoTrainConfig, train_tokenizer
from soke.errors import InputError
from soke.metrics import reconstruction_pa_mpjpe
from soke.motion import (
    MotionSequence,
    Part,
    SynthConfig,
    build_sign_chain,
    sign_instances,
    synthesize_dataset,
)
from soke.retrieval import (
    DictionaryEntry,
    SignDictionary,
    build_dictionary,
    build_prompt,
    load_dictionary,
    save_dictionary,
)
from soke.textproc import lemmatize

SYNTH = SynthConfig(lexicon_size=6, num_sentences=8, sentence_words=(1, 3))


@pytest.fixture(scope="module")
def chain():
    return build_sign_chain()


@pytest.fixture(scope="module")
def deto():
    corpus = [seq for _, seq in synthesize_dataset(SYNTH, seed=21)]
    trained, _ = train_tokenizer(
        corpus,
        config=DetoConfig(code_dim=16, codebook_sizes=(10, 12, 12), hidden_channels=12),
        train_config=DetoTrainConfig(steps=300, lr=3e-3),
        seed=2,
    )
    return trained


@pytest.fixture(scope="module")
def vocab(deto):
    return Vocabulary(["book", "cold", "water"], deto.config.codebook_sizes)


def entry_for(word, n=3, err=1.0, sizes=(10, 12, 12)):
    return DictionaryEntry(word=word, codes=np.arange(n)[:, None] % np.array(sizes),
                           recon_error=err)


class TestLemmatizer:
    @pytest.mark.parametrize(
        "word,lemma",
        [("Books", "book"), ("RUNNING", "runn"), ("signed", "sign"), ("cold", "cold"),
         ("as", "as"), ("ing", "ing")],
    )
    def test_suffix_stripping(self, word, lemma):
        assert lemmatize(word) == lemma


class TestSignDictionary:
    def test_lowest_error_instance_wins(self):
        d = SignDictionary()
        assert d.offer("ASL", entry_for("book", err=4.1))
        assert d.offer("ASL", entry_for("book", err=2.8))
        assert not d.offer("ASL", entry_for("book", err=3.5))
        assert d.lookup("ASL", "book").recon_error == 2.8

    def test_tie_keeps_first_occurrence(self):
        d = SignDictionary()
        first = entry_for("cold", n=2, err=1.0)
        second = entry_for("cold", n=4, err=1.0)
        d.offer("ASL", first)
        assert not d.offer("ASL", second)
        assert d.lookup("ASL", "cold") is first

    def test_languages_are_separate(self):
        d = SignDictionary()
        d.offer("ASL", entry_for("book"))
        assert d.lookup("CSL", "book") is None

    def test_entry_without_codes_rejected(self):
        with pytest.raises(InputError, match="no codes"):
            DictionaryEntry(word="bad", codes=np.zeros((0, 3), dtype=np.int64), recon_error=0.1)


class TestBuildDictionary:
    def test_keeps_lower_error_instance(self, deto, chain):
        instances = sign_instances(SYNTH, seed=1, instances_per_word=2, instance_noise_std=0.25)
        dictionary, _ = build_dictionary(instances, deto, chain)
        # recompute both candidate errors for one word and check the argmin won
        word = instances[0][0]
        candidates = [seq for w, seq in instances if w == word]
        errors = []
        for seq in candidates:
            recon = deto.decode_tokens(deto.encode_sequence(seq), num_frames=seq.num_frames)
            errors.append(reconstruction_pa_mpjpe(recon, seq, chain))
        assert dictionary.lookup("ASL", lemmatize(word)).recon_error == pytest.approx(min(errors))

    def test_single_instance_per_word(self, deto, chain):
        instances = sign_instances(SYNTH, seed=1, instances_per_word=1)
        dictionary, warnings = build_dictionary(instances, deto, chain)
        assert len(dictionary) == len(instances)
        assert warnings == []

    def test_empty_instances(self, deto, chain):
        dictionary, warnings = build_dictionary([], deto, chain)
        assert len(dictionary) == 0 and warnings == []

    def test_short_instances_skipped_with_warning(self, deto, chain):
        short = MotionSequence(np.zeros((2, 133), dtype=np.float32))
        dictionary, warnings = build_dictionary([("stub", short)], deto, chain)
        assert len(dictionary) == 0
        assert warnings and warnings[0]["warning"] == "instance_too_short"

    def test_deterministic_rebuild(self, deto, chain):
        instances = sign_instances(SYNTH, seed=3, instances_per_word=2, instance_noise_std=0.1)
        d1, _ = build_dictionary(instances, deto, chain)
        d2, _ = build_dictionary(instances, deto, chain)
        assert d1.to_json() == d2.to_json()


class TestBuildPrompt:
    def test_empty_dictionary_prompt_is_lang_plus_text(self, vocab):
        prompt = build_prompt("cold water", "ASL", SignDictionary(), vocab)
        assert prompt == [vocab.lang_id("ASL")] + vocab.encode_text("cold water")
        assert build_prompt("cold water", "ASL", None, vocab) == prompt

    def test_matched_words_append_blocks_in_order(self, vocab):
        d = SignDictionary()
        d.offer("ASL", entry_for("cold", n=2))
        d.offer("ASL", entry_for("water", n=3))
        text = "water is cold"
        prompt = build_prompt(text, "ASL", d, vocab)
        base = [vocab.lang_id("ASL")] + vocab.encode_text(text)
        assert prompt[: len(base)] == base
        blocks = prompt[len(base):]
        # water (3 per part) first, then cold (2 per part)
        assert len(blocks) == 3 * 3 + 3 * 2
        water, cold = blocks[:9], blocks[9:]
        lo_b, hi_b = vocab.part_range(Part.BODY)
        assert all(lo_b <= t < hi_b for t in water[:3])
        assert all(lo_b <= t < hi_b for t in cold[:2])

    def test_prompt_length_accounting(self, vocab):
        d = SignDictionary()
        d.offer("ASL", entry_for("cold", n=4))
        text = "cold cold unknownword"
        prompt = build_prompt(text, "ASL", d, vocab)
        # 1 lang + 3 text + two matched occurrences of 3*4 tokens
        assert len(prompt) == 1 + 3 + 2 * 3 * 4

    def test_a_words_block_is_its_code_columns_in_part_order(self, vocab):
        d = SignDictionary()
        d.offer("ASL", DictionaryEntry("cold", np.array([[0, 1, 2], [3, 4, 5]]), 1.0))
        blocks = build_prompt("cold", "ASL", d, vocab)[2:]
        assert blocks == [vocab.motion_id(Part.BODY, 0), vocab.motion_id(Part.BODY, 3),
                          vocab.motion_id(Part.LEFT_HAND, 1), vocab.motion_id(Part.LEFT_HAND, 4),
                          vocab.motion_id(Part.RIGHT_HAND, 2), vocab.motion_id(Part.RIGHT_HAND, 5)]

    def test_lemmatized_match(self, vocab):
        d = SignDictionary()
        d.offer("ASL", entry_for("book", n=2))
        prompt = build_prompt("books", "ASL", d, vocab)
        assert len(prompt) == 1 + 1 + 3 * 2

    def test_deterministic(self, vocab):
        d = SignDictionary()
        d.offer("ASL", entry_for("cold", n=2))
        assert build_prompt("cold", "ASL", d, vocab) == build_prompt("cold", "ASL", d, vocab)


class TestPersistence:
    def test_json_round_trip(self, tmp_path, deto, chain):
        instances = sign_instances(SYNTH, seed=5, instances_per_word=1)
        dictionary, _ = build_dictionary(instances, deto, chain)
        path = tmp_path / "dict.json"
        save_dictionary(path, dictionary)
        loaded = load_dictionary(path)
        assert loaded.to_json() == dictionary.to_json()

    def test_a_word_record_holds_the_code_columns(self):
        d = SignDictionary()
        d.offer("ASL", DictionaryEntry("cold", np.array([[0, 1, 2], [3, 4, 5]]), 0.5))
        record = {"B": [0, 3], "LH": [1, 4], "RH": [2, 5], "err": 0.5}
        assert d.to_json() == {"ASL": {"cold": record}}
        assert SignDictionary.from_json(d.to_json()).lookup("ASL", "cold").codes.tolist() == [
            [0, 1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("corrupt", [
        lambda text: text[: len(text) // 2],
        lambda text: json.dumps({"ASL": {"cold": {"B": [0], "LH": [0], "RH": [0]}}}),
        lambda text: json.dumps({"ASL": {"cold": {"B": [0], "LH": [0], "RH": [0], "err": "x"}}}),
        lambda text: json.dumps(["ASL"]),
        lambda text: json.dumps({"ASL": {"cold": {"B": [1.7], "LH": [0], "RH": [0], "err": 0.5}}}),
        lambda text: json.dumps({"ASL": {"cold": {"B": [0], "LH": [True], "RH": [0], "err": 0.5}}}),
        lambda text: json.dumps({"ASL": {"cold": {"B": [0], "LH": [0], "RH": ["1"], "err": 0.5}}}),
        lambda text: json.dumps({"ASL": {"cold": {"B": [0], "LH": [0], "RH": [0],
                                                  "err": float("nan")}}}),
        lambda text: json.dumps({"ASL": {"cold": {"B": [0], "LH": [0], "RH": [0],
                                                  "err": float("inf")}}}),
        lambda text: json.dumps({"ASL": {"cold": {"B": [0, 1], "LH": [0], "RH": [0, 1],
                                                  "err": 0.5}}}),
        lambda text: json.dumps({"ASL": {"cold": {"B": [], "LH": [], "RH": [], "err": 0.5}}}),
    ], ids=["truncated", "missing-err", "string-err", "not-an-object", "float-id", "bool-id",
            "string-id", "nan-err", "inf-err", "unequal-lengths", "no-codes"])
    def test_corrupt_dictionary_names_the_file(self, tmp_path, corrupt):
        d = SignDictionary()
        d.offer("ASL", entry_for("cold", n=2))
        path = tmp_path / "dict.json"
        save_dictionary(path, d)
        path.write_text(corrupt(path.read_text()))
        with pytest.raises(InputError, match="dict.json"):
            load_dictionary(path)

    @pytest.mark.parametrize("record", [
        {"B": [0], "LH": [0], "RH": [0], "err": "0.5"},
        {"B": [0], "LH": [0], "RH": [0], "err": True},
        {"B": [0], "LH": [0], "RH": [0], "err": 0.5, "note": "best take"},
    ], ids=["numeric-string-err", "bool-err", "unknown-key"])
    def test_loosely_typed_word_record_names_the_file(self, tmp_path, record):
        path = tmp_path / "dict.json"
        path.write_text(json.dumps({"ASL": {"cold": record}}))
        with pytest.raises(InputError, match=r"dict\.json.*ASL\.cold"):
            load_dictionary(path)
