"""Retrieval-enhanced prompting from a word-level sign dictionary.

Dictionary entries are (lemma, (K, 3) code array, reconstruction error)
triples, column j of the array the codes of part PARTS[j]; when a word has
several recorded instances, the one with the lowest tokenizer round-trip
PA-MPJPE wins. Prompts are the language tag, the text tokens, then each
matched word's motion tokens appended in sentence order, one contiguous
block per part (the array's columns in turn).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .amg import Vocabulary
from .artifacts import from_dict, read_json, write_json
from .deto import DOWNSAMPLE, DecoupledTokenizer
from .errors import InputError
from .metrics import reconstruction_pa_mpjpe
from .motion import PARTS, KinematicChain, MotionSequence
from .textproc import lemmatize, tokenize_words


@dataclass(frozen=True, eq=False)
class DictionaryEntry:
    word: str  # lemmatized
    codes: np.ndarray  # (K, 3) int64, as DecoupledTokenizer.encode_sequence returns
    recon_error: float

    def __post_init__(self):
        if len(self.codes) == 0:
            raise InputError(f"entry {self.word!r} has no codes")
        if not 0 <= self.recon_error < math.inf:
            raise InputError(f"entry {self.word!r}: reconstruction error {self.recon_error} "
                             "is negative or not finite")


@dataclass(frozen=True)
class _WordRecord:
    """One word of dict.json: its code indices per part and its error."""

    B: tuple[int, ...]
    LH: tuple[int, ...]
    RH: tuple[int, ...]
    err: float


class SignDictionary:
    """language tag -> lemma -> best DictionaryEntry."""

    def __init__(self):
        self._entries: dict[str, dict[str, DictionaryEntry]] = {}

    def offer(self, lang: str, entry: DictionaryEntry) -> bool:
        """Insert unless an existing entry for (lang, word) has lower or equal
        error (ties keep the first occurrence). Returns True if stored."""
        table = self._entries.setdefault(lang, {})
        current = table.get(entry.word)
        if current is not None and current.recon_error <= entry.recon_error:
            return False
        table[entry.word] = entry
        return True

    def lookup(self, lang: str, word: str) -> DictionaryEntry | None:
        return self._entries.get(lang, {}).get(word)

    def words(self, lang: str) -> list[str]:
        return sorted(self._entries.get(lang, {}))

    def __len__(self) -> int:
        return sum(len(table) for table in self._entries.values())

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> dict:
        """lang -> word -> {"B": ids, "LH": ids, "RH": ids, "err": error}."""
        return {
            lang: {
                word: asdict(_WordRecord(*entry.codes.T.tolist(), entry.recon_error))
                for word, entry in sorted(table.items())
            }
            for lang, table in sorted(self._entries.items())
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SignDictionary":
        """The dictionary `to_json` wrote; a word record with a missing or
        unknown key or a value of the wrong type raises ConfigError, one with
        code lists of unequal length ValueError (from numpy)."""
        out = cls()
        for lang, table in payload.items():
            for word, rec in table.items():
                stored = from_dict(_WordRecord, rec, f"{lang}.{word}", complete=True)
                codes = np.array([getattr(stored, part.value) for part in PARTS], dtype=np.int64)
                out.offer(lang, DictionaryEntry(word, codes.T, stored.err))
        return out


def build_dictionary(
    instances: list[tuple[str, MotionSequence]],
    deto: DecoupledTokenizer,
    chain: KinematicChain,
) -> tuple[SignDictionary, list[dict]]:
    """Tokenize word-level recordings and keep the best instance per word.

    Instances too short to tokenize are skipped; skips are returned as
    warning records alongside the dictionary.
    """
    dictionary = SignDictionary()
    warnings: list[dict] = []
    for word, seq in instances:
        if seq.num_frames < DOWNSAMPLE:
            warnings.append({
                "warning": "instance_too_short", "word": word,
                "frames": seq.num_frames, "required": DOWNSAMPLE,
            })
            continue
        codes = deto.encode_sequence(seq)
        recon = deto.decode_tokens(codes, num_frames=seq.num_frames, fps=seq.fps,
                                   language_tag=seq.language_tag)
        error = reconstruction_pa_mpjpe(recon, seq, chain)
        entry = DictionaryEntry(word=lemmatize(word), codes=codes, recon_error=error)
        dictionary.offer(seq.language_tag, entry)
    return dictionary, warnings


def build_prompt(
    text: str,
    lang: str,
    dictionary: SignDictionary | None,
    vocab: Vocabulary,
) -> list[int]:
    """[lang token] ++ text tokens ++ matched words' motion-token blocks.

    Words are matched by their `lemmatize` form. Each matched word
    contributes the vocabulary ids of its code array column by column (its
    B, then LH, then RH ids), in sentence order, with no separator between
    words; unmatched words contribute nothing.
    """
    prompt = [vocab.lang_id(lang)] + vocab.encode_text(text)
    if dictionary is None:
        return prompt
    for word in tokenize_words(text):
        entry = dictionary.lookup(lang, lemmatize(word))
        if entry is not None:
            prompt.extend(vocab.motion_ids(entry.codes).ravel(order="F").tolist())
    return prompt


def save_dictionary(path: str | Path, dictionary: SignDictionary) -> None:
    write_json(path, dictionary.to_json())


def load_dictionary(path: str | Path) -> SignDictionary:
    return read_json(path, SignDictionary.from_json)
