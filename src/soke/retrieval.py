"""Retrieval-enhanced prompting from a word-level sign dictionary.

Dictionary entries are (lemma, per-part token sequences, reconstruction
error) quadruples; when a word has several recorded instances, the one with
the lowest tokenizer round-trip PA-MPJPE wins. Prompts are the language tag,
the text tokens, then each matched word's motion tokens appended in sentence
order as contiguous per-part blocks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .amg import Vocabulary
from .artifacts import from_dict, read_json, write_json
from .deto import DOWNSAMPLE, DecoupledTokenizer, TokenSeq
from .errors import InputError
from .metrics import reconstruction_pa_mpjpe
from .motion import PARTS, KinematicChain, MotionSequence
from .textproc import lemmatize, tokenize_words


@dataclass(frozen=True)
class DictionaryEntry:
    word: str  # lemmatized
    tokens: dict  # Part -> TokenSeq
    recon_error: float

    def __post_init__(self):
        lengths = {len(self.tokens[p]) for p in PARTS}
        if len(lengths) != 1:
            raise InputError(f"entry {self.word!r}: part token sequences differ in length")
        if not 0 <= self.recon_error < math.inf:
            raise InputError(f"entry {self.word!r}: reconstruction error {self.recon_error} "
                             "is negative or not finite")


@dataclass(frozen=True)
class _WordRecord:
    """One word of dict.json: its token ids per part and its error."""

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
                word: asdict(_WordRecord(*(entry.tokens[part].ids for part in PARTS),
                                         entry.recon_error))
                for word, entry in sorted(table.items())
            }
            for lang, table in sorted(self._entries.items())
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SignDictionary":
        """The dictionary `to_json` wrote; a word record with a missing or
        unknown key or a value of the wrong type raises ConfigError."""
        out = cls()
        for lang, table in payload.items():
            for word, rec in table.items():
                stored = from_dict(_WordRecord, rec, f"{lang}.{word}", complete=True)
                tokens = {part: TokenSeq(part, getattr(stored, part.value)) for part in PARTS}
                out.offer(lang, DictionaryEntry(word, tokens, stored.err))
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
        tokens = deto.encode_sequence(seq)
        recon = deto.decode_tokens(tokens, num_frames=seq.num_frames, fps=seq.fps,
                                   language_tag=seq.language_tag)
        error = reconstruction_pa_mpjpe(recon, seq, chain)
        entry = DictionaryEntry(word=lemmatize(word), tokens=tokens, recon_error=error)
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
    contributes its B, LH, RH token ids contiguously, in sentence order, with
    no separator between words; unmatched words contribute nothing.
    """
    prompt = [vocab.lang_id(lang)] + vocab.encode_text(text)
    if dictionary is None:
        return prompt
    for word in tokenize_words(text):
        entry = dictionary.lookup(lang, lemmatize(word))
        if entry is None:
            continue
        for part in PARTS:
            prompt.extend(vocab.motion_ids(part, entry.tokens[part].ids))
    return prompt


def save_dictionary(path: str | Path, dictionary: SignDictionary) -> None:
    write_json(path, dictionary.to_json())


def load_dictionary(path: str | Path) -> SignDictionary:
    return read_json(path, SignDictionary.from_json)
