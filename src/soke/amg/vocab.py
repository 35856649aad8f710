"""Integrated vocabulary: text words, per-part motion tokens, control tokens.

Token id space (one bijection onto [0, |V|)):
  PAD, BOS, EOS, UNK, SEP | language ids | per-language-per-part start tokens
  | sorted text words | <B_i> | <LH_i> | <RH_i>
"""

from __future__ import annotations

import numpy as np

from ..artifacts import read_json, write_json
from ..errors import VocabularyError
from ..motion import PARTS, Part
from ..textproc import tokenize_words

LANGUAGES = ("ASL", "CSL", "DGS")
PAD, BOS, EOS, UNK, SEP = "<PAD>", "<BOS>", "<EOS>", "<UNK>", "<SEP>"


class Vocabulary:
    def __init__(self, words: list[str], codebook_sizes: tuple[int, int, int],
                 languages: tuple[str, ...] = LANGUAGES):
        self.languages = tuple(languages)
        self.codebook_sizes = tuple(codebook_sizes)
        tokens: list[str] = [PAD, BOS, EOS, UNK, SEP]
        tokens += [f"<{lang}>" for lang in self.languages]
        tokens += [f"<{lang}_{part.value}>" for lang in self.languages for part in PARTS]
        self._word_list = sorted(set(w.lower() for w in words))
        tokens += self._word_list
        self._part_start: dict[Part, int] = {}
        for part, n in zip(PARTS, codebook_sizes):
            self._part_start[part] = len(tokens)
            tokens += [f"<{part.value}_{i}>" for i in range(n)]
        self._tokens = tokens
        self._ids = {tok: i for i, tok in enumerate(tokens)}
        if len(self._ids) != len(tokens):
            raise VocabularyError("duplicate token strings in vocabulary")

    # -- sizes and specials ------------------------------------------------

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def pad_id(self) -> int:
        return self._ids[PAD]

    @property
    def bos_id(self) -> int:
        return self._ids[BOS]

    @property
    def eos_id(self) -> int:
        return self._ids[EOS]

    @property
    def unk_id(self) -> int:
        return self._ids[UNK]

    @property
    def sep_id(self) -> int:
        return self._ids[SEP]

    # -- text ------------------------------------------------------------------

    def encode_text(self, text: str) -> list[int]:
        return [self._ids.get(w, self.unk_id) for w in tokenize_words(text)]

    # -- control tokens -----------------------------------------------------------

    def lang_id(self, lang: str) -> int:
        key = f"<{lang}>"
        if key not in self._ids:
            raise VocabularyError(f"unknown language tag {lang!r}")
        return self._ids[key]

    def lang_part_id(self, lang: str, part: Part) -> int:
        key = f"<{lang}_{part.value}>"
        if key not in self._ids:
            raise VocabularyError(f"unknown language tag {lang!r}")
        return self._ids[key]

    # -- motion tokens ----------------------------------------------------------------

    def motion_id(self, part: Part, code_index: int) -> int:
        n = self.codebook_sizes[PARTS.index(part)]
        if not 0 <= code_index < n:
            raise VocabularyError(f"code index {code_index} outside [0, {n}) for part {part.value}")
        return self._part_start[part] + code_index

    def motion_ids(self, part: Part, code_indices) -> list[int]:
        return [self.motion_id(part, int(c)) for c in code_indices]

    def part_range(self, part: Part) -> tuple[int, int]:
        start = self._part_start[part]
        return start, start + self.codebook_sizes[PARTS.index(part)]

    def part_of(self, token_id: int) -> Part | None:
        for part in PARTS:
            lo, hi = self.part_range(part)
            if lo <= token_id < hi:
                return part
        return None

    def code_of(self, token_id: int) -> tuple[Part, int]:
        part = self.part_of(token_id)
        if part is None:
            raise VocabularyError(f"token {token_id} is not a motion token")
        return part, token_id - self._part_start[part]

    def part_support_mask(self, part: Part) -> np.ndarray:
        """Boolean mask over the vocabulary: this part's motion tokens plus EOS."""
        mask = np.zeros(len(self), dtype=bool)
        lo, hi = self.part_range(part)
        mask[lo:hi] = True
        mask[self.eos_id] = True
        return mask

    # -- persistence ------------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "words": self._word_list,
            "codebook_sizes": list(self.codebook_sizes),
            "languages": list(self.languages),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Vocabulary":
        return cls(
            words=payload["words"],
            codebook_sizes=tuple(payload["codebook_sizes"]),
            languages=tuple(payload["languages"]),
        )

    @classmethod
    def from_corpus(cls, texts: list[str], codebook_sizes: tuple[int, int, int],
                    languages: tuple[str, ...] = LANGUAGES) -> "Vocabulary":
        words: set[str] = set()
        for text in texts:
            words.update(tokenize_words(text))
        return cls(sorted(words), codebook_sizes, languages)


def save_vocab(path, vocab: Vocabulary) -> None:
    write_json(path, vocab.to_json())


def load_vocab(path) -> Vocabulary:
    return read_json(path, Vocabulary.from_json)
