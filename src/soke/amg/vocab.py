"""Integrated vocabulary: text words, per-part motion tokens, control tokens.

Token id space (one bijection onto [0, |V|)):
  PAD, BOS, EOS, UNK, SEP | language ids | per-language-per-part start tokens
  | sorted text words | <B_i> | <LH_i> | <RH_i>
No code emits SEP; it keeps its id so every later id, and with them saved
vocabularies and checkpoint shapes, stay as they are.
A motion's (K, 3) code array maps to its (K, 3) vocabulary ids by one offset
per column, the first id of part PARTS[j]'s range.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..artifacts import from_dict, read_json, write_json
from ..errors import InputError, VocabularyError
from ..motion import PARTS, Part
from ..textproc import tokenize_words

LANGUAGES = ("ASL", "CSL", "DGS")
PAD, BOS, EOS, UNK, SEP = "<PAD>", "<BOS>", "<EOS>", "<UNK>", "<SEP>"


class Vocabulary:
    def __init__(self, words: list[str], codebook_sizes: tuple[int, int, int],
                 languages: tuple[str, ...] = LANGUAGES):
        self.languages = tuple(languages)
        self.codebook_sizes = tuple(codebook_sizes)
        if len(self.codebook_sizes) != 3 or not all(type(n) is int and n > 0
                                                     for n in self.codebook_sizes):
            raise VocabularyError(f"codebook sizes {self.codebook_sizes!r} are not 3 positive ints")
        tokens: list[str] = [PAD, BOS, EOS, UNK, SEP]
        tokens += [f"<{lang}>" for lang in self.languages]
        tokens += [f"<{lang}_{part.value}>" for lang in self.languages for part in PARTS]
        self._word_list = sorted(set(w.lower() for w in words))
        tokens += self._word_list
        starts = []
        for part, n in zip(PARTS, codebook_sizes):
            starts.append(len(tokens))
            tokens += [f"<{part.value}_{i}>" for i in range(n)]
        self._starts = np.array(starts, dtype=np.int64)
        self._sizes = np.array(self.codebook_sizes, dtype=np.int64)
        self._ends = self._starts + self._sizes
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
        return self.part_range(part)[0] + code_index

    def motion_ids(self, codes) -> np.ndarray:
        """A (K, 3) code array, column j the codes of part PARTS[j], to its
        (K, 3) vocabulary ids. A code outside its part's codebook raises
        InputError naming the slot."""
        return self._in_slots(codes, 0, self._sizes, "code") + self._starts

    def motion_codes(self, ids) -> np.ndarray:
        """Inverse of motion_ids. An id outside its column's part range raises
        InputError naming the slot."""
        return self._in_slots(ids, self._starts, self._ends, "token") - self._starts

    def _in_slots(self, values, lo, hi, what: str) -> np.ndarray:
        """values as a (K, 3) int64 array whose column j lies in [lo[j], hi[j])."""
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[1] != len(PARTS) or values.dtype.kind not in "iu":
            raise InputError(f"expected a (K, 3) integer array of {what}s, got {values!r}")
        outside = (values < lo) | (values >= hi)
        if outside.any():
            k, j = np.argwhere(outside)[0]
            raise InputError(f"{what} {values[k, j]} at step {k} does not belong to the "
                             f"{PARTS[j].value} slot")
        return values.astype(np.int64, copy=False)

    def part_range(self, part: Part) -> tuple[int, int]:
        j = PARTS.index(part)
        return int(self._starts[j]), int(self._ends[j])

    def part_support(self, part: Part, ids: np.ndarray) -> np.ndarray:
        """Which of the token ids `ids` a slot of this part may emit: the
        part's motion tokens and EOS."""
        lo, hi = self.part_range(part)
        return ((ids >= lo) & (ids < hi)) | (ids == self.eos_id)

    def part_support_mask(self, part: Part) -> np.ndarray:
        """Boolean mask over the vocabulary: this part's motion tokens plus EOS."""
        return self.part_support(part, np.arange(len(self)))

    # -- persistence ------------------------------------------------------------------------

    def to_json(self) -> dict:
        return asdict(_VocabFile(tuple(self._word_list), self.codebook_sizes, self.languages))

    @classmethod
    def from_json(cls, payload: dict) -> "Vocabulary":
        """The vocabulary `to_json` wrote; a missing or unknown key or a value
        of the wrong type raises ConfigError."""
        stored = from_dict(_VocabFile, payload, complete=True)
        return cls(list(stored.words), stored.codebook_sizes, stored.languages)

    @classmethod
    def from_corpus(cls, texts: list[str], codebook_sizes: tuple[int, int, int],
                    languages: tuple[str, ...] = LANGUAGES) -> "Vocabulary":
        words: set[str] = set()
        for text in texts:
            words.update(tokenize_words(text))
        return cls(sorted(words), codebook_sizes, languages)


@dataclass(frozen=True)
class _VocabFile:
    """vocab.json: what rebuilds a Vocabulary."""

    words: tuple[str, ...]
    codebook_sizes: tuple[int, int, int]
    languages: tuple[str, ...]


def save_vocab(path, vocab: Vocabulary) -> None:
    write_json(path, vocab.to_json())


def load_vocab(path) -> Vocabulary:
    return read_json(path, Vocabulary.from_json)
