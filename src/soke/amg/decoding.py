"""Greedy decoding in three factorizations of one autoregressive generator.

`greedy_decode` is the one loop for every mode: it reads the entry of
`MODE_SPECS` (model.py) for the model's own mode, so a model decodes only in
the mode it was trained for. Sequential decoding runs one flat stream with
3K passes for K triples; parallel decoding runs three streams seeded by
<Lang_p> start tokens as the three rows of one batched pass; multi-head
decoding feeds one trunk pass to three part heads and the fused embedding of
their picks back in. Each step is one decoder pass and one pick per slot, a
(row, head, support part) triple: the argmax of the row's head logits over
the positions of the head's columns that the part's support allows, found
once per decode, or a plain argmax where the support is every column, as in
multi-head decoding. A pass runs one new position per row (one row per
start token) through `decode_hidden`, the trunk that teacher-forced
training runs over its whole prefix, against a per-prompt `DecoderCache`.
The cache holds the cross-attention keys and values of the prompt and the
self-attention keys and values of the positions run so far.
Decoding builds no autodiff graph (`no_grad`).
Decoding stops at the first step where any slot picks EOS, and that step is
excluded. The kept picks, in step and slot order, are the flat stream
(B, LH, RH, B, ...): they are grouped in threes, a trailing partial triple
is dropped, and step_count is len(schedule) * K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from ..grad import Tensor, no_grad
from .model import MODE_SPECS, DecoderCache, GeneratorModel, fuse_embeddings
from .vocab import Vocabulary


@dataclass(frozen=True)
class PartTokenTriple:
    """One decoding step's motion token per part (vocabulary ids)."""

    body: int
    left: int
    right: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.body, self.left, self.right)


@dataclass(frozen=True)
class DecodeResult:
    """One greedy decode: K triples and the decoder passes they took.

    step_count: the decoder passes that produced kept output; 3K for
    sequential decoding, K for parallel and multi-head decoding.
    forward_passes: every decoder pass run, one per step also for the three
    rows of parallel decoding; a pass runs one new position per row against
    the decoder cache. It is step_count + 1 when decoding stops on
    EOS (plus the passes of a dropped partial triple in sequential mode) and
    step_count when it reaches k_max.
    """

    triples: tuple[PartTokenTriple, ...]
    step_count: int
    forward_passes: int


def flatten(triples: list[PartTokenTriple], vocab: Vocabulary) -> list[int]:
    """(y_1^B, y_1^LH, y_1^RH, ..., y_K^RH) as one flat list; 3K tokens.
    Rejects a token in the wrong part slot."""
    flat = [token for triple in triples for token in triple.as_tuple()]
    vocab.motion_codes(np.array(flat, dtype=np.int64).reshape(-1, 3))
    return flat


def unflatten(flat: list[int], vocab: Vocabulary) -> list[PartTokenTriple]:
    """Inverse of flatten; rejects lengths not divisible by 3 and tokens in
    the wrong part slot."""
    if len(flat) % 3 != 0:
        raise InputError(f"flat token list of length {len(flat)} is not divisible by 3")
    vocab.motion_codes(np.array(flat, dtype=np.int64).reshape(-1, 3))
    return [PartTokenTriple(*flat[k: k + 3]) for k in range(0, len(flat), 3)]


def _allowed_positions(support: np.ndarray) -> np.ndarray | None:
    """The positions of a head's columns that a slot's support allows, in
    increasing order; None where it allows every column."""
    return None if support.all() else np.flatnonzero(support)


def _pick(logits_row: np.ndarray, allowed: np.ndarray | None, columns: np.ndarray) -> int:
    """Greedy argmax of a head's logits over the allowed positions of its
    sorted columns, as a token id. argmax takes the first maximum and the
    positions increase, so ties go to the lowest id."""
    if allowed is None:
        return int(columns[np.argmax(logits_row)])
    return int(columns[allowed[np.argmax(logits_row[allowed])]])


def greedy_decode(
    model: GeneratorModel,
    h_en: Tensor,
    enc_mask: np.ndarray,
    lang: str | None = None,
    k_max: int | None = None,
) -> DecodeResult:
    """Greedy decoding of an encoded prompt in the model's mode, for at most
    k_max triples (default: the model's k_max).

    `lang` picks the <Lang_p> start tokens of parallel decoding; the other
    modes start from BOS and ignore it.
    """
    spec = MODE_SPECS[model.mode]
    vocab, columns = model.vocab, model.head_columns
    k_max = model.config.k_max if k_max is None else k_max
    allowed = {(head, part): _allowed_positions(vocab.part_support(part, columns[head]))
               for slots in spec.schedule for _, head, part in slots}
    picks: list[int] = []
    max_steps = len(spec.schedule) * k_max
    passes = max_steps
    with no_grad():
        cache = DecoderCache()  # one encoder row, broadcast over the decoder rows
        dec_emb = model.token_embeddings(np.asarray(spec.start_ids(vocab, lang))[:, None])
        for t in range(max_steps):
            hidden = model.decode_hidden(dec_emb, h_en, enc_mask, cache=cache)
            slots = spec.schedule[t % len(spec.schedule)]
            logits = {}
            for _, head, _ in slots:
                if head not in logits:
                    logits[head] = model.head_logits(hidden, head).data[:, -1]
            tokens = [_pick(logits[head][row], allowed[head, part], columns[head])
                      for row, head, part in slots]
            if vocab.eos_id in tokens:
                passes = t + 1
                break
            picks.extend(tokens)
            if spec.fuse:
                embs = [model.token_embeddings(np.asarray([[token]])) for token in tokens]
                dec_emb = fuse_embeddings(*embs, model.config.fuse_lambda)
            else:
                dec_emb = model.token_embeddings(np.asarray(tokens)[:, None])
    k = len(picks) // 3
    return DecodeResult(triples=tuple(unflatten(picks[: 3 * k], vocab)),
                        step_count=len(spec.schedule) * k, forward_passes=passes)


def generate_triples(model: GeneratorModel, prompt_ids: list[int], lang: str) -> DecodeResult:
    """Encode a prompt and decode it greedily in the model's mode."""
    with no_grad():
        return greedy_decode(model, *model.encode([prompt_ids]), lang)
