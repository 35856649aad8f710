"""Greedy decoding in three factorizations of one autoregressive generator.

One greedy loop serves every mode and reads the mode's entry of
`MODE_SPECS` (model.py). Each step is one decoder pass and one masked argmax
per slot, a (row, head, support part) triple. A pass runs one new position
per row (one row per start token) against a per-prompt `DecoderCache`, which
holds the cross-attention keys and values of the prompt and the
self-attention keys and values of the positions run so far. Decoding builds
no autodiff graph (`no_grad`).
Decoding stops at the first step where any slot picks EOS, and that step is
excluded. The kept picks, in step and slot order, are the flat stream
(B, LH, RH, B, ...): they are grouped in threes, and step_count is
len(schedule) * K.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import InputError, ModeError
from ..grad import Tensor, no_grad
from ..motion import PARTS
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
    """One greedy decode of K triples.

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
    wall_ms: float
    # per kept step, per head log-probabilities (multi-head mode only)
    step_logprobs: tuple[tuple[float, float, float], ...] | None = None

    @property
    def joint_logprob(self) -> float | None:
        if self.step_logprobs is None:
            return None
        return float(sum(sum(s) for s in self.step_logprobs))


def flatten(triples: list[PartTokenTriple], vocab: Vocabulary | None = None) -> list[int]:
    """(y_1^B, y_1^LH, y_1^RH, ..., y_K^RH) as one flat list; 3K tokens."""
    flat: list[int] = []
    for triple in triples:
        if vocab is not None:
            _check_slots(vocab, triple.as_tuple())
        flat.extend(triple.as_tuple())
    return flat


def unflatten(flat: list[int], vocab: Vocabulary | None = None) -> list[PartTokenTriple]:
    """Inverse of flatten; rejects lengths not divisible by 3 and tokens in
    the wrong part slot."""
    if len(flat) % 3 != 0:
        raise InputError(f"flat token list of length {len(flat)} is not divisible by 3")
    triples = []
    for k in range(0, len(flat), 3):
        if vocab is not None:
            _check_slots(vocab, flat[k: k + 3])
        triples.append(PartTokenTriple(*flat[k: k + 3]))
    return triples


def _check_slots(vocab: Vocabulary, token_ids) -> None:
    for token_id, part in zip(token_ids, PARTS):
        lo, hi = vocab.part_range(part)
        if not lo <= token_id < hi:
            raise InputError(
                f"token {token_id} does not belong to the {part.value} sub-vocabulary slot"
            )


def _masked_pick(logits_row: np.ndarray, support: np.ndarray) -> tuple[int, float]:
    """Greedy argmax over a support mask; ties go to the lowest token id.

    Returns (token id, log-probability under the masked softmax).
    """
    masked = np.where(support, logits_row.astype(np.float64), -np.inf)
    token = int(np.argmax(masked))
    # the masked log-softmax at its maximum, where z - max is 0
    return token, -float(np.log(np.exp(masked - masked[token]).sum()))


def _greedy(
    model: GeneratorModel,
    h_en: Tensor,
    enc_mask: np.ndarray,
    lang: str | None,
    k_max: int | None,
) -> DecodeResult:
    """Greedy decoding as MODE_SPECS[model.mode] lays it out, for at most
    len(schedule) * k_max steps; a trailing partial triple is dropped."""
    spec = MODE_SPECS[model.mode]
    vocab = model.vocab
    k_max = model.config.k_max if k_max is None else k_max
    start = time.perf_counter()
    supports = {part: vocab.part_support_mask(part) for part in PARTS}
    picks: list[tuple[int, float]] = []
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
            step = [_masked_pick(logits[head][row], supports[part]) for row, head, part in slots]
            tokens = [token for token, _ in step]
            if vocab.eos_id in tokens:
                passes = t + 1
                break
            picks.extend(step)
            if spec.fuse:
                embs = [model.token_embeddings(np.asarray([[token]])) for token in tokens]
                dec_emb = fuse_embeddings(*embs, model.config.fuse_lambda)
            else:
                dec_emb = model.token_embeddings(np.asarray(tokens)[:, None])
    k = len(picks) // 3
    triples = tuple(unflatten([token for token, _ in picks[: 3 * k]], vocab))
    logprobs = None
    if model.mode == "multihead":  # one triple of head log-probabilities per step
        logprobs = tuple(tuple(lp for _, lp in picks[i: i + 3]) for i in range(0, 3 * k, 3))
    return DecodeResult(triples=triples, step_count=len(spec.schedule) * k,
                        forward_passes=passes, wall_ms=(time.perf_counter() - start) * 1e3,
                        step_logprobs=logprobs)


def _check_mode(model: GeneratorModel, mode: str) -> None:
    if model.mode != mode:
        raise ModeError(f"model was trained for {model.mode!r}, not {mode} decoding")


def encode_prompt(model: GeneratorModel, prompt_ids: list[int]) -> tuple[Tensor, np.ndarray]:
    """Run the encoder over a single prompt; returns (h_en, key mask)."""
    ids = np.asarray([prompt_ids], dtype=np.int64)
    return model.encode(ids)


def decode_sequential(
    model: GeneratorModel, h_en: Tensor, enc_mask: np.ndarray, k_max: int | None = None
) -> DecodeResult:
    """Flat greedy decode over the single motion stream; 3K decoder passes
    for K emitted triples. Position slots mask logits to the matching part
    sub-vocabulary (plus EOS)."""
    _check_mode(model, "sequential")
    return _greedy(model, h_en, enc_mask, None, k_max)


def decode_parallel(
    model: GeneratorModel,
    h_en: Tensor,
    enc_mask: np.ndarray,
    lang: str,
    k_max: int | None = None,
) -> DecodeResult:
    """Three greedy streams seeded by <Lang_p> start tokens, decoded as the
    three rows of one batched decoder pass per step.

    All streams are truncated at the earliest EOS position; step_count is the
    truncated length K."""
    _check_mode(model, "parallel")
    return _greedy(model, h_en, enc_mask, lang, k_max)


def decode_multihead(
    model: GeneratorModel, h_en: Tensor, enc_mask: np.ndarray, k_max: int | None = None
) -> DecodeResult:
    """One decoder pass per triple: the shared trunk feeds three part heads;
    the next input embedding is the fused average of the three emitted token
    embeddings. Terminates at the first step any head emits EOS (that step
    excluded)."""
    _check_mode(model, "multihead")
    return _greedy(model, h_en, enc_mask, None, k_max)


def generate_triples(model: GeneratorModel, prompt_ids: list[int], lang: str) -> DecodeResult:
    """Encode a prompt and decode with the model's trained strategy."""
    with no_grad():
        return _greedy(model, *encode_prompt(model, prompt_ids), lang, None)
