"""Teacher-forced cross-entropy training for the three decoding modes."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..artifacts import from_dict, read_json, write_json, write_jsonl
from ..errors import ConfigError, InputError, ModeError, NonFiniteError, TrainingDivergedError
from ..grad import (
    Adam,
    CosineSchedule,
    Tensor,
    concat,
    cross_entropy,
    load_parameters,
    save_checkpoint,
)
from ..motion import PARTS, Part
from ..deto import TokenSeq
from .decoding import PartTokenTriple
from .model import MODES, AmgConfig, GeneratorModel, fuse_embeddings
from .vocab import Vocabulary, load_vocab, save_vocab

SIDECAR_NAME = "amg.json"
CHECKPOINT_NAME = "amg.ckpt"


@dataclass(frozen=True)
class TrainPair:
    """One training sample: an encoder prompt and its target token triples."""

    prompt_ids: tuple[int, ...]
    triples: tuple[PartTokenTriple, ...]
    lang: str


@dataclass(frozen=True)
class AmgTrainConfig:
    epochs: int = 300
    lr: float = 3e-3
    min_lr: float = 1e-4
    log_every: int = 25

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("training needs at least one epoch")


def triples_from_tokens(tokens: dict[Part, TokenSeq], vocab: Vocabulary) -> tuple[PartTokenTriple, ...]:
    """Map a tokenizer's per-part code sequences to vocabulary-id triples."""
    lengths = {part: len(seq) for part, seq in tokens.items()}
    if len(set(lengths.values())) != 1:
        raise InputError(f"part token sequences differ in length: {lengths}")
    return tuple(
        PartTokenTriple(*(vocab.motion_id(part, tokens[part].ids[i]) for part in PARTS))
        for i in range(lengths[Part.BODY])
    )


def tokens_from_triples(
    triples: tuple[PartTokenTriple, ...], vocab: Vocabulary
) -> dict[Part, TokenSeq]:
    """Inverse of triples_from_tokens; TokenSeq rejects an empty decode."""
    return {
        part: TokenSeq(part, tuple(vocab.code_of(triple.as_tuple()[j])[1] for triple in triples))
        for j, part in enumerate(PARTS)
    }


def _pad_prompts(pairs: list[TrainPair], vocab: Vocabulary, max_len: int, log: list[dict]):
    prompts = []
    for idx, pair in enumerate(pairs):
        ids = list(pair.prompt_ids)
        if len(ids) > max_len:
            log.append({
                "warning": "prompt_truncated", "pair": idx,
                "length": len(ids), "budget": max_len,
            })
            ids = ids[:max_len]
        prompts.append(ids)
    width = max(len(p) for p in prompts)
    out = np.full((len(prompts), width), vocab.pad_id, dtype=np.int64)
    for i, p in enumerate(prompts):
        out[i, : len(p)] = p
    return out


def _sequential_batch(pairs, vocab):
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


def _stream_batch(pairs, vocab):
    """Parallel mode: one decoder row per (part, pair), laid out part-major
    to line up with encoder states tiled three times."""
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


def _multihead_batch(pairs, vocab):
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
        # all heads are trained to emit EOS together at step k
        weights[i, : k + 1] = 1.0
    return in_triples, targets, weights


def _multihead_embeddings(model: GeneratorModel, in_triples: np.ndarray) -> Tensor:
    b = in_triples.shape[0]
    bos = model.token_embeddings(np.full((b, 1), model.vocab.bos_id, dtype=np.int64))
    if in_triples.shape[1] == 0:
        return bos
    fused = fuse_embeddings(
        model.token_embeddings(in_triples[:, :, 0]),
        model.token_embeddings(in_triples[:, :, 1]),
        model.token_embeddings(in_triples[:, :, 2]),
        model.config.fuse_lambda,
    )
    return concat([bos, fused], axis=1)


def generator_loss(model: GeneratorModel, pairs: list[TrainPair], log: list[dict] | None = None) -> Tensor:
    """Mean teacher-forced cross-entropy per position (and per head for the
    multi-head factorization); padded positions carry zero weight."""
    if not pairs:
        raise InputError("no training pairs")
    log = log if log is not None else []
    vocab = model.vocab
    prompts = _pad_prompts(pairs, vocab, model.config.enc_max_len, log)
    h_en, enc_mask = model.encode(prompts)

    if model.mode == "sequential":
        inputs, targets, weights, support = _sequential_batch(pairs, vocab)
        hidden = model.decode_hidden(model.token_embeddings(inputs), h_en, enc_mask)
        logits = model.head_logits(hidden, Part.BODY)
        return cross_entropy(logits, targets, support_mask=support, weights=weights)

    if model.mode == "parallel":
        inputs, targets, weights, support = _stream_batch(pairs, vocab)
        h_rep = concat([h_en, h_en, h_en], axis=0)
        mask_rep = np.concatenate([enc_mask] * 3, axis=0)
        hidden = model.decode_hidden(model.token_embeddings(inputs), h_rep, mask_rep)
        logits = model.head_logits(hidden, Part.BODY)
        return cross_entropy(logits, targets, support_mask=support, weights=weights)

    in_triples, targets, weights = _multihead_batch(pairs, vocab)
    hidden = model.decode_hidden(_multihead_embeddings(model, in_triples), h_en, enc_mask)
    losses = [
        cross_entropy(
            model.head_logits(hidden, part), targets[part],
            support_mask=vocab.part_support_mask(part)[None, None, :], weights=weights,
        )
        for part in PARTS
    ]
    return (losses[0] + losses[1] + losses[2]) * (1.0 / 3.0)


def train_generator(
    pairs: list[TrainPair],
    model: GeneratorModel,
    train_config: AmgTrainConfig | None = None,
) -> tuple[GeneratorModel, list[dict]]:
    """Full-batch Adam training; deterministic given the model's init seed."""
    train_config = train_config or AmgTrainConfig()
    log: list[dict] = []
    params = [p for _, p in model.parameters()]
    opt = Adam(params, schedule=CosineSchedule(train_config.lr, train_config.epochs,
                                               train_config.min_lr))
    for epoch in range(train_config.epochs):
        try:
            opt.zero_grad()
            loss = generator_loss(model, pairs, log if epoch == 0 else None)
            loss.backward()
        except NonFiniteError as exc:
            raise TrainingDivergedError(f"generator diverged at epoch {epoch}: {exc}") from exc
        opt.step()
        if epoch % train_config.log_every == 0 or epoch == train_config.epochs - 1:
            log.append({"epoch": epoch, "loss": loss.item(), "lr": opt.current_lr(),
                        "mode": model.mode})
    return model, log


@dataclass(frozen=True)
class AmgSidecar:
    """amg.json: what rebuilds the generator before its parameters load."""

    config: AmgConfig
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ModeError(f"unknown decoding mode {self.mode!r}; expected one of {MODES}")


def save_generator(out_dir: str | Path, model: GeneratorModel, log: list[dict] | None = None) -> None:
    out_dir = Path(out_dir)
    save_checkpoint(out_dir / CHECKPOINT_NAME, {name: p.data for name, p in model.parameters()})
    write_json(out_dir / SIDECAR_NAME, asdict(AmgSidecar(model.config, model.mode)))
    save_vocab(out_dir / "vocab.json", model.vocab)
    if log is not None:
        write_jsonl(out_dir / "train_log.jsonl", log)


def load_generator(out_dir: str | Path) -> GeneratorModel:
    out_dir = Path(out_dir)
    sidecar = read_json(out_dir / SIDECAR_NAME,
                        lambda payload: from_dict(AmgSidecar, payload, complete=True))
    vocab = load_vocab(out_dir / "vocab.json")
    model = GeneratorModel(vocab, sidecar.config, sidecar.mode, seed=0)
    load_parameters(out_dir / CHECKPOINT_NAME, model.parameters())
    return model
