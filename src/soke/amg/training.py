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
from ..grad.checkpoint import Undrawn
from ..motion import PARTS, Part
from ..deto import TokenSeq
from .decoding import PartTokenTriple
from .model import MODE_SPECS, MODES, AmgConfig, GeneratorModel, fuse_embeddings, tile_rows
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
        if self.log_every < 1:
            raise ConfigError(f"log_every must be at least 1, got {self.log_every}")
        CosineSchedule(self.lr, self.epochs, self.min_lr)  # rejects bad rates


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


@dataclass(frozen=True)
class TeacherBatch:
    """What generator_loss needs of a list of pairs besides the model's
    parameters; train_generator builds it once for all epochs.

    prompts: (pairs, width) padded encoder ids. inputs: (decoder rows, steps,
    heads) decoder input ids. weights: (decoder rows, steps), shared by the
    heads. Per head, in spec.heads order and over the head's own columns
    (GeneratorModel.head_columns): `targets`, (decoder rows, steps) positions
    in those columns; and `support`, a mask over (decoder rows, steps,
    columns), or None when every slot may emit every column (a head that
    serves a single part).
    """

    prompts: np.ndarray
    inputs: np.ndarray
    weights: np.ndarray
    targets: tuple[np.ndarray, ...]
    support: tuple[np.ndarray | None, ...]


def _teacher_batch(model: GeneratorModel, pairs: list[TrainPair], log: list[dict]) -> TeacherBatch:
    """Teacher-forcing arrays of one batch, read off the mode's slot table.

    Decoder row r of pair i is row r * len(pairs) + i, so the rows line up
    with the encoder state tiled len(spec.starts) times. A pair of k triples
    puts its flat stream (B, LH, RH, B, ...) into the slots of steps
    0 .. P*k - 1 in order (P = len(spec.schedule)); step P*k is its EOS step.
    The inputs are the targets shifted right behind each row's start token,
    with EOS and padding turned into <PAD>.
    """
    if not pairs:
        raise InputError("no training pairs")
    vocab, spec = model.vocab, MODE_SPECS[model.mode]
    prompts = _pad_prompts(pairs, vocab, model.config.enc_max_len, log)
    b, rows, period, heads = len(pairs), len(spec.starts), len(spec.schedule), spec.heads
    width = period * max(len(pair.triples) for pair in pairs) + 1
    part_at = np.zeros((len(heads), rows, width), dtype=np.int64)  # PARTS index per slot
    cells = []  # (row, step, head) of each token of a flat stream, in stream order
    for t in range(width):
        for r, head, part in spec.schedule[t % period]:
            h = heads.index(head)
            part_at[h, r, t] = PARTS.index(part)
            cells.append((r, t, h))
    cells = np.array(cells).T
    targets = np.full((rows * b, width, len(heads)), vocab.eos_id, dtype=np.int64)
    weights = np.zeros((b, width))
    for i, pair in enumerate(pairs):
        flat = [token for triple in pair.triples for token in triple.as_tuple()]
        r, t, h = cells[:, : len(flat)]
        targets[r * b + i, t, h] = flat
        weights[i, : period * len(pair.triples) + 1] = 1.0
    starts = np.array([spec.start_ids(vocab, pair.lang) for pair in pairs])  # (b, rows)
    inputs = np.full_like(targets, vocab.pad_id)
    inputs[:, 0] = starts.T.reshape(-1, 1)
    shifted = targets[:, :-1]
    inputs[:, 1:] = np.where(shifted == vocab.eos_id, vocab.pad_id, shifted)

    head_targets, support = [], []
    for h, head in enumerate(heads):
        cols = model.head_columns[head]
        head_targets.append(np.searchsorted(cols, targets[..., h]))
        # (rows, steps, columns), then one copy per pair, row-major
        masks = np.stack([vocab.part_support(part, cols) for part in PARTS])[part_at[h]]
        support.append(None if masks.all() else np.repeat(masks, b, axis=0))
    return TeacherBatch(prompts, inputs, np.tile(weights, (rows, 1)), tuple(head_targets),
                        tuple(support))


def generator_loss(model: GeneratorModel, batch: TeacherBatch) -> Tensor:
    """Mean teacher-forced cross-entropy per position, averaged over the
    mode's output heads (one in sequential and parallel mode, three in
    multihead); padded positions carry zero weight.

    `batch` is what _teacher_batch built for this model's mode. Each head's
    softmax runs over its own columns, the vocabulary ids it can emit; a
    full-vocabulary head under the part support masks would give every
    other id probability and gradient zero.
    """
    spec = MODE_SPECS[model.mode]
    h_en, enc_mask = tile_rows(*model.encode(batch.prompts), len(spec.starts))
    inputs = batch.inputs
    if spec.fuse:  # start token, then the fused embedding of each step's tokens
        fused = fuse_embeddings(*(model.token_embeddings(inputs[:, 1:, j])
                                  for j in range(len(spec.heads))), model.config.fuse_lambda)
        dec_emb = concat([model.token_embeddings(inputs[:, :1, 0]), fused], axis=1)
    else:
        dec_emb = model.token_embeddings(inputs[..., 0])
    hidden = model.decode_hidden(dec_emb, h_en, enc_mask)
    losses = [
        cross_entropy(model.head_logits(hidden, head), batch.targets[j],
                      support_mask=batch.support[j], weights=batch.weights)
        for j, head in enumerate(spec.heads)
    ]
    return sum(losses[1:], losses[0]) * (1.0 / len(losses))


def train_generator(
    pairs: list[TrainPair],
    model: GeneratorModel,
    train_config: AmgTrainConfig | None = None,
) -> tuple[GeneratorModel, list[dict]]:
    """Full-batch Adam training; deterministic given the model's init seed."""
    train_config = train_config or AmgTrainConfig()
    log: list[dict] = []
    opt = Adam(model.parameters(), schedule=CosineSchedule(
        train_config.lr, train_config.epochs, train_config.min_lr))
    batch = _teacher_batch(model, pairs, log)
    for epoch in range(train_config.epochs):
        try:
            opt.zero_grad()
            loss = generator_loss(model, batch)
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
    model = GeneratorModel(vocab, sidecar.config, sidecar.mode, seed=Undrawn())
    load_parameters(out_dir / CHECKPOINT_NAME, model.parameters())
    return model
