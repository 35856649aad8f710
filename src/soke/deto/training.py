"""Training, persistence, and dead-code maintenance for the decoupled tokenizer."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..artifacts import from_dict, read_json, write_json, write_jsonl
from ..errors import ConfigError, InputError, NonFiniteError, TrainingDivergedError
from ..grad import Adam, CosineSchedule, load_parameters, no_grad, save_checkpoint
from ..grad.checkpoint import Undrawn
from ..motion import PARTS, MotionSequence, Part, PartLayout, PartMotion, split_parts
from .codebook import nearest_code_ids
from .tokenizer import DecoupledTokenizer, DetoConfig, PartTokenizer

SIDECAR_NAME = "deto.json"
CHECKPOINT_NAME = "deto.ckpt"


@dataclass(frozen=True)
class DetoTrainConfig:
    steps: int = 2000
    lr: float = 2e-3
    min_lr: float = 1e-4
    warmup_sequences: int = 4

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("training needs at least one step")
        if self.warmup_sequences < 1:
            raise ConfigError(f"warmup_sequences must be at least 1; got {self.warmup_sequences}")
        CosineSchedule(self.lr, self.steps, self.min_lr)  # rejects bad rates


def _warm_start_codebook(tok: PartTokenizer, motions: list[PartMotion], rng: np.random.Generator):
    """Initialize codebook rows from encoder outputs so no code starts dead."""
    with no_grad():
        latents = np.concatenate([tok.encode_latents(m.frames).data for m in motions], axis=0)
    n = tok.codebook.shape[0]
    picks = rng.integers(0, latents.shape[0], size=n)
    jitter = rng.normal(0.0, 0.01, size=(n, latents.shape[1]))
    tok.codebook.data = (latents[picks] + jitter).astype(np.float32)


def _perplexity(counts: np.ndarray) -> float:
    """exp of the entropy of the codes' pick frequencies: the number of
    equally used codes that would spread the picks as evenly."""
    p = counts[counts > 0] / counts.sum()
    return float(np.exp(-(p * np.log(p)).sum()))


def _train_one_part(
    tok: PartTokenizer,
    motions: list[PartMotion],
    train_cfg: DetoTrainConfig,
    rng: np.random.Generator,
    log: list[dict],
) -> None:
    _warm_start_codebook(tok, motions[: train_cfg.warmup_sequences], rng)
    opt = Adam(
        tok.parameters(),
        schedule=CosineSchedule(train_cfg.lr, train_cfg.steps, train_cfg.min_lr),
    )
    epoch_len = len(motions)
    counts = np.zeros(tok.codebook.shape[0], dtype=np.int64)  # picks per code this epoch
    epoch_losses: list[tuple[float, float, float, float]] = []
    order = rng.permutation(epoch_len)

    for step in range(train_cfg.steps):
        motion = motions[order[step % epoch_len]]
        try:
            total, rec, emb, com = tok.vq_loss(motion)
            opt.zero_grad()
            total.backward()
        except NonFiniteError as exc:
            raise TrainingDivergedError(
                f"part {tok.part.value} diverged at step {step}: {exc}"
            ) from exc
        opt.step()

        with no_grad():  # the updated encoder's codes, for dead-code detection
            latents = tok.encode_latents(motion.frames).data
        counts += np.bincount(nearest_code_ids(latents, tok.codebook.data),
                              minlength=counts.size)
        epoch_losses.append((total.item(), rec.item(), emb.item(), com.item()))

        if (step + 1) % epoch_len == 0 or step + 1 == train_cfg.steps:
            dead = np.flatnonzero(counts == 0)
            for code_idx in dead:
                row = latents[rng.integers(0, latents.shape[0])]
                tok.codebook.data[code_idx] = row + rng.normal(0.0, 0.01, size=row.shape)
            arr = np.asarray(epoch_losses)
            log.append(
                {
                    "part": tok.part.value,
                    "epoch": (step + 1) // epoch_len,
                    "step": step + 1,
                    "total": float(arr[:, 0].mean()),
                    "rec": float(arr[:, 1].mean()),
                    "emb": float(arr[:, 2].mean()),
                    "com": float(arr[:, 3].mean()),
                    "lr": opt.current_lr(),
                    "reseeded_codes": int(dead.size),
                    "code_perplexity": _perplexity(counts),
                }
            )
            epoch_losses.clear()
            counts[:] = 0
            order = rng.permutation(epoch_len)


def train_tokenizer(
    corpus: list[MotionSequence],
    config: DetoConfig | None = None,
    train_config: DetoTrainConfig | None = None,
    seed: int = 0,
    layout: PartLayout | None = None,
) -> tuple[DecoupledTokenizer, list[dict]]:
    """Train three part tokenizers on a motion corpus.

    Returns the trained DecoupledTokenizer and a per-epoch loss log.
    Deterministic given (corpus, configs, seed).
    """
    if not corpus:
        raise InputError("training corpus is empty")
    config = config or DetoConfig()
    train_config = train_config or DetoTrainConfig()
    layout = layout or corpus[0].layout
    deto = DecoupledTokenizer(layout, config, seed=seed)

    by_part: dict[Part, list[PartMotion]] = {part: [] for part in PARTS}
    for seq in corpus:
        for pm in split_parts(seq):
            by_part[pm.part].append(pm)

    log: list[dict] = []
    for offset, part in enumerate(PARTS):
        rng = np.random.default_rng(seed * 1013 + offset + 1)
        _train_one_part(deto[part], by_part[part], train_config, rng, log)
    return deto, log


@dataclass(frozen=True)
class DetoSidecar:
    """deto.json: what rebuilds the tokenizer before its parameters load."""

    layout: PartLayout
    config: DetoConfig


def save_deto(out_dir: str | Path, deto: DecoupledTokenizer, log: list[dict] | None = None) -> None:
    """deto.ckpt holds every parameter as the tokenizer holds it, a conv
    weight as its (K * C_in, C_out) filter matrix; deto.json the layout and
    config that rebuild the tokenizer; train_log.jsonl the log, if given."""
    out_dir = Path(out_dir)
    save_checkpoint(out_dir / CHECKPOINT_NAME, {name: p.data for name, p in deto.parameters()})
    write_json(out_dir / SIDECAR_NAME, asdict(DetoSidecar(deto.layout, deto.config)))
    if log is not None:
        write_jsonl(out_dir / "train_log.jsonl", log)


def load_deto(out_dir: str | Path) -> DecoupledTokenizer:
    """The tokenizer `save_deto` wrote, built from deto.json without drawing
    a random number, then given deto.ckpt's parameters. A parameter missing
    from the checkpoint or stored in another shape, such as a conv weight
    saved as a (C_out, C_in, K) filter bank, raises InputError naming it."""
    out_dir = Path(out_dir)
    sidecar = read_json(out_dir / SIDECAR_NAME,
                        lambda payload: from_dict(DetoSidecar, payload, complete=True))
    deto = DecoupledTokenizer(sidecar.layout, sidecar.config, seed=Undrawn())
    load_parameters(out_dir / CHECKPOINT_NAME, deto.parameters())
    return deto
