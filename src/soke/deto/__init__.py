"""Decoupled tokenizer: three per-part VQ autoencoders."""

from ..motion import PARTS
from .codebook import TokenSeq, nearest_code_ids
from .tokenizer import (
    DOWNSAMPLE,
    DecoupledTokenizer,
    DetoConfig,
    PartTokenizer,
    vq_loss_terms,
)
from .training import (
    CHECKPOINT_NAME,
    SIDECAR_NAME,
    DetoTrainConfig,
    load_deto,
    save_deto,
    train_tokenizer,
)

__all__ = [
    "CHECKPOINT_NAME",
    "DOWNSAMPLE",
    "DecoupledTokenizer",
    "DetoConfig",
    "DetoTrainConfig",
    "PARTS",
    "PartTokenizer",
    "SIDECAR_NAME",
    "TokenSeq",
    "load_deto",
    "nearest_code_ids",
    "save_deto",
    "train_tokenizer",
    "vq_loss_terms",
]
