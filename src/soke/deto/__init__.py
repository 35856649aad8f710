"""Decoupled tokenizer: three per-part VQ autoencoders. A motion of T
frames encodes to one (K, 3) int64 code array, K = ceil(T / DOWNSAMPLE),
column j the codes of part PARTS[j], and decodes back from it."""

from ..motion import PARTS
from .codebook import nearest_code_ids
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
    "load_deto",
    "nearest_code_ids",
    "save_deto",
    "train_tokenizer",
    "vq_loss_terms",
]
