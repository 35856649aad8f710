"""Autoregressive generator: integrated vocabulary, micro encoder-decoder,
three decoding factorizations."""

from .decoding import (
    DecodeResult,
    PartTokenTriple,
    decode_multihead,
    decode_parallel,
    decode_sequential,
    encode_prompt,
    flatten,
    generate_triples,
    unflatten,
)
from .model import MODES, AmgConfig, DecoderCache, GeneratorModel, fuse_embeddings
from .training import (
    AmgTrainConfig,
    TrainPair,
    generator_loss,
    load_generator,
    save_generator,
    tokens_from_triples,
    train_generator,
    triples_from_tokens,
)
from .vocab import LANGUAGES, Vocabulary, load_vocab, save_vocab

__all__ = [
    "AmgConfig",
    "AmgTrainConfig",
    "DecodeResult",
    "DecoderCache",
    "GeneratorModel",
    "LANGUAGES",
    "MODES",
    "PartTokenTriple",
    "TrainPair",
    "Vocabulary",
    "decode_multihead",
    "decode_parallel",
    "decode_sequential",
    "encode_prompt",
    "flatten",
    "fuse_embeddings",
    "generate_triples",
    "generator_loss",
    "load_generator",
    "load_vocab",
    "save_generator",
    "save_vocab",
    "tokens_from_triples",
    "train_generator",
    "triples_from_tokens",
    "unflatten",
]
