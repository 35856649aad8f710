"""Autoregressive generator: integrated vocabulary, micro encoder-decoder,
and one greedy decoder for its three factorizations (sequential, parallel,
multi-head), chosen by the model's mode."""

from .decoding import (
    DecodeResult,
    PartTokenTriple,
    flatten,
    generate_triples,
    greedy_decode,
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
    "flatten",
    "fuse_embeddings",
    "generate_triples",
    "generator_loss",
    "greedy_decode",
    "load_generator",
    "load_vocab",
    "save_generator",
    "save_vocab",
    "tokens_from_triples",
    "train_generator",
    "triples_from_tokens",
    "unflatten",
]
