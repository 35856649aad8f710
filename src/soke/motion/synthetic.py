"""Synthetic sign-motion corpora.

A lexicon maps invented words to short per-part motion motifs (smooth random
curves). A sentence is a concatenation of its word motifs with a local blend
at motif junctions plus optional noise, so corpus generation is a pure
function of (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..textproc import lemmatize
from .layout import PartLayout, MotionSequence

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class SynthConfig:
    lexicon_size: int = 24
    lexicon_seed: int = 0
    motif_frames: tuple[int, int] = (8, 12)  # inclusive per-word length range
    num_sentences: int = 50
    sentence_words: tuple[int, int] = (2, 4)  # inclusive words per sentence
    noise_std: float = 0.0
    smoothing_halfwidth: int = 1  # frames blended on each side of a junction
    fps: float = 25.0
    language: str = "ASL"
    body_amplitude: float = 0.35
    hand_amplitude: float = 0.7
    expression_amplitude: float = 0.2
    layout: PartLayout = field(default_factory=PartLayout)

    def __post_init__(self):
        if self.lexicon_size < 1:
            raise ConfigError("lexicon must contain at least one word")
        if self.motif_frames[0] < 2 or self.motif_frames[0] > self.motif_frames[1]:
            raise ConfigError("invalid motif frame range")
        if self.sentence_words[0] < 1 or self.sentence_words[0] > self.sentence_words[1]:
            raise ConfigError("invalid sentence word-count range")
        if not (math.isfinite(self.fps) and self.fps > 0.0):
            raise ConfigError(f"fps must be finite and positive, got {self.fps}")
        if self.num_sentences < 1:
            raise ConfigError(f"num_sentences must be at least 1, got {self.num_sentences}")
        if self.smoothing_halfwidth < 0:
            raise ConfigError(f"smoothing_halfwidth must be non-negative, got "
                              f"{self.smoothing_halfwidth}")
        for name in ("noise_std", "body_amplitude", "hand_amplitude", "expression_amplitude"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class Lexicon:
    words: tuple[str, ...]
    motifs: dict  # word -> (T_w, d) float32 array
    config: SynthConfig

    def __len__(self) -> int:
        return len(self.words)


def _make_word(rng: np.random.Generator) -> str:
    n = int(rng.integers(2, 4))
    return "".join(rng.choice(list(_CONSONANTS)) + rng.choice(list(_VOWELS)) for _ in range(n))


def _per_dim_amplitudes(layout: PartLayout, cfg: SynthConfig) -> np.ndarray:
    amp = np.empty(layout.total_dims)
    rot_body = 3 * layout.body_joints
    amp[:rot_body] = cfg.body_amplitude
    amp[rot_body: rot_body + layout.expression_dims] = cfg.expression_amplitude
    amp[layout.body_width:] = cfg.hand_amplitude
    return amp


def _make_motif(rng: np.random.Generator, frames: int, amp: np.ndarray) -> np.ndarray:
    d = amp.shape[0]
    t = np.linspace(0.0, 1.0, frames)[:, None]
    base = rng.uniform(-0.6, 0.6, size=d)
    motif = base[None, :] * np.ones((frames, 1))
    for _ in range(2):
        freq = rng.uniform(0.5, 1.8, size=d)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=d)
        coef = rng.uniform(0.3, 1.0, size=d)
        motif = motif + coef * np.sin(2.0 * np.pi * freq * t + phase)
    motif *= amp / np.abs(motif).max(axis=0).clip(min=1e-9)
    return motif.astype(np.float32)


def build_lexicon(config: SynthConfig) -> Lexicon:
    """Deterministic word -> motif mapping (a function of the config alone)."""
    rng = np.random.default_rng(config.lexicon_seed)
    amp = _per_dim_amplitudes(config.layout, config)
    words: list[str] = []
    seen_lemmas: set[str] = set()
    while len(words) < config.lexicon_size:
        word = _make_word(rng)
        lemma = lemmatize(word)
        if lemma in seen_lemmas:
            continue
        seen_lemmas.add(lemma)
        words.append(word)
    motifs = {}
    for word in words:
        frames = int(rng.integers(config.motif_frames[0], config.motif_frames[1] + 1))
        motifs[word] = _make_motif(rng, frames, amp)
    return Lexicon(words=tuple(words), motifs=motifs, config=config)


def _blend_junctions(frames: np.ndarray, boundaries: list[int], halfwidth: int) -> np.ndarray:
    """Local [0.25, 0.5, 0.25] smoothing around junction frames; length-preserving."""
    if halfwidth < 1 or not boundaries:
        return frames
    out = frames.copy()
    T = frames.shape[0]
    for c in boundaries:
        lo = max(c - halfwidth, 1)
        hi = min(c + halfwidth, T - 1)
        for j in range(lo, hi):
            out[j] = 0.25 * frames[j - 1] + 0.5 * frames[j] + 0.25 * frames[j + 1]
    return out


def _compose_sentence(lexicon: Lexicon, words: list[str], rng: np.random.Generator) -> np.ndarray:
    cfg = lexicon.config
    parts = [lexicon.motifs[w] for w in words]
    frames = np.concatenate(parts, axis=0)
    boundaries = list(np.cumsum([p.shape[0] for p in parts[:-1]]))
    frames = _blend_junctions(frames, boundaries, cfg.smoothing_halfwidth)
    if cfg.noise_std > 0.0:
        frames = frames + rng.normal(0.0, cfg.noise_std, size=frames.shape).astype(np.float32)
    return frames.astype(np.float32)


def synthesize_dataset(config: SynthConfig, seed: int) -> list[tuple[str, MotionSequence]]:
    """Sentence/motion pairs, deterministic given (config, seed)."""
    lexicon = build_lexicon(config)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(config.num_sentences):
        n = int(rng.integers(config.sentence_words[0], config.sentence_words[1] + 1))
        words = [lexicon.words[i] for i in rng.integers(0, len(lexicon.words), size=n)]
        frames = _compose_sentence(lexicon, words, rng)
        seq = MotionSequence(frames, fps=config.fps, layout=config.layout,
                             language_tag=config.language)
        pairs.append((" ".join(words), seq))
    return pairs


def sign_instances(
    config: SynthConfig, seed: int, instances_per_word: int = 1, instance_noise_std: float = 0.0
) -> list[tuple[str, MotionSequence]]:
    """Word-level dictionary recordings: each word's motif, optionally with
    per-instance noise so entries differ in reconstruction error."""
    lexicon = build_lexicon(config)
    rng = np.random.default_rng(seed)
    out = []
    for word in lexicon.words:
        for k in range(instances_per_word):
            frames = lexicon.motifs[word]
            if k > 0 and instance_noise_std > 0.0:
                frames = frames + rng.normal(0.0, instance_noise_std, size=frames.shape)
            out.append(
                (word, MotionSequence(np.asarray(frames, dtype=np.float32), fps=config.fps,
                                      layout=config.layout, language_tag=config.language))
            )
    return out
