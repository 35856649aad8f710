"""Per-part VQ autoencoders over motion slices.

Each part tokenizer is a strided 1D-CNN encoder (temporal downsample factor
F = DOWNSAMPLE), a codebook, and a mirrored upsampling decoder. Inputs are
edge-padded to a multiple of F so the encoder emits exactly ceil(T / F)
latents. A part tokenizer encodes its slice to one code per latent, a (K,)
int64 column; the decoupled tokenizer stacks the three columns into a
motion's (K, 3) code array (see `codebook`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, InputError
from ..grad import Tensor, conv1d, no_grad, straight_through, upsample_repeat
from ..grad.checkpoint import Undrawn
from ..motion import PARTS, MotionSequence, Part, PartLayout, PartMotion, merge_parts, split_parts
from .codebook import PartCodes, nearest_code_ids

DOWNSAMPLE = 4  # F: frames per latent, realized by the encoder's two stride-2 conv blocks


@dataclass(frozen=True)
class DetoConfig:
    code_dim: int = 512  # C
    codebook_sizes: tuple[int, int, int] = (96, 192, 192)  # N_Z for B / LH / RH
    hidden_channels: int = 128
    w_emb: float = 1.0
    w_com: float = 0.25

    def __post_init__(self):
        if any(n < 1 for n in self.codebook_sizes):
            raise ConfigError("codebook sizes must be positive")
        if self.code_dim < 1 or self.hidden_channels < 1:
            raise ConfigError("channel widths must be positive")
        if not all(math.isfinite(w) and w >= 0.0 for w in (self.w_emb, self.w_com)):
            raise ConfigError(f"w_emb and w_com must be finite and non-negative; got "
                              f"{self.w_emb}, {self.w_com}")

    def size_for(self, part: Part) -> int:
        return self.codebook_sizes[PARTS.index(part)]


class PartTokenizer:
    """Encoder, decoder, and codebook for one body part.

    Every parameter is a plain tensor, held, stored in deto.ckpt and
    updated by Adam in one form. A conv weight is conv1d's (K * C_in, C_out)
    filter matrix, the GEMM operand of the im2col product; it is drawn as a
    (C_out, C_in, K) filter bank and permuted once. The codebook is the
    (N, C) matrix of latent prototypes, one row per token id.
    """

    def __init__(self, part: Part, width: int, config: DetoConfig, rng: np.random.Generator):
        self.part = part
        self.width = width
        self.config = config
        h, c = config.hidden_channels, config.code_dim

        def conv(c_out, c_in, k):
            bank = rng.standard_normal((c_out, c_in, k)) * np.sqrt(1.0 / (c_in * k))
            matrix = np.ascontiguousarray(bank.astype(np.float32).transpose(2, 1, 0))
            return Tensor(matrix.reshape(k * c_in, c_out), requires_grad=True)

        # K = 4 taps in the encoder's two stride-2 blocks, 3 in the decoder's
        # convs after each 2x upsampling
        self.enc_w1 = conv(h, width, 4)
        self.enc_b1 = Tensor(np.zeros(h, dtype=np.float32), requires_grad=True)
        self.enc_w2 = conv(c, h, 4)
        self.enc_b2 = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)
        self.dec_w1 = conv(h, c, 3)
        self.dec_b1 = Tensor(np.zeros(h, dtype=np.float32), requires_grad=True)
        self.dec_w2 = conv(width, h, 3)
        self.dec_b2 = Tensor(np.zeros(width, dtype=np.float32), requires_grad=True)
        codes = rng.standard_normal((config.size_for(part), c)) * 0.5
        self.codebook = Tensor(codes.astype(np.float32), requires_grad=True)

    # -- parameter plumbing ---------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = [
            ("enc_w1", self.enc_w1), ("enc_b1", self.enc_b1),
            ("enc_w2", self.enc_w2), ("enc_b2", self.enc_b2),
            ("dec_w1", self.dec_w1), ("dec_b1", self.dec_b1),
            ("dec_w2", self.dec_w2), ("dec_b2", self.dec_b2),
            ("codebook", self.codebook),
        ]
        return [(f"{self.part.value}.{name}", p) for name, p in named]

    # -- forward passes ----------------------------------------------------------

    def _padded(self, frames: np.ndarray) -> np.ndarray:
        pad = (-frames.shape[0]) % DOWNSAMPLE
        if pad:  # edge padding: the last frame repeated (np.pad costs ~20x more)
            frames = np.concatenate([frames, np.repeat(frames[-1:], pad, axis=0)])
        return frames

    def encode_latents(self, frames: np.ndarray) -> Tensor:
        """(T, width) motion slice -> (ceil(T/F), C) latents."""
        x = Tensor(self._padded(frames))
        h = conv1d(x, self.enc_w1, self.enc_b1, stride=2, padding=1).relu()
        return conv1d(h, self.enc_w2, self.enc_b2, stride=2, padding=1)

    def decode_latents(self, latents: Tensor) -> Tensor:
        """(T_f, C) latents -> (F * T_f, width) motion slice."""
        h = conv1d(upsample_repeat(latents, 2), self.dec_w1, self.dec_b1, padding=1).relu()
        return conv1d(upsample_repeat(h, 2), self.dec_w2, self.dec_b2, padding=1)

    def _check_motion(self, motion: PartMotion) -> None:
        if motion.part is not self.part:
            raise InputError(f"tokenizer for {self.part.value} got a {motion.part.value} motion")
        if motion.num_frames < DOWNSAMPLE:
            raise InputError(
                f"{self.part.value} motion of {motion.num_frames} frames is shorter than one "
                f"downsample window ({DOWNSAMPLE})"
            )

    def encode(self, motion: PartMotion) -> np.ndarray:
        """(T, width) slice -> (ceil(T/F),) int64 code indices."""
        self._check_motion(motion)
        with no_grad():
            latents = self.encode_latents(motion.frames)
        return nearest_code_ids(latents.data, self.codebook.data)

    def decode(self, ids: np.ndarray, num_frames: int | None = None) -> PartMotion:
        """(K,) code indices -> a slice of F * K frames, or of num_frames when
        given (cut, or the last frame repeated)."""
        ids, n = np.asarray(ids), self.codebook.shape[0]
        if (ids.ndim != 1 or ids.size == 0 or ids.dtype.kind not in "iu"
                or ids.min() < 0 or ids.max() >= n):
            raise InputError(f"{self.part.value} codes must be a nonempty vector of integers in "
                             f"[0, {n}), got {ids!r}")
        if num_frames is not None and num_frames < 1:
            raise InputError(f"num_frames must be at least 1, got {num_frames}")
        with no_grad():
            codes = self.codebook[ids]
            frames = self.decode_latents(codes).data.astype(np.float32)
        if num_frames is not None:
            if frames.shape[0] >= num_frames:
                frames = frames[:num_frames]
            else:
                pad = num_frames - frames.shape[0]
                frames = np.concatenate([frames, np.repeat(frames[-1:], pad, axis=0)])
        return PartMotion(self.part, frames)

    def vq_loss(self, motion: PartMotion) -> tuple[Tensor, np.floating, np.floating, np.floating]:
        """(total, rec, emb, com) for one part motion; see vq_loss_terms."""
        self._check_motion(motion)
        x = motion.frames
        latents = self.encode_latents(x)
        ids = nearest_code_ids(latents.data, self.codebook.data)
        codes = self.codebook[ids]
        recon = self.decode_latents(straight_through(latents, codes))[: x.shape[0]]
        return vq_loss_terms(latents, codes, recon, x, self.config.w_emb, self.config.w_com)


def vq_loss_terms(
    latents: Tensor,
    codes: Tensor,
    recon: Tensor,
    target: np.ndarray,
    w_emb: float,
    w_com: float,
) -> tuple[Tensor, np.floating, np.floating, np.floating]:
    """The VQ-VAE objective (van den Oord et al. 2017) as one graph node.

    rec: MSE between reconstruction and target.
    emb: w_emb * MSE pulling codes toward the latents, held constant.
    com: w_com * MSE pulling latents toward the codes, held constant.
    total = rec + emb + com is the node, over (latents, codes, recon); the
    three terms come back as numpy scalars for the log.

    Forward and backward run the arithmetic of the composed graph bit for
    bit: a + (-b), squared, a float64 sum rounded to the tensors' dtype,
    * (1 / n), * w, the terms added left to right. rec has weight 1.0, and a
    product with 1.0 changes no bit. latents receive the commitment term
    only (straight_through adds the reconstruction's gradient, and a sum of
    two terms does not depend on their order), codes the embedding term only.
    """
    dt = recon.data.dtype
    terms = []  # (operand, a - b, 1 / n, weight, weighted mean) per term
    for a, b, weight in ((recon, np.asarray(target, dtype=dt), 1.0),
                         (codes, latents.data, w_emb), (latents, codes.data, w_com)):
        d = a.data + (-b)
        # scalars are rounded to dt as scalar leaves would be
        scale, weight = np.asarray(1.0 / d.size, dtype=dt), np.asarray(weight, dtype=dt)
        mean = np.asarray((d ** 2).sum(dtype=np.float64), dtype=dt) * scale
        terms.append((a, d, scale, weight, mean * weight))
    rec, emb, com = (term[-1] for term in terms)

    def backward(g):
        for a, d, scale, weight, _ in terms:
            if a.requires_grad:
                # the composed graph broadcasts g * w * (1/n), then times 2
                # and times d ** 1 == d; doubling is exact, so the scalar
                # product gives the same bits
                a._accumulate(g * weight * scale * 2 * d)

    total = Tensor(rec + emb + com, _parents=(latents, codes, recon), _op="vq_loss",
                   _backward=backward)
    return total, rec, emb, com


class DecoupledTokenizer:
    """Three independent part tokenizers sharing a layout."""

    def __init__(self, layout: PartLayout, config: DetoConfig, seed: int = 0):
        self.layout = layout
        self.config = config
        rng = seed if isinstance(seed, Undrawn) else np.random.default_rng(seed)
        self.parts: dict[Part, PartTokenizer] = {
            part: PartTokenizer(part, layout.part_width(part), config, rng) for part in PARTS
        }

    def __getitem__(self, part: Part) -> PartTokenizer:
        return self.parts[part]

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [pair for part in PARTS for pair in self.parts[part].parameters()]

    def encode_sequence(self, seq: MotionSequence) -> PartCodes:
        """A motion of T frames -> its (ceil(T/F), 3) int64 code array."""
        columns = [self.parts[pm.part].encode(pm) for pm in split_parts(seq)]
        return np.stack(columns, axis=1).view(PartCodes)

    def decode_tokens(
        self,
        tokens: np.ndarray,
        num_frames: int | None = None,
        fps: float = 25.0,
        language_tag: str = "ASL",
    ) -> MotionSequence:
        """A (K, 3) code array to a motion of F * K frames, or of num_frames
        when given (cut, or the last frame repeated)."""
        codes = np.asarray(tokens)
        if codes.ndim != 2 or codes.shape[1] != len(PARTS):
            raise InputError(f"decoding needs a (K, {len(PARTS)}) code array; got shape "
                             f"{codes.shape}")
        decoded = [self.parts[part].decode(codes[:, j], num_frames)
                   for j, part in enumerate(PARTS)]
        return merge_parts(*decoded, layout=self.layout, fps=fps, language_tag=language_tag)
