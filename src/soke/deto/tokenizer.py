"""Per-part VQ autoencoders over motion slices.

Each part tokenizer is a strided 1D-CNN encoder (temporal downsample factor
F = DOWNSAMPLE), a codebook, and a mirrored upsampling decoder. Inputs are
edge-padded to a multiple of F so the encoder emits exactly ceil(T / F)
latents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, InputError
from ..grad import Tensor, conv1d, no_grad, straight_through, upsample_repeat
from ..grad.checkpoint import Undrawn
from ..motion import PARTS, MotionSequence, Part, PartLayout, PartMotion, merge_parts, split_parts
from .codebook import Codebook, TokenSeq, nearest_code_ids, quantize

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

    Each conv weight is held as conv1d's (K * C_in, C_out) filter matrix,
    the GEMM operand of the im2col product, so no step copies it into or
    out of another layout. It is drawn as a (C_out, C_in, K) filter bank,
    the layout deto.ckpt keeps (see `filter_bank`), and permuted once.
    """

    # kernel size K of each conv weight: the encoder's two stride-2 blocks
    # and the decoder's two convs after each 2x upsampling
    KERNEL_SIZES = {"enc_w1": 4, "enc_w2": 4, "dec_w1": 3, "dec_w2": 3}

    def __init__(self, part: Part, width: int, config: DetoConfig, rng: np.random.Generator):
        self.part = part
        self.width = width
        self.config = config
        h, c = config.hidden_channels, config.code_dim

        def conv(name, c_out, c_in):
            k = self.KERNEL_SIZES[name]
            bank = rng.standard_normal((c_out, c_in, k)) * np.sqrt(1.0 / (c_in * k))
            return Tensor(filter_matrix(bank.astype(np.float32)), requires_grad=True)

        self.enc_w1 = conv("enc_w1", h, width)
        self.enc_b1 = Tensor(np.zeros(h, dtype=np.float32), requires_grad=True)
        self.enc_w2 = conv("enc_w2", c, h)
        self.enc_b2 = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)
        self.dec_w1 = conv("dec_w1", h, c)
        self.dec_b1 = Tensor(np.zeros(h, dtype=np.float32), requires_grad=True)
        self.dec_w2 = conv("dec_w2", width, h)
        self.dec_b2 = Tensor(np.zeros(width, dtype=np.float32), requires_grad=True)
        self.codebook = Codebook(
            part, (rng.standard_normal((config.size_for(part), c)) * 0.5).astype(np.float32)
        )

    # -- parameter plumbing ---------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = [
            ("enc_w1", self.enc_w1), ("enc_b1", self.enc_b1),
            ("enc_w2", self.enc_w2), ("enc_b2", self.enc_b2),
            ("dec_w1", self.dec_w1), ("dec_b1", self.dec_b1),
            ("dec_w2", self.dec_w2), ("dec_b2", self.dec_b2),
            ("codebook", self.codebook.codes),
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

    def encode(self, motion: PartMotion) -> TokenSeq:
        self._check_motion(motion)
        with no_grad():
            latents = self.encode_latents(motion.frames)
        return quantize(latents.data, self.codebook)

    def decode(self, tokens: TokenSeq, num_frames: int | None = None) -> PartMotion:
        if tokens.part is not self.part:
            raise InputError(f"tokenizer for {self.part.value} got {tokens.part.value} tokens")
        ids = np.asarray(tokens.ids)
        if ids.min() < 0 or ids.max() >= self.codebook.num_codes:
            raise InputError(
                f"token id out of range [0, {self.codebook.num_codes}) for part {self.part.value}"
            )
        with no_grad():
            codes = self.codebook.codes[ids]
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
        ids = nearest_code_ids(latents.data, self.codebook.codes.data)
        codes = self.codebook.codes[ids]
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


def filter_matrix(bank: np.ndarray) -> np.ndarray:
    """A (C_out, C_in, K) filter bank as conv1d's (K * C_in, C_out) weight."""
    return np.ascontiguousarray(bank.transpose(2, 1, 0)).reshape(-1, bank.shape[0])


def filter_bank(weight: np.ndarray, k: int) -> np.ndarray:
    """conv1d's (K * C_in, C_out) weight as its (C_out, C_in, K) filter bank,
    a view."""
    return weight.reshape(k, -1, weight.shape[1]).transpose(2, 1, 0)


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

    def encode_sequence(self, seq: MotionSequence) -> dict[Part, TokenSeq]:
        body, left, right = split_parts(seq)
        return {pm.part: self.parts[pm.part].encode(pm) for pm in (body, left, right)}

    def decode_tokens(
        self,
        tokens: dict[Part, TokenSeq],
        num_frames: int | None = None,
        fps: float = 25.0,
        language_tag: str = "ASL",
    ) -> MotionSequence:
        """One token sequence per part, all of one length K, to a motion of
        F * K frames, or of num_frames when given (cut, or the last frame
        repeated)."""
        lengths = {part.value: len(tokens[part]) for part in PARTS if part in tokens}
        if len(lengths) != len(PARTS) or len(set(lengths.values())) != 1:
            raise InputError(f"decoding needs one token sequence per part, all of one "
                             f"length; got lengths {lengths}")
        decoded = {part: self.parts[part].decode(tokens[part], num_frames) for part in PARTS}
        return merge_parts(
            decoded[Part.BODY], decoded[Part.LEFT_HAND], decoded[Part.RIGHT_HAND],
            layout=self.layout, fps=fps, language_tag=language_tag,
        )
