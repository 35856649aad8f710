"""Micro encoder-decoder sequence model with per-part output heads.

Pre-LN transformer, learned absolute positions, and affine output heads
sharing the decoder trunk: one per part in multihead decoding, the body head
alone in sequential and parallel decoding (ModeSpec.heads). A head spans only
the vocabulary ids its slots can emit, `GeneratorModel.head_columns[head]`:
its own part's tokens and EOS in multihead decoding, every part's tokens and
EOS for the body head of the other modes. Heads are zero-initialized so the
masked softmax starts exactly uniform over each part's support.

Teacher-forced training and greedy decoding share the trunk `decode_hidden`:
training runs its whole prefix as one pass from an empty DecoderCache, and
decoding runs one new position per pass against the prompt's cache.
Attention splits and joins the heads itself, so the cache keeps keys and
values as projected. Its self-attention keys and values are arrays of
(rows, dec_max_len, d_model), made on the first pass: each pass writes its
positions in place and attends over the filled prefix, so no pass copies
the keys of earlier ones. Those arrays carry no graph, so a pass that builds
one, as teacher forcing does, must start from an empty cache and attends
over its own key and value nodes; on a non-empty cache it raises GraphError.

Key projections take no bias (Namazifar et al., "Role of Bias Terms in
Dot-Product Attention", ICASSP 2023): a key bias adds the same q . b_k to
every score of a query, which the softmax cancels, so its exact gradient is
zero. Trained on benchmark/configs/train.json, such biases got float32
noise of 0.85-15e-9 of the largest parameter gradient, which Adam still
turned into steps of the learning rate's size. Value biases stay: attention
rows sum to one, so b_v @ w_o is just another output bias as a function,
but not in training; dropping them too made the text2sign benchmark's
seed-0 DTW-PA-JPE worse (63.960 -> 65.066 mm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, GraphError, InputError, ModeError
from ..grad import Tensor, attention, concat, layer_norm, linear
from ..grad.checkpoint import Undrawn
from ..grad.tensor import weighted_sum
from ..motion import PARTS, Part
from .vocab import Vocabulary

Slot = tuple[int, Part, Part]  # (decoder row, head, support part)


@dataclass(frozen=True)
class ModeSpec:
    """One factorization of the part-token stream, read by teacher-forced
    training and by greedy decoding alike.

    starts: each decoder row's start token, None for <BOS> or part p for
    <Lang_p>. schedule: the slots of step t are schedule[t % len(schedule)];
    the slots of successive steps take the tokens of the flat stream
    (B, LH, RH, B, ...) in order, so one period covers one triple. fuse: the
    single row's next input is the fused embedding of the step's tokens,
    otherwise each row's next input is the embedding of its own token.
    """

    starts: tuple[Part | None, ...]
    schedule: tuple[tuple[Slot, ...], ...]
    fuse: bool = False

    @property
    def heads(self) -> tuple[Part, ...]:
        """The output heads the slots read, in slot order."""
        return tuple(dict.fromkeys(head for slots in self.schedule for _, head, _ in slots))

    def head_columns(self, vocab: Vocabulary) -> dict[Part, np.ndarray]:
        """Per head, the sorted vocabulary ids its slots can emit: the motion
        tokens of every part its slots support, and EOS."""
        slots = [slot for step in self.schedule for slot in step]
        return {head: np.flatnonzero(np.any([vocab.part_support_mask(part) for _, slot_head, part
                                             in slots if slot_head == head], axis=0))
                for head in self.heads}

    def start_ids(self, vocab: Vocabulary, lang: str | None) -> list[int]:
        return [vocab.bos_id if part is None else vocab.lang_part_id(lang, part)
                for part in self.starts]


MODE_SPECS = {
    # one <BOS> row, one flat stream: step t reads the body head masked to
    # part PARTS[t % 3], so a triple takes three steps
    "sequential": ModeSpec(starts=(None,),
                           schedule=tuple(((0, Part.BODY, part),) for part in PARTS)),
    # three <Lang_p> rows over one encoder state (tiled three times in
    # training, broadcast in decoding), one pass per step; row r reads the
    # body head masked to part PARTS[r]
    "parallel": ModeSpec(starts=PARTS,
                         schedule=(tuple((row, Part.BODY, part) for row, part in enumerate(PARTS)),)),
    # one <BOS> row; head p picks part p, and the three picks are fed back fused
    "multihead": ModeSpec(starts=(None,), schedule=(tuple((0, part, part) for part in PARTS),),
                          fuse=True),
}
MODES = tuple(MODE_SPECS)


@dataclass(frozen=True)
class AmgConfig:
    d_model: int = 64
    num_heads: int = 4
    enc_layers: int = 2
    dec_layers: int = 2
    ffn_dim: int = 256
    fuse_lambda: float = 1.0 / 3.0
    k_max: int = 24  # maximum decoded triples
    enc_max_len: int = 96

    def __post_init__(self):
        if not 0.0 < self.fuse_lambda < 0.5:
            raise ConfigError("fusion weight must lie in the open interval (0, 0.5)")
        if min(self.d_model, self.num_heads, self.ffn_dim) < 1:
            raise ConfigError("d_model, num_heads and ffn_dim must be positive")
        if self.enc_layers < 0:
            raise ConfigError(f"enc_layers must not be negative, got {self.enc_layers}")
        if self.dec_layers < 1:
            # only the decoder's cross-attention reads the prompt
            raise ConfigError(f"dec_layers must be at least 1, got {self.dec_layers}")
        if self.d_model % self.num_heads != 0:
            raise ConfigError("d_model must be divisible by num_heads")
        if self.k_max < 1 or self.enc_max_len < 1:
            raise ConfigError("sequence length limits must be positive")


def fuse_embeddings(e_body: Tensor, e_left: Tensor, e_right: Tensor, fuse_lambda: float) -> Tensor:
    """(1 - 2*lambda) * body + lambda * left + lambda * right; weights sum to 1."""
    if not 0.0 < fuse_lambda < 0.5:
        raise ConfigError("fusion weight must lie in the open interval (0, 0.5)")
    if not (e_body.shape == e_left.shape == e_right.shape):
        raise ConfigError("fused embeddings must share a shape")
    return weighted_sum([e_body, e_left, e_right],
                        [1.0 - 2.0 * fuse_lambda, fuse_lambda, fuse_lambda])


class GeneratorModel:
    """One trained decoding mode over an integrated vocabulary."""

    def __init__(self, vocab: Vocabulary, config: AmgConfig, mode: str, seed: int = 0):
        if mode not in MODES:
            raise ModeError(f"unknown decoding mode {mode!r}; expected one of {MODES}")
        self.vocab = vocab
        self.config = config
        self.mode = mode
        self.dec_max_len = len(MODE_SPECS[mode].schedule) * config.k_max + 2
        rng = seed if isinstance(seed, Undrawn) else np.random.default_rng(seed)
        d, ffn = config.d_model, config.ffn_dim

        def init(shape, scale):
            return Tensor((rng.standard_normal(shape) * scale).astype(np.float32),
                          requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)

        def ones(shape):
            return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)

        def attn_params():
            s = 1.0 / math.sqrt(d)
            return {
                "wq": init((d, d), s), "bq": zeros(d),
                "wk": init((d, d), s),
                "wv": init((d, d), s), "bv": zeros(d),
                "wo": init((d, d), s), "bo": zeros(d),
            }

        def ffn_params():
            return {
                "w1": init((d, ffn), 1.0 / math.sqrt(d)), "b1": zeros(ffn),
                "w2": init((ffn, d), 1.0 / math.sqrt(ffn)), "b2": zeros(d),
            }

        self.emb = init((len(vocab), d), 0.1)
        self.enc_pos = init((config.enc_max_len, d), 0.1)
        self.dec_pos = init((self.dec_max_len, d), 0.1)
        self.enc_layers = [
            {"ln1_g": ones(d), "ln1_b": zeros(d), "attn": attn_params(),
             "ln2_g": ones(d), "ln2_b": zeros(d), "ffn": ffn_params()}
            for _ in range(config.enc_layers)
        ]
        self.dec_layers = [
            {"ln1_g": ones(d), "ln1_b": zeros(d), "self": attn_params(),
             "lnc_g": ones(d), "lnc_b": zeros(d), "cross": attn_params(),
             "ln2_g": ones(d), "ln2_b": zeros(d), "ffn": ffn_params()}
            for _ in range(config.dec_layers)
        ]
        self.enc_ln_g, self.enc_ln_b = ones(d), zeros(d)
        self.dec_ln_g, self.dec_ln_b = ones(d), zeros(d)
        # only the heads the mode reads, each over the columns it can emit;
        # zero-init, so the initial masked softmax is exactly uniform
        self.head_columns = MODE_SPECS[mode].head_columns(vocab)
        self.heads = {part: {"w": zeros((d, len(cols))), "b": zeros(len(cols))}
                      for part, cols in self.head_columns.items()}

    # -- parameters --------------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        named: list[tuple[str, Tensor]] = [
            ("emb", self.emb), ("enc_pos", self.enc_pos), ("dec_pos", self.dec_pos),
            ("enc_ln_g", self.enc_ln_g), ("enc_ln_b", self.enc_ln_b),
            ("dec_ln_g", self.dec_ln_g), ("dec_ln_b", self.dec_ln_b),
        ]
        for i, layer in enumerate(self.enc_layers):
            named.extend(_layer_params(f"enc{i}", layer))
        for i, layer in enumerate(self.dec_layers):
            named.extend(_layer_params(f"dec{i}", layer))
        for part, head in self.heads.items():
            named.append((f"head_{part.value}.w", head["w"]))
            named.append((f"head_{part.value}.b", head["b"]))
        return named

    # -- forward pieces ---------------------------------------------------------

    def _attend(self, q: Tensor, k: Tensor, v: Tensor, p: dict,
                mask: np.ndarray | None) -> Tensor:
        """Queries (B, Tq, d) against keys and values (B or 1, Tk, d) in
        num_heads heads, then the output projection: (B, Tq, d)."""
        return linear(attention(q, k, v, self.config.num_heads, mask), p["wo"], p["bo"])

    def _self_attention(self, x: Tensor, p: dict, mask: np.ndarray | None,
                        layer: LayerCache | None = None, offset: int = 0) -> Tensor:
        """Self-attention of the positions x (B, n, d). With a layer cache, x
        holds positions offset .. offset + n - 1: their keys and values are
        written into it, and they attend to its first offset + n positions."""
        q = linear(x, p["wq"], p["bq"])
        k = x @ p["wk"]
        v = linear(x, p["wv"], p["bv"])
        if layer is not None:
            if offset and (k.requires_grad or v.requires_grad):
                raise GraphError("a pass that builds a graph must start from an empty "
                                 f"decoder cache, not one holding {offset} positions")
            end = offset + x.shape[1]
            layer.k[:, offset:end] = k.data
            layer.v[:, offset:end] = v.data
            if offset:
                k, v = Tensor(layer.k[:, :end]), Tensor(layer.v[:, :end])
        return self._attend(q, k, v, p, mask)

    def _layer_cache(self, layer: dict, h_en: Tensor, rows: int) -> LayerCache:
        """A decoder layer's cache for `rows` decoder rows and the encoder
        state h_en (R, S, d); with R = 1 its keys and values broadcast over
        every decoder row."""
        ca = layer["cross"]
        cross_k = h_en @ ca["wk"]
        shape = (rows, self.dec_max_len, self.config.d_model)
        return LayerCache(cross_k=cross_k, cross_v=linear(h_en, ca["wv"], ca["bv"]),
                          k=np.empty(shape, cross_k.data.dtype),
                          v=np.empty(shape, cross_k.data.dtype))

    def _ffn(self, x: Tensor, p: dict) -> Tensor:
        return linear(linear(x, p["w1"], p["b1"]).relu(), p["w2"], p["b2"])

    def _embed(self, ids: np.ndarray, pos_table: Tensor) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        return self.emb[ids] + pos_table[: ids.shape[1]]

    def encode(self, prompt_ids: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Prompt ids (B, S) -> (h_en (B, S, d), key mask (B, S)).

        Prompts longer than enc_max_len must be truncated by the caller.
        """
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
        if prompt_ids.shape[1] > self.config.enc_max_len:
            raise ConfigError(
                f"prompt length {prompt_ids.shape[1]} exceeds encoder budget "
                f"{self.config.enc_max_len}"
            )
        key_mask = prompt_ids != self.vocab.pad_id
        attn_mask = None if key_mask.all() else key_mask[:, None, :]
        x = self._embed(prompt_ids, self.enc_pos)
        for layer in self.enc_layers:
            normed = layer_norm(x, layer["ln1_g"], layer["ln1_b"])
            x = x + self._self_attention(normed, layer["attn"], attn_mask)
            x = x + self._ffn(layer_norm(x, layer["ln2_g"], layer["ln2_b"]), layer["ffn"])
        return layer_norm(x, self.enc_ln_g, self.enc_ln_b), key_mask

    def decode_hidden(self, dec_emb: Tensor, h_en: Tensor, enc_key_mask: np.ndarray,
                      cache: DecoderCache | None = None) -> Tensor:
        """Decoder trunk over already-embedded inputs (B, K, d), the positions
        after those in `cache` (teacher forcing passes none: a fresh, empty one).

        The first pass over a cache reads h_en and enc_key_mask: it projects
        h_en to the cross-attention keys and values and keeps the key mask's
        attention mask; later passes reuse them. Every pass writes its
        self-attention keys and values into the cache. A pass that builds a
        graph raises GraphError unless the cache is empty.
        """
        cache = cache or DecoderCache()
        k, offset = dec_emb.shape[1], cache.length
        if offset + k > self.dec_max_len:
            raise InputError(
                f"decoder input has {offset + k} positions but the model has {self.dec_max_len} "
                f"decoder positions (k_max {self.config.k_max}, mode {self.mode})"
            )
        if not cache.layers:
            cache.layers = [self._layer_cache(layer, h_en, dec_emb.shape[0])
                            for layer in self.dec_layers]
            # None for an unpadded prompt, which shows every key
            cache.cross_mask = None if enc_key_mask.all() else enc_key_mask[:, None, :]
        # None for a mask that hides nothing: one new position sees the whole cache
        causal = None if k == 1 else np.tri(k, offset + k, offset, dtype=bool)
        x = dec_emb + self.dec_pos[offset:offset + k]
        for layer, lc in zip(self.dec_layers, cache.layers):
            normed = layer_norm(x, layer["ln1_g"], layer["ln1_b"])
            x = x + self._self_attention(normed, layer["self"], causal, lc, offset)
            cross = layer["cross"]
            normed = layer_norm(x, layer["lnc_g"], layer["lnc_b"])
            q = linear(normed, cross["wq"], cross["bq"])
            x = x + self._attend(q, lc.cross_k, lc.cross_v, cross, cache.cross_mask)
            x = x + self._ffn(layer_norm(x, layer["ln2_g"], layer["ln2_b"]), layer["ffn"])
        cache.length += k
        return layer_norm(x, self.dec_ln_g, self.dec_ln_b)

    def head_logits(self, hidden: Tensor, part: Part) -> Tensor:
        """Logits of one of the mode's heads (ModeSpec.heads) over its own
        columns, head_columns[part]."""
        p = self.heads[part]
        return linear(hidden, p["w"], p["b"])

    def token_embeddings(self, ids: np.ndarray) -> Tensor:
        return self.emb[np.asarray(ids, dtype=np.int64)]


@dataclass
class LayerCache:
    """One decoder layer's state in a DecoderCache.

    The cross-attention keys and values are nodes, projected once per
    prompt. The self-attention keys and values are plain arrays with a row
    per decoder row and a position for each of the model's dec_max_len
    decoder positions; the cache's first `length` positions are filled. A
    pass writes its own positions into them in place and attends over the
    filled prefix, as views. Only a pass from an empty cache may build a
    graph: it attends over its own key and value nodes, since the arrays
    carry no gradient to earlier positions.
    """

    cross_k: Tensor  # cross-attention keys, (R or 1, S, d)
    cross_v: Tensor  # (R or 1, S, d)
    k: np.ndarray  # self-attention keys, (rows, dec_max_len, d)
    v: np.ndarray  # (rows, dec_max_len, d)


@dataclass
class DecoderCache:
    """The positions one prompt has run through `decode_hidden`: a whole
    teacher-forced prefix, or greedy decoding's passes so far.

    Empty when made; the first pass fills one LayerCache per decoder layer
    and the cross-attention mask of the prompt's key mask (None where it
    hides nothing), and every pass advances `length` by the positions it
    ran. It holds projections of the parameters, so it is valid only while
    they stay fixed.
    """

    length: int = 0
    layers: list[LayerCache] = field(default_factory=list)
    cross_mask: np.ndarray | None = None


def tile_rows(h_en: Tensor, enc_mask: np.ndarray, rows: int) -> tuple[Tensor, np.ndarray]:
    """The encoder state and key mask repeated once per decoder row (row-major)."""
    if rows == 1:
        return h_en, enc_mask
    return concat([h_en] * rows, axis=0), np.concatenate([enc_mask] * rows, axis=0)


def _layer_params(prefix: str, layer: dict) -> list[tuple[str, Tensor]]:
    named = []
    for key, value in layer.items():
        if isinstance(value, dict):
            named.extend((f"{prefix}.{key}.{sub}", p) for sub, p in value.items())
        else:
            named.append((f"{prefix}.{key}", value))
    return named
