"""The generator's encoder and decoder trunk as two branches, one uncached
and one cached, the way `GeneratorModel` ran them before teacher forcing
became a cached pass from an empty `DecoderCache`.

Without a cache, `decode_hidden` runs every attention as `mha`, which
projects queries, keys and values with separate linears. With one, the
self-attention projects them with one fused Q|K|V linear whose weights
`layer_cache` concatenates per prompt, and the cross-attention reads keys
and values projected once per prompt. `install` puts `encode` and
`decode_hidden` on a model in place of its own methods.

Attention runs on head-split (B, h, T, dh) nodes, as it did then: `heads`
splits a projection with reshape and transpose nodes, keys are transposed
to (B, h, dh, T), and `attend` runs the composed attention and joins the
heads before the output projection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from soke.errors import InputError
from soke.grad import Tensor, concat, layer_norm, linear

from composed_ops import head_attention, join_heads, reshape, split_heads, transpose


@dataclass
class FusedLayerCache:
    w_qkv: Tensor  # self-attention Q|K|V weights side by side, (d, 3d)
    b_qkv: Tensor  # (3d,)
    cross_k: Tensor  # (R or 1, h, dh, S)
    cross_v: Tensor  # (R or 1, h, S, dh)
    self_k: Tensor | None = None  # (R, h, length, dh)
    self_v: Tensor | None = None


def heads(model, x: Tensor) -> Tensor:
    """(B, T, d) -> (B, h, T, dh)."""
    return split_heads(x, model.config.num_heads)


def keys(k: Tensor) -> Tensor:
    """(B, h, T, dh) -> (B, h, dh, T)."""
    return transpose(k, (0, 1, 3, 2))


def attend(q: Tensor, k_t: Tensor, v: Tensor, p: dict, mask: np.ndarray | None) -> Tensor:
    """Queries (B, h, Tq, dh) against keys (B, h, dh, Tk) and values
    (B, h, Tk, dh), then the output projection: (B, Tq, d)."""
    ctx = head_attention(q, k_t, v, 1.0 / math.sqrt(q.shape[-1]), mask)
    return linear(join_heads(ctx), p["wo"], p["bo"])


def mha(model, x_q: Tensor, x_kv: Tensor, p: dict, mask: np.ndarray | None) -> Tensor:
    q = heads(model, linear(x_q, p["wq"], p["bq"]))
    k = heads(model, linear(x_kv, p["wk"], p["bk"]))
    v = heads(model, linear(x_kv, p["wv"], p["bv"]))
    return attend(q, keys(k), v, p, mask)


def cached_self_attention(model, x: Tensor, p: dict, layer: FusedLayerCache,
                          mask: np.ndarray | None) -> Tensor:
    b, n, d = x.shape
    h = model.config.num_heads
    qkv = reshape(linear(x, layer.w_qkv, layer.b_qkv), (b, n, 3, h, d // h))
    qkv = transpose(qkv, (2, 0, 3, 1, 4))  # (3, B, h, n, dh)
    q, k, v = qkv[0], qkv[1], qkv[2]
    if layer.self_k is not None:
        k = concat([layer.self_k, k], axis=2)
        v = concat([layer.self_v, v], axis=2)
    layer.self_k, layer.self_v = k, v
    return attend(q, keys(k), v, p, mask)


def layer_cache(model, layer: dict, h_en: Tensor) -> FusedLayerCache:
    sa, ca = layer["self"], layer["cross"]
    return FusedLayerCache(
        w_qkv=concat([sa["wq"], sa["wk"], sa["wv"]], axis=1),
        b_qkv=concat([sa["bq"], sa["bk"], sa["bv"]], axis=0),
        cross_k=keys(heads(model, linear(h_en, ca["wk"], ca["bk"]))),
        cross_v=heads(model, linear(h_en, ca["wv"], ca["bv"])),
    )


def encode(model, prompt_ids: np.ndarray) -> tuple[Tensor, np.ndarray]:
    prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
    key_mask = prompt_ids != model.vocab.pad_id
    attn_mask = None if key_mask.all() else key_mask[:, None, None, :]
    x = model._embed(prompt_ids, model.enc_pos)
    for layer in model.enc_layers:
        normed = layer_norm(x, layer["ln1_g"], layer["ln1_b"])
        x = x + mha(model, normed, normed, layer["attn"], attn_mask)
        x = x + model._ffn(layer_norm(x, layer["ln2_g"], layer["ln2_b"]), layer["ffn"])
    return layer_norm(x, model.enc_ln_g, model.enc_ln_b), key_mask


def decode_hidden(model, dec_emb: Tensor, h_en: Tensor, enc_key_mask: np.ndarray,
                  cache=None) -> Tensor:
    b, k, _ = dec_emb.shape
    offset = 0 if cache is None else cache.length
    if offset + k > model.dec_max_len:
        raise InputError(f"decoder input has {offset + k} positions")
    if cache is not None and not cache.layers:
        cache.layers = [layer_cache(model, layer, h_en) for layer in model.dec_layers]
    causal = None if k == 1 else np.tri(k, offset + k, offset, dtype=bool)[None, None, :, :]
    cross_mask = None if enc_key_mask.all() else enc_key_mask[:, None, None, :]
    x = dec_emb + model.dec_pos[offset:offset + k]
    for i, layer in enumerate(model.dec_layers):
        normed = layer_norm(x, layer["ln1_g"], layer["ln1_b"])
        if cache is None:
            x = x + mha(model, normed, normed, layer["self"], causal)
            x = x + mha(model, layer_norm(x, layer["lnc_g"], layer["lnc_b"]), h_en,
                        layer["cross"], cross_mask)
        else:
            lc = cache.layers[i]
            x = x + cached_self_attention(model, normed, layer["self"], lc, causal)
            cross = layer["cross"]
            normed = layer_norm(x, layer["lnc_g"], layer["lnc_b"])
            q = heads(model, linear(normed, cross["wq"], cross["bq"]))
            x = x + attend(q, lc.cross_k, lc.cross_v, cross, cross_mask)
        x = x + model._ffn(layer_norm(x, layer["ln2_g"], layer["ln2_b"]), layer["ffn"])
    if cache is not None:
        cache.length += k
    return layer_norm(x, model.dec_ln_g, model.dec_ln_b)


def install(monkeypatch, model) -> None:
    """Run `model`'s encoder and decoder trunk as this module's two branches."""
    monkeypatch.setattr(model, "encode", functools.partial(encode, model))
    monkeypatch.setattr(model, "decode_hidden", functools.partial(decode_hidden, model))
