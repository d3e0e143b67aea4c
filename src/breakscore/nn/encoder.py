"""Compact pre-norm transformer encoder with explicit forward/backward passes.

Layout per layer: x += attn(LN(x)); x += ffn(LN(x)); a final layer norm closes
the stack. Token and position embeddings are learned. Attention masks padded
key positions, so padded inputs cannot influence real positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import DataError
from ..jsonl import check_fields
from .functional import (
    dropout,
    dropout_backward,
    embedding_backward,
    gelu,
    gelu_backward,
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    softmax,
    softmax_backward,
)

_NEG_INF = -1.0e9


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 2
    ffn_dim: int = 256
    max_len: int = 128
    dropout_prob: float = 0.1

    def __post_init__(self):
        check_fields(type(self), vars(self))
        for name in ("vocab_size", "d_model", "n_heads", "ffn_dim"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_layers < 0:
            raise DataError(f"n_layers must be >= 0, got {self.n_layers}")
        if self.d_model % self.n_heads != 0:
            raise DataError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.max_len < 2:
            raise DataError(f"max_len must be >= 2, got {self.max_len}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise DataError(f"dropout_prob must be in [0, 1), got {self.dropout_prob}")

    @property
    def hidden_dim(self) -> int:
        """Width of each position's hidden state."""
        return self.d_model

    @property
    def n_params(self) -> int:
        """Number of parameters `param_shapes` holds, by arithmetic: a size
        check need not build a table of n_layers entries."""
        d, f = self.d_model, self.ffn_dim
        per_layer = 4 * d * d + 2 * d * f + 9 * d + f   # qkvo, FFN, two layer norms
        return (self.vocab_size + self.max_len) * d + self.n_layers * per_layer + 2 * d

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every encoder parameter, in initialization order."""
        d, f = self.d_model, self.ffn_dim
        shapes = {"tok_emb": (self.vocab_size, d), "pos_emb": (self.max_len, d)}
        for i in range(self.n_layers):
            pre = f"layer{i}."
            for name in ("q", "k", "v", "o"):
                shapes[pre + "w" + name], shapes[pre + "b" + name] = (d, d), (d,)
            shapes.update({pre + "ln1_g": (d,), pre + "ln1_b": (d,), pre + "ffn_w1": (d, f),
                           pre + "ffn_b1": (f,), pre + "ffn_w2": (f, d), pre + "ffn_b2": (d,),
                           pre + "ln2_g": (d,), pre + "ln2_b": (d,)})
        shapes.update(lnf_g=(d,), lnf_b=(d,))
        return shapes


def _split_heads(x, n_heads):
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _matmul_merged(a, b):
    """a @ b per head ([B, H, L, m] @ [B, H, m, dh]), written straight into a
    [B, L, H * dh] array with the heads merged."""
    bsz, n_heads, l, _ = a.shape
    out = np.empty((bsz, l, n_heads * b.shape[-1]), dtype=np.result_type(a, b))
    np.matmul(a, b, out=_split_heads(out, n_heads))
    return out


def encoder_forward(
    ids,
    pad_mask,
    params: dict,
    cfg: EncoderConfig,
    dropout_rng: np.random.Generator | None = None,
    positions=slice(None),
):
    """Hidden states [B, P, d_model] at `positions` plus the cache needed for
    backward.

    `ids` is [B, L] int; `pad_mask` is [B, L] bool, True at real tokens.
    `positions` indexes the position axis, P of its L entries: every one by
    default, `[0]` for a head that reads the [CLS] state alone, or the break
    columns of the batch for one that reads every break. The last layer
    computes its query side (attention output, FFN, final layer norm) at those
    positions only; its layer norm, keys and values still cover every row,
    which the queries attend to. With no layers only the final layer norm is
    cut. Dropout runs exactly when a `dropout_rng` is given (train mode).
    """
    ids = np.asarray(ids)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    b, l = ids.shape
    if l > cfg.max_len:
        raise DataError(f"sequence length {l} exceeds max_len {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise DataError("token id out of vocabulary range")

    dtype = params["tok_emb"].dtype
    drop_p = cfg.dropout_prob if dropout_rng is not None else 0.0
    scale = np.asarray(1.0 / math.sqrt(cfg.d_model // cfg.n_heads), dtype=dtype)
    # Attention scores are laid out keys-major, [B, H, keys, queries], so the
    # softmax and its backward reduce over axis -2, which numpy does several
    # times faster than over 45-long last-axis rows. Additive mask over keys.
    key_bias = np.where(pad_mask, 0.0, _NEG_INF).astype(dtype)[:, None, :, None]

    x = params["tok_emb"][ids]
    x += params["pos_emb"][:l]
    x, emb_drop = dropout(x, drop_p, dropout_rng)

    layer_caches = []
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        cols = positions if i == cfg.n_layers - 1 else slice(None)   # query columns computed
        h, ln1_cache = layer_norm(x, params[pre + "ln1_g"], params[pre + "ln1_b"])
        q, q_cache = linear(h[:, cols], params[pre + "wq"], params[pre + "bq"])
        k, k_cache = linear(h, params[pre + "wk"], params[pre + "bk"])
        v, v_cache = linear(h, params[pre + "wv"], params[pre + "bv"])
        q *= scale   # on q's [B, P, d], not on the [B, H, L, P] scores
        qh, kh, vh = (_split_heads(t, cfg.n_heads) for t in (q, k, v))
        # A contiguous [B, H, dh, P] copy of the queries multiplies faster
        # than the strided transposed view, with the same bits.
        scores = kh @ np.ascontiguousarray(qh.transpose(0, 1, 3, 2))
        scores += key_bias
        probs = softmax(scores, axis=-2)
        del scores
        ctx = _matmul_merged(probs.transpose(0, 1, 3, 2), vh)
        attn_out, o_cache = linear(ctx, params[pre + "wo"], params[pre + "bo"])
        attn_out, attn_drop = dropout(attn_out, drop_p, dropout_rng)
        x = x[:, cols]
        x += attn_out

        h2, ln2_cache = layer_norm(x, params[pre + "ln2_g"], params[pre + "ln2_b"])
        f1, f1_cache = linear(h2, params[pre + "ffn_w1"], params[pre + "ffn_b1"])
        a, gelu_cache = gelu(f1)
        f2, f2_cache = linear(a, params[pre + "ffn_w2"], params[pre + "ffn_b2"])
        f2, ffn_drop = dropout(f2, drop_p, dropout_rng)
        x += f2

        layer_caches.append(
            {
                "ln1": ln1_cache, "q": q_cache, "k": k_cache, "v": v_cache,
                # "qh" is the scaled q; "probs" is query-major, a view.
                "qh": qh, "kh": kh, "vh": vh, "probs": probs.transpose(0, 1, 3, 2),
                "o": o_cache,
                "attn_drop": attn_drop, "ln2": ln2_cache, "f1": f1_cache,
                "gelu": gelu_cache, "f2": f2_cache, "ffn_drop": ffn_drop,
            }
        )

    if not cfg.n_layers:
        x = x[:, positions]
    hidden, lnf_cache = layer_norm(x, params["lnf_g"], params["lnf_b"])
    cache = {
        "ids": ids, "l": l, "positions": positions, "scale": scale, "emb_drop": emb_drop,
        "layers": layer_caches, "lnf": lnf_cache, "cfg": cfg, "dtype": dtype,
    }
    return hidden, cache


def encoder_backward(dhidden, cache) -> dict:
    """Parameter gradients for a loss whose gradient w.r.t. hidden is dhidden.

    Consumes `cache`: each saved activation is popped at the line that uses
    it, and each temporary is dropped after its last use, so the activations
    are freed layer by layer as backward goes, not when it returns. "ids",
    "cfg" and the shape entries stay. A second call on the same cache raises
    RuntimeError.
    """
    cfg: EncoderConfig = cache["cfg"]
    ids = cache["ids"]
    layers = cache.pop("layers", None)
    if layers is None:
        raise RuntimeError("encoder_backward: the cache was consumed by an earlier backward")
    grads: dict[str, np.ndarray] = {}

    dx, grads["lnf_g"], grads["lnf_b"] = layer_norm_backward(dhidden, cache.pop("lnf"))

    for i in reversed(range(cfg.n_layers)):
        pre = f"layer{i}."
        c = layers.pop()

        # FFN sublayer: x_out = x_in + drop(W2 gelu(W1 LN(x_in)))
        df2 = dropout_backward(dx, c.pop("ffn_drop"))
        da, grads[pre + "ffn_w2"], grads[pre + "ffn_b2"] = linear_backward(df2, c.pop("f2"))
        del df2
        df1 = gelu_backward(da, c.pop("gelu"))
        del da
        dh2, grads[pre + "ffn_w1"], grads[pre + "ffn_b1"] = linear_backward(df1, c.pop("f1"))
        del df1
        dres, grads[pre + "ln2_g"], grads[pre + "ln2_b"] = layer_norm_backward(dh2, c.pop("ln2"))
        del dh2
        dx += dres
        del dres

        # Attention sublayer.
        dattn = dropout_backward(dx, c.pop("attn_drop"))
        dctx, grads[pre + "wo"], grads[pre + "bo"] = linear_backward(dattn, c.pop("o"))
        del dattn
        # Keys-major throughout: probs_t and dscores are [B, H, keys, queries].
        dctx_h = _split_heads(dctx, cfg.n_heads)
        del dctx
        probs_t = c.pop("probs").transpose(0, 1, 3, 2)
        dprobs = c.pop("vh") @ dctx_h.transpose(0, 1, 3, 2)
        dv = _matmul_merged(probs_t, dctx_h)
        del dctx_h
        dscores = softmax_backward(dprobs, probs_t, axis=-2)
        del dprobs, probs_t
        dq = _matmul_merged(dscores.transpose(0, 1, 3, 2), c.pop("kh"))
        dq *= cache["scale"]
        dk = _matmul_merged(dscores, c.pop("qh"))
        del dscores
        # The last layer's queries, and so dx, cover `positions` only; keys
        # and values cover every row.
        cols = cache["positions"] if i == cfg.n_layers - 1 else slice(None)
        dh_q, grads[pre + "wq"], grads[pre + "bq"] = linear_backward(dq, c.pop("q"))
        del dq
        dh, grads[pre + "wk"], grads[pre + "bk"] = linear_backward(dk, c.pop("k"))
        del dk
        dh[:, cols] += dh_q
        del dh_q
        dh_v, grads[pre + "wv"], grads[pre + "bv"] = linear_backward(dv, c.pop("v"))
        del dv
        dh += dh_v
        del dh_v
        dres, grads[pre + "ln1_g"], grads[pre + "ln1_b"] = layer_norm_backward(dh, c.pop("ln1"))
        del dh
        dres[:, cols] += dx
        dx = dres
        del dres

    if not cfg.n_layers:
        dx, cut = np.zeros((len(ids), cache["l"], cfg.d_model), dtype=cache["dtype"]), dx
        dx[:, cache["positions"]] = cut
        del cut
    dx = dropout_backward(dx, cache.pop("emb_drop"))
    grads["tok_emb"] = embedding_backward(ids, dx, cfg.vocab_size)
    dpos = np.zeros((cfg.max_len, cfg.d_model), dtype=cache["dtype"])
    dpos[: cache["l"]] = dx.sum(axis=0)
    grads["pos_emb"] = dpos
    return grads
