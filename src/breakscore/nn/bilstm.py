"""Bidirectional LSTM encoder with explicit backprop-through-time.

Padded steps carry the previous state through unchanged (gated update), so the
backward pass never propagates gradient into padded embeddings. Output is the
concatenation [forward_h; backward_h] per position, [B, L, 2*hidden].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DataError
from .functional import trunc_normal


@dataclass(frozen=True)
class BiLstmConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden_size: int = 128

    def __post_init__(self):
        if self.hidden_size < 1:
            raise DataError(f"hidden_size must be >= 1, got {self.hidden_size}")

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "embed_dim": self.embed_dim,
            "hidden_size": self.hidden_size,
        }


def init_bilstm_params(cfg: BiLstmConfig, rng: np.random.Generator) -> dict:
    """Gate weights stacked [i|f|g|o] along the last axis."""
    e, h = cfg.embed_dim, cfg.hidden_size
    p: dict[str, np.ndarray] = {"emb": trunc_normal((cfg.vocab_size, e), rng)}
    for d in ("fw", "bw"):
        p[f"{d}_wx"] = trunc_normal((e, 4 * h), rng)
        p[f"{d}_wh"] = trunc_normal((h, 4 * h), rng)
        p[f"{d}_b"] = np.zeros(4 * h, dtype=np.float32)
    return p


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _steps(length: int, reverse: bool):
    return range(length - 1, -1, -1) if reverse else range(length)


def _split_gates(act):
    """Views of the stacked [i|f|g|o] activations."""
    hid = act.shape[1] // 4
    return act[:, :hid], act[:, hid : 2 * hid], act[:, 2 * hid : 3 * hid], act[:, 3 * hid :]


def _shift_prev(seq, reverse: bool):
    """State entering each step: the neighbouring step's output, zeros at the start."""
    prev = np.zeros_like(seq)
    if reverse:
        prev[:, :-1] = seq[:, 1:]
    else:
        prev[:, 1:] = seq[:, :-1]
    return prev


def _run_direction(x, mask, wx, wh, b, reverse: bool):
    """One direction's forward scan. Returns (h_seq [B,L,H], scan cache).

    The input projection x @ wx + b of every timestep is one [B*L, E] GEMM
    before the scan, leaving only h @ wh inside it (Appleyard et al. 2016).
    """
    bsz, length, emb = x.shape
    hid = wh.shape[0]
    g_cols = slice(2 * hid, 3 * hid)
    xw = (x.reshape(-1, emb) @ wx + b).reshape(bsz, length, 4 * hid)
    h = np.zeros((bsz, hid), dtype=x.dtype)
    c = np.zeros((bsz, hid), dtype=x.dtype)
    h_seq = np.zeros((bsz, length, hid), dtype=x.dtype)
    steps = [None] * length
    for t in _steps(length, reverse):
        m = mask[:, t, None]
        gates = xw[:, t] + h @ wh
        # One sigmoid over all stacked gates [i|f|g|o]; the g slot is then
        # overwritten with its tanh.
        act = _sigmoid(gates)
        act[:, g_cols] = np.tanh(gates[:, g_cols])
        i, f, g, o = _split_gates(act)
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        # c is rebound below, never mutated, so the cache holds it without a copy.
        steps[t] = (c, act, tc)
        # Padded steps carry the previous state through unchanged.
        c = np.where(m, c_new, c)
        h = np.where(m, o * tc, h)
        h_seq[:, t] = h
    return h_seq, (x, mask, h_seq, steps)


def _backprop_direction(dh_seq, cache, wx, wh, reverse: bool):
    """BPTT for one direction; returns (dx_seq, dwx, dwh, db).

    The loop only produces the gate gradients of each step; the input, input
    weight, recurrent weight and bias gradients are then one GEMM (or sum)
    each over all timesteps.
    """
    x, mask, h_seq, steps = cache
    bsz, length, hid = dh_seq.shape
    dtype = dh_seq.dtype
    dgates_seq = np.zeros((bsz, length, 4 * hid), dtype=dtype)
    dh_next = np.zeros((bsz, hid), dtype=dtype)
    dc_next = np.zeros((bsz, hid), dtype=dtype)
    for t in _steps(length, not reverse):
        c_prev, act, tc = steps[t]
        i, f, g, o = _split_gates(act)
        m = mask[:, t, None]
        dh_total = dh_seq[:, t] + dh_next
        # h_t = m*h_new + (1-m)*h_prev ; c_t = m*c_new + (1-m)*c_prev
        dh_new = np.where(m, dh_total, 0.0)
        dc_in = dh_new * o * (1.0 - tc * tc) + np.where(m, dc_next, 0.0)
        dact = np.concatenate([dc_in * g, dc_in * c_prev, dc_in * i, dh_new * tc], axis=1)
        deriv = act * (1.0 - act)
        deriv[:, 2 * hid : 3 * hid] = 1.0 - g * g   # tanh' in the g slot
        dgates = dact * deriv
        dgates_seq[:, t] = dgates
        dh_next = dgates @ wh.T + np.where(m, 0.0, dh_total)
        dc_next = dc_in * f + np.where(m, 0.0, dc_next)
    dgates_2d = dgates_seq.reshape(-1, 4 * hid)
    dx_seq = (dgates_2d @ wx.T).reshape(bsz, length, wx.shape[0])
    dwx = x.reshape(-1, wx.shape[0]).T @ dgates_2d
    dwh = _shift_prev(h_seq, reverse).reshape(-1, hid).T @ dgates_2d
    db = dgates_2d.sum(axis=0)
    return dx_seq, dwx, dwh, db


def bilstm_forward(ids, pad_mask, params: dict, cfg: BiLstmConfig):
    """Hidden states [B, L, 2*hidden] plus the cache for backward."""
    ids = np.asarray(ids)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise DataError("token id out of vocabulary range")
    x = params["emb"][ids]
    h_fw, cache_fw = _run_direction(
        x, pad_mask, params["fw_wx"], params["fw_wh"], params["fw_b"], reverse=False
    )
    h_bw, cache_bw = _run_direction(
        x, pad_mask, params["bw_wx"], params["bw_wh"], params["bw_b"], reverse=True
    )
    hidden = np.concatenate([h_fw, h_bw], axis=-1)
    cache = {"ids": ids, "fw": cache_fw, "bw": cache_bw, "cfg": cfg, "dtype": x.dtype}
    return hidden, cache


def bilstm_backward(dhidden, params: dict, cache) -> dict:
    cfg: BiLstmConfig = cache["cfg"]
    hid = cfg.hidden_size
    d_fw, d_bw = dhidden[..., :hid], dhidden[..., hid:]
    dx_fw, dwx_fw, dwh_fw, db_fw = _backprop_direction(
        d_fw, cache["fw"], params["fw_wx"], params["fw_wh"], reverse=False
    )
    dx_bw, dwx_bw, dwh_bw, db_bw = _backprop_direction(
        d_bw, cache["bw"], params["bw_wx"], params["bw_wh"], reverse=True
    )
    dx = dx_fw + dx_bw
    demb = np.zeros((cfg.vocab_size, cfg.embed_dim), dtype=cache["dtype"])
    np.add.at(demb, cache["ids"], dx)
    return {
        "emb": demb,
        "fw_wx": dwx_fw, "fw_wh": dwh_fw, "fw_b": db_fw,
        "bw_wx": dwx_bw, "bw_wh": dwh_bw, "bw_b": db_bw,
    }
