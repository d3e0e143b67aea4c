"""Bidirectional LSTM encoder with explicit backprop-through-time.

Padded steps carry the previous state through unchanged (gated update), so the
backward pass never propagates gradient into padded embeddings. Output is the
concatenation [forward_h; backward_h] per position, [B, L, 2*hidden].

Both scans work on time-major buffers: the embeddings are gathered as
[L, B, E], so each step reads and writes [t] blocks of whole rows (the input
projection turned into gate activations in place, the cached c and tanh(c),
the hidden states, the gate gradients), not strided [:, t] columns of
[B, L, ...] arrays. The input projection, the gate derivatives and every BPTT
factor that does not depend on the recurrence are computed for all steps at
once; each loop keeps only the recurrent GEMM and a few [B, 4H] operations. A
step where every row is real skips the masked carry.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from ..exceptions import DataError
from ..jsonl import check_fields
from .functional import embedding_backward


@dataclass(frozen=True)
class BiLstmConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden_size: int = 128

    def __post_init__(self):
        check_fields(type(self), vars(self))
        for name in ("vocab_size", "embed_dim", "hidden_size"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def max_len(self) -> int:
        """A Bi-LSTM reads sequences of any length."""
        return sys.maxsize

    @property
    def hidden_dim(self) -> int:
        """Width of each position's hidden state: both directions' h."""
        return 2 * self.hidden_size

    @property
    def n_params(self) -> int:
        """Number of parameters `param_shapes` holds, by arithmetic."""
        e, h = self.embed_dim, self.hidden_size
        return self.vocab_size * e + 2 * 4 * h * (e + h + 1)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every parameter, in initialization order; gates stack [i|f|g|o]."""
        e, h = self.embed_dim, self.hidden_size
        shapes = {"emb": (self.vocab_size, e)}
        for d in ("fw", "bw"):
            shapes.update({f"{d}_wx": (e, 4 * h), f"{d}_wh": (h, 4 * h), f"{d}_b": (4 * h,)})
        return shapes


def _steps(length: int, reverse: bool):
    return range(length - 1, -1, -1) if reverse else range(length)


def _split_gates(act):
    """Views of the stacked [i|f|g|o] activations along the last axis."""
    hid = act.shape[-1] // 4
    return (act[..., :hid], act[..., hid : 2 * hid], act[..., 2 * hid : 3 * hid],
            act[..., 3 * hid :])


def _run_direction(x, mask, wx, wh, b, h_seq, reverse: bool):
    """One direction's forward scan over time-major x [L,B,E] and mask [B,L],
    writing each step's h into h_seq [L,B,H]. Returns the scan cache.

    The input projection x @ wx + b of every timestep is one [L*B, E] GEMM
    before the scan, leaving only h @ wh inside it (Appleyard et al. 2016).
    Each step's [B, 4H] block of that projection is turned into the gate
    activations in place and kept as the step's cache.
    """
    length, bsz, emb = x.shape
    hid = wh.shape[0]
    g_cols = slice(2 * hid, 3 * hid)
    act_seq = (x.reshape(-1, emb) @ wx).reshape(length, bsz, 4 * hid)
    act_seq += b
    c_prev = np.empty((length, bsz, hid), dtype=x.dtype)   # c entering each step
    tanh_c = np.empty((length, bsz, hid), dtype=x.dtype)   # tanh of each step's new c
    h = np.zeros((bsz, hid), dtype=x.dtype)
    c = np.zeros((bsz, hid), dtype=x.dtype)
    full = mask.all(axis=0)
    for t in _steps(length, reverse):
        act = act_seq[t]
        act += h @ wh
        # The g slot takes its tanh; one in-place sigmoid then covers the
        # stacked gates, and the tanh is put back.
        tanh_g = np.tanh(act[:, g_cols])
        np.negative(act, out=act)
        np.exp(act, out=act)
        act += 1.0
        np.divide(1.0, act, out=act)
        act[:, g_cols] = tanh_g
        i, f, g, o = _split_gates(act)
        c_prev[t] = c
        c_new = f * c
        c_new += i * g
        tc = np.tanh(c_new, out=tanh_c[t])
        if full[t]:
            c = c_new
            h = np.multiply(o, tc, out=h_seq[t])
        else:
            # Padded steps carry the previous state through unchanged.
            m = mask[:, t, None]
            c = np.where(m, c_new, c)
            h_seq[t] = np.where(m, o * tc, h)
            h = h_seq[t]
    return x, mask, full, h_seq, act_seq, c_prev, tanh_c


def _backprop_direction(dh_seq, cache, wx, wh, reverse: bool):
    """BPTT for one direction over time-major dh_seq [L,B,H]; returns
    (dx [L*B, E], dwx, dwh, db).

    Every factor that does not depend on the recurrence is computed for all
    timesteps before the loop, which keeps only the carried gradients, the
    gate products and the dgates @ wh.T GEMM. The input, input weight,
    recurrent weight and bias gradients are then one GEMM (or sum) each.
    """
    x, mask, full, h_seq, act, c_prev, tanh_c = cache
    length, bsz, hid = dh_seq.shape
    i, f, g, o = _split_gates(act)
    # Gate derivatives: s(1-s) for the sigmoids, 1-g^2 in the g slot. The
    # gate gradients are dc_in * [g, c_prev, i]·deriv and dh_new * tanh(c)·deriv,
    # with dc_in = dh_new * o(1 - tanh^2 c) + the carried dc.
    dgates = np.subtract(1.0, act)
    dgates *= act
    deriv_g = dgates[..., 2 * hid : 3 * hid]
    np.multiply(g, g, out=deriv_g)
    np.subtract(1.0, deriv_g, out=deriv_g)
    factors = np.concatenate([g, c_prev, i, tanh_c], axis=-1)
    factors *= dgates
    o_tanh = np.multiply(tanh_c, tanh_c)
    np.subtract(1.0, o_tanh, out=o_tanh)
    o_tanh *= o
    # dgates now only serves as the output buffer of the gate gradients.
    cell_factors = factors[..., : 3 * hid].reshape(length, bsz, 3, hid)
    out_factors = factors[..., 3 * hid :]
    dcell = dgates[..., : 3 * hid].reshape(length, bsz, 3, hid)
    dout = dgates[..., 3 * hid :]
    wh_t = np.ascontiguousarray(wh.T)
    dh_next = np.zeros((bsz, hid), dtype=dh_seq.dtype)
    dc_next = np.zeros((bsz, hid), dtype=dh_seq.dtype)
    for t in _steps(length, not reverse):
        dh_total = dh_seq[t] + dh_next
        if full[t]:
            dc_in = dh_total * o_tanh[t]
            dc_in += dc_next
            np.multiply(dc_in[:, None, :], cell_factors[t], out=dcell[t])
            np.multiply(dh_total, out_factors[t], out=dout[t])
            dh_next = dgates[t] @ wh_t
            dc_next = dc_in * f[t]
        else:
            # h_t = m*h_new + (1-m)*h_prev ; c_t = m*c_new + (1-m)*c_prev
            m = mask[:, t, None]
            dh_new = np.where(m, dh_total, 0.0)
            dc_in = dh_new * o_tanh[t]
            dc_in += np.where(m, dc_next, 0.0)
            np.multiply(dc_in[:, None, :], cell_factors[t], out=dcell[t])
            np.multiply(dh_new, out_factors[t], out=dout[t])
            dh_next = dgates[t] @ wh_t
            dh_next += np.where(m, 0.0, dh_total)
            dc_next = dc_in * f[t] + np.where(m, 0.0, dc_next)
    dgates_2d = dgates.reshape(-1, 4 * hid)
    dx = dgates_2d @ wx.T
    dwx = x.reshape(-1, wx.shape[0]).T @ dgates_2d
    # The state entering step t is the previous step's output (zeros at the
    # start), so dwh pairs each h with the next step's gate gradients.
    h_in, dg_next = (h_seq[1:], dgates[:-1]) if reverse else (h_seq[:-1], dgates[1:])
    dwh = h_in.reshape(-1, hid).T @ dg_next.reshape(-1, 4 * hid)
    db = dgates_2d.sum(axis=0)
    return dx, dwx, dwh, db


def bilstm_forward(ids, pad_mask, params: dict, cfg: BiLstmConfig):
    """Hidden states [B, L, 2*hidden] plus the cache for backward."""
    ids = np.asarray(ids)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise DataError("token id out of vocabulary range")
    hid = cfg.hidden_size
    x = params["emb"][ids.T]   # time-major [L, B, E]
    hidden = np.empty((ids.shape[1], ids.shape[0], 2 * hid), dtype=x.dtype)
    cache_fw = _run_direction(
        x, pad_mask, params["fw_wx"], params["fw_wh"], params["fw_b"], hidden[..., :hid],
        reverse=False,
    )
    cache_bw = _run_direction(
        x, pad_mask, params["bw_wx"], params["bw_wh"], params["bw_b"], hidden[..., hid:],
        reverse=True,
    )
    cache = {"ids": ids, "fw": cache_fw, "bw": cache_bw, "cfg": cfg}
    return hidden.transpose(1, 0, 2).copy(), cache


def bilstm_backward(dhidden, params: dict, cache) -> dict:
    """Parameter gradients for a loss whose gradient w.r.t. hidden is dhidden.

    Consumes `cache`, as `encoder_backward` does: each direction's scan cache
    is popped as its BPTT starts, so the forward direction's buffers are freed
    before the backward direction's run. A second call on the same cache
    raises RuntimeError.
    """
    cfg: BiLstmConfig = cache["cfg"]
    if "fw" not in cache:
        raise RuntimeError("bilstm_backward: the cache was consumed by an earlier backward")
    hid = cfg.hidden_size
    dhidden = dhidden.transpose(1, 0, 2)   # time-major view [L, B, 2*hidden]
    dx, dwx_fw, dwh_fw, db_fw = _backprop_direction(
        dhidden[..., :hid], cache.pop("fw"), params["fw_wx"], params["fw_wh"], reverse=False
    )
    dx_bw, dwx_bw, dwh_bw, db_bw = _backprop_direction(
        dhidden[..., hid:], cache.pop("bw"), params["bw_wx"], params["bw_wh"], reverse=True
    )
    dx += dx_bw
    return {
        "emb": embedding_backward(cache["ids"].T, dx, cfg.vocab_size),   # dx is time-major
        "fw_wx": dwx_fw, "fw_wh": dwh_fw, "fw_b": db_fw,
        "bw_wx": dwx_bw, "bw_wh": dwh_bw, "bw_b": db_bw,
    }
