"""Differentiable primitives: each op has a forward returning a cache and a
matching backward. All ops preserve the dtype of their inputs (float32 in
training; the gradient checker runs them in float64)."""
from __future__ import annotations

import math

import numpy as np

from ..exceptions import DataError


def trunc_normal(shape, rng: np.random.Generator, std: float = 0.02):
    """Normal(0, std) clipped to +/- 2 std, as float32."""
    x = rng.normal(0.0, std, size=shape)
    return np.clip(x, -2.0 * std, 2.0 * std).astype(np.float32)


def init_params(shapes: dict, rng: np.random.Generator) -> dict:
    """float32 parameters of a name -> shape table, in its order: truncated-normal
    matrices (the only draws from `rng`), unit gains (`*_g`) and zero biases."""
    return {
        name: trunc_normal(shape, rng) if len(shape) == 2
        else (np.ones if name.endswith("_g") else np.zeros)(shape, dtype=np.float32)
        for name, shape in shapes.items()
    }


# -- linear ------------------------------------------------------------------

# Leading axes are flattened so each matmul is one [rows, d] @ [d, k] GEMM;
# numpy runs a 3-D @ 2-D product as a loop of small per-batch GEMMs. At these
# shapes a fresh temporary costs more than the GEMM itself, so every op below
# allocates its output once and then works on it in place. Reductions over
# the rows or along the short last axis run as GEMVs, several times faster
# than numpy's `sum`/`mean` there; their summation order, and so the last
# bits, differ from `sum`.

def _col_sum(x2):
    """Sum over the rows of x2 [N, k]."""
    return np.ones(x2.shape[0], dtype=x2.dtype) @ x2


def _row_mean(x2, weights):
    """Mean of x2 [N, d] * weights along the last axis, as an [N, 1] column."""
    return x2 @ (weights / np.asarray(x2.shape[1], dtype=x2.dtype))[:, None]


def linear(x, w, b):
    y = x.reshape(-1, x.shape[-1]) @ w
    y += b
    return y.reshape(*x.shape[:-1], w.shape[1]), (x, w)


def linear_backward(dy, cache):
    x, w = cache
    dy2 = dy.reshape(-1, dy.shape[-1])
    dx = (dy2 @ w.T).reshape(x.shape)
    dw = x.reshape(-1, x.shape[-1]).T @ dy2
    db = _col_sum(dy2)
    return dx, dw, db


def embedding_backward(ids, dx, n_rows: int):
    """Gradient of an [n_rows, d] table gathered as `table[ids]`, from dx
    [*ids.shape, d]. One scatter-add over flat (id, column) offsets: several
    times faster than a row-wise np.add.at, and bitwise equal to it, since each
    entry sums its rows in the same order."""
    d = dx.shape[-1]
    grad = np.zeros(n_rows * d, dtype=dx.dtype)
    np.add.at(grad, (np.reshape(ids, (-1, 1)) * d + np.arange(d)).reshape(-1), dx.reshape(-1))
    return grad.reshape(n_rows, d)


# -- layer norm --------------------------------------------------------------

_LN_EPS = 1e-5


def layer_norm(x, gain, bias):
    d = x.shape[-1]
    x2 = x.reshape(-1, d)
    ones = np.ones(d, dtype=x.dtype)
    xhat = x2 - _row_mean(x2, ones)
    var = _row_mean(np.square(xhat), ones)
    var += np.asarray(_LN_EPS, dtype=x.dtype)
    inv = np.reciprocal(np.sqrt(var, out=var), out=var)
    xhat *= inv
    y = xhat * gain
    y += bias
    return y.reshape(x.shape), (xhat.reshape(x.shape), inv, gain)


def layer_norm_backward(dy, cache):
    # dxhat = dy * gain, so its row means are GEMVs of dy and dy * xhat
    # against gain; one product serves both dgain and the second mean.
    xhat, inv, gain = cache
    d = xhat.shape[-1]
    dy2, xh2 = dy.reshape(-1, d), xhat.reshape(-1, d)
    dbias = _col_sum(dy2)
    prod = dy2 * xh2
    dgain = _col_sum(prod)
    m2 = _row_mean(prod, gain)
    dx = dy2 * gain
    dx -= _row_mean(dy2, gain)
    dx -= np.multiply(xh2, m2, out=prod)
    dx *= inv
    return dx.reshape(dy.shape), dgain, dbias


# -- GELU (tanh approximation) ----------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x):
    # x * x * x, not x**3: numpy sends a float32 cube through `pow`, ~80x
    # slower. In-place steps keep this to two temporaries; the result is
    # bitwise that of 0.5 * x * (1 + tanh(c * (x + a * x*x*x))).
    u = x * x
    u *= x
    u *= _GELU_A
    u += x
    u *= _GELU_C
    t = np.tanh(u, out=u)
    y = t + 1.0
    y *= x
    y *= 0.5
    return y, (x, t)


def gelu_backward(dy, cache):
    # dy * (0.5 * (1 + t) + 0.5 * x * (1 - t*t) * du), du = c * (1 + 3a x*x),
    # in two buffers.
    x, t = cache
    du = x * x
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    g = t * t
    np.subtract(1.0, g, out=g)
    g *= x
    g *= du
    g += t
    g += 1.0
    g *= 0.5
    g *= dy
    return g


# -- softmax -----------------------------------------------------------------

def softmax(x, axis=-1):
    # One temporary, updated in place; bitwise equal to e / e.sum() with
    # e = exp(x - max).
    z = x - x.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z


def softmax_backward(dy, probs, axis=-1):
    # probs * (dy - sum(dy * probs)) in one buffer.
    g = dy * probs
    dot = g.sum(axis=axis, keepdims=True)
    np.subtract(dy, dot, out=g)
    g *= probs
    return g


# -- dropout -----------------------------------------------------------------

def dropout(x, p: float, rng: np.random.Generator):
    """Inverted dropout; returns (output, mask). p=0 is the identity."""
    if p <= 0.0:
        return x, None
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    keep /= np.asarray(1.0 - p, dtype=x.dtype)
    return x * keep, keep


def dropout_backward(dy, mask):
    return dy if mask is None else dy * mask


# -- cross entropy -----------------------------------------------------------

def batched_cross_entropy(logits, targets):
    """Mean cross entropy over rows of logits [N, C]; returns (loss, dlogits)."""
    logits = np.asarray(logits)
    n, c = logits.shape
    targets = np.asarray(targets)
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= c:
        raise DataError("target class out of range")
    if n == 0:
        raise DataError("cross entropy needs at least one row")
    p = softmax(logits, axis=-1)
    picked = np.maximum(p[np.arange(n), targets], np.finfo(p.dtype).tiny)
    loss = float((-np.log(picked)).sum() / n)
    dlogits = p.copy()
    dlogits[np.arange(n), targets] -= 1.0
    # Scale by 1/n rounded to the logits' dtype, not divide by n: the two round
    # differently.
    dlogits *= p.dtype.type(1) / n
    return loss, dlogits
