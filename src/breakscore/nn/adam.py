"""Bias-corrected Adam over named parameter dicts."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import DataError


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def adam_step(params: dict, grads: dict, state: AdamState, lr: float = 1e-4) -> None:
    """One in-place update; lazily initializes moments on first use."""
    state.t += 1
    t = state.t
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    for name, p in params.items():
        if name not in grads:
            raise DataError(f"missing gradient for parameter {name!r}")
        g = grads[name]
        if g.shape != p.shape:
            raise DataError(
                f"gradient shape {g.shape} does not match parameter {name!r} {p.shape}"
            )
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        p -= (lr / bc1) * m / (np.sqrt(v / bc2) + _EPS)
