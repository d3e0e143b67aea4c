"""Bias-corrected Adam (Kingma & Ba 2015, arXiv:1412.6980) over flat rows."""
from __future__ import annotations

import numpy as np

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def adam_step(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
              lr: float) -> None:
    """Step t (from 1) of Adam, in place: the parameter row p from its gradient
    row g, with the moment rows m and v, which start at zero."""
    m *= _BETA1
    m += (1.0 - _BETA1) * g
    v *= _BETA2
    v += (1.0 - _BETA2) * (g * g)
    p -= (lr / (1.0 - _BETA1**t)) * m / (np.sqrt(v / (1.0 - _BETA2**t)) + _EPS)
