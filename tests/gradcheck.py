"""Central-finite-difference verification of analytic gradients.

The checked loss function runs unchanged but on float64 copies of the
parameters (every layer op preserves input dtype), so the finite differences
are not drowned by 32-bit rounding. Dropout must be off in the checked loss.
"""
from __future__ import annotations

import numpy as np

from breakscore.rngs import make_rng


def grad_check(
    loss_and_grad_fn,
    params: dict,
    eps: float = 1e-5,
    n_coords: int = 200,
    seed: int = 0,
) -> float:
    """Worst relative error between analytic and numeric gradients.

    `loss_and_grad_fn(params) -> (loss, grads)` must be deterministic. At most
    `n_coords` coordinates are probed per parameter tensor (all of them when
    the tensor is smaller).
    """
    rng = make_rng(seed, "gradcheck")
    p64 = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}
    _, grads = loss_and_grad_fn(p64)
    worst = 0.0
    for name in sorted(p64):
        tensor = p64[name]
        flat = tensor.reshape(-1)
        size = flat.size
        coords = (
            np.arange(size)
            if size <= n_coords
            else rng.choice(size, size=n_coords, replace=False)
        )
        gflat = np.asarray(grads[name], dtype=np.float64).reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + eps
            hi, _ = loss_and_grad_fn(p64)
            flat[idx] = orig - eps
            lo, _ = loss_and_grad_fn(p64)
            flat[idx] = orig
            numeric = (hi - lo) / (2.0 * eps)
            analytic = gflat[idx]
            denom = max(abs(analytic), abs(numeric))
            if denom < 1e-8:
                continue
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
