"""Exposure mitigation on predicted clean states.

:func:`batch_clip` builds the clip the sampler applies to a ``(batch, dim)``
clean-state estimate. Each row is one chain, so every mean and quantile is
taken per row.
"""

from typing import Callable, Optional

import numpy as np

__all__ = ["CLIP_METHODS", "batch_clip"]

CLIP_METHODS = ("none", "tanh-balance", "balance-tanh", "quantile")


def _balance(x: np.ndarray, shift: float) -> np.ndarray:
    # Each row's mean is the stacked product x[:, None, :] @ w, w = 1/d: one BLAS dot per row, summed from +0.0.
    # At d <= 2 the same sum over the columns is bit-equal and makes no call per row. At d >= 3 a plain 2-D
    # x @ w, np.einsum or a dot over strided rows rounds some means differently, so the rows are made C first.
    d = x.shape[1]
    if d <= 2:
        m = x[:, :1] * (1.0 / d) + 0.0
        if d == 2:
            m += x[:, 1:] * 0.5
    else:
        m = np.ascontiguousarray(x)[:, None, :] @ np.full(d, 1.0 / d)
    return x - shift * m


def _quantile(x: np.ndarray, q: float, ceiling: float) -> np.ndarray:
    s = np.clip(np.quantile(np.abs(x), q, axis=1), 1.0, ceiling)[:, None]
    return np.clip(x, -s, s) / s


def batch_clip(
    method: str, shift: float = 0.75, q: float = 0.995, ceiling: float = 1.0
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """The clip ``method`` as a map on ``(batch, dim)`` rows, or ``None`` for ``"none"``.

    Each method is named as the composition it computes, outermost first: ``"tanh-balance"`` is
    tanh(balance(x)) and ``"balance-tanh"`` is balance(tanh(x)), where balance removes ``shift``
    times each row's mean, so at ``shift=0`` both are ``np.tanh``. ``"quantile"`` is the
    dynamic-threshold baseline: with ``s = clamp(quantile_q(|row|), 1, ceiling)`` each row
    becomes ``clip(row, -s, s) / s``, always within [-1, 1].
    """
    if method not in CLIP_METHODS:
        raise ValueError(f"unknown clip method {method!r}, expected one of {CLIP_METHODS}")
    if method == "none":
        return None
    if method != "quantile" and not np.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift}")
    if method == "tanh-balance":
        return lambda x: np.tanh(_balance(x, shift))
    if method == "balance-tanh":
        return lambda x: _balance(np.tanh(x), shift)
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile q must lie in (0, 1], got {q}")
    if not ceiling >= 1.0:  # written so that a NaN fails; an infinite ceiling is no cap
        raise ValueError(f"ceiling must be at least 1, got {ceiling}")
    if ceiling == 1.0:  # every threshold clamps to 1, so q has no effect: bit-equal to _quantile(x, q, 1.0)
        return lambda x: np.clip(x, -1.0, 1.0)
    return lambda x: _quantile(x, q, ceiling)
