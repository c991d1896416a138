"""Exposure mitigation on predicted clean states.

One set of kernels over arrays shaped ``(..., channels, elements)`` serves both
layouts: the public functions take one ``(channels, elements_per_channel)``
tensor, and :func:`batch_clip` treats each row of a ``(batch, dim)`` sampler
state as a one-channel tensor, where per-channel and global means coincide.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

__all__ = [
    "CLIP_METHODS",
    "color_balance",
    "smooth_clip",
    "exposure_correct",
    "quantile_clip",
    "batch_clip",
]

CLIP_METHODS = ("none", "tanh-balance", "tanh-only", "quantile")


def _validate(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError(f"expected a non-empty (channels, elements) array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("channel tensor contains non-finite entries")
    return x


def _check_quantile(q: float, ceiling: float) -> None:
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile q must lie in (0, 1], got {q}")
    if ceiling < 1.0:
        raise ValueError(f"ceiling must be at least 1, got {ceiling}")


def _balance(x: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    # Means are matmuls with a 1/n vector, not reductions over a short axis row by row. The
    # channel means of x - alpha * m are (1 - alpha) * m; with one channel m is the global mean.
    m = x @ np.full(x.shape[-1], 1.0 / x.shape[-1])
    g = m if x.shape[-2] == 1 else (m @ np.full(m.shape[-1], 1.0 / m.shape[-1]))[..., None]
    return x - (alpha * m + beta * (1.0 - alpha) * g)[..., None]


def _exposure(x: np.ndarray, alpha: float, beta: float, balance_first: bool) -> np.ndarray:
    if balance_first:
        return np.tanh(_balance(x, alpha, beta))
    return _balance(np.tanh(x), alpha, beta)


def _quantile(x: np.ndarray, q: float, ceiling: float) -> np.ndarray:
    # np.quantile's "linear" method from one sort of each flattened tensor, lerp included, bit for bit.
    flat = np.sort(np.abs(x).reshape(*x.shape[:-2], -1), axis=-1)
    lo, g = divmod((flat.shape[-1] - 1) * q, 1)
    a, b = flat[..., int(lo)], flat[..., min(int(lo) + 1, flat.shape[-1] - 1)]
    level = b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g
    s = np.clip(level, 1.0, ceiling)[..., None, None]
    return np.clip(x, -s, s) / s


def color_balance(x: np.ndarray, alpha: float = 0.5, beta: float = 0.5) -> np.ndarray:
    """Shift each channel toward zero mean, then the whole tensor.

    Per channel ``c``: ``x_c -= alpha * mean(x_c)``; afterwards the already
    channel-balanced tensor is shifted by ``beta`` times its global mean.
    """
    return _balance(_validate(x), alpha, beta)


def smooth_clip(x: np.ndarray) -> np.ndarray:
    """Element-wise tanh squashing into the open interval (-1, 1)."""
    return np.tanh(_validate(x))


def exposure_correct(
    x: np.ndarray, alpha: float = 0.5, beta: float = 0.5, balance_first: bool = True
) -> np.ndarray:
    """Mean balancing combined with tanh squashing.

    Balancing first keeps more values inside the tanh's linear regime, so that
    is the default; ``balance_first=False`` applies the squashing before the
    balancing for ablations, at the cost of re-introducing a nonzero mean.
    """
    return _exposure(_validate(x), alpha, beta, balance_first)


def quantile_clip(x: np.ndarray, q: float = 0.995, ceiling: float = 1.0) -> np.ndarray:
    """Dynamic-threshold baseline: clip at the q-quantile of ``|x|`` and rescale.

    The threshold ``s = clamp(quantile_q(|x|), 1, ceiling)`` is computed over
    the whole tensor; output is ``clip(x, -s, s) / s``, always within [-1, 1].
    """
    _check_quantile(q, ceiling)
    return _quantile(_validate(x), q, ceiling)


def batch_clip(
    method: str,
    shift: float = 0.75,
    q: float = 0.995,
    ceiling: float = 1.0,
    balance_first: bool = True,
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Vectorized per-chain clip for sampler batches, or ``None`` for ``"none"``.

    Each row of a ``(batch, dim)`` state array is treated as an independent
    single-channel tensor, so means and quantiles are taken per row. tanh-balance
    removes ``shift`` times each row's mean, the alpha + beta - alpha * beta of ``exposure_correct``.
    """
    if method not in CLIP_METHODS:
        raise ValueError(f"unknown clip method {method!r}, expected one of {CLIP_METHODS}")
    if method == "none":
        return None
    if method == "tanh-only":
        return np.tanh
    if method == "tanh-balance":

        def _tanh_balance(x: np.ndarray) -> np.ndarray:
            return _exposure(x[:, None, :], shift, 0.0, balance_first)[:, 0, :]

        return _tanh_balance

    _check_quantile(q, ceiling)

    def _quantile_rows(x: np.ndarray) -> np.ndarray:
        return _quantile(x[:, None, :], q, ceiling)[:, 0, :]

    return _quantile_rows
