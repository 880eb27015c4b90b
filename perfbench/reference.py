"""Extended-precision reference for the forward synthesis of P(t).

P(t_j) = (1 + sum_k w_k cos(2 pi nu_k t_j)) / 2 with sum_k w_k = 1.

The phase nu_k * t_j reaches about 1.2e4 cycles on the default delay
window, so float64 loses about 1e-12 in every cosine argument. Here each
float64 factor is split into a 26-bit and a 27-bit half; the four partial
products are exact in np.longdouble (64-bit mantissa on x86-64), each is
reduced mod 1 exactly, and only the sum of the four reduced parts rounds.
"""
from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64
TWO_PI = 2 * np.arccos(np.longdouble(-1))


def _split(x: np.ndarray) -> tuple:
    """x = hi + lo exactly, hi with at most 26 significant bits."""
    x = np.asarray(x, dtype=np.float64)
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _frac(x: np.ndarray) -> np.ndarray:
    return x - np.rint(x)


def cycles_mod1(nu: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Outer product nu[None, :] * t[:, None] reduced to [-0.5, 0.5], longdouble."""
    nu_hi, nu_lo = (np.longdouble(p)[None, :] for p in _split(nu))
    t_hi, t_lo = (np.longdouble(p)[:, None] for p in _split(t))
    total = (
        _frac(nu_hi * t_hi)
        + _frac(nu_hi * t_lo)
        + _frac(nu_lo * t_hi)
        + _frac(nu_lo * t_lo)
    )
    return _frac(total)


def coincidence_probability(
    nu: np.ndarray, weights: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Reference P(t) for bin frequencies ``nu`` and unnormalized ``weights``."""
    w = np.asarray(weights, dtype=np.longdouble)
    w = w / w.sum()
    phase = TWO_PI * cycles_mod1(nu, t)
    return 0.5 * (1 + (np.cos(phase) * w[None, :]).sum(axis=1))


def reference_delay_indices(count: int, samples: int = 1025) -> np.ndarray:
    """Evenly spread delay indices, both window edges included."""
    return np.unique(np.linspace(0, count - 1, samples).round().astype(np.int64))
