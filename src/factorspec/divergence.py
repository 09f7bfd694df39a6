"""Zero-safe Jensen-Shannon divergence on binned mass arrays."""
from __future__ import annotations

import numpy as np

ZERO_MASS = 1e-12  # mass given to an empty bin before the log


def _smooth(masses: np.ndarray) -> np.ndarray:
    """Substitute ZERO_MASS for zero bins and rescale the rest by
    alpha = 1 - num_zeros * ZERO_MASS so each density still sums to 1.

    Bins lie on the last axis; leading axes index a stack of densities,
    each rescaled by its own alpha."""
    masses = np.asarray(masses, dtype=float)
    zero = masses <= 0.0
    alpha = 1.0 - np.count_nonzero(zero, axis=-1, keepdims=True) * ZERO_MASS
    return np.where(zero, ZERO_MASS, alpha * masses)


def _sum_xlogx(x: np.ndarray) -> np.ndarray:
    return np.sum(x * np.log(x), axis=-1)


def js_divergence_masses(p_masses: np.ndarray, q_masses: np.ndarray) -> float | np.ndarray:
    """Jensen-Shannon divergence against the midpoint mixture (natural log)
    of mass arrays on a shared grid, zero bins smoothed on both sides.

    Bins lie on the last axis; leading axes broadcast, so (P, 1, K) against
    (1, B, K) scores a whole (P, B) surface in one call. 1-d inputs return a
    float. Smoothed masses are positive, so JS = (sum p log p + sum q log q) / 2
    - sum m log m, and only the broadcast midpoint m needs a log over the
    whole surface."""
    p = _smooth(p_masses)
    q = _smooth(q_masses)
    d = 0.5 * _sum_xlogx(p) + 0.5 * _sum_xlogx(q) - _sum_xlogx(0.5 * (p + q))
    return float(d) if d.ndim == 0 else d
