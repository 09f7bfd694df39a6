"""Zero-safe Jensen-Shannon divergence on binned mass arrays."""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

ZERO_MASS = 1e-12  # mass given to an empty bin before the log


class Smoothed(NamedTuple):
    """The parts of a JS divergence that depend on one side only: the
    zero-smoothed masses and half of each density's Σ x ln x."""

    values: np.ndarray
    half_xlogx: np.ndarray


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


def smooth(masses: np.ndarray) -> Smoothed:
    """`Smoothed` terms of a mass array or a stack of them (bins last), for
    a caller that scores the same densities again and again."""
    values = _smooth(masses)
    return Smoothed(values, 0.5 * _sum_xlogx(values))


def js_divergence_masses(p_masses, q_masses) -> float | np.ndarray:
    """Jensen-Shannon divergence against the midpoint mixture (natural log)
    of mass arrays on a shared grid, zero bins smoothed on both sides.

    Each side is a mass array or its `smooth` terms. Bins lie on the last
    axis; leading axes broadcast, so (P, 1, K) against (B, K) scores a whole
    (P, B) surface in one call. 1-d inputs return a float. Smoothed masses
    are positive, so JS = (sum p log p + sum q log q) / 2 - sum m log m, and
    only the broadcast midpoint m needs a log over the whole surface: it is
    formed, logged and multiplied in two surface-sized buffers."""
    p = p_masses if isinstance(p_masses, Smoothed) else smooth(p_masses)
    q = q_masses if isinstance(q_masses, Smoothed) else smooth(q_masses)
    m = p.values + q.values
    m *= 0.5
    m_log_m = np.log(m)
    m_log_m *= m
    d = p.half_xlogx + q.half_xlogx - np.sum(m_log_m, axis=-1)
    return float(d) if d.ndim == 0 else d
