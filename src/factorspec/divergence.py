"""Zero-safe Jensen-Shannon divergence on binned mass arrays."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ZeroHandlingPolicy:
    """Substitute `epsilon` for zero bins and rescale the rest by
    alpha = 1 - num_zeros * epsilon so the density still sums to 1."""

    epsilon: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must be a small positive mass")

    def smooth(self, masses: np.ndarray) -> np.ndarray:
        """Smooth each density along the last axis; leading axes index a
        stack of densities, each rescaled by its own alpha."""
        masses = np.asarray(masses, dtype=float)
        zero = masses <= 0.0
        alpha = 1.0 - np.count_nonzero(zero, axis=-1, keepdims=True) * self.epsilon
        if np.any(alpha <= 0.0):
            raise ValueError("epsilon too large for the number of zero bins")
        return np.where(zero, self.epsilon, alpha * masses)


DEFAULT_POLICY = ZeroHandlingPolicy()


def _kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.sum(p * np.log(p / q), axis=-1)


def js_divergence_masses(
    p_masses: np.ndarray, q_masses: np.ndarray, policy: ZeroHandlingPolicy = DEFAULT_POLICY
) -> float | np.ndarray:
    """Jensen-Shannon divergence against the midpoint mixture (natural log)
    of mass arrays on a shared grid, zero bins smoothed on both sides.

    Bins lie on the last axis; leading axes broadcast, so (P, 1, K) against
    (1, B, K) scores a whole (P, B) surface in one call. 1-d inputs return a
    float."""
    p = policy.smooth(p_masses)
    q = policy.smooth(q_masses)
    m = policy.smooth(0.5 * (p + q))
    d = 0.5 * _kl(p, m) + 0.5 * _kl(q, m)
    return float(d) if d.ndim == 0 else d
