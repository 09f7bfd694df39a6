"""Zero-safe Kullback-Leibler and Jensen-Shannon divergence on binned densities."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirical_spectrum import SpectralDensity
from .errors import BinMismatch


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


def _check_edges(P: SpectralDensity, Q: SpectralDensity) -> None:
    if P.bin_edges.shape != Q.bin_edges.shape or not np.array_equal(
        P.bin_edges, Q.bin_edges
    ):
        raise BinMismatch("densities must share identical bin edges")


def _kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.sum(p * np.log(p / q), axis=-1)


def kl_divergence(
    P: SpectralDensity, Q: SpectralDensity, policy: ZeroHandlingPolicy = DEFAULT_POLICY
) -> float:
    """D_KL(P||Q) with zero bins smoothed on both sides."""
    _check_edges(P, Q)
    return float(_kl(policy.smooth(P.masses), policy.smooth(Q.masses)))


def js_divergence(
    P: SpectralDensity, Q: SpectralDensity, policy: ZeroHandlingPolicy = DEFAULT_POLICY
) -> float:
    """Jensen-Shannon divergence against the midpoint mixture (natural log)."""
    _check_edges(P, Q)
    return js_divergence_masses(P.masses, Q.masses, policy)


def js_divergence_masses(
    p_masses: np.ndarray, q_masses: np.ndarray, policy: ZeroHandlingPolicy = DEFAULT_POLICY
) -> float | np.ndarray:
    """js_divergence on raw mass arrays sharing an implicit common grid.

    Bins lie on the last axis; leading axes broadcast, so (P, 1, K) against
    (1, B, K) scores a whole (P, B) surface in one call. 1-d inputs return a
    float."""
    p = policy.smooth(p_masses)
    q = policy.smooth(q_masses)
    m = policy.smooth(0.5 * (p + q))
    d = 0.5 * _kl(p, m) + 0.5 * _kl(q, m)
    return float(d) if d.ndim == 0 else d
