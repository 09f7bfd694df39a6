"""Empirical eigenvalue densities: histograms of a window's spectrum."""
from __future__ import annotations

import logging

import numpy as np

from .errors import EmptyBins

logger = logging.getLogger(__name__)


def density_from_eigenvalues(eigenvalues: np.ndarray, bin_edges: np.ndarray) -> np.ndarray:
    """(K,) masses of eigenvalues histogrammed onto K + 1 `bin_edges`,
    clamping strays into the end bins."""
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 3:
        raise EmptyBins("need at least 2 bins (3 edges)")
    vals = np.asarray(eigenvalues, dtype=float)
    n_low = int(np.count_nonzero(vals < edges[0]))
    n_high = int(np.count_nonzero(vals > edges[-1]))
    if n_low or n_high:
        logger.warning(
            "clamped %d eigenvalue(s) below and %d above the bin range", n_low, n_high
        )
    clipped = np.clip(vals, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return counts / vals.size
