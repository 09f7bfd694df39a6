"""Empirical eigenvalue densities: histograms of a window's spectrum."""
from __future__ import annotations

import logging

import numpy as np

from .errors import EmptyBins

logger = logging.getLogger(__name__)


def density_from_eigenvalues(
    eigenvalues: np.ndarray, bin_edges: np.ndarray, p_max: int | None = None
) -> np.ndarray:
    """(K,) masses of eigenvalues histogrammed onto K + 1 `bin_edges`,
    clamping strays, ±inf included, into the end bins. A NaN eigenvalue
    raises ValueError.

    With `p_max`, the eigenvalues are a descending spectrum, and row p of
    the (p_max + 1, K) result holds the masses of that spectrum with its
    top p eigenvalues replaced by zeros. Every eigenvalue is binned once;
    each row moves its zeroed ones to the bin of 0 in integer counts,
    divided by N last, so a row equals the histogram of its own zeroed
    spectrum bit for bit. Strays are counted on row 0."""
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 3:
        raise EmptyBins("need at least 2 bins (3 edges)")
    if np.any(edges[1:] < edges[:-1]):
        raise ValueError("bin edges must increase monotonically")
    vals = np.asarray(eigenvalues, dtype=float)
    if np.isnan(vals).any():
        raise ValueError("eigenvalues must not be NaN")
    n_low = int(np.count_nonzero(vals < edges[0]))
    n_high = int(np.count_nonzero(vals > edges[-1]))
    if n_low or n_high:
        logger.warning(
            "clamped %d eigenvalue(s) below and %d above the bin range", n_low, n_high
        )
    # np.histogram's rule, edges[j] <= x < edges[j + 1] with the last bin
    # closed, and strays in the end bins: count the inner edges at or below x
    inner = edges[1:-1]
    bins = np.searchsorted(inner, vals, side="right")
    k = len(edges) - 1
    zero_bin = np.searchsorted(inner, 0.0, side="right")
    levels = np.arange((p_max or 0) + 1)[:, None]  # without p_max, one row of p = 0
    rows = np.where(np.arange(vals.size) < levels, zero_bin, bins)
    rows += k * levels
    counts = np.bincount(rows.ravel(), minlength=k * levels.size).reshape(levels.size, k)
    return (counts[0] if p_max is None else counts) / vals.size
