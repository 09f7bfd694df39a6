"""Compare the theoretical residual spectrum against brute-force simulation.

For a few AR(1) coefficients b we draw 50 independent noise matrices,
pool their covariance eigenvalues into a histogram, and lay the
free-probability model density over it. The two should agree to a few
percent in Jensen-Shannon divergence; an ascii sketch of both curves is
printed so the agreement is visible without plotting.

Run from the repository root:

    python demos/model_vs_monte_carlo.py
"""
import numpy as np

from factorspec import (
    ModelDensityCache,
    brute_force_spectrum,
    density_from_eigenvalues,
    js_divergence_masses,
)
from factorspec.estimator import shared_bin_edges

N, T = 118, 250
C = N / T


def sketch(masses, height=8):
    """Tiny vertical-bar rendering of a histogram row."""
    top = masses.max()
    levels = np.round(masses / top * height).astype(int)
    rows = []
    for h in range(height, 0, -1):
        rows.append("".join("#" if lv >= h else " " for lv in levels))
    return "\n".join(rows)


def main():
    cache = ModelDensityCache()
    for b in (0.0, 0.3, 0.6):
        eigs = brute_force_spectrum(b=b, N=N, T=T, trials=50, seed=1)
        edges = shared_bin_edges(float(eigs.max()) * 1.05, C, bins=60)
        mc = density_from_eigenvalues(eigs, edges)
        model = cache.masses(b, C, 1e-4, edges)
        d = js_divergence_masses(mc, model)
        print(f"\nb = {b}: JS(model, monte-carlo) = {d:.5f}")
        print("monte-carlo eigenvalue histogram:")
        print(sketch(mc))
        print("model density, same bins:")
        print(sketch(model))
        print(f"(bins span [0, {edges[-1]:.2f}]; support widens as b grows)")


if __name__ == "__main__":
    main()
