"""Independent closed-form and brute-force references used by the tests.

Nothing here imports from the package under test, so agreement between the
two implementations is meaningful evidence.
"""
import numpy as np


def mp_support(c: float) -> tuple[float, float]:
    """Marchenko-Pastur support edges [(1 - sqrt(c))^2, (1 + sqrt(c))^2]."""
    r = np.sqrt(c)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def mp_density(lam, c: float) -> np.ndarray:
    """Closed-form Marchenko-Pastur density for aspect ratio c < 1."""
    lam = np.asarray(lam, dtype=float)
    lo, hi = mp_support(c)
    inside = (lam > lo) & (lam < hi)
    rho = np.zeros_like(lam)
    x = lam[inside]
    rho[inside] = np.sqrt((hi - x) * (x - lo)) / (2.0 * np.pi * c * x)
    return rho


def mp_green(z: complex, c: float) -> complex:
    """Stieltjes transform of the MP law, branch with Im G < 0 for Im z > 0."""
    s = np.sqrt((z - (1.0 - c)) ** 2 - 4.0 * c * z + 0j)
    for g in ((z - (1.0 - c) - s) / (2.0 * c * z), (z - (1.0 - c) + s) / (2.0 * c * z)):
        if np.imag(g) * np.imag(z) < 0:
            return g
    raise AssertionError("no physical MP branch found")


def decompose(x, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split an N x T array into its top-p principal part and residual:
    (factors (p, T), loadings (N, p), residual), x = loadings @ factors + residual.

    Factor rows are the top-p right singular vectors of x, each signed so its
    largest-magnitude entry is positive; loadings are the projection x F'.
    """
    x = np.asarray(x, dtype=float)
    n, t = x.shape
    if not 0 <= p <= min(n, t):
        raise ValueError(f"p={p} outside [0, {min(n, t)}]")
    factors = np.linalg.svd(x, full_matrices=False)[2][:p]
    peaks = factors[np.arange(p), np.argmax(np.abs(factors), axis=1)]
    factors = factors * np.where(peaks < 0, -1.0, 1.0)[:, None]
    loadings = x @ factors.T
    return factors, loadings, x - loadings @ factors


def residual_covariance(residual) -> np.ndarray:
    """C = (1/T) U U', symmetrized to kill roundoff asymmetry."""
    c = residual @ residual.T / residual.shape[1]
    return 0.5 * (c + c.T)


def empirical_density(cov, edges) -> np.ndarray:
    """Histogram masses of a covariance matrix's eigenvalues."""
    return histogram_masses(np.linalg.eigvalsh(cov), edges)


def histogram_masses(samples, edges) -> np.ndarray:
    """Reference normalized histogram with overflow folded into end bins."""
    samples = np.clip(samples, edges[0], np.nextafter(edges[-1], -np.inf))
    counts, _ = np.histogram(samples, bins=edges)
    return counts / counts.sum()


def smooth_reference(v, eps: float = 1e-12) -> np.ndarray:
    """Zero-replacement smoothing: zeros become eps, the rest scale by
    alpha = 1 - num_zeros * eps so the total stays 1."""
    v = np.asarray(v, dtype=float).copy()
    zeros = v <= 0.0
    alpha = 1.0 - zeros.sum() * eps
    v[~zeros] *= alpha
    v[zeros] = eps
    return v


def js_reference(p, q, eps: float = 1e-12) -> float:
    """JS against the midpoint of the smoothed inputs (natural log)."""
    p = smooth_reference(p, eps)
    q = smooth_reference(q, eps)
    m = 0.5 * (p + q)
    return float(0.5 * np.sum(p * np.log(p / m)) + 0.5 * np.sum(q * np.log(q / m)))


def companion_roots(coeffs) -> np.ndarray:
    """Reference roots of each quartic row (n, 5), highest degree first: the
    eigenvalues of the monic companion matrix, then two Newton steps."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.shape[0]
    comp = np.zeros((n, 4, 4), dtype=complex)
    comp[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    comp[:, [1, 2, 3], [0, 1, 2]] = 1.0
    m = np.linalg.eigvals(comp)
    for _ in range(2):
        value = np.zeros_like(m)
        slope = np.zeros_like(m)
        for c in coeffs.T:  # Horner for P and P' together
            slope = slope * m + value
            value = value * m + c[:, None]
        m = m - np.where(slope != 0, value / np.where(slope != 0, slope, 1.0), 0.0)
    return m


def continuity_walk(roots, zs, seed, solve, tol: float, depth: int = 24) -> np.ndarray:
    """Reference branch tracking, one grid point at a time.

    From `seed` at zs[0], each step takes the physical root (density
    -Im((M + 1) / z) / pi >= -tol) nearest the previous pick. When the
    runner-up is nearly as close, the step is bisected at its midpoint,
    whose roots come from `solve(z)`, down to `depth` halvings or a step
    shorter than 1e-12. `roots` holds the four roots at each z."""

    def nearest(row, z, prev):
        rho = -((row + 1.0) / z).imag / np.pi
        cand = row[rho >= -tol]
        assert cand.size > 0, f"no physical root at z={z}"
        dist = np.abs(cand - prev)
        order = np.argsort(dist)
        return complex(cand[order[0]]), cand.size > 1 and dist[order[0]] > 0.5 * dist[order[1]]

    def advance(prev, z0, z1, row, depth):
        pick, ambiguous = nearest(row, z1, prev)
        if not ambiguous or depth <= 0 or abs(z1 - z0) < 1e-12:
            return pick
        mid = 0.5 * (z0 + z1)
        return advance(advance(prev, z0, mid, solve(mid), depth - 1), mid, z1, row, depth - 1)

    picked = np.empty(zs.size, dtype=complex)
    picked[0] = seed
    for i in range(1, zs.size):
        picked[i] = advance(picked[i - 1], zs[i - 1], zs[i], roots[i], depth)
    return picked


def ar1_paths(b: float, N: int, T: int, burn_in: int, rng) -> np.ndarray:
    """Gaussian AR(1) rows by the plain recursion x_t = b x_{t-1} + e_t, with
    e_t of variance 1 - b^2, drawing from `rng` in the generator's order: the
    innovations, then the stationary start."""
    x = rng.standard_normal((N, T + burn_in)) * np.sqrt(1.0 - b * b)
    x[:, 0] = rng.standard_normal(N)
    for t in range(1, x.shape[1]):
        x[:, t] += b * x[:, t - 1]
    return x[:, burn_in:]
