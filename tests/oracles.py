"""Independent closed-form and brute-force references used by the tests.

Nothing here imports from the package under test, so agreement between the
two implementations is meaningful evidence.
"""
import functools

import numpy as np
from scipy.linalg import toeplitz


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


def ar1_covariance(b: float, T: int) -> np.ndarray:
    """Stationary AR(1) autocovariance matrix, entries b^|i-j|."""
    return toeplitz(b ** np.arange(T))


@functools.lru_cache(maxsize=None)
def _ar1_spectrum(b: float, T: int) -> np.ndarray:
    eigs = np.linalg.eigvalsh(ar1_covariance(b, T))
    eigs.flags.writeable = False
    return eigs


def ar1_moment(b: float, k: int, T: int = 4000) -> float:
    """Normalized trace moment (1/T) tr(Sigma^k) of the AR(1) covariance.

    Computed by brute force from the Toeplitz matrix; T is large enough
    that boundary effects are O(1/T). The spectrum is computed once per
    (b, T) and shared by every k.
    """
    return float(np.mean(_ar1_spectrum(b, T) ** k))


def ar1_mgf_series(b: float, order: int) -> np.ndarray:
    """Spectral moments m_1..m_order of the AR(1) covariance, from the
    generating identity sum_k m_{k+1} z^k = 1 / sqrt(1 - 2 q z + z^2) with
    q = (1+b^2)/(1-b^2); the coefficients are the Legendre polynomials P_k(q).

    Evaluated via Cauchy coefficients on a small circle, independent of the
    package code path.
    """
    q = (1.0 + b * b) / (1.0 - b * b)
    n = 256
    r = 0.05
    theta = 2.0 * np.pi * np.arange(n) / n
    z = r * np.exp(1j * theta)
    f = 1.0 / np.sqrt(1.0 - 2.0 * q * z + z * z)
    coeffs = np.fft.fft(f) / n
    return np.array([np.real(coeffs[k - 1] / r ** (k - 1)) for k in range(1, order + 1)])


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


def kl_reference(p, q, eps: float = 1e-12) -> float:
    p = smooth_reference(p, eps)
    q = smooth_reference(q, eps)
    return float(np.sum(p * np.log(p / q)))


def js_reference(p, q, eps: float = 1e-12) -> float:
    """JS against the midpoint of the smoothed inputs (natural log)."""
    p = smooth_reference(p, eps)
    q = smooth_reference(q, eps)
    m = 0.5 * (p + q)
    return float(0.5 * np.sum(p * np.log(p / m)) + 0.5 * np.sum(q * np.log(q / m)))
