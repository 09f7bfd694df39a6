"""Independent closed-form and brute-force references used by the tests.

Nothing here imports from the package under test, so agreement between the
two implementations is meaningful evidence.
"""
import mpmath
import numpy as np


def mp_support(c: float) -> tuple[float, float]:
    """Marchenko-Pastur support edges [(1 - sqrt(c))^2, (1 + sqrt(c))^2]."""
    r = np.sqrt(c)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def mp_model_support(b: float, c: float) -> list[tuple[mpmath.mpf, mpmath.mpf]]:
    """The AR(1) model's support edges at 60 digits, each with the real root
    v of the sextic -(1 - b^2)^2 v^6 + 8 sqrt(c) b^2 v^3 + (1 + b^2)^2 v^2
    + 4 b^2 c that gives it: [(v_lo, lo), (v_hi, hi)], with z(v) = (v^2 +
    sqrt(c) / v) (1 + sqrt(c) v) (1 - b^2) / (1 + b^2). The float b and c
    are taken exactly, and the roots come from mpmath's Durand-Kerner
    iteration. At b = 0 the double root v = 0 is divided out first."""
    with mpmath.workdps(60):
        b2, c = mpmath.mpf(b) ** 2, mpmath.mpf(c)
        r = mpmath.sqrt(c)
        coeffs = [-((1 - b2) ** 2), 0, 0, 8 * r * b2, (1 + b2) ** 2, 0, 4 * b2 * c]
        roots = mpmath.polyroots(coeffs if b2 else coeffs[:5], maxsteps=100, extraprec=60)
        real = sorted(mpmath.re(v) for v in roots if abs(mpmath.im(v)) < mpmath.mpf(10) ** -50 * abs(v))
        assert len(real) == 2, (b, c, roots)
        return [(v, (v * v + r / v) * (1 + r * v) * (1 - b2) / (1 + b2)) for v in real]


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


def cdf_kernel(u) -> np.ndarray:
    """K(u): a unit slope jump at 0 adds eps^2 K(x / eps) to the CDF of a
    piecewise-linear density convolved with a Cauchy kernel of width eps.
    With a = |u|, K = sign(u) [1/4 - ((a^2 + 1) / 2 atan(1 / a) - a / 2 +
    (a / 2) ln(1 + a^2) + atan a) / pi], here with atan a = pi/2 - atan(1/a)."""
    a = np.abs(u)
    return -np.sign(u) * (
        0.25 + ((a * a - 1.0) * np.arctan2(1.0, a) - a + a * np.log(1.0 + a * a)) / (2.0 * np.pi)
    )


def cauchy_bin_masses(nodes, rho, bin_edges, epsilon: float, step: int = 8) -> np.ndarray:
    """Bin masses of a density rho, piecewise linear on ascending nodes,
    convolved with a Cauchy kernel of width epsilon, in one array
    expression: the CDF at each edge (0 for the first) is the trapezoid
    CDF plus eps^2 sum_j s_j K((x - lambda_j) / eps) over every `step`-th
    node and the last, s_j being the jumps in the slope of rho taken as
    linear between them. Mass past the last edge joins the last bin, and
    the masses are divided by 1 - C(0)."""
    x = np.array(bin_edges[:-1], dtype=float)
    x[0] = 0.0
    cells = np.diff(nodes)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * cells)])
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, cells.size - 1)
    t = np.clip(x - nodes[i], 0.0, cells[i])
    at_x = cdf[i] + t * (rho[i] + 0.5 * t * (rho[i + 1] - rho[i]) / cells[i])
    knots, jumps = cauchy_knots(nodes, rho, step)
    at_x += epsilon * epsilon * (cdf_kernel((x[:, None] - knots) / epsilon) @ jumps)
    return np.diff(np.append(at_x, cdf[-1])) / (1.0 - at_x[0])


def cauchy_knots(nodes, rho, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Every `step`-th node and the last, and the jumps in the slope of rho
    taken as linear between them (zero slope outside)."""
    pick = np.r_[0 : nodes.size - 1 : step, nodes.size - 1]
    knots = nodes[pick]
    return knots, np.diff(np.diff(rho[pick]) / np.diff(knots), prepend=0.0, append=0.0)


def density_kernel(u) -> np.ndarray:
    """I(u) = K'(u) = -(a atan(1 / a) + ln(1 + a^2) / 2) / pi with a = |u|."""
    a = np.abs(u)
    return -(a * np.arctan2(1.0, a) + 0.5 * np.log(1.0 + a * a)) / np.pi


def cauchy_smoothed_density(nodes, rho, grid, epsilon: float, step: int = 8) -> np.ndarray:
    """The derivative of `cauchy_bin_masses`'s CDF at each point of a grid,
    in one array expression: rho(x) + eps sum_j s_j I((x - lambda_j) / eps)
    over the same knots and slope jumps s_j."""
    x = np.asarray(grid, dtype=float)
    knots, jumps = cauchy_knots(nodes, rho, step)
    return np.interp(x, nodes, rho) + epsilon * (
        density_kernel((x[:, None] - knots) / epsilon) @ jumps
    )


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


def moment_coefficients(zs, b: float, c: float) -> np.ndarray:
    """(n, 5) coefficients of the model's quartic in M at each z, highest
    degree first."""
    zs = np.asarray(zs, dtype=complex).ravel()
    a2 = 1.0 - b * b
    a4 = a2 * a2
    w = 2.0 * a2 * c * (1.0 + b * b)
    out = np.empty((zs.size, 5), dtype=complex)
    out[:, 0] = a4 * c * c
    out[:, 1] = 2.0 * a4 * c * c - w * zs
    out[:, 2] = a4 * zs * zs - w * zs + (c * c - 1.0) * a4
    out[:, 3] = -2.0 * a4
    out[:, 4] = -a4
    return out


def walked_density(b: float, c: float, epsilon: float, grid, tol: float = 1e-3) -> np.ndarray:
    """Reference density -Im G(lambda + i epsilon) / pi on an ascending grid,
    G = (M + 1) / z, with M tracked by `continuity_walk` on companion roots.

    The walk starts at |z| = 1e6, where M ~ 1/z picks the root (the one with
    nonnegative density nearest it), comes in along Im z = max(epsilon,
    0.05) to just past the grid's right end, goes down to Im z = epsilon,
    then runs along the grid from right to left."""
    grid = np.asarray(grid, dtype=float)
    anchor = max(grid[-1], 1e-6) * 1.0001
    eps_hi = max(epsilon, 0.05)
    bridge = np.concatenate(
        [
            np.geomspace(max(1e6, 100.0 * (abs(grid[-1]) + 1.0)), anchor, 48) + 1j * eps_hi,
            anchor + 1j * np.geomspace(eps_hi, epsilon, 32),
        ]
    )
    zs = np.concatenate([bridge, grid[::-1] + 1j * epsilon])
    roots = companion_roots(moment_coefficients(zs, b, c))
    start = roots[0][-((roots[0] + 1.0) / zs[0]).imag / np.pi >= -tol]
    seed = start[np.argmin(np.abs(zs[0] * start - 1.0))]

    def solve(z):
        return companion_roots(moment_coefficients([z], b, c))[0]

    picked = continuity_walk(roots, zs, seed, solve, tol)[bridge.size :]
    return (-((picked + 1.0) / zs[bridge.size :]).imag / np.pi)[::-1]


def ar1_paths(b: float, N: int, T: int, burn_in: int, rng) -> np.ndarray:
    """Gaussian AR(1) rows by the plain recursion x_t = b x_{t-1} + e_t, with
    e_t of variance 1 - b^2, drawing from `rng` in the generator's order: the
    innovations, then the stationary start."""
    x = rng.standard_normal((N, T + burn_in)) * np.sqrt(1.0 - b * b)
    x[:, 0] = rng.standard_normal(N)
    for t in range(1, x.shape[1]):
        x[:, t] += b * x[:, t - 1]
    return x[:, burn_in:]
