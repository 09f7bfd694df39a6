"""Empirical eigenvalue densities, and the reference factor-removal route
in `oracles` that the one-eigendecomposition shortcut is checked against."""
import numpy as np
import pytest

import oracles
from factorspec.empirical_spectrum import density_from_eigenvalues
from factorspec.errors import EmptyBins


@pytest.fixture
def window():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(20, 50))
    return (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)


def test_decompose_reconstructs_exactly(window):
    for p in (0, 1, 3):
        factors, loadings, residual = oracles.decompose(window, p)
        assert np.allclose(loadings @ factors + residual, window, atol=1e-10)


def test_decompose_factor_rows_orthonormal(window):
    factors, _, _ = oracles.decompose(window, 4)
    assert np.allclose(factors @ factors.T, np.eye(4), atol=1e-10)


def test_decompose_residual_orthogonal_to_factors(window):
    factors, _, residual = oracles.decompose(window, 3)
    assert np.allclose(residual @ factors.T, 0.0, atol=1e-10)


def test_decompose_p_zero_is_identity(window):
    factors, loadings, residual = oracles.decompose(window, 0)
    assert factors.shape == (0, 50)
    assert loadings.shape == (20, 0)
    assert np.array_equal(residual, window)


def test_decompose_sign_is_deterministic(window):
    a, _, _ = oracles.decompose(window, 2)
    b, _, _ = oracles.decompose(-window, 2)
    # flipping the data must not scramble the factor sign convention
    assert np.allclose(np.abs(a), np.abs(b), atol=1e-10)
    peaks = a[np.arange(2), np.argmax(np.abs(a), axis=1)]
    assert np.all(peaks > 0)


def test_decompose_rejects_out_of_range_p(window):
    with pytest.raises(ValueError):
        oracles.decompose(window, -1)
    with pytest.raises(ValueError):
        oracles.decompose(window, 21)


def test_residual_covariance_matches_definition(window):
    _, _, residual = oracles.decompose(window, 2)
    cov = oracles.residual_covariance(residual)
    assert np.allclose(cov, residual @ residual.T / 50, atol=1e-12)
    assert np.array_equal(cov, cov.T)


def test_factor_removal_zeroes_top_eigenvalues(window):
    """Removing the top-p principal part must leave the lower spectrum of
    (1/T) X X' untouched and replace the top p eigenvalues with zeros."""
    full = np.linalg.eigvalsh(window @ window.T / 50)[::-1]
    for p in (1, 2, 5):
        cov = oracles.residual_covariance(oracles.decompose(window, p)[2])
        got = np.linalg.eigvalsh(cov)[::-1]
        expect = full.copy()
        expect[:p] = 0.0
        assert np.allclose(np.sort(got), np.sort(expect), atol=1e-9)


def test_density_matches_reference_histogram():
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.0, 4.0, size=200)
    edges = np.linspace(0.0, 4.0, 21)
    masses = density_from_eigenvalues(vals, edges)
    assert np.allclose(masses, oracles.histogram_masses(vals, edges))
    assert masses.sum() == pytest.approx(1.0)


def test_density_clamps_strays_into_end_bins():
    edges = np.linspace(0.0, 1.0, 11)
    masses = density_from_eigenvalues(np.array([-0.5, 0.05, 0.5, 2.3, 9.0]), edges)
    assert masses[0] == pytest.approx(2 / 5)  # -0.5 and 0.05
    assert masses[-1] == pytest.approx(2 / 5)  # 2.3 and 9.0
    assert masses.sum() == pytest.approx(1.0)


def test_density_rejects_fewer_than_two_bins():
    with pytest.raises(EmptyBins):
        density_from_eigenvalues(np.array([0.5]), np.array([0.0, 1.0]))


def test_empirical_density_consistent_with_direct_eigenvalues(window):
    cov = oracles.residual_covariance(oracles.decompose(window, 1)[2])
    edges = np.linspace(0.0, 5.0, 31)
    direct = density_from_eigenvalues(np.linalg.eigvalsh(cov), edges)
    assert np.allclose(oracles.empirical_density(cov, edges), direct)
