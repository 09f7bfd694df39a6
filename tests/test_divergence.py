"""JS divergence properties on binned mass arrays."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from factorspec import js_divergence_masses
from factorspec.divergence import ZERO_MASS, _smooth


def masses_strategy(k=12):
    return (
        st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)
        .filter(lambda v: sum(v) > 1e-6)
        .map(lambda v: np.array(v) / np.sum(v))
    )


@settings(max_examples=200, deadline=None)
@given(masses_strategy(), masses_strategy())
def test_js_symmetry(p, q):
    assert js_divergence_masses(p, q) == pytest.approx(js_divergence_masses(q, p), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(masses_strategy(), masses_strategy())
def test_js_nonnegative_and_bounded(p, q):
    d = js_divergence_masses(p, q)
    assert -1e-12 <= d <= np.log(2.0) + 1e-12


@settings(max_examples=100, deadline=None)
@given(masses_strategy())
def test_js_zero_iff_equal(p):
    assert js_divergence_masses(p, p) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(masses_strategy(), masses_strategy())
def test_js_positive_when_distinct(p, q):
    if np.max(np.abs(p - q)) > 1e-5:
        assert js_divergence_masses(p, q) > 0.0


@settings(max_examples=100, deadline=None)
@given(masses_strategy(), masses_strategy())
def test_js_matches_reference(p, q):
    assert js_divergence_masses(p, q) == pytest.approx(oracles.js_reference(p, q), abs=1e-10)


def test_spike_sensitivity():
    """Moving mass into a far bin must increase the divergence."""
    base = np.array([0.55] + [0.05] * 9)
    mild = base.copy()
    mild[9] += 0.05
    mild[0] -= 0.05
    strong = base.copy()
    strong[9] += 0.3
    strong[0] -= 0.3
    d_mild = js_divergence_masses(base, mild / mild.sum())
    d_strong = js_divergence_masses(base, strong / strong.sum())
    assert 0 < d_mild < d_strong


def test_policy_smoothing_preserves_total_mass():
    masses = np.array([0.7, 0.3, 0.0, 0.0])
    smoothed = _smooth(masses)
    assert smoothed.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(smoothed > 0)
    assert np.array_equal(smoothed[2:], [ZERO_MASS, ZERO_MASS])


def test_smooth_on_a_stack_equals_smooth_per_row():
    stack = np.array(
        [[0.7, 0.3, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25], [0.0, 1.0, 0.0, 0.0]]
    )
    smoothed = _smooth(stack[None, :, :])
    for row, want in zip(smoothed[0], stack):
        assert np.array_equal(row, _smooth(want))


def test_broadcast_surface_equals_scalar_calls():
    rng = np.random.default_rng(1)
    p = rng.dirichlet(np.ones(30), size=5)
    p[:, :4] = 0.0  # zero bins on the empirical side
    p /= p.sum(axis=1, keepdims=True)
    q = rng.dirichlet(np.full(30, 0.3), size=7)
    q[2, 10:] = 0.0
    q /= q.sum(axis=1, keepdims=True)
    surface = js_divergence_masses(p[:, None, :], q[None, :, :])
    assert surface.shape == (5, 7)
    for i in range(5):
        for j in range(7):
            scalar = js_divergence_masses(p[i], q[j])
            assert isinstance(scalar, float)
            assert surface[i, j] == scalar
