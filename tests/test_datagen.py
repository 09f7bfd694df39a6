"""Synthetic AR(1) sources, planted factors, and event schedules."""
import numpy as np
import pytest

from factorspec import (
    Ar1Spec,
    Event,
    EventSchedule,
    PlantedFactorSpec,
    RawDataSource,
    brute_force_spectrum,
    case_schedule,
    density_from_eigenvalues,
    generate_ar1,
    planted_factor_matrix,
    synthesize_case,
)
from factorspec import datagen
from factorspec.errors import InvalidCoefficient, ScheduleOutOfRange

import oracles


def test_ar1_spec_rejects_nonstationary_coefficients():
    with pytest.raises(InvalidCoefficient):
        Ar1Spec(b=1.0)
    with pytest.raises(InvalidCoefficient):
        Ar1Spec(b=-1.2)
    with pytest.raises(InvalidCoefficient):
        Ar1Spec(b=0.5, heavy_tail_dof=2.0)


def test_ar1_marginal_variance_is_one():
    x = generate_ar1(Ar1Spec(b=0.6, seed=1), N=200, T=2000)
    assert x.var() == pytest.approx(1.0, abs=0.05)


def test_ar1_lag_one_autocovariance():
    x = generate_ar1(Ar1Spec(b=0.7, seed=2), N=200, T=2000)
    lag1 = np.mean(x[:, 1:] * x[:, :-1])
    assert lag1 == pytest.approx(0.7, abs=0.02)


def test_ar1_stationary_from_first_sample():
    """No startup transient: the first column already has unit variance."""
    x = generate_ar1(Ar1Spec(b=0.9, seed=3), N=4000, T=3, burn_in=0)
    assert x[:, 0].var() == pytest.approx(1.0, abs=0.06)


def test_ar1_seed_reproducibility():
    a = generate_ar1(Ar1Spec(b=0.4, seed=9), N=5, T=20)
    b = generate_ar1(Ar1Spec(b=0.4, seed=9), N=5, T=20)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("b, burn_in", [(0.0, 0), (0.4, 200), (0.95, 30), (-0.5, 1)])
def test_ar1_rows_equal_the_plain_recursion(b, burn_in):
    """The in-place filter gives the recursion's values bit for bit."""
    x = generate_ar1(Ar1Spec(b=b), N=6, T=300, burn_in=burn_in, rng=np.random.default_rng(5))
    assert np.array_equal(x, oracles.ar1_paths(b, 6, 300, burn_in, np.random.default_rng(5)))


def test_ar1_heavy_tail_variance_matched():
    x = generate_ar1(Ar1Spec(b=0.5, seed=4, heavy_tail_dof=5.0), N=300, T=2000)
    assert x.var() == pytest.approx(1.0, abs=0.05)


def test_event_schedule_validation():
    EventSchedule((Event(10, 20),))
    with pytest.raises(ScheduleOutOfRange):
        EventSchedule((Event(20, 10),))
    with pytest.raises(ScheduleOutOfRange):
        EventSchedule((Event(0, 10),))


def test_synthesize_case_rejects_out_of_range_events():
    late = EventSchedule((Event(onset=500, offset=None),))
    with pytest.raises(ScheduleOutOfRange):
        synthesize_case(late, Ar1Spec(b=0.5, seed=0), 5.0, N=10, t=100)


def test_synthesize_case_factor_mode_spreads_event():
    sched = EventSchedule((Event(onset=50, offset=None),))
    src = synthesize_case(sched, Ar1Spec(b=0.5, seed=12), 10.0, N=30, t=100)
    base = synthesize_case(EventSchedule(), Ar1Spec(b=0.5, seed=12), 10.0, N=30, t=100)
    diff = src.values - base.values
    touched = np.count_nonzero(np.abs(diff).max(axis=1) > 1e-9)
    assert touched > 10  # loading vector hits many channels
    assert np.allclose(diff[:, :49], 0.0)  # nothing before onset


def test_synthesize_case_source_adopts_the_record(monkeypatch):
    """The record is frozen before the source is built, so the source keeps
    it rather than copying a whole N x t array."""
    handed = []

    def spy(values):
        handed.append(values)
        return RawDataSource(values=values)

    monkeypatch.setattr(datagen, "RawDataSource", spy)
    src = synthesize_case(
        EventSchedule((Event(onset=50, offset=None),)),
        Ar1Spec(b=0.5, seed=12),
        5.0,
        N=30,
        t=100,
    )
    assert src.values is handed[0] and not src.values.flags.writeable


def test_planted_factors_separate_from_bulk():
    n, t = 118, 250
    x = planted_factor_matrix(
        PlantedFactorSpec(k=2, strength=5.0, seed=5), Ar1Spec(b=0.5), N=n, T=t
    )
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    eigs = np.linalg.eigvalsh(x @ x.T / t)[::-1]
    bulk_edge = (1.0 + np.sqrt(n / t)) ** 2
    assert eigs[1] > 2.0 * bulk_edge  # both spikes clear of the bulk
    assert eigs[2] < 2.0 * bulk_edge


def test_planted_factor_matrix_refuses_a_seed_it_would_not_read():
    """Draws come from one generator, so any other seed would be dropped."""
    for planted, noise, rng in (
        (PlantedFactorSpec(k=1, seed=3), Ar1Spec(b=0.4, seed=1), None),
        (PlantedFactorSpec(k=1), Ar1Spec(b=0.4, seed=1), np.random.default_rng(0)),
        (PlantedFactorSpec(k=1, seed=3), Ar1Spec(b=0.4), np.random.default_rng(0)),
    ):
        with pytest.raises(ValueError, match="pass no other seed"):
            planted_factor_matrix(planted, noise, 20, 50, rng=rng)


def test_brute_force_spectrum_is_normalized_density():
    eigs = brute_force_spectrum(b=0.3, N=40, T=80, trials=3, seed=1)
    assert eigs.shape == (3 * 40,)
    masses = density_from_eigenvalues(eigs, np.linspace(0.0, 1.05 * eigs.max(), 26))
    assert masses.sum() == pytest.approx(1.0)
    assert masses.shape == (25,)


def test_brute_force_spectrum_reproducible():
    a = brute_force_spectrum(b=0.3, N=20, T=40, trials=2, seed=7)
    b = brute_force_spectrum(b=0.3, N=20, T=40, trials=2, seed=7)
    assert np.array_equal(a, b)


def test_case_schedules_well_formed():
    for name, n_events in (("case1", 1), ("case2", 2), ("case3", 3)):
        sched, t = case_schedule(name)
        assert len(sched.events) == n_events
        assert all(e.onset <= t for e in sched.events)
    with pytest.raises(ValueError):
        case_schedule("case99")
