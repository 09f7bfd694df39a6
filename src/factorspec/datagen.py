"""Synthetic sources: AR(1) residual noise, planted factors, and step-event
schedules, plus a Monte-Carlo oracle for the model spectrum."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import RawDataSource
from .errors import InvalidCoefficient, ScheduleOutOfRange


@dataclass(frozen=True)
class Ar1Spec:
    """Stationary AR(1) rows: x_t = b x_{t-1} + xi_t, xi ~ N(0, 1 - b^2).

    The innovation variance is pinned by stationarity so the marginal
    variance is exactly 1. `heavy_tail_dof` switches the innovations to a
    variance-matched Student-t."""

    b: float
    seed: int | None = None
    heavy_tail_dof: float | None = None

    def __post_init__(self):
        if not abs(self.b) < 1.0:
            raise InvalidCoefficient(f"|b|={abs(self.b)} must be < 1")
        if self.heavy_tail_dof is not None and self.heavy_tail_dof <= 2:
            raise InvalidCoefficient("heavy_tail_dof must exceed 2 for finite variance")


@dataclass(frozen=True)
class Event:
    """One step event, active over 1-based samples onset..offset inclusive;
    offset None runs to the end."""

    onset: int
    offset: int | None


@dataclass(frozen=True)
class EventSchedule:
    events: tuple[Event, ...] = ()

    def __post_init__(self):
        for e in self.events:
            if e.offset is not None and not e.onset < e.offset:
                raise ScheduleOutOfRange(f"event onset {e.onset} >= offset {e.offset}")
            if e.onset < 1:
                raise ScheduleOutOfRange(f"event onset {e.onset} < 1")


@dataclass(frozen=True)
class PlantedFactorSpec:
    """Signals entering through k unit-norm loading vectors spread across
    channels; `strength` scales spike size relative to the noise bulk edge
    (1 + sqrt(c))^2."""

    k: int
    strength: float = 5.0
    seed: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


def _innovations(spec: Ar1Spec, rng: np.random.Generator, shape) -> np.ndarray:
    scale = np.sqrt(1.0 - spec.b * spec.b)
    if spec.heavy_tail_dof is None:
        xi = rng.standard_normal(shape)
    else:
        dof = spec.heavy_tail_dof
        xi = rng.standard_t(dof, shape)
        xi *= np.sqrt((dof - 2.0) / dof)
    xi *= scale
    return xi


def generate_ar1(
    spec: Ar1Spec,
    N: int,
    T: int,
    burn_in: int = 200,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """N independent stationary AR(1) rows of length T.

    The first pre-burn-in sample is drawn from the stationary marginal, so
    the paths are exactly stationary even with burn_in = 0."""
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    rng = rng if rng is not None else np.random.default_rng(spec.seed)
    path = _innovations(spec, rng, (N, T + burn_in))
    path[:, 0] = rng.standard_normal(N)  # stationary start, variance 1
    # x_t += b x_{t-1} on column views, in place, so a long record is
    # allocated once; each updated column feeds the next step
    cols = path.T
    for prev, cur in zip(cols, cols[1:]):
        cur += spec.b * prev
    return path[:, burn_in:]


def unit_loadings(k: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """k random unit-norm loading vectors over N channels."""
    vecs = rng.standard_normal((k, N))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def planted_factor_matrix(
    planted: PlantedFactorSpec,
    noise: Ar1Spec,
    N: int,
    T: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """AR(1) noise plus k planted rank-one signals (iid normal factors) with
    spikes at roughly strength x the Marchenko-Pastur bulk edge."""
    if planted.k > N:
        raise ValueError("cannot plant more factors than channels")
    rng = rng if rng is not None else np.random.default_rng(planted.seed)
    x = generate_ar1(noise, N, T, rng=rng)
    loadings = unit_loadings(planted.k, N, rng)
    bulk_edge = (1.0 + np.sqrt(N / T)) ** 2
    sd = np.sqrt(planted.strength * bulk_edge)
    for j in range(planted.k):
        x += sd * np.outer(loadings[j], rng.standard_normal(T))
    return x


BASELINE_RANGE = (20.0, 200.0)  # each channel's constant level is drawn from this


def synthesize_case(
    schedule: EventSchedule,
    base: Ar1Spec,
    mixing: PlantedFactorSpec,
    N: int,
    t: int,
) -> RawDataSource:
    """Baseline constants + AR(1) noise + step events.

    Event i enters through the i-th random unit-norm loading vector,
    spreading across channels; the step height is sized from
    `mixing.strength` so the resulting covariance spike clears the noise
    bulk."""
    for e in schedule.events:
        if e.onset > t or (e.offset is not None and e.offset > t):
            raise ScheduleOutOfRange(f"event {e} outside [1, {t}]")

    rng = np.random.default_rng(base.seed)
    baselines = rng.uniform(*BASELINE_RANGE, N)
    values = baselines[:, None] + generate_ar1(base, N, t, rng=rng)
    loadings = unit_loadings(max(mixing.k, len(schedule.events) or 1), N, rng)
    bulk_edge = (1.0 + np.sqrt(N / min(t, 4 * N))) ** 2
    step_height = np.sqrt(mixing.strength * bulk_edge) * 2.0

    for i, e in enumerate(schedule.events):
        off = t if e.offset is None else e.offset
        values[:, e.onset - 1 : off] += loadings[i][:, None] * step_height
    values.setflags(write=False)  # the source adopts a read-only record without a copy
    return RawDataSource(values=values)


def brute_force_spectrum(
    b: float, N: int, T: int, trials: int, seed: int | None = None
) -> np.ndarray:
    """Pooled eigenvalues of (1/T) U U' over independent AR(1) draws; their
    histogram is the Monte-Carlo oracle for the theoretical model density."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pooled = []
    for i in range(trials):
        rng = np.random.default_rng([0 if seed is None else seed, i])
        u = generate_ar1(Ar1Spec(b=b), N, T, rng=rng)
        pooled.append(np.linalg.eigvalsh(u @ u.T / T))
    return np.concatenate(pooled)


# the built-in step-event schedules (onset, offset) with their record
# lengths, patterned on 118-channel case studies; `detect --case` offers these
CASES = {
    # single event stepping up at sample 500, record 899
    "case1": (EventSchedule((Event(500, None),)), 899),
    # two staggered events over a 1000-sample record
    "case2": (EventSchedule((Event(401, None), Event(501, 900))), 1000),
    # three staggered events over a 601-sample record
    "case3": (EventSchedule((Event(351, None), Event(401, None), Event(501, None))), 601),
}


def case_schedule(name: str) -> tuple[EventSchedule, int]:
    """The schedule and record length of the built-in case `name`."""
    if name not in CASES:
        raise ValueError(f"unknown case {name!r}; expected one of {sorted(CASES)}")
    return CASES[name]
