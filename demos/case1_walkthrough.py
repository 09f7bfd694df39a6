"""Walk through event detection on the built-in single-event case.

A 118-channel record carries one step event that enters through a random
loading vector at sample 500. We sweep a 250-sample window across three
independent noise realizations, average the per-window (p_hat, b_hat)
estimates, and flag the change point. Expected behavior:

  * p_ave sits near 0 on the pre-event plateau,
  * it rises to 1 once the window starts covering the event,
  * b_ave dips at the same time (the factor drains residual variance),
  * detect_changes flags the shift shortly after sample 500,
  * once the window lies entirely past the onset the step is a constant
    again, per-row standardization absorbs it, and p_ave falls back to 0,
    producing a matching downward flag about T samples after the event.

Run from the repository root (a second or two on 2 cores; the model
densities are built on the first window and cached):

    python demos/case1_walkthrough.py
"""
import numpy as np

from factorspec import (
    Ar1Spec,
    ModelDensityCache,
    PlantedFactorSpec,
    SearchGrid,
    WindowSpec,
    average_runs,
    case_schedule,
    detect_changes,
    sweep,
    synthesize_case,
)

N, T, STRIDE, RUNS = 118, 250, 10, 3


def main():
    schedule, t = case_schedule("case1")
    event = schedule.events[0]
    print(f"record: {N} channels x {t} samples, event onset at sample {event.onset}")

    grid = SearchGrid(epsilon=1e-4)
    cache = ModelDensityCache()
    timelines = []
    for seed in range(RUNS):
        src = synthesize_case(
            schedule,
            Ar1Spec(b=0.5, seed=seed),
            PlantedFactorSpec(k=1, strength=20.0),
            N=N,
            t=t,
        )
        tl = sweep(src, WindowSpec(N=N, T=T, stride=STRIDE), grid, cache=cache)
        timelines.append(tl)
        print(f"run {seed}: {len(tl.results)} windows swept, {len(tl.failures)} failures")

    avg = average_runs(timelines)
    print("\n  end_index   p_ave   b_ave")
    for e, p, b in zip(avg.end_indices, avg.p_ave, avg.b_ave):
        marker = " <- event onset enters the window" if e == 500 else ""
        if e % 50 == 0:
            print(f"  {e:9d}   {p:5.2f}   {b:5.3f}{marker}")

    flags = detect_changes(avg, threshold=0.5, hold=4)
    if not flags:
        print("\nno change points flagged")
    for f in flags:
        direction = "up" if f.direction > 0 else "down"
        latency = f.end_index - event.onset
        print(f"\nchange flagged at end_index {f.end_index} ({direction}), "
              f"{latency:+d} samples from onset")
    b_arr = np.array(avg.b_ave)
    e_arr = np.array(avg.end_indices)
    pre = b_arr[(e_arr >= T) & (e_arr < event.onset)].mean()
    post = b_arr[(e_arr >= event.onset) & (e_arr < event.onset + T)].mean()
    print(f"\nb_ave plateau {pre:.3f} -> post-event {post:.3f} (drop {pre - post:+.3f})")


if __name__ == "__main__":
    main()
