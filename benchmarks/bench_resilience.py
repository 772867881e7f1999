"""Resilience bench: the safety net must be (nearly) free.

A clean batch of K = 64-path noisy-RC ensembles is run twice on the
thread executor:

* **plain** — ``BatchRunner`` with no resilience knobs;
* **guarded** — the full safety net armed: per-job wall-clock
  ``timeout=`` (the watchdog tracks a deadline per in-flight job),
  ``retries=2``, and per-completion checkpointing into a
  content-addressed ``ResultStore``.

No fault fires, so the guarded pass must produce **bit-identical**
statistics while costing at most **5 %** extra wall-clock.  That bound
is the contract that lets ``timeout``/``retries`` default on for long
sweeps.  Each of ``BENCH_RESILIENCE_REPEATS`` (at least 7) repeats runs
one plain and one guarded batch back to back, alternating which goes
first, and the overhead is the median of the per-repeat guarded/plain
ratios: a slow spell of the host stretches both halves of a pair, so
it moves a ratio far less than it moves either time.

``python tools/bench_report.py --only resilience`` records the same
kernel (plus the retry/timeout/fallback counters) for the perf
trajectory.
"""

import os
import tempfile
import time

import numpy as np

from conftest import print_rows
from repro.runtime import BatchRunner, EnsembleJob
from repro.service import ResultStore, run_batch_cached

N_JOBS = int(os.environ.get("BENCH_RESILIENCE_JOBS", "12"))
N_PATHS = int(os.environ.get("BENCH_RESILIENCE_PATHS", "64"))
REPEATS = max(7, int(os.environ.get("BENCH_RESILIENCE_REPEATS", "7")))
MAX_OVERHEAD = 0.05
WORKERS = 2


def _jobs():
    """Clean K-path ensembles, sized so one batch takes ~1 s."""
    return [
        EnsembleJob(
            builder="noisy_rc_node",
            params={"resistance": 50.0 + 10.0 * k},
            t_final=5e-9,
            steps=4000,
            n_paths=N_PATHS,
            label=f"rc-{k}",
        )
        for k in range(N_JOBS)
    ]


def _plain():
    return BatchRunner(executor="thread", max_workers=WORKERS, seed=0)


def _guarded():
    return BatchRunner(executor="thread", max_workers=WORKERS, seed=0,
                       timeout=120.0, retries=2)


def test_safety_net_overhead_is_bounded():
    plain_seconds = []
    guarded_seconds = []
    plain_report = guarded_report = None
    with tempfile.TemporaryDirectory() as root:
        for repeat in range(REPEATS):
            store = ResultStore(os.path.join(root, f"store-{repeat}"))
            for guarded in ((False, True) if repeat % 2 == 0
                            else (True, False)):
                start = time.perf_counter()
                if guarded:
                    guarded_report = run_batch_cached(_guarded(), _jobs(),
                                                      store)
                    guarded_seconds.append(time.perf_counter() - start)
                else:
                    plain_report = _plain().run(_jobs())
                    plain_seconds.append(time.perf_counter() - start)

            assert store.puts == N_JOBS        # checkpointed on finish

    assert plain_report.ok and guarded_report.ok
    assert guarded_report.total_attempts == N_JOBS   # clean run: no retries
    for a, b in zip(plain_report.values(), guarded_report.values()):
        assert np.array_equal(a.mean, b.mean)        # bit-identical
        assert np.array_equal(a.std, b.std)

    ratios = np.array(guarded_seconds) / np.array(plain_seconds)
    overhead = float(np.median(ratios)) - 1.0
    plain_median = float(np.median(plain_seconds))
    guarded_median = float(np.median(guarded_seconds))
    print_rows(
        f"Resilience overhead: {N_JOBS} x {N_PATHS}-path ensembles, "
        f"median of {REPEATS} paired ratios",
        ["mode", "median wall s", "overhead %"],
        [["plain", round(plain_median, 3), 0.0],
         ["guarded", round(guarded_median, 3), round(100 * overhead, 2)]])
    assert overhead <= MAX_OVERHEAD, (
        f"watchdog + checkpoint overhead {100 * overhead:.1f}% exceeds "
        f"{100 * MAX_OVERHEAD:.0f}% (paired ratios "
        f"{np.round(ratios, 3).tolist()})")
