"""Cache-aware batch execution for one-shot runs.

:func:`run_batch_cached` is the ``cache=`` knob behind ``run_sweep``
and the runtime CLI: it consults the content-addressed
:class:`~repro.service.store.ResultStore` *before* dispatching work,
serves hits without touching the pool, runs only the misses, and
publishes their results for the next run.

Determinism is preserved exactly.  The plain runner spawns one
``SeedSequence`` child per job, positionally; here the full spawn is
computed up front and the miss subset is executed with its *original*
child seeds (``BatchRunner.run(jobs, seeds=...)``), so a job's result
never depends on which of its neighbours happened to be cached.  The
cache address of job *i* covers ``(spec, base_seed, i)`` — the same
triple the seeding scheme keys on.

Jobs that cannot be fingerprinted (callable builders, opaque payloads)
degrade to permanent misses: they run every time and are never stored.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.report import BatchReport, JobResult
from repro.service.hashing import UncacheableJobError, job_key
from repro.service.store import ResultStore

__all__ = ["batch_job_keys", "job_kind", "run_batch_cached"]

_KIND_BY_CLASS = {
    "SweepPointJob": "sweep_point",
    "SweepBatchJob": "sweep_batch",
}


def job_kind(job) -> str:
    """Spec-file kind string for *job*.

    Runtime jobs carry it as their ``kind`` class attribute (the
    canonicalization hook added for the cache layer); sweep wrappers
    map by class name; anything else reports its class name.
    """
    kind = getattr(job, "kind", None)
    if isinstance(kind, str) and kind:
        return kind
    name = type(job).__name__
    return _KIND_BY_CLASS.get(name, name)


def batch_job_keys(jobs, base_seed: int) -> list[str | None]:
    """Fingerprint of every job under the batch seeding scheme.

    Job *i* in a batch with base seed *s* always receives
    ``SeedSequence(s).spawn(n)[i]``, so its address is the triple
    ``(spec, s, i)``.  Uncacheable jobs map to ``None``.  Every key is
    exactly that job's :func:`job_key`; the objects the jobs share (a
    sweep's measures, settings and options) are canonicalized once for
    the whole batch, not once per job.
    """
    keys: list[str | None] = []
    shared: dict = {}
    for index, job in enumerate(jobs):
        seed = {"entropy": int(base_seed), "spawn": index}
        try:
            keys.append(job_key(job, seed=seed, shared=shared))
        except UncacheableJobError:
            keys.append(None)
    return keys


def run_batch_cached(runner, jobs, store: ResultStore) -> BatchReport:
    """Run *jobs* on *runner*, serving and filling *store*.

    Hits come back as :class:`JobResult` rows with ``cached=True`` and
    the original compute time in the store's metadata; misses execute
    with their original positional seeds and are published on success.
    Failures are never cached.
    """
    import time

    jobs = list(jobs)
    start = time.perf_counter()
    keys = batch_job_keys(jobs, runner.seed)
    results: list[JobResult | None] = [None] * len(jobs)
    miss_jobs = []
    miss_seeds = []
    miss_indices = []
    for index, (job, key) in enumerate(zip(jobs, keys)):
        entry = store.get(key) if key is not None else None
        if entry is not None:
            label = getattr(job, "label", "") or f"job-{index}"
            results[index] = JobResult(
                index=index,
                label=label,
                ok=True,
                value=entry.value,
                seconds=entry.seconds,
                cached=True,
            )
        else:
            # ``SeedSequence(seed).spawn(n)[index]``, built only for a
            # miss: a warm batch spawns nothing.
            miss_jobs.append(job)
            miss_seeds.append(np.random.SeedSequence(runner.seed, spawn_key=(index,)))
            miss_indices.append(index)
    if miss_jobs:
        # Publish each miss the moment its result is final rather than
        # after the whole batch: an interrupted run leaves its completed
        # jobs checkpointed in the store, so the next run (or
        # ``run_sweep(resume=...)``) picks up where it stopped.
        def publish(result: JobResult) -> None:
            index = miss_indices[result.index]
            if result.ok and keys[index] is not None:
                store.put(
                    keys[index],
                    result.value,
                    kind=job_kind(jobs[index]),
                    label=result.label,
                    seconds=result.seconds,
                )

        batch = runner.run(miss_jobs, seeds=miss_seeds, on_result=publish)
        for index, result in zip(miss_indices, batch.results):
            result.index = index
            results[index] = result
    return BatchReport(
        results=[r for r in results if r is not None],
        wall_seconds=time.perf_counter() - start,
        workers=runner.max_workers,
        executor=runner.executor if miss_jobs else "cache",
        seed=runner.seed,
    )
