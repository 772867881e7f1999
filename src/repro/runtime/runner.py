"""The batch runner: fan simulation jobs across worker processes.

``BatchRunner`` takes a list of jobs (:class:`~repro.runtime.jobs.
TransientJob` / :class:`~repro.runtime.jobs.EnsembleJob`, or anything
with a ``run(seed)`` method and a ``label``) and executes them across a
``concurrent.futures`` pool.  Design points:

deterministic seeding
    One ``numpy.random.SeedSequence(seed)`` is spawned into as many
    children as there are jobs; job *i* always receives child *i*.
    Results are therefore identical for any worker count, including
    fully serial execution — and because retried attempts re-use the
    same child, a recovered job is bit-identical to an undisturbed run.
failure isolation
    Exceptions are caught inside the worker and returned as structured
    :class:`~repro.runtime.report.JobResult` failures, so one bad job
    cannot take down the batch.  A job's exception, a pool's and the
    watchdog's verdict all become one through ``_failure_result``, and
    ``_should_retry`` alone decides on another attempt: the service
    daemon runs its jobs through the same two.
timeouts and the watchdog
    With ``timeout=`` set, a deadline is tracked per in-flight job.  A
    job that runs past it gets a structured ``timeout`` failure; on the
    process executor the hung worker (and its pool) is killed outright
    so a stuck factorization cannot stall the batch, and collateral
    jobs from the torn-down pool are retried.  Threads cannot be
    killed, so the thread executor detects and abandons; the serial
    path cannot preempt at all.
bounded retries
    ``retries=`` (an int or a :class:`~repro.resilience.RetryPolicy`)
    re-runs timeouts, worker crashes, and transient solver failures in
    fresh rounds with seeded exponential backoff between rounds.
fault injection
    A :class:`~repro.resilience.FaultPlan` passed as ``fault_plan=``
    travels (pickled) into every worker invocation, injecting
    deterministic crashes/hangs/transient failures for chaos tests.
executor choice
    ``"process"`` (default) for CPU-bound simulation fan-out,
    ``"thread"`` for debugging under one interpreter, ``"serial"`` for
    an in-process reference run with identical semantics.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.errors import (
    AnalysisError,
    JobTimeoutError,
    SingularMatrixError,
    WorkerCrashError,
)
from repro.resilience.faults import fault_context
from repro.resilience.retry import RetryPolicy
from repro.runtime.report import BatchReport, JobResult

_EXECUTORS = ("process", "thread", "serial")

#: Exception type names whose failures are worth retrying: watchdog and
#: pool faults, plus the transient solver-failure classes.
RETRYABLE_ERRORS = (
    "JobTimeoutError",
    "WorkerCrashError",
    "SingularMatrixError",
    "ConvergenceError",
)


def _job_label(job, index: int) -> str:
    """*job*'s own label, or ``job-<index>`` when it has none."""
    return getattr(job, "label", "") or f"job-{index}"


def _make_pool(executor: str, max_workers: int):
    """A process pool for the ``"process"`` executor, else a thread pool."""
    pool_class = ProcessPoolExecutor if executor == "process" else ThreadPoolExecutor
    return pool_class(max_workers=max_workers)


def retryable_failure(result: JobResult) -> bool:
    """Is this failed :class:`JobResult` worth another attempt?

    Timeouts and worker crashes always are; plain errors only when the
    exception class is one of :data:`RETRYABLE_ERRORS`.
    """
    if result.failure in ("timeout", "crash"):
        return True
    error = result.error or ""
    return error.startswith(RETRYABLE_ERRORS)


def _should_retry(result: JobResult, attempt: int, policy: RetryPolicy) -> bool:
    """Does *result*, the outcome of attempt *attempt*, get another one?"""
    return not result.ok and attempt < policy.max_attempts and retryable_failure(result)


def _failure_result(index: int, label: str, exc: Exception, seconds=0.0) -> JobResult:
    """The failure :class:`JobResult` of *exc*.

    *exc* is what a job or a pool raised, or what the watchdog made up
    to describe a job it gave up on (that one has no traceback).  The
    kind is the one classification: a :class:`JobTimeoutError` is a
    ``timeout``; a :class:`WorkerCrashError` or a broken process pool
    is a ``crash``; anything else is an ``error``.
    """
    if isinstance(exc, JobTimeoutError):
        failure = "timeout"
    elif isinstance(exc, (WorkerCrashError, BrokenProcessPool)):
        failure = "crash"
    else:
        failure = "error"
    trace = exc.__traceback__ and "".join(traceback.format_exception(exc))
    return JobResult(
        index=index,
        label=label,
        ok=False,
        error=f"{type(exc).__name__}: {exc}",
        traceback=trace,
        seconds=seconds,
        failure=failure,
    )


def _execute_job(
    job,
    index: int,
    label: str,
    seed: np.random.SeedSequence,
    fault_plan=None,
    attempt: int = 1,
    real_faults: bool = False,
) -> JobResult:
    """Run one job, capturing value/exception and wall time.

    Module-level so it pickles under every multiprocessing start method.
    When a :class:`~repro.resilience.FaultPlan` is supplied it is
    consulted before the job body runs: with ``real_faults`` (process
    executor) an injected crash actually kills this worker process and
    an injected hang actually sleeps past the watchdog; elsewhere both
    are simulated by raising the matching error class, since threads
    cannot be killed and the serial path cannot be preempted.
    """
    start = time.perf_counter()
    try:
        with fault_context(fault_plan):
            if fault_plan is not None:
                kind = fault_plan.worker_fault(label, attempt)
                if kind == "crash":
                    if real_faults:
                        os._exit(137)
                    raise WorkerCrashError(
                        f"injected worker crash (job {label!r}, attempt {attempt})"
                    )
                if kind == "hang":
                    if real_faults:
                        time.sleep(fault_plan.hang_seconds)
                    else:
                        raise JobTimeoutError(
                            f"injected hang (job {label!r}, attempt {attempt})"
                        )
                if kind == "transient":
                    raise SingularMatrixError(
                        f"injected transient solver failure "
                        f"(job {label!r}, attempt {attempt})"
                    )
            value = job.run(seed)
    except Exception as exc:  # noqa: BLE001 - structured failure capture
        return _failure_result(index, label, exc, time.perf_counter() - start)
    return JobResult(
        index=index,
        label=label,
        ok=True,
        value=value,
        seconds=time.perf_counter() - start,
    )


def default_worker_count() -> int:
    """Usable CPU count (honours scheduler affinity where exposed)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux platforms
        return os.cpu_count() or 1


class BatchRunner:
    """Fan a list of simulation jobs across workers.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the usable CPU count.
    executor:
        ``"process"``, ``"thread"`` or ``"serial"``.
    seed:
        Base entropy for the per-job ``SeedSequence`` spawn.  ``None``
        (default) draws fresh OS entropy, so repeated batches are
        statistically independent; the drawn value is recorded in
        ``BatchReport.seed`` so any batch can still be replayed.
    timeout:
        Per-job wall-clock budget in seconds.  ``None`` (default)
        disables the watchdog.  Enforced by killing hung workers on
        the process executor; detection-only on threads; advisory on
        the serial path (a running job cannot be preempted in-process).
    retries:
        ``None`` (no retries), an int (that many *extra* attempts per
        job), or a :class:`~repro.resilience.RetryPolicy`.  Only
        timeouts, worker crashes, and transient solver failures
        (:data:`RETRYABLE_ERRORS`) are retried; a deterministic job
        error fails immediately.
    fault_plan:
        A :class:`~repro.resilience.FaultPlan` to inject deterministic
        faults into every worker invocation (chaos testing only).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        executor: str = "process",
        seed: int | None = None,
        timeout: float | None = None,
        retries=None,
        fault_plan=None,
    ) -> None:
        if executor not in _EXECUTORS:
            raise AnalysisError(
                f"unknown executor {executor!r} (expected one of "
                f"{', '.join(_EXECUTORS)})"
            )
        if max_workers is not None and max_workers < 1:
            raise AnalysisError(f"max_workers must be >= 1, got {max_workers!r}")
        if timeout is not None and timeout <= 0:
            raise AnalysisError(f"timeout must be > 0, got {timeout!r}")
        self.max_workers = max_workers or default_worker_count()
        self.executor = executor
        self.seed = int(np.random.SeedSequence().entropy) if seed is None else seed
        self.timeout = timeout
        self.retry_policy = RetryPolicy.resolve(retries)
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------

    def run(self, jobs, seeds=None, on_result=None) -> BatchReport:
        """Execute *jobs*; returns the aggregated :class:`BatchReport`.

        *seeds* overrides the positional ``SeedSequence`` spawn with an
        explicit per-job seed list (one entry per job).  The cache
        layer (:func:`repro.service.run_batch_cached`) uses this to
        execute a miss subset under the seeds the jobs would have
        received in the full batch, keeping results independent of
        cache state.

        *on_result* is called with each job's **final**
        :class:`~repro.runtime.report.JobResult` as soon as it is known
        (success, exhausted retries, or non-retryable failure) — the
        hook incremental checkpointing publishes through.  Callback
        order follows completion, not submission.
        """
        jobs = list(jobs)
        if seeds is None:
            seeds = np.random.SeedSequence(self.seed).spawn(max(len(jobs), 1))
        else:
            seeds = list(seeds)
            if len(seeds) < len(jobs):
                raise AnalysisError(
                    f"seeds= needs one entry per job: got {len(seeds)} "
                    f"for {len(jobs)} jobs"
                )
        labels = [_job_label(job, k) for k, job in enumerate(jobs)]
        serial = (
            self.executor == "serial" or self.max_workers == 1 or len(jobs) <= 1
        )
        start = time.perf_counter()
        results: list[JobResult | None] = [None] * len(jobs)
        pending = list(range(len(jobs)))
        attempt = 0
        reported: set[int] = set()
        while pending:
            attempt += 1

            def checkpoint(k: int, result: JobResult, now=attempt) -> None:
                # Successes are always terminal: report them the moment
                # they land, not at the end of the round, so an
                # interrupted run leaves every completed job published.
                result.attempts = now
                reported.add(k)
                if on_result is not None:
                    on_result(result)

            if serial:
                round_results = {}
                for k in pending:
                    round_results[k] = _execute_job(
                        jobs[k], k, labels[k], seeds[k], self.fault_plan, attempt
                    )
                    if round_results[k].ok:
                        checkpoint(k, round_results[k])
            else:
                round_results = self._run_pool(
                    pending, jobs, labels, seeds, attempt, checkpoint
                )
            retry_next = []
            for k in pending:
                result = round_results.get(k)
                if result is None:  # defensive: a lost job is a crash
                    lost = WorkerCrashError("job was lost by the pool")
                    result = _failure_result(k, labels[k], lost)
                if k in reported:
                    results[k] = result
                    continue
                result.attempts = attempt
                if _should_retry(result, attempt, self.retry_policy):
                    retry_next.append(k)
                    continue
                results[k] = result
                if on_result is not None:
                    on_result(result)
            pending = retry_next
            if pending:
                delay = self.retry_policy.delay(attempt, self.seed)
                if delay > 0:
                    time.sleep(delay)
        return BatchReport(
            results=[r for r in results if r is not None],
            wall_seconds=time.perf_counter() - start,
            workers=1 if serial else self.max_workers,
            executor="serial" if serial else self.executor,
            seed=self.seed,
        )

    def _run_pool(
        self, indices, jobs, labels, seeds, attempt, checkpoint=None
    ) -> dict:
        """Run one round of *indices* in a fresh pool; returns {k: result}.

        A fresh pool per round means a pool broken by a crashed worker
        in round N is simply replaced for round N+1, and faulted state
        never leaks across attempts.  *checkpoint* (if given) is called
        with ``(k, result)`` for each successful result as its future
        completes — the per-job publish hook behind checkpoint/resume.
        """
        real = self.executor == "process"
        results: dict[int, JobResult] = {}
        pool = _make_pool(self.executor, min(self.max_workers, len(indices)))
        abandoned = False
        try:
            futures: dict = {}
            deadlines: dict = {}
            for k in indices:
                try:
                    future = pool.submit(
                        _execute_job,
                        jobs[k],
                        k,
                        labels[k],
                        seeds[k],
                        self.fault_plan,
                        attempt,
                        real,
                    )
                except Exception as exc:  # pool broken or shut down...
                    results[k] = _failure_result(k, labels[k], exc)
                    continue
                futures[future] = k
                if self.timeout is not None:
                    deadlines[future] = time.monotonic() + self.timeout
            pending = set(futures)
            while pending:
                wait_for = None
                if self.timeout is not None:
                    wait_for = max(
                        0.0,
                        min(deadlines[f] for f in pending) - time.monotonic(),
                    )
                done, pending = wait(
                    pending, timeout=wait_for, return_when=FIRST_COMPLETED
                )
                for future in done:
                    k = futures[future]
                    try:
                        results[k] = future.result()
                    except Exception as exc:  # worker crash, unpicklable job...
                        results[k] = _failure_result(k, labels[k], exc)
                    if results[k].ok and checkpoint is not None:
                        checkpoint(k, results[k])
                if self.timeout is None or not pending:
                    continue
                now = time.monotonic()
                overdue = [f for f in pending if now >= deadlines[f]]
                if not overdue:
                    continue
                hung = []
                for future in overdue:
                    k = futures[future]
                    pending.discard(future)
                    if future.cancel():
                        # Never started: the pool was stalled by another
                        # hung job ahead of it.  Still a timeout — the
                        # job ran out of wall-clock budget — and retryable.
                        expired = JobTimeoutError(
                            f"cancelled after {self.timeout}s "
                            "without starting (pool stalled)"
                        )
                    else:
                        hung.append(future)
                        expired = JobTimeoutError(
                            f"exceeded {self.timeout}s wall-clock timeout"
                        )
                    results[k] = _failure_result(k, labels[k], expired, self.timeout)
                if hung and real:
                    # The hung workers cannot be recovered individually:
                    # kill the whole pool.  Unfinished collateral jobs
                    # become retryable crash failures.
                    self._kill_pool(pool)
                    abandoned = True
                    torn = WorkerCrashError(
                        "pool torn down after a hung worker was killed"
                    )
                    for future in pending:
                        k = futures[future]
                        results[k] = _failure_result(k, labels[k], torn)
                    pending = set()
                elif hung:
                    # Threads cannot be killed: stop waiting for the hung
                    # ones and let the pool be abandoned at shutdown.
                    abandoned = True
        finally:
            if abandoned:
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)
        return results

    @staticmethod
    def _kill_pool(pool) -> None:
        """Forcibly terminate every worker of a process pool.

        SIGKILL, not SIGTERM: a worker hung inside native code (a stuck
        SuperLU factorization) never runs Python signal handlers.
        """
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.kill()
        for process in processes:
            process.join(timeout=5.0)
