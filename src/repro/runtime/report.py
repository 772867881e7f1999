"""Structured results of a batch run.

A :class:`JobResult` captures one job's outcome — its value on success,
the exception text and traceback on failure, and the wall-clock time
either way — so a failing job never takes the batch down with it.  A
:class:`BatchReport` aggregates the per-job results with batch-level
timing and provides the summary the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class JobResult:
    """Outcome of one batch job.

    Attributes
    ----------
    index:
        Position of the job in the submitted batch (seeding order).
    label:
        Human-readable job label (job's own, or ``job-<index>``).
    ok:
        True when the job ran to completion.
    value:
        The job's return value (e.g. a ``TransientResult`` or
        ``EnsembleStatistics``); ``None`` on failure.
    error:
        ``"ExceptionType: message"`` on failure, ``None`` on success.
    traceback:
        Full formatted traceback text on failure.
    seconds:
        Wall-clock execution time of the job body.  For cached
        results this is the *original* compute time recorded by the
        store, not the (near-zero) lookup time.
    cached:
        True when the value was served from the content-addressed
        result store (:mod:`repro.service`) instead of being computed.
    failure:
        Failure classification — ``"error"`` (the job body raised, or
        the pool could not take the job), ``"timeout"`` (the watchdog
        expired the job) or ``"crash"`` (the pool worker died); ``None``
        on success.
    attempts:
        How many attempts this job consumed (1 = no retries needed).
    """

    index: int
    label: str
    ok: bool
    value: object = None
    error: str | None = None
    traceback: str | None = None
    seconds: float = 0.0
    cached: bool = False
    failure: str | None = None
    attempts: int = 1


@dataclass
class BatchReport:
    """Aggregated outcome of a :class:`~repro.runtime.BatchRunner` run."""

    results: list[JobResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    executor: str = "serial"
    seed: int = 0

    @property
    def n_jobs(self) -> int:
        return len(self.results)

    @property
    def n_ok(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def n_failed(self) -> int:
        return self.n_jobs - self.n_ok

    @property
    def n_cached(self) -> int:
        """Jobs served from the result cache instead of computed."""
        return sum(1 for r in self.results if r.cached)

    @property
    def n_retried(self) -> int:
        """Jobs that needed more than one attempt."""
        return sum(1 for r in self.results if r.attempts > 1)

    @property
    def n_timeouts(self) -> int:
        """Jobs whose final state is a watchdog timeout."""
        return sum(1 for r in self.results if r.failure == "timeout")

    @property
    def n_crashes(self) -> int:
        """Jobs whose final state is a dead pool worker."""
        return sum(1 for r in self.results if r.failure == "crash")

    @property
    def total_attempts(self) -> int:
        """Attempts consumed across the batch (== n_jobs when clean)."""
        return sum(r.attempts for r in self.results)

    @property
    def ok(self) -> bool:
        """True when every job succeeded."""
        return self.n_failed == 0

    def values(self) -> list:
        """Successful job values, in submission order."""
        return [r.value for r in self.results if r.ok]

    def failures(self) -> list[JobResult]:
        """The failed job results, in submission order."""
        return [r for r in self.results if not r.ok]

    def raise_failures(self) -> None:
        """Raise ``RuntimeError`` summarizing failed jobs, if any."""
        failed = self.failures()
        if failed:
            lines = [f"{len(failed)} of {self.n_jobs} batch jobs failed:"]
            lines += [f"  [{r.index}] {r.label}: {r.error}" for r in failed]
            raise RuntimeError("\n".join(lines))

    def job_seconds(self) -> float:
        """Sum of per-job execution times (serial-equivalent work)."""
        return sum(r.seconds for r in self.results)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        cached = f", {self.n_cached} cached" if self.n_cached else ""
        retried = f", {self.n_retried} retried" if self.n_retried else ""
        lines = [
            f"batch: {self.n_jobs} jobs, {self.n_ok} ok, "
            f"{self.n_failed} failed{cached}{retried} "
            f"({self.executor}, workers={self.workers}, seed={self.seed})",
            f"wall {self.wall_seconds:.3f} s, job time {self.job_seconds():.3f} s",
        ]
        for r in self.results:
            if r.ok:
                status = "ok (cached)" if r.cached else "ok"
            else:
                kind = (r.failure or "error").upper()
                status = f"{kind}: {r.error}"
            if r.attempts > 1:
                status += f" [attempts={r.attempts}]"
            lines.append(f"  [{r.index}] {r.label:<24} {r.seconds:8.3f} s  {status}")
        return "\n".join(lines)
