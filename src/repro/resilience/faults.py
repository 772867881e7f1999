"""Deterministic fault injection: seeded chaos the tests can replay.

A :class:`FaultPlan` is a frozen, picklable description of the faults a
chaos test wants injected — worker crashes, hangs, transient solver
failures, corrupted store reads, backend factorization failures — and
*where* the decision comes from: a SHA-256 hash of
``(seed, kind, label, attempt)`` mapped to a uniform ``[0, 1)`` draw.
No shared state, no RNG objects crossing process boundaries: the same
plan makes the same decisions in every worker, at every worker count,
which is what makes the chaos suite reproducible against the byte-exact
oracle the SWEC determinism guarantees provide.

The plan is consulted at three sites:

workers
    :func:`repro.runtime.runner._execute_job`, the job body of the one
    attempt path that both :class:`~repro.runtime.BatchRunner` and
    :class:`~repro.service.ServiceDaemon` run, asks
    :meth:`FaultPlan.worker_fault` before running the job.  A
    ``crash`` really kills the worker process on the process executor
    (``os._exit``) and raises :class:`~repro.errors.WorkerCrashError`
    elsewhere; a ``hang`` really sleeps past the watchdog on the
    process executor and raises
    :class:`~repro.errors.JobTimeoutError` elsewhere (threads cannot
    be killed, so the simulation keeps the suite fast); a
    ``transient`` raises
    :class:`~repro.errors.SingularMatrixError` — the retryable
    solver-failure class.
store reads
    :meth:`~repro.service.store.ResultStore.get` asks
    :meth:`FaultPlan.corrupt_read` after reading the payload bytes and
    flips them on injection — the store's own checksum then detects
    the corruption and degrades to a miss, exactly the path a real
    bit-flip would take.  Injection fires at most once per key per
    process so recovery (recompute, republish) converges.
backends
    :class:`~repro.core.fallback.FallbackBackend` asks
    :meth:`FaultPlan.decide` with ``kind="backend"`` before the first
    solve, forcing the primary backend to fail so the sparse→dense /
    stack→dense degradation chain can be exercised deterministically.

Plans activate ambiently (:func:`activate` / :func:`fault_context`) in
the process that consults them; the runner and the daemon additionally
pickle their plan into every worker invocation so process pools inject
too.
With ``first_attempt_only=True`` (the default) a fault fires only on a
job's first attempt, so bounded retries always recover and recovered
results can be asserted bit-identical to an undisturbed run.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "activate",
    "active_plan",
    "deactivate",
    "fault_context",
]

#: Injectable fault kinds.
FAULT_KINDS = ("crash", "hang", "transient", "corrupt", "backend")

#: The ambiently active plan of this process (None = no injection).
_ACTIVE: "FaultPlan | None" = None

#: Per-process count of store reads per key, for one-shot corruption.
_READ_COUNTS: dict[str, int] = {}


def _uniform(seed: int, kind: str, label: str, attempt: int) -> float:
    """Deterministic uniform ``[0, 1)`` draw for one decision site."""
    digest = hashlib.sha256(
        f"{seed}:{kind}:{label}:{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable fault-injection schedule.

    Attributes
    ----------
    seed:
        Entropy for every hash-based decision; two plans with the same
        seed and rates make identical decisions everywhere.
    crash_rate / hang_rate / transient_rate / corrupt_rate:
        Per-site injection probabilities in ``[0, 1]``.  A rate of 1.0
        injects deterministically at every matching site.
    events:
        Explicit ``(kind, label)`` pairs that always inject on the
        first attempt at the matching site, independent of the rates —
        the precise form chaos tests pin their scenarios with.
    hang_seconds:
        Real sleep length of an injected hang on the process executor
        (long enough to trip the watchdog; elsewhere the hang is
        simulated by raising :class:`~repro.errors.JobTimeoutError`).
    first_attempt_only:
        When True (default), rate-based worker faults fire only on
        ``attempt == 1`` — retried attempts run clean, so bounded
        retries provably recover.  Explicit events always fire on the
        first attempt only.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    transient_rate: float = 0.0
    corrupt_rate: float = 0.0
    events: tuple = field(default_factory=tuple)
    hang_seconds: float = 30.0
    first_attempt_only: bool = True

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "transient_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        events = tuple((str(kind), str(label)) for kind, label in self.events)
        for kind, _label in events:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} "
                    f"(expected one of {', '.join(FAULT_KINDS)})"
                )
        object.__setattr__(self, "events", events)

    # -- decisions ------------------------------------------------------

    def decide(self, kind: str, label: str, attempt: int = 1) -> bool:
        """Should a *kind* fault inject at site *label*, attempt N?

        Explicit events fire on the first attempt; rates draw from the
        deterministic hash (first attempt only unless
        ``first_attempt_only=False``).
        """
        if (kind, label) in self.events:
            return attempt == 1
        rate = getattr(self, f"{kind}_rate", 0.0)
        if rate <= 0.0:
            return False
        if self.first_attempt_only and attempt > 1:
            return False
        return _uniform(self.seed, kind, label, attempt) < rate

    def worker_fault(self, label: str, attempt: int = 1) -> str | None:
        """The fault kind to inject in a worker, or None.

        Checked in a fixed order (crash, hang, transient) so one
        decision wins deterministically when several rates are set.
        """
        for kind in ("crash", "hang", "transient"):
            if self.decide(kind, label, attempt):
                return kind
        return None

    def corrupt_read(self, key: str) -> bool:
        """Should this store read of *key* return corrupted bytes?

        Fires at most once per key per process (read-count tracked
        module-locally), so the corrupt-discard-recompute-republish
        cycle converges instead of corrupting every re-read.
        """
        _READ_COUNTS[key] = _READ_COUNTS.get(key, 0) + 1
        if _READ_COUNTS[key] > 1:
            return False
        return self.decide("corrupt", key)


# -- ambient activation -------------------------------------------------


def activate(plan: FaultPlan | None) -> None:
    """Make *plan* the process-ambient plan (None deactivates).

    Resets the per-key read counters so one-shot corruption decisions
    start fresh with every activation.
    """
    global _ACTIVE
    _ACTIVE = plan
    _READ_COUNTS.clear()


def deactivate() -> None:
    """Clear the ambient plan."""
    activate(None)


def active_plan() -> FaultPlan | None:
    """The ambiently active plan of this process, if any."""
    return _ACTIVE


@contextlib.contextmanager
def fault_context(plan: FaultPlan | None):
    """Activate *plan* for the duration of a ``with`` block."""
    previous = _ACTIVE
    activate(plan)
    try:
        yield plan
    finally:
        activate(previous)
