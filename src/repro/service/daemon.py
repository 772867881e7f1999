"""The simulation service daemon.

An :mod:`asyncio` server on a local Unix socket speaking a JSON-lines
protocol: one request object per connection, a stream of event objects
back.  Jobs execute on a persistent worker pool through the attempt
path of :class:`~repro.runtime.BatchRunner` (one job body, one failure
record, one retry rule, so failure isolation is identical: a crashing
job returns a structured ``failed`` event, never takes the daemon
down), and every cacheable job is served through the content-addressed
:class:`~repro.service.store.ResultStore` — a resubmitted spec+seed
returns the stored record without touching the pool.

Request ops::

    {"op": "ping"}
    {"op": "status"}
    {"op": "gc", "max_age_seconds": 86400, "max_entries": 1000}
    {"op": "shutdown"}
    {"op": "submit", "job": {...job-spec table...}, "seed": 0,
     "cache": true, "payload": false}

``submit`` streams ``queued -> running(progress) -> done|failed``
events; ``done`` carries the deterministic result record (and, with
``payload=true``, the base64-pickled result value).  Concurrent
submissions of the same fingerprint are coalesced onto one execution.

Only trust the socket as far as you trust local users: payloads are
pickles, and the socket is created with owner-only permissions.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import dataclasses
import json
import os
import pickle
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from repro.errors import AnalysisError, NanoSimError
from repro.resilience.checkpoint import JobJournal
from repro.resilience.retry import RetryPolicy
from repro.runtime import runner
from repro.service.cache import job_kind
from repro.service.hashing import UncacheableJobError, job_key
from repro.service.store import ResultStore, result_summary

__all__ = ["PROTOCOL", "ServiceDaemon", "default_socket_path"]

#: Protocol tag sent in every ``pong`` / ``status`` response.
PROTOCOL = "repro-service/1"

_EXECUTORS = ("process", "thread")


def default_socket_path(store: ResultStore | None = None) -> Path:
    """Default daemon socket: ``<store-root>/daemon.sock``."""
    root = store.root if store is not None else ResultStore().root
    return Path(root) / "daemon.sock"


class _Stats:
    """Daemon-lifetime counters exposed by the ``status`` op."""

    def __init__(self) -> None:
        self.started = time.time()
        self.submissions = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.executed = 0
        self.failed = 0
        self.rejected = 0
        self.factorizations = 0
        self.solver_flops = 0

    def as_dict(self) -> dict:
        return {
            "uptime_seconds": time.time() - self.started,
            "submissions": self.submissions,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "failed": self.failed,
            "rejected": self.rejected,
            "factorizations": self.factorizations,
            "solver_flops": self.solver_flops,
        }


class ServiceDaemon:
    """Persistent job daemon over a Unix socket.

    Parameters
    ----------
    socket_path:
        Path the listening socket is bound to (created/removed by the
        daemon; a stale file from a previous run is replaced).
    store:
        Result store (path, :class:`ResultStore` or ``None`` for the
        default root).
    max_workers:
        Worker pool width; defaults to the usable CPU count.
    executor:
        ``"process"`` (default, CPU-bound simulation fan-out) or
        ``"thread"`` (in-process, for tests and debugging).
    progress_interval:
        Seconds between ``running`` heartbeat events while a job
        executes.
    retries:
        ``None`` (no retries), an int (extra attempts per job), or a
        :class:`~repro.resilience.RetryPolicy` — applied to worker
        crashes and transient solver failures of executed jobs.  The
        same seed is re-used per attempt, so a recovered result is
        bit-identical to an undisturbed run.
    fault_plan:
        A :class:`~repro.resilience.FaultPlan` injected into every
        worker invocation (chaos testing only).
    journal:
        Keep a crash journal of in-flight cacheable jobs next to the
        store and re-queue them on startup (default True).
    """

    def __init__(
        self,
        socket_path: str | Path | None = None,
        store: ResultStore | str | Path | None = None,
        max_workers: int | None = None,
        executor: str = "process",
        progress_interval: float = 1.0,
        retries=None,
        fault_plan=None,
        journal: bool = True,
    ) -> None:
        if executor not in _EXECUTORS:
            raise AnalysisError(
                f"unknown executor {executor!r} "
                f"(expected one of {', '.join(_EXECUTORS)})"
            )
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.socket_path = Path(
            socket_path
            if socket_path is not None
            else default_socket_path(self.store)
        )
        self.max_workers = max_workers or runner.default_worker_count()
        self.executor = executor
        self.progress_interval = float(progress_interval)
        self.retries = RetryPolicy.resolve(retries)
        self.fault_plan = fault_plan
        self.journal = JobJournal(self.store.root) if journal else None
        self.stats = _Stats()
        self._pool = None
        self._next_id = 0
        self._inflight: dict[str, asyncio.Future] = {}
        self._stop: asyncio.Event | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False
        self._active_submissions = 0

    # -- pool -----------------------------------------------------------

    def _pool_or_start(self):
        if self._pool is None:
            self._pool = runner._make_pool(self.executor, self.max_workers)
        return self._pool

    # -- lifecycle ------------------------------------------------------

    async def serve(self, ready=None) -> None:
        """Bind the socket and serve until a ``shutdown`` request.

        *ready* is any object with a ``set()`` method (a
        ``threading.Event`` or ``asyncio.Event``), signalled once the
        socket is bound and accepting connections.  On SIGTERM the
        daemon drains: running jobs finish, new submissions are
        refused, and a final stats line is printed before exit.
        Journaled in-flight jobs from a previous (crashed) run are
        re-queued before the socket accepts traffic — finished work is
        recognized in the store and never re-simulated.
        """
        self._stop = asyncio.Event()
        self._draining = False
        loop = asyncio.get_running_loop()
        self._loop = loop
        # add_signal_handler raises off the main thread (tests run the
        # daemon in a worker thread); drain is then reachable via
        # loop.call_soon_threadsafe(daemon._begin_drain).
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(signal.SIGTERM, self._begin_drain)
        await self._recover()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(OSError):
            self.socket_path.unlink()
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=str(self.socket_path)
        )
        os.chmod(self.socket_path, 0o600)
        if ready is not None:
            ready.set()
        try:
            await self._stop.wait()
        finally:
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                loop.remove_signal_handler(signal.SIGTERM)
            self._server.close()
            await self._server.wait_closed()
            with contextlib.suppress(OSError):
                self.socket_path.unlink()
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    def run(self, ready=None) -> None:
        """Blocking entry point: serve on a fresh event loop."""
        try:
            asyncio.run(self.serve(ready=ready))
        except KeyboardInterrupt:
            pass

    # -- graceful shutdown ----------------------------------------------

    def _begin_drain(self) -> None:
        """Refuse new submissions, finish running jobs, then stop.

        Called from the SIGTERM handler (or scheduled onto the loop via
        ``call_soon_threadsafe`` when signals are unavailable).
        """
        if self._draining or self._stop is None:
            return
        self._draining = True
        asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        while self._active_submissions > 0:
            await asyncio.sleep(0.05)
        print(
            "daemon drained: "
            + json.dumps(self.stats.as_dict(), sort_keys=True),
            flush=True,
        )
        assert self._stop is not None
        self._stop.set()

    # -- crash recovery -------------------------------------------------

    async def _recover(self) -> None:
        """Re-queue journaled in-flight jobs from a previous run.

        A journal entry whose key is already in the store was finished
        (published) before the crash — it is cleared without touching
        the pool.  The rest re-execute under their original seeds, so
        the recovered records are byte-identical to what the
        interrupted run would have produced.
        """
        if self.journal is None:
            return
        from repro.runtime.jobs import job_from_mapping

        for key, entry in self.journal.pending().items():
            if key in self.store:
                self.journal.clear(key)
                continue
            try:
                job = job_from_mapping(entry["spec"])
            except (NanoSimError, TypeError, ValueError):
                self.journal.clear(key)
                continue
            self._next_id += 1
            label = getattr(job, "label", "") or f"recovered-{self._next_id}"
            result = await self._run_attempts(
                job, self._next_id, label, int(entry.get("seed") or 0)
            )
            if result.ok:
                self._publish(key, job, result)
            else:
                self.stats.failed += 1
            self.journal.clear(key)

    def _publish(self, key, job, result, *, executed: bool = True):
        """Store the ok *result* of *job* under *key* and return the entry
        (``None`` for an uncacheable job).  An *executed* result is also
        counted, with its solver flops."""
        if executed:
            self.stats.executed += 1
            flops = getattr(result.value, "flops", None)
            if flops is not None:
                self.stats.factorizations += int(flops.factorizations)
                self.stats.solver_flops += int(flops.total)
        if key is None:
            return None
        return self.store.put(
            key,
            result.value,
            kind=job_kind(job),
            label=result.label,
            seconds=result.seconds,
        )

    # -- protocol -------------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter, event: dict) -> None:
        writer.write((json.dumps(event, sort_keys=True) + "\n").encode())
        await writer.drain()

    async def _fail(
        self, writer, job_id, error, *, rejected: bool = False, **fields
    ) -> None:
        """Count a failed (and, if *rejected*, refused) submission and
        send its ``failed`` event with any extra *fields*."""
        if rejected:
            self.stats.rejected += 1
        self.stats.failed += 1
        await self._send(
            writer, {"event": "failed", "id": job_id, "error": error, **fields}
        )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await reader.readline()
            if not line.strip():
                return
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                await self._send(
                    writer, {"event": "error", "error": f"bad request: {exc}"}
                )
                return
            op = request.get("op")
            if op == "ping":
                await self._send(writer, {"event": "pong", "protocol": PROTOCOL})
            elif op == "status":
                await self._send(writer, self._status_event())
            elif op == "gc":
                stats = self.store.gc(
                    max_age_seconds=request.get("max_age_seconds"),
                    max_entries=request.get("max_entries"),
                )
                await self._send(writer, {"event": "gc", **vars(stats)})
            elif op == "shutdown":
                await self._send(writer, {"event": "bye"})
                assert self._stop is not None
                self._stop.set()
            elif op == "submit":
                self._active_submissions += 1
                try:
                    await self._handle_submit(writer, request)
                finally:
                    self._active_submissions -= 1
            else:
                await self._send(
                    writer,
                    {"event": "error", "error": f"unknown op {op!r}"},
                )
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception as exc:  # noqa: BLE001 - daemon must survive
            with contextlib.suppress(Exception):
                await self._send(
                    writer,
                    {
                        "event": "error",
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _status_event(self) -> dict:
        return {
            "event": "status",
            "protocol": PROTOCOL,
            "executor": self.executor,
            "workers": self.max_workers,
            "inflight": len(self._inflight),
            "store": self.store.stats(),
            **self.stats.as_dict(),
        }

    # -- submit ---------------------------------------------------------

    async def _handle_submit(self, writer: asyncio.StreamWriter, request: dict) -> None:
        from repro.runtime.jobs import job_from_mapping

        self.stats.submissions += 1
        self._next_id += 1
        job_id = self._next_id
        if self._draining:
            await self._fail(
                writer, job_id, "daemon is draining; submission refused", rejected=True
            )
            return
        spec = request.get("job")
        seed = int(request.get("seed", 0))
        use_cache = bool(request.get("cache", True))
        want_payload = bool(request.get("payload", False))
        if not isinstance(spec, dict):
            await self._fail(writer, job_id, "submit needs a job= spec table")
            return
        try:
            job = job_from_mapping(spec)
        except (NanoSimError, TypeError, ValueError) as exc:
            await self._fail(writer, job_id, f"{type(exc).__name__}: {exc}")
            return
        label = runner._job_label(job, job_id)
        key: str | None = None
        if use_cache:
            try:
                key = job_key(job, seed=seed)
            except UncacheableJobError:
                key = None
        await self._send(
            writer,
            {"event": "queued", "id": job_id, "key": key, "label": label},
        )
        if key is None:
            # An uncacheable (or cache-disabled) submission cannot be
            # deduplicated, so a broken design would burn a worker on
            # every resubmission: lint it at the door instead.
            refusal = self._lint_refusal(job)
            if refusal is not None:
                message, report = refusal
                await self._fail(writer, job_id, message, rejected=True, lint=report)
                return
        if key is not None:
            entry = self.store.get(key)
            if entry is not None:
                self.stats.cache_hits += 1
                await self._finish(
                    writer,
                    job_id,
                    value=entry.value,
                    record=entry.record(),
                    cached=True,
                    seconds=0.0,
                    want_payload=want_payload,
                )
                return
        start = time.perf_counter()
        journaled = False
        if key is not None and key in self._inflight:
            self.stats.coalesced += 1
            future = self._inflight[key]
            while not future.done():
                done, _ = await asyncio.wait([future], timeout=self.progress_interval)
                if not done:
                    await self._send(
                        writer,
                        {
                            "event": "running",
                            "id": job_id,
                            "seconds": time.perf_counter() - start,
                            "coalesced": True,
                        },
                    )
            try:
                # Another submission's execution: served as a cache hit.
                result = dataclasses.replace(future.result(), cached=True)
            except Exception as exc:  # the coalesced execution crashed
                result = runner._failure_result(job_id, label, exc)
        else:
            journaled = key is not None and self.journal is not None
            if journaled:
                self.journal.record(key, spec, seed)
            result = await self._execute(writer, job_id, job, label, seed, key, start)
        await self._report_result(writer, job_id, job, key, result, start, want_payload)
        if journaled:
            self.journal.clear(key)

    def _lint_refusal(self, job) -> tuple[str, dict] | None:
        """``(message, report_dict)`` when pre-flight lint errors.

        Lint itself must never take a submission down — any unexpected
        analyzer failure degrades to "no refusal".
        """
        try:
            from repro.lint.gate import lint_job, refusal_message

            report = lint_job(job)
        except Exception:  # noqa: BLE001 - lint is advisory here
            return None
        if report is None or not report.errors:
            return None
        return (
            f"rejected by pre-flight lint: {refusal_message(report)}",
            report.as_dict(),
        )

    async def _run_attempts(self, job, job_id, label, seed):
        """Execute one job on the pool with the daemon's retry policy.

        The attempt path is the runner's: ``runner._execute_job`` (looked
        up per call, so a patched one is used) runs the job, a pool
        error becomes the same structured failure and the same rule
        decides on a retry, so callers always receive a terminal
        result, classified as :class:`~repro.runtime.BatchRunner` would
        classify it.  A retry re-runs under the *same* seed, keeping
        recovered results bit-identical, after a backoff on that seed.
        """
        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            attempt += 1
            pool = self._pool_or_start()
            try:
                result = await loop.run_in_executor(
                    pool,
                    runner._execute_job,
                    job,
                    job_id,
                    label,
                    np.random.SeedSequence(seed),
                    self.fault_plan,
                    attempt,
                    self.executor == "process",
                )
            except Exception as exc:  # worker crash, unpicklable job...
                if isinstance(exc, BrokenProcessPool) and self._pool is pool:
                    # Replace the pool once, not once per job it broke.
                    pool.shutdown(wait=False, cancel_futures=True)
                    self._pool = None
                result = runner._failure_result(job_id, label, exc)
            result.attempts = attempt
            if not runner._should_retry(result, attempt, self.retries):
                return result
            delay = self.retries.delay(attempt, seed)
            if delay > 0:
                await asyncio.sleep(delay)

    async def _execute(self, writer, job_id, job, label, seed, key, start):
        """Run one job on the pool, streaming ``running`` heartbeats.

        Returns the terminal :class:`~repro.runtime.report.JobResult`
        (failures included — the caller reports them).  The execution
        runs as its own task registered in ``_inflight``, so coalesced
        submissions of the same key share it even if this connection
        dies mid-stream.
        """
        task = asyncio.ensure_future(self._run_attempts(job, job_id, label, seed))
        if key is not None:
            self._inflight[key] = task
        try:
            await self._send(writer, {"event": "running", "id": job_id})
            while True:
                done, _ = await asyncio.wait([task], timeout=self.progress_interval)
                if done:
                    break
                await self._send(
                    writer,
                    {
                        "event": "running",
                        "id": job_id,
                        "seconds": time.perf_counter() - start,
                    },
                )
            result = task.result()
        finally:
            if key is not None:
                self._inflight.pop(key, None)
        return result

    async def _report_result(
        self, writer, job_id, job, key, result, start, want_payload
    ) -> None:
        """Send *result*'s terminal event: ``failed``, or ``done`` with
        its record.  A ``cached`` result is another submission's
        execution shared by coalescing: a cache hit, published here only
        if that submission has not yet published it."""
        seconds = time.perf_counter() - start
        if not result.ok:
            await self._fail(
                writer,
                job_id,
                result.error,
                traceback=result.traceback,
                seconds=seconds,
            )
            return
        if result.cached:
            self.stats.cache_hits += 1
            entry = self.store.get(key)
            if entry is None:
                entry = self._publish(key, job, result, executed=False)
        else:
            entry = self._publish(key, job, result)
        if entry is not None:
            record = entry.record()
        else:
            record = {
                "schema": None,
                "key": None,
                "kind": job_kind(job),
                "label": result.label,
                "summary": result_summary(result.value),
            }
        await self._finish(
            writer,
            job_id,
            value=result.value,
            record=record,
            cached=result.cached,
            seconds=seconds,
            want_payload=want_payload,
        )

    async def _finish(
        self, writer, job_id, *, value, record, cached, seconds, want_payload
    ) -> None:
        event = {
            "event": "done",
            "id": job_id,
            "cached": cached,
            "seconds": seconds,
            "record": record,
        }
        if want_payload:
            event["payload_b64"] = base64.b64encode(
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii")
        await self._send(writer, event)
