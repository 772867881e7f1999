"""Chaos tests for the fault-tolerant runtime (repro.resilience).

Covers the four pillars end to end:

* deterministic fault injection — a seeded :class:`FaultPlan` makes
  identical decisions everywhere, so every chaos scenario replays;
* timeouts + retries — hung workers are killed, transient failures
  re-run under their original seeds, and recovered results are
  asserted *bit-identical* to an undisturbed run (the chaos oracle);
* graceful degradation — backend fallback chains and per-point
  isolation of failed lockstep blocks;
* checkpoint/resume — incremental result publishing, the crash
  journal, and daemon restart without re-simulating finished work
  (asserted via factorization counters).
"""

import asyncio
import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError, SingularMatrixError
from repro.resilience import (
    FaultPlan,
    JobJournal,
    RetryPolicy,
    activate,
    active_plan,
    deactivate,
    fault_context,
)
from repro.runtime import BatchRunner
from repro.runtime.jobs import TransientJob, job_from_mapping
from repro.runtime.runner import retryable_failure
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceDaemon,
    job_key,
    run_batch_cached,
)
from repro.sweep import ParameterAxis, SweepSpec, run_sweep
from repro.sweep.measures import MeasureSpec

FAST_OPTIONS = {"epsilon": 0.05, "h_min": 1e-13, "h_max": 5e-11,
                "h_initial": 1e-12}

SPEC = {"type": "transient", "label": "divider",
        "circuit": "rtd_divider", "t_stop": 0.5e-9,
        "params": {"resistance": 50.0}, "options": dict(FAST_OPTIONS)}


@dataclass
class NumberJob:
    """Trivial deterministic job: seed-dependent scalar, no solver."""

    offset: float = 0.0
    label: str = ""

    def run(self, seed=None):
        rng = np.random.default_rng(seed)
        return self.offset + rng.standard_normal()


@dataclass
class BoomJob:
    """A job that fails deterministically (non-retryable)."""

    label: str = ""

    def run(self, seed=None):
        raise ValueError("deterministic design error")


@dataclass
class CallJob:
    """A job that returns ``fn()``; a lambda makes it unpicklable."""

    fn: object = None
    label: str = ""

    def run(self, seed=None):
        return self.fn()


def _number_jobs(n=4):
    return [NumberJob(offset=float(k), label=f"n{k}") for k in range(n)]


# ---------------------------------------------------------------------------
# fault plans


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        a = FaultPlan(seed=3, crash_rate=0.5)
        b = FaultPlan(seed=3, crash_rate=0.5)
        labels = [f"job-{k}" for k in range(64)]
        assert [a.decide("crash", s) for s in labels] == \
            [b.decide("crash", s) for s in labels]
        fired = sum(a.decide("crash", s) for s in labels)
        assert 0 < fired < len(labels)

    def test_seed_changes_the_decisions(self):
        labels = [f"job-{k}" for k in range(64)]
        a = [FaultPlan(seed=1, crash_rate=0.5).decide("crash", s)
             for s in labels]
        b = [FaultPlan(seed=2, crash_rate=0.5).decide("crash", s)
             for s in labels]
        assert a != b

    def test_rates_are_validated(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError, match="corrupt_rate"):
            FaultPlan(corrupt_rate=-0.1)

    def test_unknown_event_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(events=(("explode", "j0"),))

    def test_events_fire_on_first_attempt_only(self):
        plan = FaultPlan(events=(("transient", "j0"),))
        assert plan.decide("transient", "j0", attempt=1)
        assert not plan.decide("transient", "j0", attempt=2)
        assert not plan.decide("transient", "j1", attempt=1)

    def test_first_attempt_only_gates_rates(self):
        always = FaultPlan(seed=0, crash_rate=1.0)
        assert always.decide("crash", "x", attempt=1)
        assert not always.decide("crash", "x", attempt=2)
        repeat = FaultPlan(seed=0, crash_rate=1.0, first_attempt_only=False)
        assert repeat.decide("crash", "x", attempt=2)

    def test_worker_fault_order_is_fixed(self):
        plan = FaultPlan(crash_rate=1.0, hang_rate=1.0, transient_rate=1.0)
        assert plan.worker_fault("x") == "crash"
        assert FaultPlan(hang_rate=1.0,
                         transient_rate=1.0).worker_fault("x") == "hang"
        assert FaultPlan().worker_fault("x") is None

    def test_corrupt_read_fires_once_per_key(self):
        plan = FaultPlan(corrupt_rate=1.0)
        activate(plan)
        try:
            assert plan.corrupt_read("k1") is True
            assert plan.corrupt_read("k1") is False
            assert plan.corrupt_read("k2") is True
        finally:
            deactivate()
        # re-activation resets the one-shot counters
        activate(plan)
        try:
            assert plan.corrupt_read("k1") is True
        finally:
            deactivate()

    def test_fault_context_restores_previous_plan(self):
        outer = FaultPlan(seed=1)
        inner = FaultPlan(seed=2)
        with fault_context(outer):
            assert active_plan() is outer
            with fault_context(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None


class TestRetryPolicy:
    def test_resolve_coercions(self):
        assert RetryPolicy.resolve(None).max_attempts == 1
        assert RetryPolicy.resolve(2).max_attempts == 3
        policy = RetryPolicy(max_attempts=5, base_delay=0.1)
        assert RetryPolicy.resolve(policy) is policy

    def test_resolve_rejects_bad_values(self):
        with pytest.raises(TypeError):
            RetryPolicy.resolve(True)
        with pytest.raises(TypeError):
            RetryPolicy.resolve("twice")
        with pytest.raises(ValueError):
            RetryPolicy.resolve(-1)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1,
                             multiplier=2.0, max_delay=0.3)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(4) == pytest.approx(0.3)

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.05, max_delay=1.0)
        first = policy.delay(1, seed=42)
        assert first == policy.delay(1, seed=42)
        assert first != policy.delay(1, seed=43)
        assert 0.1 <= first <= 0.15


class TestJobJournal:
    def test_record_pending_clear_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("k1", {"type": "transient"}, seed=7)
        assert len(journal) == 1
        entry = journal.pending()["k1"]
        assert entry["spec"] == {"type": "transient"}
        assert entry["seed"] == 7
        journal.clear("k1")
        assert len(journal) == 0
        journal.clear("k1")  # idempotent

    def test_malformed_entries_are_dropped_and_deleted(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("good", {"type": "transient"})
        (journal.journal_dir / "truncated.json").write_text('{"spec": ')
        (journal.journal_dir / "wrong.json").write_text(
            '{"schema": "other/9", "spec": {}}')
        assert list(journal.pending()) == ["good"]
        assert not (journal.journal_dir / "truncated.json").exists()
        assert not (journal.journal_dir / "wrong.json").exists()


# ---------------------------------------------------------------------------
# the batch runner: retries, timeouts, bit-identical recovery


class TestRunnerRetries:
    def test_transient_fault_recovers_bit_identically(self):
        jobs = _number_jobs()
        clean = BatchRunner(executor="serial", seed=5).run(_number_jobs())
        plan = FaultPlan(events=(("transient", "n1"), ("crash", "n2"),
                                 ("hang", "n3")))
        chaos = BatchRunner(executor="serial", seed=5, retries=1,
                            fault_plan=plan).run(jobs)
        assert chaos.ok
        assert [r.attempts for r in chaos.results] == [1, 2, 2, 2]
        assert chaos.values() == clean.values()
        assert chaos.n_retried == 3
        assert chaos.total_attempts == 7
        assert "3 retried" in chaos.summary()

    def test_without_retries_failures_are_structured(self):
        plan = FaultPlan(events=(("transient", "n1"), ("crash", "n2"),
                                 ("hang", "n3")))
        report = BatchRunner(executor="serial", seed=5,
                             fault_plan=plan).run(_number_jobs())
        by_label = {r.label: r for r in report.results}
        assert by_label["n0"].ok
        assert by_label["n1"].failure == "error"
        assert by_label["n1"].error.startswith("SingularMatrixError")
        assert by_label["n2"].failure == "crash"
        assert by_label["n3"].failure == "timeout"
        assert report.n_crashes == 1 and report.n_timeouts == 1
        assert all(retryable_failure(r) for r in report.failures())

    def test_deterministic_errors_are_never_retried(self):
        jobs = [NumberJob(label="ok"), BoomJob(label="boom")]
        report = BatchRunner(executor="serial", seed=0, retries=3).run(jobs)
        boom = report.results[1]
        assert not boom.ok
        assert boom.attempts == 1
        assert not retryable_failure(boom)
        assert "ValueError" in boom.error and boom.traceback

    def test_thread_pool_retries_match_serial(self):
        plan = FaultPlan(seed=9, transient_rate=0.7)
        serial = BatchRunner(executor="serial", seed=3, retries=2,
                             fault_plan=plan).run(_number_jobs(6))
        threaded = BatchRunner(executor="thread", max_workers=3, seed=3,
                               retries=2, fault_plan=plan).run(_number_jobs(6))
        assert serial.ok and threaded.ok
        assert serial.values() == threaded.values()
        assert [r.attempts for r in serial.results] == \
            [r.attempts for r in threaded.results]

    def test_on_result_fires_once_per_job_with_final_result(self):
        plan = FaultPlan(events=(("transient", "n1"),))
        seen = []
        report = BatchRunner(executor="serial", seed=5, retries=1,
                             fault_plan=plan).run(
            _number_jobs(), on_result=seen.append)
        assert sorted(r.index for r in seen) == [0, 1, 2, 3]
        assert {r.index: r.attempts for r in seen}[1] == 2
        assert all(r.ok for r in seen)
        assert report.ok

    def test_unpicklable_job_is_an_error_on_the_process_pool(self):
        # The job never reaches a worker, so it is a plain error and is
        # not retried -- the daemon classifies it the same way.
        jobs = [NumberJob(label="n0"), CallJob(fn=lambda: 1.0, label="fn")]
        report = BatchRunner(executor="process", max_workers=2, seed=0,
                             retries=2).run(jobs)
        good, bad = report.results
        assert good.ok
        assert bad.failure == "error" and bad.attempts == 1
        assert "pickle" in bad.error

    def test_refused_pool_submit_is_an_error(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        import repro.runtime.runner as runner_mod

        class RefusingPool(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                raise RuntimeError("cannot schedule new futures")

        monkeypatch.setattr(runner_mod, "ThreadPoolExecutor", RefusingPool)
        report = BatchRunner(executor="thread", max_workers=2,
                             seed=0).run(_number_jobs(2))
        assert [r.failure for r in report.results] == ["error", "error"]
        assert all(r.error.startswith("RuntimeError: cannot schedule")
                   for r in report.results)

    def test_bad_knobs_are_rejected(self):
        with pytest.raises(AnalysisError, match="timeout"):
            BatchRunner(timeout=0)
        with pytest.raises(TypeError):
            BatchRunner(retries="lots")


class TestWatchdog:
    def test_hung_process_worker_is_killed_and_retried(self):
        # n1 really sleeps in its worker; the watchdog kills the pool
        # at the deadline and the retry recovers bit-identically.
        plan = FaultPlan(events=(("hang", "n1"),), hang_seconds=30.0)
        clean = BatchRunner(executor="serial", seed=4).run(_number_jobs(3))
        start = time.monotonic()
        chaos = BatchRunner(executor="process", max_workers=3, seed=4,
                            timeout=1.5, retries=1,
                            fault_plan=plan).run(_number_jobs(3))
        wall = time.monotonic() - start
        assert chaos.ok
        assert chaos.values() == clean.values()
        by_label = {r.label: r for r in chaos.results}
        assert by_label["n1"].attempts == 2
        assert wall < 15.0  # never waited out the 30 s sleep

    def test_timeout_without_retries_is_a_structured_failure(self):
        plan = FaultPlan(events=(("hang", "n1"),), hang_seconds=30.0)
        report = BatchRunner(executor="process", max_workers=3, seed=4,
                             timeout=1.0,
                             fault_plan=plan).run(_number_jobs(3))
        by_label = {r.label: r for r in report.results}
        assert by_label["n1"].failure == "timeout"
        assert "JobTimeoutError" in by_label["n1"].error
        # the other jobs finished before the pool was torn down
        assert report.n_jobs == 3


class TestFaultPlanProperties:
    @given(
        seed=st.integers(0, 2**32 - 1),
        crash=st.floats(0.0, 1.0),
        hang=st.floats(0.0, 1.0),
        transient=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_plan_yields_one_terminal_state_per_job(
            self, seed, crash, hang, transient):
        plan = FaultPlan(seed=seed, crash_rate=crash, hang_rate=hang,
                         transient_rate=transient)
        report = BatchRunner(executor="serial", seed=17,
                             fault_plan=plan).run(_number_jobs(5))
        assert sorted(r.index for r in report.results) == list(range(5))
        for result in report.results:
            # exactly one terminal state: ok with a value, or a
            # classified failure with an error and no value
            if result.ok:
                assert result.value is not None and result.failure is None
            else:
                assert result.value is None
                assert result.failure in ("error", "timeout", "crash")
                assert result.error

    @given(
        seed=st.integers(0, 2**32 - 1),
        crash=st.floats(0.0, 1.0),
        hang=st.floats(0.0, 1.0),
        transient=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_one_retry_always_recovers_bit_identically(
            self, seed, crash, hang, transient):
        # first_attempt_only (the default) guarantees round 2 is clean,
        # so a single retry must recover any injected fault — and the
        # recovered values must equal the undisturbed run's exactly.
        plan = FaultPlan(seed=seed, crash_rate=crash, hang_rate=hang,
                         transient_rate=transient)
        clean = BatchRunner(executor="serial", seed=17).run(_number_jobs(5))
        chaos = BatchRunner(executor="serial", seed=17, retries=1,
                            fault_plan=plan).run(_number_jobs(5))
        assert chaos.ok
        assert chaos.values() == clean.values()
        assert all(r.attempts <= 2 for r in chaos.results)


# ---------------------------------------------------------------------------
# graceful degradation: backend fallback, failed-block isolation


class TestBackendFallback:
    def _run(self, plan, **options):
        job = job_from_mapping({**SPEC, "options": {
            **FAST_OPTIONS, "backend": "stack", **options}})
        with fault_context(plan):
            return job.run(np.random.SeedSequence(0))

    def test_injected_failure_degrades_stack_to_dense(self):
        plan = FaultPlan(events=(("backend", "stack"),))
        result = self._run(plan, fallback=True)
        assert result.backend == "dense"
        assert len(result.fallback_events) == 1
        event = result.fallback_events[0]
        assert event["from"] == "stack" and event["to"] == "dense"
        assert "SingularMatrixError" in event["error"]
        reference = self._run(None, fallback=True)
        dense = job_from_mapping({**SPEC, "options": {
            **FAST_OPTIONS, "backend": "dense"}}).run(
                np.random.SeedSequence(0))
        assert np.allclose(result.states, dense.states, atol=1e-9)
        assert reference.backend == "stack"
        assert reference.fallback_events == []

    def test_without_fallback_the_plan_is_ignored(self):
        # the injection site lives inside the wrapper: pure paper
        # behaviour (fallback=False) has no chaos hook to trip
        plan = FaultPlan(events=(("backend", "stack"),))
        result = self._run(plan, fallback=False)
        assert result.backend == "stack"
        assert getattr(result, "fallback_events", []) == []

    def test_dense_is_terminal(self):
        plan = FaultPlan(events=(("backend", "dense"),))
        job = job_from_mapping({**SPEC, "options": {
            **FAST_OPTIONS, "backend": "dense", "fallback": True}})
        with fault_context(plan):
            with pytest.raises(SingularMatrixError):
                job.run(np.random.SeedSequence(0))


class TestSweepResilience:
    def _spec(self, values, **batch):
        return SweepSpec(
            template="rtd_divider",
            settings={"t_stop": 2e-10, "options": dict(FAST_OPTIONS)},
            axes=[ParameterAxis.from_values("resistance", list(values))],
            measures=[MeasureSpec(kind="final", node="out")],
            batch={"executor": "serial", **batch},
        )

    def test_failed_block_is_isolated_per_point_when_asked(self):
        spec = self._spec([-5.0, 50.0, 300.0, 400.0], vector=2)
        whole = run_sweep(spec)
        assert whole.columns["ok"] == [False, False, True, True]
        isolated = run_sweep(spec, isolate=True)
        assert isolated.columns["ok"] == [False, True, True, True]
        assert "resistance must be positive" in isolated.columns["error"][0]
        # the healthy neighbour matches its scalar-path value
        scalar = run_sweep(self._spec([50.0]))
        assert isolated.columns["final"][1] == scalar.columns["final"][0]

    def test_isolate_knob_reads_from_the_batch_table(self):
        spec = self._spec([-5.0, 50.0], vector=2, isolate=True)
        report = run_sweep(spec)
        assert report.columns["ok"] == [False, True]

    def test_refused_blocks_stay_refused_under_isolate(self):
        broken = SweepSpec(
            axes=[ParameterAxis.from_values("rser", [0.0, 10.0])],
            kind="transient",
            netlist_text="""* dangling cap
V1 in 0 DC 1
R1 in out {rser}
R2 out 0 1k
C1 in mid 1p
""",
            settings={"t_stop": 2e-10, "options": dict(FAST_OPTIONS)},
            measures=[MeasureSpec(kind="final", node="out")],
            batch={"executor": "serial", "vector": 2},
            validate="strict",
        )
        report = run_sweep(broken, isolate=True)
        assert report.columns["ok"] == [False, False]
        assert all("LintError" in e for e in report.columns["error"])

    def test_injected_transients_recover_bit_identically(self):
        spec = self._spec([50.0, 300.0], retries=1)
        clean = run_sweep(spec)
        plan = FaultPlan(seed=2, transient_rate=1.0)
        chaos = run_sweep(spec, fault_plan=plan)
        assert chaos.columns["ok"] == [True, True]
        assert chaos.columns["final"] == clean.columns["final"]

    def test_resume_serves_completed_points_from_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = self._spec([50.0, 300.0])
        first = run_sweep(spec, cache=store)
        assert store.puts == 2
        resumed = run_sweep(spec, resume=store)
        assert store.hits == 2 and store.puts == 2
        assert resumed.columns["final"] == first.columns["final"]


# ---------------------------------------------------------------------------
# checkpointing: incremental publish + corrupted-store recovery


class TestCheckpointing:
    def _jobs(self):
        return [job_from_mapping({**SPEC, "label": f"r{int(r)}",
                                  "params": {"resistance": r}})
                for r in (50.0, 120.0, 300.0)]

    def test_interrupted_run_leaves_completed_jobs_published(
            self, tmp_path, monkeypatch):
        import repro.runtime.runner as runner_mod

        store = ResultStore(tmp_path / "store")
        original = runner_mod._execute_job

        def sabotaged(job, index, label, seed, *args, **kwargs):
            if label == "r300":
                raise KeyboardInterrupt
            return original(job, index, label, seed, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_execute_job", sabotaged)
        runner = BatchRunner(executor="serial", seed=0)
        with pytest.raises(KeyboardInterrupt):
            run_batch_cached(runner, self._jobs(), store)
        # the first two points were published the moment they finished
        assert len(store) == 2

    def test_corrupted_read_recomputes_and_republishes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = BatchRunner(executor="serial", seed=0)
        first = run_batch_cached(runner, self._jobs(), store)
        records = {key: store.get(key).record() for key in store.keys()}
        plan = FaultPlan(corrupt_rate=1.0)
        with fault_context(plan):
            chaos = run_batch_cached(
                BatchRunner(executor="serial", seed=0), self._jobs(), store)
        assert chaos.ok and chaos.n_cached == 0  # every read was corrupted
        # recomputation converged on byte-identical records
        assert {key: store.get(key).record()
                for key in store.keys()} == records
        assert first.values()[0].states.shape == chaos.values()[0].states.shape

    def test_store_corruption_is_a_miss_and_discards(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("ab" + "0" * 62, {"x": 1.0})
        key = store.keys()[0]
        with fault_context(FaultPlan(corrupt_rate=1.0)):
            assert store.get(key) is None
        assert key not in store  # both halves discarded


# ---------------------------------------------------------------------------
# the daemon: retries, traceback reporting, drain, journal recovery


@pytest.fixture()
def daemon_factory(tmp_path):
    """Start thread-executor daemons on demand; stop them all after."""
    running = []

    def start(**kwargs):
        kwargs.setdefault("store", ResultStore(tmp_path / "store"))
        kwargs.setdefault(
            "socket_path", tmp_path / f"daemon-{len(running)}.sock")
        kwargs.setdefault("executor", "thread")
        kwargs.setdefault("max_workers", 2)
        kwargs.setdefault("progress_interval", 0.1)
        service = ServiceDaemon(**kwargs)
        ready = threading.Event()
        thread = threading.Thread(target=service.run,
                                  kwargs={"ready": ready}, daemon=True)
        thread.start()
        assert ready.wait(10), "daemon failed to start"
        running.append((service, thread))
        return service, thread

    yield start
    for service, thread in running:
        try:
            ServiceClient(service.socket_path, timeout=10).shutdown()
        except Exception:
            pass
        thread.join(10)


class TestDaemonResilience:
    def test_failed_event_carries_a_traceback(self, daemon_factory):
        service, _ = daemon_factory()
        client = ServiceClient(service.socket_path, timeout=60)
        bad = {**SPEC, "params": {"resistance": -5.0}}
        event = client.submit(bad, seed=0)
        assert event["event"] == "failed"
        assert "CircuitError" in event["error"]
        assert "Traceback" in (event.get("traceback") or "")

    def test_injected_transient_is_retried_to_success(self, daemon_factory):
        plan = FaultPlan(events=(("transient", "divider"),))
        service, _ = daemon_factory(retries=1, fault_plan=plan)
        client = ServiceClient(service.socket_path, timeout=60)
        event = client.submit(SPEC, seed=0)
        assert event["event"] == "done" and event["cached"] is False
        status = client.status()
        assert status["executed"] == 1 and status["failed"] == 0

    def test_injected_transient_without_retries_fails_structurally(
            self, daemon_factory):
        plan = FaultPlan(events=(("transient", "divider"),))
        service, _ = daemon_factory(fault_plan=plan)
        client = ServiceClient(service.socket_path, timeout=60)
        event = client.submit(SPEC, seed=0)
        assert event["event"] == "failed"
        assert "injected transient" in event["error"]
        assert event.get("traceback")

    def test_drain_finishes_running_jobs_and_refuses_new_ones(
            self, daemon_factory, capfd, monkeypatch):
        service, thread = daemon_factory()
        slow = {**SPEC, "label": "slow",
                "options": {**FAST_OPTIONS, "h_max": 1e-12},
                "t_stop": 2e-9}
        outcome = {}
        # The slow job is held until the refusal has been observed, so
        # the drain cannot finish (and close the socket) first however
        # fast the march runs.
        release = threading.Event()
        run = TransientJob.run

        def held_run(job, *args, **kwargs):
            if job.label == "slow":
                assert release.wait(60), "slow job never released"
            return run(job, *args, **kwargs)

        monkeypatch.setattr(TransientJob, "run", held_run)

        def submit_slow():
            client = ServiceClient(service.socket_path, timeout=120)
            outcome["event"] = client.submit(slow, seed=0)

        worker = threading.Thread(target=submit_slow, daemon=True)
        worker.start()
        deadline = time.monotonic() + 10
        while service._active_submissions == 0:
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.01)
        service._loop.call_soon_threadsafe(service._begin_drain)
        while not service._draining:
            assert time.monotonic() < deadline, "drain never began"
            time.sleep(0.01)
        refused = ServiceClient(service.socket_path,
                                timeout=60).submit(SPEC, seed=1)
        release.set()
        assert refused["event"] == "failed"
        assert "draining" in refused["error"]
        worker.join(60)
        assert outcome["event"]["event"] == "done"
        thread.join(30)
        assert not thread.is_alive()
        assert "daemon drained:" in capfd.readouterr().out

    def test_restart_requeues_journal_without_resimulating_finished_work(
            self, daemon_factory, tmp_path):
        store = ResultStore(tmp_path / "store")
        service, thread = daemon_factory(store=store)
        client = ServiceClient(service.socket_path, timeout=60)
        assert client.submit(SPEC, seed=0)["event"] == "done"
        client.shutdown()
        thread.join(10)
        finished_key = job_key(job_from_mapping(SPEC), seed=0)
        assert finished_key in store

        unfinished = {**SPEC, "label": "cut-off",
                      "params": {"resistance": 120.0}}
        unfinished_key = job_key(job_from_mapping(unfinished), seed=0)
        journal = JobJournal(store.root)
        journal.record(finished_key, SPEC, 0)       # published, then crash
        journal.record(unfinished_key, unfinished, 0)  # accepted, lost

        oracle = job_from_mapping(unfinished).run(np.random.SeedSequence(0))
        restarted, _ = daemon_factory(store=store, journal=True)
        assert len(journal) == 0  # recovery ran before the socket bound
        assert unfinished_key in store
        # only the cut-off job was re-simulated: the factorization
        # counter matches its solo cost exactly, so the finished job
        # was recognized in the store and never touched a solver.
        assert restarted.stats.executed == 1
        assert restarted.stats.factorizations == \
            int(oracle.flops.factorizations)
        recovered = store.get(unfinished_key).value
        assert np.array_equal(recovered.states, oracle.states)

    def test_journal_can_be_disabled(self, tmp_path):
        service = ServiceDaemon(store=ResultStore(tmp_path / "store"),
                                socket_path=tmp_path / "d.sock",
                                executor="thread", journal=False)
        assert service.journal is None


def _daemon_attempts(service, jobs, seeds):
    """Every job's terminal result from *service*'s attempt loop (its
    ``failed`` events carry the error text, not the kind or attempts)."""

    async def run_all():
        return await asyncio.gather(*(
            service._run_attempts(job, k, job.label, seed)
            for k, (job, seed) in enumerate(zip(jobs, seeds))))

    try:
        return asyncio.run(run_all())
    finally:
        service._pool.shutdown()


class TestFrontEndsAgree:
    """The runner and the daemon share one attempt path."""

    @pytest.mark.parametrize("retries", [0, 2])
    def test_runner_and_daemon_end_every_job_alike(self, tmp_path, retries):
        plan = FaultPlan(events=(("transient", "n1"), ("crash", "n2"),
                                 ("hang", "n3")))
        jobs = _number_jobs(5) + [BoomJob(label="boom")]
        seeds = [100 + k for k in range(len(jobs))]
        batch = BatchRunner(executor="thread", max_workers=2,
                            retries=retries, fault_plan=plan).run(
            jobs, seeds=[np.random.SeedSequence(s) for s in seeds])
        service = ServiceDaemon(store=ResultStore(tmp_path / "store"),
                                socket_path=tmp_path / "d.sock",
                                executor="thread", max_workers=2,
                                retries=retries, fault_plan=plan,
                                journal=False)
        served = _daemon_attempts(service, jobs, seeds)
        for ours, theirs in zip(batch.results, served):
            assert (ours.ok, ours.failure, ours.error, ours.attempts) == \
                (theirs.ok, theirs.failure, theirs.error, theirs.attempts)
            if ours.ok:
                assert np.float64(ours.value).tobytes() == \
                    np.float64(theirs.value).tobytes()
        by_label = {r.label: r for r in batch.results}
        if retries:
            assert [by_label[f"n{k}"].attempts for k in range(4)] == \
                [1, 2, 2, 2]
        else:
            assert [by_label[label].failure
                    for label in ("n1", "n2", "n3")] == \
                ["error", "crash", "timeout"]
        assert by_label["boom"].failure == "error"
        assert by_label["boom"].attempts == 1

    def test_process_daemon_recovers_a_really_crashed_worker(self, tmp_path):
        # n1's worker really dies, so the jobs on that pool fail with a
        # broken pool -- a crash -- and retry on a fresh pool under
        # their own seeds, bit-identical to an undisturbed run.
        plan = FaultPlan(events=(("crash", "n1"),))
        jobs = _number_jobs(3)
        seeds = [7, 8, 9]
        clean = BatchRunner(executor="serial").run(
            jobs, seeds=[np.random.SeedSequence(s) for s in seeds])
        service = ServiceDaemon(store=ResultStore(tmp_path / "store"),
                                socket_path=tmp_path / "d.sock",
                                executor="process", max_workers=3,
                                retries=1, fault_plan=plan, journal=False)
        served = _daemon_attempts(service, jobs, seeds)
        assert all(r.ok for r in served)
        assert served[1].attempts == 2
        assert [r.value for r in served] == clean.values()


# ---------------------------------------------------------------------------
# the chaos oracle: everything at once, byte-identical to a clean run


class TestChaosOracle:
    def _jobs(self):
        jobs = [job_from_mapping({**SPEC, "label": f"t{k}",
                                  "params": {"resistance": r}})
                for k, r in enumerate((50.0, 80.0, 120.0, 300.0))]
        jobs.append(job_from_mapping({
            "type": "ensemble", "label": "band", "sde": "noisy_rc_node",
            "params": {"noise_amplitude": 1e-8},
            "t_final": 1e-9, "steps": 100, "n_paths": 16}))
        return jobs

    def test_full_chaos_run_matches_the_fault_free_oracle(self, tmp_path):
        clean_store = ResultStore(tmp_path / "clean")
        chaos_store = ResultStore(tmp_path / "chaos")
        clean = run_batch_cached(
            BatchRunner(executor="process", max_workers=4, seed=11,
                        timeout=5.0, retries=2),
            self._jobs(), clean_store)
        assert clean.ok

        # pre-populate the chaos store with t0 so its read can corrupt
        warm = BatchRunner(executor="serial", seed=11)
        warm_report = run_batch_cached(warm, self._jobs()[:1], chaos_store)
        assert warm_report.ok
        key0 = job_key(self._jobs()[0],
                       seed={"entropy": 11, "spawn": 0})
        assert key0 in chaos_store

        plan = FaultPlan(
            events=(("crash", "t1"), ("hang", "t2"), ("transient", "t3"),
                    ("corrupt", key0)),
            hang_seconds=30.0,
        )
        runner = BatchRunner(executor="process", max_workers=4, seed=11,
                             timeout=2.0, retries=2, fault_plan=plan)
        with fault_context(plan):  # parent-side store reads inject too
            chaos = run_batch_cached(runner, self._jobs(), chaos_store)

        # zero lost jobs, every fault recovered
        assert chaos.ok
        assert sorted(r.index for r in chaos.results) == list(range(5))
        by_label = {r.label: r for r in chaos.results}
        assert by_label["t0"].cached is False  # corrupted read -> recompute
        for label in ("t1", "t2", "t3"):
            assert by_label[label].attempts > 1
        assert chaos.wall_seconds < 20.0  # the hang never ran its 30 s

        # the recovered records are byte-identical to the clean oracle
        assert clean_store.keys() == chaos_store.keys()
        for key in clean_store.keys():
            assert clean_store.get(key).record() == \
                chaos_store.get(key).record()
