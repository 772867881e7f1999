"""Sweep execution: expand the grid, fan out, aggregate per point.

``run_sweep`` turns a :class:`~repro.sweep.spec.SweepSpec` into one
:class:`SweepPointJob` per design point, executes them on the PR-1
:class:`~repro.runtime.BatchRunner` (deterministic ``SeedSequence``
seeding: per-point results are bit-identical at any worker count), and
assembles the streamed-back scalars into a
:class:`~repro.sweep.report.SweepReport`.

With ``[batch] vector = N`` in the spec, a SWEC transient sweep
collapses every N consecutive same-topology design points into one
:class:`SweepBatchJob`: one
:class:`~repro.runtime.jobs.EnsembleTransientJob` with the block's
points as its ``variations``, marched in lockstep — one batched solve
per time point for the whole block instead of N independent Python
marches.  Grouping is by position in the deterministic point
order, so a sweep's results depend only on ``(spec, vector)`` — never
on the worker count.

The aggregation is *streaming* in the data-volume sense: each point's
waveforms/paths are reduced to measure scalars inside the worker
(:meth:`SweepPointJob.run` / :meth:`SweepBatchJob.run`), so the parent
process never holds more than one small dict per point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.errors import SweepSpecError
from repro.runtime.cli import batch_runner, vr_settings
from repro.runtime.jobs import (
    ACJob,
    EnsembleJob,
    EnsembleTransientJob,
    PSSJob,
    TransientJob,
)
from repro.runtime.report import BatchReport
from repro.runtime.runner import BatchRunner
from repro.sweep.measures import MeasureSpec
from repro.sweep.report import SweepReport
from repro.sweep.spec import SWEEP_BATCH_KEYS, SweepSpec

#: Diagnostic columns every transient sweep report carries.
_TRANSIENT_DIAGNOSTICS = ("points", "flops")


def _reduce(measures: list[MeasureSpec], value, flops: int | None) -> dict:
    """Measure scalars of one result, plus its ``points``/``flops``
    diagnostics when it is a transient-like waveform (*flops* given)."""
    diagnostics = {}
    if flops is not None:
        diagnostics = {"points": float(len(value)), "flops": float(flops)}
    return {"measures": {m.column: m.extract(value) for m in measures},
            "diagnostics": diagnostics}


@dataclass
class SweepPointJob:
    """One design point: an inner job plus worker-side reduction.

    Wraps a :class:`~repro.runtime.jobs.TransientJob` or
    :class:`~repro.runtime.jobs.EnsembleJob` and reduces its result to
    the spec's measure scalars *before* returning, so the process
    boundary carries a small dict instead of full waveforms.
    """

    inner: TransientJob | EnsembleJob | ACJob
    measures: list[MeasureSpec] = field(default_factory=list)
    point: dict = field(default_factory=dict)
    label: str = ""

    def run(self, seed=None) -> dict:
        """Execute the inner job; return measure + diagnostic scalars."""
        value = self.inner.run(seed)
        flops = value.flops.total if hasattr(value, "flops") else None
        return _reduce(self.measures, value, flops)


@dataclass
class SweepBatchJob:
    """A block of consecutive design points marched in lockstep.

    Wraps one :class:`~repro.runtime.jobs.EnsembleTransientJob` whose
    ``variations`` are the block's points, and reduces each instance's
    waveforms to the spec's measure scalars before returning — the
    process boundary carries one small dict per point, exactly like the
    scalar path.  Instances share the block's worst-case adaptive grid,
    so measure values can differ from the scalar path within
    step-control tolerance; they are identical for any worker count
    because blocks are cut from the deterministic point order.
    """

    inner: EnsembleTransientJob
    measures: list[MeasureSpec] = field(default_factory=list)
    points: list[dict] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    label: str = ""

    def run(self, seed=None) -> list[dict]:
        """March the block; return per-point measure/diagnostic dicts."""
        result = self.inner.run(seed)
        # The ensemble-level flop count is split evenly: every instance
        # followed the same recipe on the same grid.
        flops_each = result.flops.total // result.n_instances
        return [_reduce(self.measures, result.instance(k), flops_each)
                for k in range(result.n_instances)]


def build_batch_jobs(spec: SweepSpec, vector: int) -> list[SweepBatchJob]:
    """Expand *spec* into lockstep blocks of up to *vector* points."""
    settings = dict(spec.settings)
    settings.pop("engine", None)  # validated to be "swec"
    if "initial_state" in settings:
        settings["initial_states"] = settings.pop("initial_state")
    points = build_jobs(spec)
    jobs = []
    for lo in range(0, len(points), vector):
        block = points[lo:lo + vector]
        label = f"block-{lo // vector}"
        inner = EnsembleTransientJob(
            builder=spec.template, netlist=spec.netlist_text,
            variations=[job.inner.params for job in block], label=label,
            **settings)
        jobs.append(SweepBatchJob(
            inner=inner, measures=block[0].measures,
            points=[job.point for job in block],
            labels=[job.label for job in block], label=label))
    return jobs


def build_jobs(spec: SweepSpec) -> list[SweepPointJob]:
    """Expand *spec* into one :class:`SweepPointJob` per grid point."""
    jobs = []
    measures = spec.resolved_measures()
    for point in spec.points():
        label = spec.point_label(point)
        params = dict(point)
        if spec.template is not None:
            params = spec.template_info().coerce(params)
        if spec.kind in ("transient", "ac", "pss"):
            job_class = {"transient": TransientJob, "ac": ACJob,
                         "pss": PSSJob}[spec.kind]
            settings = dict(spec.settings)
            if (spec.kind == "ac" and spec.template is not None
                    and "source" not in settings
                    and spec.template_info().ac_source is not None):
                settings["source"] = spec.template_info().ac_source
            if spec.template is not None:
                inner = job_class(builder=spec.template, params=params,
                                  label=label, **settings)
            else:
                inner = job_class(netlist=spec.netlist_text,
                                  params=params, label=label, **settings)
        else:
            # SweepSpec validation guarantees an SDE template here.
            inner = EnsembleJob(builder=spec.template, params=params,
                                label=label, **spec.settings)
        jobs.append(SweepPointJob(inner=inner, measures=measures,
                                  point=point, label=label))
    return jobs


def _isolate_failed_blocks(runner: BatchRunner, spec: SweepSpec, jobs,
                           batch: BatchReport) -> BatchReport:
    """Re-run each terminally failed block's points individually.

    The points are rebuilt by :func:`build_jobs`, so each runs exactly
    as in a ``vector = 1`` sweep.  Blocks the lint gate refused (their
    inner job is a :class:`~repro.lint.gate.RefusedPointJob`) are left
    alone — re-running a design the gate rejected would defeat the
    gate.  Each surviving point's row replaces the block-wide failure;
    points that fail again carry their own error as a
    ``{"failed": ...}`` sentinel that :func:`_point_rows` unpacks into
    a per-point failed row.
    """
    from repro.lint.gate import RefusedPointJob

    point_jobs = iter(build_jobs(spec))
    targets = []
    for result, block in zip(batch.results, jobs):
        rebuilt = [next(point_jobs) for _ in block.points]
        if not (result.ok or isinstance(block.inner, RefusedPointJob)):
            targets.append((result, rebuilt))
    if not targets:
        return batch
    isolated = iter(runner.run(
        [job for _, rebuilt in targets for job in rebuilt]).results)
    for result, rebuilt in targets:
        result.value = [
            {**row.value, "seconds": row.seconds} if row.ok
            else {"failed": row.error, "seconds": row.seconds}
            for row in (next(isolated) for _ in rebuilt)
        ]
    return batch


def _point_rows(jobs, batch: BatchReport):
    """Flatten job results into per-point rows, preserving point order.

    Yields ``(index, label, point, ok, error, seconds, value)`` for
    scalar :class:`SweepPointJob`\\ s and lockstep
    :class:`SweepBatchJob` blocks alike.  A failed block marks every
    one of its points failed — unless the ``isolate`` recovery path
    replaced its value with per-point rows, in which case each point
    reports its own individual outcome.
    """
    index = 0
    for result, job in zip(batch.results, jobs):
        if isinstance(job, SweepBatchJob):
            per_point = result.ok or isinstance(result.value, list)
            values = (result.value if per_point
                      else [None] * len(job.points))
            seconds = result.seconds / max(len(job.points), 1)
            for label, point, value in zip(job.labels, job.points, values):
                if value is None:
                    yield (index, label, point, False, result.error,
                           seconds, None)
                elif "failed" in value:
                    yield (index, label, point, False, value["failed"],
                           value.get("seconds", seconds), None)
                else:
                    yield (index, label, point, True, None,
                           value.get("seconds", seconds), value)
                index += 1
        else:
            yield (index, result.label, job.point, result.ok,
                   result.error, result.seconds, result.value)
            index += 1


def _assemble_report(spec: SweepSpec, jobs, batch: BatchReport,
                     wall_seconds: float) -> SweepReport:
    """Stitch per-point scalars into tidy columns, preserving order."""
    param_names = tuple(axis.name for axis in spec.axes)
    measure_names = tuple(m.column for m in spec.measures)
    diagnostics = (_TRANSIENT_DIAGNOSTICS
                   if spec.kind in ("transient", "pss") else ())
    columns: dict[str, list] = {
        name: [] for name in
        ("index", "label", *param_names, *measure_names, *diagnostics,
         "ok", "error", "seconds")
    }
    for index, label, point, ok, error, seconds, value in \
            _point_rows(jobs, batch):
        columns["index"].append(index)
        columns["label"].append(label)
        for name in param_names:
            columns[name].append(point[name])
        scalars = value["measures"] if ok else {}
        for name in measure_names:
            columns[name].append(scalars.get(name))
        point_diag = value["diagnostics"] if ok else {}
        for name in diagnostics:
            columns[name].append(point_diag.get(name))
        columns["ok"].append(ok)
        columns["error"].append(error)
        columns["seconds"].append(seconds)
    return SweepReport(
        name=spec.name,
        param_names=param_names,
        measure_names=measure_names,
        columns=columns,
        wall_seconds=wall_seconds,
        workers=batch.workers,
        executor=batch.executor,
        seed=batch.seed,
    )


def run_sweep(spec: SweepSpec, max_workers: int | None = None,
              executor: str | None = None, seed: int | None = None,
              vector: int | None = None,
              backend: str | None = None,
              cache=None,
              validate: str | None = None,
              timeout: float | None = None,
              retries=None,
              fault_plan=None,
              resume=None,
              isolate: bool | None = None,
              antithetic: bool | None = None,
              control_variate: bool | None = None,
              target_ci: float | None = None,
              target_rel_ci: float | None = None,
              max_trials: int | None = None) -> SweepReport:
    """Run every design point of *spec* and aggregate the report.

    ``max_workers``/``executor``/``seed``/``vector`` override the
    spec's ``[batch]`` table; the defaults match
    :class:`~repro.runtime.BatchRunner` (process pool over all usable
    cores, seed 0 so sweeps replay identically by default).  With
    ``vector > 1`` (SWEC transient sweeps only) consecutive design
    points march in lockstep blocks of that size — see
    :class:`SweepBatchJob`.  ``backend`` forces the solver backend of
    every point (transient, AC and PSS sweeps), overriding the spec's
    ``backend`` setting.

    ``cache`` enables the content-addressed result store of
    :mod:`repro.service`: a path (or a ready
    :class:`~repro.service.ResultStore`, or ``True`` for the default
    root).  Each point's reduced measures are looked up by the
    fingerprint of ``(point job, base seed, position)`` before any
    solver runs; hits skip the pool entirely and misses are published
    for the next sweep.  Determinism is unaffected — misses execute
    under the exact seeds they would receive in an uncached run.

    ``validate`` overrides the spec's pre-flight lint mode (``"off"``,
    ``"warn"`` or ``"strict"``).  Strict mode replaces every broken
    design point's job with a refuser *before* dispatch: the point
    appears as a failed row (a :class:`~repro.errors.LintError`)
    without any factorization happening; a lockstep block containing
    a broken point is refused whole, because its points share one
    adaptive grid.

    Fault tolerance (see :mod:`repro.resilience`):

    ``timeout``
        Per-job wall-clock limit in seconds, passed to the runner's
        watchdog; defaults to the spec's ``[batch] timeout``.
    ``retries``
        Retry budget for transient failures — an int (extra attempts)
        or a :class:`~repro.resilience.RetryPolicy`; defaults to the
        spec's ``[batch] retries``.  Retried points re-run under their
        original seeds, so recovered results are bit-identical.
    ``fault_plan``
        A :class:`~repro.resilience.FaultPlan` for deterministic chaos
        testing; injected faults flow through the same retry/timeout
        machinery as real ones.
    ``resume``
        Sugar for ``cache=``: point at the result store of an
        interrupted run (which checkpoints every completed point as it
        finishes) and only the unfinished points re-simulate.
    ``isolate``
        When True (or ``[batch] isolate = true``), a lockstep block
        that fails terminally is re-run point by point, so one bad
        design costs only its own row instead of the whole block.
        Lint-refused blocks stay refused.  Off by default: the
        block-fails-whole behaviour is the documented lockstep
        contract.

    Variance reduction (ensemble sweeps only, see
    :mod:`repro.stochastic.vr`): ``antithetic`` mirrors each path
    pair's increments, ``target_ci``/``target_rel_ci`` stop every
    point once its confidence interval is tight enough (``max_trials``
    backstop).  They override the spec's matching ensemble settings.
    ``control_variate`` is rejected here: SDE ensemble sweeps march
    linear(ized) SDEs, so the linearized control would be the signal
    itself — use :func:`repro.stochastic.run_circuit_ensemble` or an
    ``ensemble_transient`` runtime job for circuit-level control
    variates.
    """
    (overrides,) = vr_settings(
        [spec.kind], {"antithetic": antithetic,
                      "control_variate": control_variate,
                      "target_ci": target_ci, "target_rel_ci": target_rel_ci,
                      "max_trials": max_trials}, SweepSpecError)
    if backend is not None:
        if spec.kind == "ensemble":
            raise SweepSpecError(
                "backend= applies to transient, AC and PSS sweeps only")
        overrides["backend"] = backend
    runner, batch_settings = batch_runner(
        spec.batch, {"workers": max_workers, "executor": executor,
                     "seed": seed, "timeout": timeout, "retries": retries,
                     "vector": vector, "isolate": isolate},
        SWEEP_BATCH_KEYS, SweepSpecError, fault_plan)
    # Rebuilding the spec holds the flags to the spec's [batch] rules.
    spec = replace(spec, settings={**spec.settings, **overrides},
                   batch=batch_settings)
    if cache is None and resume is not None and resume is not False:
        cache = resume
    if spec.vector > 1:
        jobs = build_batch_jobs(spec, spec.vector)
    else:
        jobs = build_jobs(spec)
    mode = validate if validate is not None else spec.validate
    if mode != "off":
        from repro.lint.gate import gate_sweep_jobs

        jobs = gate_sweep_jobs(jobs, mode)
    start = time.perf_counter()
    if cache is not None and cache is not False:
        from repro.service import ResultStore, run_batch_cached

        batch = run_batch_cached(runner, jobs, ResultStore.resolve(cache))
    else:
        batch = runner.run(jobs)
    if batch_settings.get("isolate", False) and spec.vector > 1:
        batch = _isolate_failed_blocks(runner, spec, jobs, batch)
    return _assemble_report(spec, jobs, batch,
                            time.perf_counter() - start)
