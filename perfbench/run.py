"""Benchmark of the SWEC simulator: four workloads behind one command.

Run from the repository root::

    python3 perfbench/run.py --workload logic_k1 --seed 1 --seconds 12 --trace 0

Workloads: ``logic_k1``, ``grid_sparse``, ``mc_lockstep`` and
``sweep_cached`` (see ``perfbench/README.md``).  One run

1. measures ``setup_s`` as the median of three fresh interpreters that
   import ``repro``, build the workload's circuits and engines and run
   one small warm-up job;
2. sets the workload up in this process, runs the warm-up, then runs
   whole passes over the workload's job list, as many as it takes to
   fill ``--seconds`` at the workload's nominal pass time, timing every
   job around its call and running the speed probe before and after
   each job (:func:`speed_probe`);

Every time is CPU time (:func:`cpu_clock`), so other processes do not
move it; on a quiet host it equals the wall time of the single-threaded
jobs.  Job times are also scaled to the reference host speed, so that
the host's slow spells do not move them either.
3. checks every job's output after each pass (untimed) and that the
   exact work counters of all passes agree;
4. prints a record line (environment, counters) and, as the last line,
   one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: self times
from the first traced pass (spans written to ``perfbench/out/``), exact
counters, and the tracing overhead.

BLAS/OpenMP are pinned to one thread per process, so the benchmark
process plus the sweep pool's two workers never use more threads than
a 2-core machine has.  Everything the run writes stays under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("logic_k1", "grid_sparse", "mc_lockstep", "sweep_cached")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 3
SETUP_TIMEOUT = 120.0
#: Size of the speed probe (loop iterations, batched solves), and its
#: time on the reference host when nothing else slows it (README.md).
PROBE_LOOP = 75_000
PROBE_BATCHES = 20
PROBE_REFERENCE_S = 0.0110
#: The tail is the highest percentile with at least this many job
#: samples beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "job_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "job_tail_ms": "ms",
    "circuit.parse_s": "s",
    "circuit.sources_s": "s",
    "lint.check_s": "s",
    "mna.build_s": "s",
    "core.stepper.march_s": "s",
    "core.stepper.self_s": "s",
    "core.stepper.steps": "count",
    "core.stepper.rejected": "count",
    "core.stepper.steps_at_hmin": "count",
    "core.stepper.us_per_step": "us",
    "swec.chords_s": "s",
    "swec.chord_calls": "count",
    "core.backends.stamp_s": "s",
    "core.backends.solve_s": "s",
    "core.backends.matvec_s": "s",
    "mna.factor_s": "s",
    "mna.backsolve_s": "s",
    "mna.stack_solve_s": "s",
    "mna.factorizations": "count",
    "mna.linear_solves": "count",
    "mna.factor_reuses": "count",
    "swec.timestep.control_s": "s",
    "analysis.record_s": "s",
    "pss.solve_s": "s",
    "pss.march_s": "s",
    "pss.tangent_s": "s",
    "pss.monodromy_s": "s",
    "pss.newton_iters": "count",
    "stochastic.paths": "paths",
    "stochastic.batches": "count",
    "stochastic.normals_s": "s",
    "stochastic.control_s": "s",
    "stochastic.variance_reduction": "ratio",
    "paths_to_ci.naive": "paths",
    "paths_to_ci.cv": "paths",
    "runtime.batch_s": "s",
    "runtime.job_s": "s",
    "runtime.dispatch_s": "s",
    "runtime.retries": "count",
    "runtime.failed": "count",
    "service.key_s": "s",
    "service.get_s": "s",
    "service.put_s": "s",
    "service.hits": "count",
    "service.misses": "count",
    "service.bytes_written": "bytes",
    "sweep.run_s": "s",
    "sweep.points": "count",
    "cold_point_ms": "ms",
    "warm_point_ms": "ms",
    "failed_frac": "ratio",
    "job_tail_pct": "%",
    "job_samples": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: Per-layer metrics that are self times of one span name.
SELF_TIMES = {
    "circuit.parse_s": "circuit.parse",
    "circuit.sources_s": "circuit.sources",
    "lint.check_s": "lint.check",
    "mna.build_s": "mna.build",
    "core.stepper.self_s": "core.stepper.march",
    "swec.chords_s": "swec.chords",
    "core.backends.stamp_s": "core.backends.stamp",
    "core.backends.solve_s": "core.backends.solve",
    "core.backends.matvec_s": "core.backends.matvec",
    "mna.factor_s": "mna.factor",
    "mna.backsolve_s": "mna.backsolve",
    "mna.stack_solve_s": "mna.stack_solve",
    "swec.timestep.control_s": "swec.timestep.control",
    "analysis.record_s": "analysis.record",
    "stochastic.normals_s": "stochastic.normals",
    "service.key_s": "service.key",
    "service.get_s": "service.get",
    "service.put_s": "service.put",
}


@dataclass
class PassResult:
    """Timings, failures and exact counters of one pass."""

    #: Raw wall time of the pass's jobs, probes left out.
    wall: float
    #: Raw CPU seconds of each job (:func:`cpu_clock`).
    seconds: dict[str, float]
    #: Speed-probe seconds around each job (mean of before and after).
    probe: dict[str, float]
    failures: dict[str, str]
    counters: dict = field(default_factory=dict)

    def normalized(self) -> dict[str, float]:
        """Job times at the reference host speed (see :func:`speed_probe`)."""
        return {label: seconds * PROBE_REFERENCE_S / self.probe[label]
                for label, seconds in self.seconds.items()}


_PROBE_ARRAYS: list = []


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its reaped children.

    Time a process spends waiting for a CPU (other processes, a CPU
    quota, the hypervisor) is not counted, so a job's time does not
    depend on what else the host runs.  The children term carries the
    work of pool workers, which ``BatchRunner`` joins before a sweep
    returns.
    """
    return time.process_time() + children_cpu()


def children_cpu() -> float:
    """CPU seconds of every child process that has ended and been reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def speed_probe() -> float:
    """CPU seconds a fixed piece of work takes: the host's speed now.

    A shared host slows every process on it by up to 2x for seconds to
    minutes at a time, in CPU time as much as in wall time, more than
    any bound a benchmark could hold.  The slowdown scales a job and
    this probe alike, so a job time times ``PROBE_REFERENCE_S / probe``
    reads about the same in a slow spell as in a quiet one.  The probe
    mixes the simulator's two kinds of work: a pure-Python loop
    (interpreter-bound, like the K = 1 march) and batched small solves
    and element-wise maths (like the lockstep ensembles); a slow spell
    stretches the first less than the jobs and the second more.  It
    runs no ``repro`` code, so a change to the program cannot move it.
    """
    import numpy as np

    if not _PROBE_ARRAYS:
        rng = np.random.default_rng(0)
        _PROBE_ARRAYS.extend((rng.standard_normal((256, 8, 8)) + 8.0 * np.eye(8),
                              rng.standard_normal((256, 8, 1)),
                              rng.standard_normal((256, 64))))
    matrices, rhs, block = _PROBE_ARRAYS
    start = time.process_time()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    for _ in range(PROBE_BATCHES):
        np.linalg.solve(matrices, rhs)
        np.exp(block).sum()
    return time.process_time() - start


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_sample(args) -> float:
    """CPU seconds for a fresh interpreter to import, build and warm up.

    The child's CPU time (its pool workers' included) from the parent's
    ``RUSAGE_CHILDREN``, raw: set-up is mostly imports, which a slow
    spell barely stretches, and the child may run on another CPU than
    a probe in this process would time, so dividing by the probe made
    ``setup_s`` spread more (README.md, Host speed).
    """
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    start = children_cpu()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as child:
        line = child.stdout.readline()
        child.stdout.read()
        code = child.wait(timeout=SETUP_TIMEOUT)
    used = children_cpu() - start
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited with {code} before it was ready")
    return used


def run_pass(workload, tracer=None) -> PassResult:
    """One closed-loop pass over the job list, then the output checks."""
    jobs = workload.jobs()
    workload.begin_pass()
    gc.collect()
    outputs, seconds, probe = {}, {}, {}
    wall = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            before = speed_probe()
            w0, t0 = time.perf_counter(), cpu_clock()
            try:
                outputs[job.label] = job.fn()
            except Exception as exc:  # a failing job is counted, not fatal
                outputs[job.label] = exc
            seconds[job.label] = cpu_clock() - t0
            wall += time.perf_counter() - w0
            probe[job.label] = 0.5 * (before + speed_probe())
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.job = -1
    workload.end_pass()
    failures = {}
    for job in jobs:
        output = outputs[job.label]
        if isinstance(output, Exception):
            failures[job.label] = f"{type(output).__name__}: {output}"
            continue
        try:
            reason = workload.check(job, output, outputs)
        except Exception as exc:  # a check that cannot run is a failure
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures[job.label] = reason
    counters = {} if failures else workload.counters(jobs, outputs)
    return PassResult(wall, seconds, probe, failures, counters)


def job_times(passes: list[PassResult]) -> dict[str, float]:
    """Each job's median normalized time over *passes*.

    Every pass runs every job once, so the median is over one sample a
    pass; the pass count is fixed by ``--seconds``.
    """
    series = [p.normalized() for p in passes]
    return {label: statistics.median(s[label] for s in series) for label in series[0]}


def job_statistics(passes: list[PassResult]) -> dict:
    """Median and tail normalized job time over every job of *passes*.

    Empty (all zero) when the passes hold too few jobs for a tail.
    """
    samples = sorted(t for p in passes for t in p.normalized().values())
    n = len(samples)
    if n <= TAIL_BEYOND:
        return {}
    return {
        "job_p50_ms": 1e3 * statistics.median(samples),
        # samples[n - 1 - TAIL_BEYOND] has exactly TAIL_BEYOND samples above it.
        "job_tail_ms": 1e3 * samples[n - 1 - TAIL_BEYOND],
        "job_tail_pct": 100.0 * (n - TAIL_BEYOND) / n,
        "job_samples": n,
    }


def environment() -> dict:
    import numpy
    import scipy

    import repro

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "threads_per_process": int(os.environ["OMP_NUM_THREADS"]),
    }


def pass_count(workload, seconds: float, traced: bool) -> int:
    """Passes that fill *seconds* at the workload's nominal pass time.

    The count depends only on ``--seconds``, never on how fast a pass
    ran, so every run of a workload times the same jobs and its
    percentiles stay comparable between commits.
    """
    share = 2.0 if traced else 1.0
    return max(1, math.ceil(seconds / (share * workload.pass_seconds)))


def run_passes(workload, seconds: float, tracer=None):
    """Untraced passes, alternating with traced ones when *tracer* is given."""
    plain, traced, summaries = [], [], []
    for _ in range(pass_count(workload, seconds, tracer is not None)):
        plain.append(run_pass(workload))
        if tracer is None:
            continue
        traced.append(run_pass(workload, tracer))
        if not summaries:
            summaries.append((tracer.summary(), list(tracer.captured)))
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            tracer.save(out / f"spans-{workload.name}-seed{workload.seed}.npz")
        tracer.clear()
    return plain, traced, summaries


def layer_metrics(summary, captured, counters, plain, traced, workload) -> dict:
    """The per-layer metrics of one traced pass (0 where a layer is idle)."""
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, span in SELF_TIMES.items():
        metrics[name] = summary.self_s(span)
    for name, value in counters.items():
        if name in metrics:
            metrics[name] = value
    march = summary.inclusive_s("core.stepper.march")
    metrics["core.stepper.march_s"] = march
    steps = counters.get("core.stepper.steps", 0)
    metrics["core.stepper.us_per_step"] = 1e6 * march / steps if steps else 0.0
    metrics["trace.unattributed_frac"] = (
        summary.self_s("core.stepper.march") / march if march else 0.0)
    metrics["swec.chord_calls"] = summary.count("swec.chords")

    solve = summary.inclusive_s("pss.solve")
    pss_march = summary.child_inclusive_s("swec.run_grid", "pss.solve")
    tangent = summary.child_inclusive_s("pss.tangent", "pss.solve")
    build = summary.child_inclusive_s("mna.build", "pss.solve")
    metrics["pss.solve_s"] = solve
    metrics["pss.march_s"] = pss_march
    metrics["pss.tangent_s"] = tangent
    metrics["pss.monodromy_s"] = max(solve - pss_march - tangent - build, 0.0)
    metrics["stochastic.control_s"] = summary.inclusive_s("stochastic.control")

    batch = summary.inclusive_s("runtime.batch")
    results = [r for report in captured for r in report.results]
    job_seconds = sum(r.seconds for r in results)
    metrics["runtime.batch_s"] = batch
    metrics["runtime.job_s"] = job_seconds
    metrics["runtime.dispatch_s"] = batch - sum(
        sum(r.seconds for r in report.results) / max(report.workers, 1)
        for report in captured)
    metrics["runtime.retries"] = sum(r.attempts - 1 for r in results)
    metrics["runtime.failed"] = sum(not r.ok for r in results)
    metrics["sweep.run_s"] = summary.inclusive_s("sweep.run")

    if workload.name == "sweep_cached":
        from workloads import SWEEP_POINTS

        times = job_times(plain)
        for kind in ("cold", "warm"):
            metrics[f"{kind}_point_ms"] = 1e3 * times[kind] / SWEEP_POINTS
    metrics.update(job_statistics(plain))
    attempted = sum(len(p.seconds) for p in plain + traced)
    failed = sum(len(p.failures) for p in plain + traced)
    metrics["failed_frac"] = failed / attempted
    metrics["trace.overhead_frac"] = (
        sum(job_times(traced).values()) / sum(job_times(plain).values()) - 1.0)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root of "
              f"a repository checkout", file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        try:
            workload.setup()
            workload.warmup()
        finally:
            workload.close()
        print("ready", flush=True)
        return 0

    setup = statistics.median(setup_sample(args) for _ in range(SETUP_SAMPLES))
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.calibrate()
    try:
        workload.setup()
        workload.warmup()
        plain, traced, summaries = run_passes(workload, args.seconds, tracer)
    finally:
        workload.close()

    passes = plain + traced
    attempted = sum(len(p.seconds) for p in passes)
    failures = {label: reason for p in passes for label, reason in p.failures.items()}
    failed = sum(len(p.failures) for p in passes)
    counters = [p.counters for p in passes if not p.failures]
    repeatable = all(c == counters[0] for c in counters)
    first = counters[0] if counters else {}

    if tracer is None:
        times = job_times(plain)
        metrics = {
            "setup_s": setup,
            "pass_s": sum(times.values()),
            "job_p50_ms": 1e3 * statistics.median(times.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        summary, captured = summaries[0]
        metrics = layer_metrics(summary, captured, first, plain, traced, workload)
        units = PER_LAYER

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "environment": environment(),
        "counters": first,
        "counters_repeat": repeatable,
        "failures": failures,
    }
    if tracer is None:
        record["jobs"] = len(times)
        record["pass_wall_median_s"] = statistics.median(p.wall for p in plain)
        record["pass_cpu_median_s"] = statistics.median(
            sum(p.seconds.values()) for p in plain)
        record["host_slowdown"] = statistics.median(
            p.probe[label] / PROBE_REFERENCE_S for p in plain for label in p.probe)
    else:
        record["trace_overhead_per_span_us"] = 1e6 * tracer.overhead
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
