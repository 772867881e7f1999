"""Command-line entry point: ``python -m repro.runtime jobs.toml``.

The job-spec file is TOML (Python 3.11+, via :mod:`tomllib`) or JSON
(any version).  Schema::

    [batch]                # all keys optional
    workers = 4
    executor = "process"   # process | thread | serial
    seed = 42
    timeout = 120.0        # per-job wall-clock limit (seconds)
    retries = 2            # extra attempts for transient failures

    [[jobs]]
    type = "transient"     # default
    label = "inverter"
    circuit = "fet_rtd_inverter"   # repro.circuits_lib builder name
    t_stop = 1e-8
    engine = "swec"                # swec | spice | mla | aces
    backend = "auto"               # SWEC solver backend: dense |
                                   # sparse | stack | auto
    [jobs.params]                  # builder keyword arguments
    [jobs.options]                 # flat engine + step-control options
    epsilon = 0.05
    h_max = 2e-10

    [[jobs]]
    type = "ensemble"
    label = "noise-band"
    sde = "noisy_rc_node"          # SDE builder name
    t_final = 5e-9
    steps = 2000
    n_paths = 400

    [[jobs]]
    type = "ensemble_transient"    # K instances per batched solve
    label = "inverter-corners"
    circuit = "fet_rtd_inverter"
    t_stop = 2e-8
    steps = 400                    # fixed grid (required with noise)
    node = "out"                   # reduce to EnsembleStatistics
    variations = [                 # and/or n_instances = K
        { load_capacitance = 0.5e-12 },
        { load_capacitance = 2e-12 },
    ]

Noisy ensemble jobs accept the variance-reduction knobs of
:mod:`repro.stochastic.vr` — ``antithetic``, ``target_ci``,
``target_rel_ci``, ``max_trials``, ``batch_size`` and (for
``ensemble_transient``) ``control_variate`` — either as job keys or as
the ``--antithetic``/``--control-variate``/``--target-ci``/
``--target-rel-ci``/``--max-trials`` command-line overrides, which
apply to every ensemble job in the spec.

The exit status is 0 when every job succeeded, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import AnalysisError
from repro.runtime.jobs import job_from_mapping
from repro.runtime.runner import BatchRunner

try:
    import tomllib
except ImportError:  # Python 3.10: TOML specs need 3.11+, JSON always works
    tomllib = None


def load_spec(path: str | Path) -> dict:
    """Parse a ``.toml`` or ``.json`` job-spec file."""
    path = Path(path)
    if not path.exists():
        raise AnalysisError(f"job-spec file not found: {path}")
    if path.suffix.lower() == ".json":
        return json.loads(path.read_text())
    if tomllib is None:
        raise AnalysisError(
            "TOML job specs need Python 3.11+ (tomllib); "
            "use a .json spec on older interpreters"
        )
    with open(path, "rb") as handle:
        return tomllib.load(handle)


def jobs_from_spec(spec: dict) -> list:
    """Build the job list from a deserialized spec."""
    tables = spec.get("jobs", [])
    if not tables:
        raise AnalysisError("job-spec file defines no [[jobs]] entries")
    return [job_from_mapping(table) for table in tables]


def apply_vr_overrides(
    jobs: list,
    *,
    antithetic: bool = False,
    control_variate: bool = False,
    target_ci: float | None = None,
    target_rel_ci: float | None = None,
    max_trials: int | None = None,
) -> list:
    """Apply command-line variance-reduction knobs to ensemble jobs.

    Overrides land on every :class:`~repro.runtime.jobs.EnsembleJob`
    and :class:`~repro.runtime.jobs.EnsembleTransientJob` in the spec
    (``control_variate`` on the latter only — SDE ensembles are linear
    by construction, so a linearized control is the signal itself).
    Other job types pass through untouched; a spec with no ensemble
    job at all is an error, because the flags would silently do
    nothing.
    """
    import dataclasses

    from repro.runtime.jobs import EnsembleJob, EnsembleTransientJob

    overrides = {
        key: value
        for key, value in (
            ("target_ci", target_ci),
            ("target_rel_ci", target_rel_ci),
            ("max_trials", max_trials),
        )
        if value is not None
    }
    if antithetic:
        overrides["antithetic"] = True
    if not overrides and not control_variate:
        return jobs
    updated = []
    touched = 0
    for job in jobs:
        if isinstance(job, EnsembleTransientJob):
            extra = {"control_variate": True} if control_variate else {}
            job = dataclasses.replace(job, **overrides, **extra)
            touched += 1
        elif isinstance(job, EnsembleJob):
            if control_variate:
                raise AnalysisError(
                    "--control-variate applies to ensemble_transient "
                    "jobs (SDE ensembles are linear, so the linearized "
                    "control is the signal itself)"
                )
            job = dataclasses.replace(job, **overrides)
            touched += 1
        updated.append(job)
    if not touched:
        raise AnalysisError(
            "variance-reduction flags (--antithetic/--control-variate/"
            "--target-ci/--target-rel-ci/--max-trials) need at least "
            "one ensemble or ensemble_transient job in the spec"
        )
    return updated


def add_batch_arguments(parser: argparse.ArgumentParser) -> None:
    """The batch flags of ``python -m repro.runtime`` and ``repro.sweep``;
    every default is ``None`` (the spec's setting applies)."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count (default: [batch].workers, else CPU count)",
    )
    parser.add_argument(
        "--executor",
        choices=("process", "thread", "serial"),
        default=None,
        help="execution backend (default: [batch].executor, else process)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base RNG seed (default: [batch].seed, else 0)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-job wall-clock limit; a hung worker is killed and the "
            "job retried or failed (default: [batch].timeout, else none)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "extra attempts for jobs failing with transient errors — "
            "timeouts, worker crashes, singular factorizations "
            "(default: [batch].retries, else 0); retried jobs re-run "
            "under their original seeds, so results are bit-identical"
        ),
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help=(
            "consult the content-addressed result store before running "
            "each job (PATH, or the default store with no argument)"
        ),
    )
    parser.add_argument(
        "--antithetic",
        action="store_true",
        default=None,
        help=(
            "simulate mirrored path pairs in every ensemble job "
            "(exact variance elimination for linear responses)"
        ),
    )
    parser.add_argument(
        "--control-variate",
        action="store_true",
        default=None,
        help=(
            "pair each ensemble_transient path with a linearized-"
            "circuit control driven by the same noise (SDE ensemble "
            "sweeps reject it: their paths are linear already)"
        ),
    )
    parser.add_argument(
        "--target-ci",
        type=float,
        default=None,
        metavar="WIDTH",
        help=(
            "stop ensemble jobs early once the confidence-interval "
            "half-width is at most WIDTH (absolute units)"
        ),
    )
    parser.add_argument(
        "--target-rel-ci",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "stop ensemble jobs early once the CI half-width is at "
            "most FRACTION of the peak mean magnitude"
        ),
    )
    parser.add_argument(
        "--max-trials",
        type=int,
        default=None,
        metavar="K",
        help="adaptive-stopping backstop: never simulate more than K paths",
    )


def key_value(text: str) -> tuple[str, float]:
    """Parse one ``name=value`` CLI item."""
    name, separator, value = text.partition("=")
    if not separator or not name:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{name!r}: non-numeric value {value!r}"
        ) from None


def add_circuit_arguments(parser: argparse.ArgumentParser) -> None:
    """The netlist-or-template flags of ``python -m repro.ac`` and
    ``repro.pss``; :func:`check_circuit_arguments` checks them."""
    parser.add_argument(
        "netlist", nargs="?", default=None, help="netlist file (or use --template)"
    )
    parser.add_argument(
        "--template", default=None, help="registered circuits_lib template name"
    )
    parser.add_argument(
        "--param",
        action="append",
        type=key_value,
        default=[],
        metavar="NAME=VALUE",
        help="template/netlist parameter override (repeatable)",
    )


def check_circuit_arguments(parser: argparse.ArgumentParser, args) -> None:
    """Require exactly one of the netlist file and ``--template``."""
    if args.netlist is not None and args.template is not None:
        parser.error("give a netlist file or --template, not both")
    if args.netlist is None and args.template is None:
        parser.error("a netlist file (or --template) is required")


def read_netlist(args) -> str | None:
    """The netlist file's text, or None for a ``--template`` run."""
    return None if args.netlist is None else Path(args.netlist).read_text()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Run a batch of Nano-Sim simulation jobs in parallel.",
    )
    parser.add_argument("spec", help="job-spec file (.toml or .json)")
    add_batch_arguments(parser)
    args = parser.parse_args(argv)

    try:
        spec = load_spec(args.spec)
        jobs = jobs_from_spec(spec)
        jobs = apply_vr_overrides(
            jobs,
            antithetic=args.antithetic,
            control_variate=args.control_variate,
            target_ci=args.target_ci,
            target_rel_ci=args.target_rel_ci,
            max_trials=args.max_trials,
        )
        batch = spec.get("batch", {})
        if not isinstance(batch, dict):
            raise AnalysisError(f"[batch] must be a table, got {batch!r}")
        runner = BatchRunner(
            max_workers=(
                args.workers if args.workers is not None else batch.get("workers")
            ),
            executor=(
                args.executor
                if args.executor is not None
                else batch.get("executor", "process")
            ),
            seed=args.seed if args.seed is not None else batch.get("seed", 0),
            timeout=(
                args.timeout if args.timeout is not None else batch.get("timeout")
            ),
            retries=(
                args.retries if args.retries is not None else batch.get("retries")
            ),
        )
    except (AnalysisError, TypeError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError and tomllib.TOMLDecodeError.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cache is not None:
        from repro.service import ResultStore, run_batch_cached

        report = run_batch_cached(runner, jobs, ResultStore.resolve(args.cache))
    else:
        report = runner.run(jobs)
    print(report.summary())
    for result in report.results:
        value = result.value
        if result.ok and hasattr(value, "stopped_early"):
            print(
                f"  vr[{result.index}] {result.label}: "
                f"n_simulated={value.n_simulated} "
                f"n_batches={value.n_batches} "
                f"stopped_early={value.stopped_early} "
                f"variance_reduction={value.variance_reduction:.3g}"
            )
    for result in report.failures():
        if result.traceback:
            print(
                f"\n--- traceback [{result.index}] {result.label} ---",
                file=sys.stderr,
            )
            print(result.traceback, file=sys.stderr)
    return 0 if report.ok else 1
