"""Command-line entry point: ``python -m repro.runtime jobs.toml``.

It is also the batch front end of ``repro.sweep`` and ``repro.service
submit``: one spec reader, one set of flags, one ``[batch]`` resolver.

The job-spec file is TOML (Python 3.11+, via :mod:`tomllib`) or JSON
(any version) holding one table/object.  Schema::

    [batch]                # all keys optional; no others allowed
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

Any other top-level table or ``[batch]`` key is an error.  A flag that
is given overrides its ``[batch]`` key; one left out keeps it.

Noisy ensemble jobs accept the variance-reduction knobs of
:mod:`repro.stochastic.vr` — ``antithetic``, ``target_ci``,
``target_rel_ci``, ``max_trials``, ``batch_size`` and (for
``ensemble_transient``) ``control_variate`` — either as job keys or as
the ``--antithetic``/``--control-variate``/``--target-ci``/
``--target-rel-ci``/``--max-trials`` overrides, which set that key on
every ensemble job.  They are refused when no ensemble job takes them.

The exit status is 0 when every job succeeded, 1 otherwise.

Every CLI of the package runs its ``main`` through :func:`cli_entry`
and reports a configuration error through :func:`config_error`, so a
reader that closes the output early (``| head -1``) ends any of them
quietly with :data:`CLOSED_STDOUT_STATUS`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import select
import sys
from pathlib import Path

import numpy as np

from repro.errors import AnalysisError
from repro.runtime.jobs import job_from_mapping
from repro.runtime.runner import BatchRunner

try:
    import tomllib
except ImportError:  # Python 3.10: TOML specs need 3.11+, JSON always works
    tomllib = None


#: Keys of a job spec's ``[batch]`` table; sweeps add ``vector`` and
#: ``isolate``.
BATCH_KEYS = ("workers", "executor", "seed", "timeout", "retries")

#: The variance-reduction flags of :func:`add_batch_arguments`.
VR_FLAGS = ("antithetic", "control_variate", "target_ci", "target_rel_ci", "max_trials")

#: Exit status of a run whose stdout reader went away: 128 + SIGPIPE,
#: what a shell reports for a process that SIGPIPE ended.
CLOSED_STDOUT_STATUS = 141


def _stdout_closed() -> bool:
    """Whether stdout is a pipe or socket whose reader has gone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return False
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return any(mask & (select.POLLERR | select.POLLHUP) for _, mask in poller.poll(0))


def cli_entry(main):
    """Run the CLI *main* so that a closed stdout ends it quietly.

    A ``BrokenPipeError`` on stdout, raised while *main* prints or
    when its output is flushed, returns :data:`CLOSED_STDOUT_STATUS`
    with nothing on stderr; stdout is pointed at the null device, so
    the interpreter's flush at exit has nowhere left to fail.
    """

    @functools.wraps(main)
    def entry(argv: list[str] | None = None) -> int:
        try:
            status = main(argv)
            sys.stdout.flush()
        except BrokenPipeError:
            if not _stdout_closed():
                raise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return CLOSED_STDOUT_STATUS
        return status

    return entry


def config_error(exc: Exception) -> int:
    """Report *exc* on stderr as a configuration error: status 2.

    A broken pipe on stdout is no such error; it propagates to
    :func:`cli_entry`.
    """
    if isinstance(exc, BrokenPipeError) and _stdout_closed():
        raise exc
    print(f"error: {exc}", file=sys.stderr)
    return 2


def load_spec(path: str | Path) -> dict:
    """Parse a ``.toml`` or ``.json`` job or sweep spec into its table."""
    path = Path(path)
    if not path.exists():
        raise AnalysisError(f"spec file not found: {path}")
    if path.suffix.lower() == ".json":
        document = json.loads(path.read_text())
    elif tomllib is None:
        raise AnalysisError(
            "TOML specs need Python 3.11+ (tomllib); "
            "use a .json spec on older interpreters"
        )
    else:
        with open(path, "rb") as handle:
            document = tomllib.load(handle)
    if not isinstance(document, dict):
        raise AnalysisError(
            f"a spec must be a table/object, got {type(document).__name__}"
        )
    return document


def job_tables(spec: dict) -> list[dict]:
    """The ``[[jobs]]`` tables of a job spec; ``[batch]`` is its only
    other table."""
    unknown = sorted(set(spec) - {"batch", "jobs"})
    if unknown:
        raise AnalysisError(f"unknown top-level table(s) {unknown}")
    tables = spec.get("jobs", [])
    if not tables:
        raise AnalysisError("job-spec file defines no [[jobs]] entries")
    if not all(isinstance(table, dict) for table in tables):
        raise AnalysisError("every [[jobs]] entry must be a table")
    return tables


def check_batch(batch, keys: tuple = BATCH_KEYS, error: type = AnalysisError) -> None:
    """Refuse a ``[batch]`` that is not a table of *keys*."""
    if not isinstance(batch, dict):
        raise error(f"[batch] must be a table, got {batch!r}")
    unknown = sorted(set(batch) - set(keys))
    if unknown:
        raise error(f"unknown [batch] key(s) {unknown}; expected {', '.join(keys)}")


def batch_runner(
    batch,
    flags: dict,
    keys: tuple = BATCH_KEYS,
    error: type = AnalysisError,
    fault_plan=None,
) -> tuple[BatchRunner, dict]:
    """Merge the *flags* that are not None over the ``[batch]`` table
    and build its :class:`BatchRunner`.

    Returns the runner and the merged table, which also carries the
    non-runner *keys* (a sweep's ``vector`` and ``isolate``).  A bad
    ``[batch]`` raises *error* (see :func:`check_batch`).
    """
    check_batch(batch, keys, error)
    merged = {**batch, **{k: v for k, v in flags.items() if v is not None}}
    runner = BatchRunner(
        max_workers=merged.get("workers"),
        executor=merged.get("executor", "process"),
        seed=merged.get("seed", 0),
        timeout=merged.get("timeout"),
        retries=merged.get("retries"),
        fault_plan=fault_plan,
    )
    return runner, merged


def vr_settings(kinds: list, flags: dict, error: type = AnalysisError) -> list:
    """Per-type settings from the variance-reduction *flags*
    (:data:`VR_FLAGS`) that are not None, for job tables or a sweep of
    types *kinds*.

    Only ``ensemble_transient`` and SDE ``ensemble`` types take them;
    *error* is raised when no type does, and for ``control_variate``
    on an SDE ensemble, whose linear paths make the linearized control
    the signal itself.
    """
    settings = {k: v for k, v in flags.items() if v is not None}
    if not settings:
        return [{} for _ in kinds]
    if not {"ensemble", "ensemble_transient"} & set(kinds):
        raise error(
            "variance-reduction flags (antithetic/control_variate/target_ci/"
            "target_rel_ci/max_trials) need an ensemble or "
            "ensemble_transient job, or an ensemble sweep"
        )
    if "ensemble" in kinds and settings.get("control_variate"):
        raise error(
            "control_variate applies to ensemble_transient jobs and "
            "run_circuit_ensemble; SDE ensembles are linear, so the "
            "linearized control is the signal itself"
        )
    sde = {k: v for k, v in settings.items() if k != "control_variate"}
    by_kind = {"ensemble_transient": settings, "ensemble": sde}
    return [by_kind.get(kind, {}) for kind in kinds]


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


def circuit_template(args) -> tuple:
    """The registered template ``--template`` names (None for a netlist
    or an unregistered builder) and the ``--param`` values, with the
    template's integer parameters coerced."""
    from repro.circuits_lib.templates import TEMPLATES

    params = dict(args.param)
    template = None if args.template is None else TEMPLATES.get(args.template)
    if template is not None:
        params = template.coerce(params)
    return template, params


def row_indices(count: int, max_rows: int) -> np.ndarray:
    """At most *max_rows* evenly spread indices into *count* table rows."""
    return np.unique(np.linspace(0, count - 1, max_rows).astype(int))


@cli_entry
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
        runner, _ = batch_runner(
            spec.get("batch", {}), {key: getattr(args, key) for key in BATCH_KEYS}
        )
        tables = job_tables(spec)
        settings = vr_settings(
            [table.get("type", "transient") for table in tables],
            {key: getattr(args, key) for key in VR_FLAGS},
        )
        jobs = [
            job_from_mapping({**table, **extra})
            for table, extra in zip(tables, settings)
        ]
    except (AnalysisError, TypeError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError and tomllib.TOMLDecodeError.
        return config_error(exc)
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
