"""Command-line entry point: ``python -m repro.sweep spec.toml``.

Loads a TOML (Python 3.11+) or JSON sweep spec (schema documented on
:meth:`repro.sweep.spec.SweepSpec.from_mapping`), runs the grid on the
batch runtime, prints the tidy summary table and optionally exports it::

    python -m repro.sweep examples/sweep_spec.toml
    python -m repro.sweep spec.toml --workers 8 --csv out.csv --json out.json
    python -m repro.sweep --list-templates

The exit status is 0 when every design point succeeded, 1 when any
failed, 2 on a bad spec.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import NanoSimError
from repro.runtime.cli import (VR_FLAGS, add_batch_arguments, cli_entry,
                               config_error)
from repro.runtime.jobs import VALIDATE_MODES
from repro.sweep.runner import run_sweep
from repro.sweep.spec import load_sweep_spec


def _list_templates() -> str:
    """The ``--list-templates`` table text."""
    from repro.circuits_lib.templates import TEMPLATES

    lines = ["registered sweep templates:"]
    width = max(len(name) for name in TEMPLATES)
    for name in sorted(TEMPLATES):
        template = TEMPLATES[name]
        lines.append(
            f"  {name:<{width}}  [{template.kind:>7}]  "
            f"{template.description}")
        lines.append(
            f"  {'':<{width}}             sweepable: "
            f"{', '.join(template.sweepable)}")
    return "\n".join(lines)


@cli_entry
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Run a parametric design-space sweep in parallel.",
    )
    parser.add_argument("spec", nargs="?", default=None,
                        help="sweep-spec file (.toml or .json)")
    add_batch_arguments(parser)
    parser.add_argument(
        "--vector", type=int, default=None, metavar="N",
        help="march N consecutive SWEC transient points per lockstep "
             "batch (default: [batch].vector, else 1)")
    from repro.core.backends import available_backends

    parser.add_argument(
        "--backend", default=None, choices=available_backends(),
        help="solver backend for every point (default: the spec's "
             "backend setting, else each engine's default)")
    parser.add_argument(
        "--validate", choices=VALIDATE_MODES, default=None,
        help="pre-flight lint every design point (default: the spec's "
             "validate setting, else off); strict refuses broken "
             "points before any solve")
    parser.add_argument(
        "--resume", nargs="?", const="", default=None, metavar="PATH",
        help="resume an interrupted sweep from its checkpoint store "
             "(PATH, or the default store with no argument): completed "
             "points are served from disk, only the rest re-simulate")
    parser.add_argument(
        "--isolate", action="store_true", default=None,
        help="re-run a terminally failed lockstep block point by "
             "point, so one bad design costs only its own row "
             "(default: [batch].isolate, else off)")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write the tidy table as CSV")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full report as JSON")
    parser.add_argument("--list-templates", action="store_true",
                        help="list sweepable circuit templates and exit")
    args = parser.parse_args(argv)

    if args.list_templates:
        print(_list_templates())
        return 0
    if args.spec is None:
        parser.error("a sweep-spec file is required "
                     "(or use --list-templates)")

    try:
        spec = load_sweep_spec(args.spec)
        report = run_sweep(spec, max_workers=args.workers,
                           executor=args.executor, seed=args.seed,
                           vector=args.vector, backend=args.backend,
                           cache=args.cache, validate=args.validate,
                           timeout=args.timeout, retries=args.retries,
                           resume=args.resume, isolate=args.isolate,
                           **{key: getattr(args, key) for key in VR_FLAGS})
    except (NanoSimError, TypeError, ValueError) as exc:
        # ValueError covers json/toml decode errors on malformed
        # files; per-point simulation failures never raise — they are
        # captured in the report, so anything escaping here is a
        # configuration problem.
        return config_error(exc)
    print(report.summary())
    for row in report.failures():
        print(f"  point {row['index']} ({row['label']}): {row['error']}",
              file=sys.stderr)
    if args.csv:
        report.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        report.to_json(args.json)
        print(f"wrote {args.json}")
    return 0 if report.ok else 1
