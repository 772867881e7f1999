"""``repro-lint`` / ``python -m repro.lint`` command-line interface.

Lint one or more netlist files and render the reports as text or
JSON::

    repro-lint design.cir
    repro-lint design.cir --json
    repro-lint a.cir b.cir --fail-on warning
    repro-lint family.cir --param rload=0

Exit status: ``0`` when every report passes the ``--fail-on``
threshold, ``1`` when at least one fails, ``2`` on usage errors
(unreadable file, bad ``--param``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.analyzer import lint_netlist
from repro.lint.checks import CHECKS, PARSE_CHECK_IDS
from repro.runtime.cli import cli_entry


def _parse_params(entries: list[str]) -> dict[str, float]:
    params: dict[str, float] = {}
    for entry in entries:
        name, separator, value = entry.partition("=")
        if not separator or not name:
            raise SystemExit(
                f"repro-lint: bad --param {entry!r} (expected name=value)"
            )
        try:
            params[name] = float(value)
        except ValueError:
            raise SystemExit(
                f"repro-lint: bad --param value {value!r} (expected a "
                f"number)"
            ) from None
    return params


def _list_checks() -> str:
    rows = [
        f"  {check.check_id:<22} {check.severity:<8} {check.title}"
        for check in CHECKS.values()
    ]
    rows.extend(
        f"  {check_id:<22} {'error':<8} {title}"
        for check_id, title in PARSE_CHECK_IDS.items()
    )
    return "registered checks:\n" + "\n".join(sorted(rows))


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static topology analysis for SPICE-dialect netlists: "
            "floating nodes, capacitor-only cuts, structurally "
            "singular MNA rows, source loops, implausible values."
        ),
    )
    parser.add_argument(
        "files", nargs="*", type=Path, help="netlist file(s) to lint"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON array of reports instead of text",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "info"),
        default="error",
        help="exit non-zero when a report reaches this severity "
        "(default: error)",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help=".PARAM override applied to every file (repeatable)",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="print the check registry and exit",
    )
    return parser


def _fails(report, threshold: str) -> bool:
    if threshold == "error":
        return report.errors > 0
    if threshold == "warning":
        return report.errors + report.warnings > 0
    return bool(report.diagnostics)


@cli_entry
def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_checks:
        print(_list_checks())
        return 0
    if not args.files:
        parser.error("no netlist files given")
    params = _parse_params(args.param)
    reports = []
    for path in args.files:
        try:
            text = path.read_text()
        except OSError as exc:
            print(f"repro-lint: cannot read {path}: {exc}",
                  file=sys.stderr)
            return 2
        reports.append(lint_netlist(text, params=params, name=str(path)))
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2,
                         sort_keys=True))
    else:
        print("\n\n".join(r.render() for r in reports))
    return 1 if any(_fails(r, args.fail_on) for r in reports) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
