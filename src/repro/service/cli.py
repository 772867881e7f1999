"""Command-line entry point: ``python -m repro.service <command>``.

Four subcommands::

    serve    run the job daemon on a Unix socket
    submit   send every [[jobs]] entry of a spec file to a daemon
    status   print a running daemon's counters as JSON
    gc       garbage-collect a result store (no daemon needed)

Examples::

    python -m repro.service serve --socket /tmp/repro.sock \\
        --store /tmp/repro-store --workers 4
    python -m repro.service submit jobs.toml --socket /tmp/repro.sock
    python -m repro.service status --socket /tmp/repro.sock
    python -m repro.service gc --store /tmp/repro-store --max-age-days 7

``submit`` runs every job under ``--seed``, else the spec's ``[batch]
seed``, else 0; any other ``[batch]`` key is an error (exit 2), since
``serve`` owns the worker pool.  It exits 0 when every job succeeded,
1 otherwise; ``--json`` writes the final event list (records, cached
flags) for scripting.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import NanoSimError
from repro.runtime.cli import (
    check_batch,
    cli_entry,
    config_error,
    job_tables,
    load_spec,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon, default_socket_path
from repro.service.store import ResultStore


def _add_socket(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="daemon socket path (default: <store-root>/daemon.sock)",
    )


def _socket_path(args) -> str:
    if args.socket is not None:
        return args.socket
    return str(default_socket_path())


def _cmd_serve(args) -> int:
    daemon = ServiceDaemon(
        socket_path=args.socket,
        store=args.store,
        max_workers=args.workers,
        executor=args.executor,
        progress_interval=args.progress_interval,
    )
    print(
        f"repro.service daemon: socket={daemon.socket_path} "
        f"store={daemon.store.root} executor={daemon.executor} "
        f"workers={daemon.max_workers}",
        flush=True,
    )
    daemon.run()
    return 0


def _cmd_submit(args) -> int:
    spec = load_spec(args.spec)
    tables = job_tables(spec)
    batch = spec.get("batch", {})
    check_batch(batch)
    pool_keys = sorted(set(batch) - {"seed"})
    if pool_keys:
        raise NanoSimError(
            f"[batch] key(s) {pool_keys} set the worker pool, which "
            f"'serve' owns; 'submit' takes only [batch] seed"
        )
    seed = batch.get("seed", 0) if args.seed is None else args.seed
    client = ServiceClient(_socket_path(args), timeout=args.timeout)
    finals = []
    failures = 0
    for index, table in enumerate(tables):
        label = table.get("label", f"job-{index}")

        def show(event, label=label):
            name = event.get("event")
            if name == "running" and not args.quiet:
                seconds = event.get("seconds")
                tick = f" ({seconds:.1f} s)" if seconds else ""
                print(f"  {label}: running{tick}", flush=True)

        final = client.submit(
            table, seed=seed, cache=not args.no_cache, on_event=show
        )
        finals.append(final)
        if final.get("event") == "done":
            source = "cache" if final.get("cached") else "pool"
            print(
                f"  {label}: done [{source}] "
                f"{final.get('seconds', 0.0):.3f} s",
                flush=True,
            )
        else:
            failures += 1
            print(
                f"  {label}: FAILED: {final.get('error')}",
                file=sys.stderr,
                flush=True,
            )
    print(
        f"submitted {len(tables)} job(s): {len(tables) - failures} ok, "
        f"{failures} failed"
    )
    if args.json:
        Path(args.json).write_text(json.dumps(finals, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 1 if failures else 0


def _cmd_status(args) -> int:
    client = ServiceClient(_socket_path(args), timeout=args.timeout)
    status = client.status()
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def _cmd_gc(args) -> int:
    store = ResultStore(args.store)
    max_age = None
    if args.max_age_days is not None:
        max_age = args.max_age_days * 86400.0
    stats = store.gc(max_age_seconds=max_age, max_entries=args.max_entries)
    print(stats.summary())
    return 0


@cli_entry
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Simulation-as-a-service: job daemon + content-addressed "
            "result cache."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the job daemon")
    _add_socket(serve)
    serve.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="result store root (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker pool width (default: CPU count)",
    )
    serve.add_argument(
        "--executor",
        choices=("process", "thread"),
        default="process",
        help="worker pool flavour (default: process)",
    )
    serve.add_argument(
        "--progress-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="heartbeat period for running jobs (default: 1.0)",
    )
    serve.set_defaults(handler=_cmd_serve)

    submit = commands.add_parser(
        "submit", help="submit a job-spec file to a running daemon"
    )
    submit.add_argument("spec", help="job-spec file (.toml or .json)")
    _add_socket(submit)
    submit.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed per job (default: the spec's [batch] seed, else 0)",
    )
    submit.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache for every job",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="socket read timeout in seconds (default: 300)",
    )
    submit.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the final event list as JSON",
    )
    submit.add_argument(
        "--quiet", action="store_true", help="suppress running heartbeats"
    )
    submit.set_defaults(handler=_cmd_submit)

    status = commands.add_parser("status", help="print a running daemon's counters")
    _add_socket(status)
    status.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="socket read timeout in seconds (default: 30)",
    )
    status.set_defaults(handler=_cmd_status)

    gc = commands.add_parser("gc", help="garbage-collect a result store on disk")
    gc.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="result store root (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="evict entries older than this many days",
    )
    gc.add_argument(
        "--max-entries",
        type=int,
        default=None,
        metavar="N",
        help="keep at most N entries (oldest evicted first)",
    )
    gc.set_defaults(handler=_cmd_gc)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (NanoSimError, ServiceError, OSError, ValueError) as exc:
        return config_error(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
