"""Command-line entry point: ``python -m repro.pss``.

Mirrors the AC CLI: the circuit comes from a netlist file or a
registered :mod:`repro.circuits_lib` template, the analysis mode from
``--period`` (driven) / ``--period-guess`` (autonomous) or the
auto-detected source period, and the output is a convergence summary,
the leading harmonics and a down-sampled one-period waveform table::

    python -m repro.pss --template rtd_relaxation_oscillator \\
        --period-guess 6.3e-10 --node out
    python -m repro.pss clocked.cir --steps 200 --json

Exit status 0 on success, 2 on a configuration or convergence error.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import NanoSimError
from repro.runtime.cli import (add_circuit_arguments,
                               check_circuit_arguments, circuit_template,
                               read_netlist, row_indices)
from repro.runtime.jobs import VALIDATE_MODES


def _print_summary(orbit, node: str) -> None:
    print(f"periodic steady state ({orbit.mode}, "
          f"backend {orbit.backend}):")
    print(f"  period        {orbit.period:.6e} s")
    print(f"  frequency     {orbit.frequency:.6e} Hz")
    print(f"  iterations    {orbit.iterations}")
    print(f"  residual      {orbit.residual:.3e}")
    if orbit.phase_node is not None:
        print(f"  phase node    {orbit.phase_node}")
    print(f"\nmeasures at {node!r}:")
    print(f"  mean          {orbit.mean(node):.6g} V")
    print(f"  amplitude     {orbit.amplitude(node):.6g} V")
    print(f"  peak-to-peak  {orbit.peak_to_peak(node):.6g} V")
    order_cap = min(6, len(orbit) // 2)
    for order in range(1, order_cap):
        print(f"  |harmonic {order}|  "
              f"{orbit.harmonic_magnitude(node, order):.6g} V")


def _print_waveform(orbit, node: str, max_rows: int) -> None:
    print(f"\none period of V({node}) ({len(orbit)} points):")
    print(f"  {'t s':>12} {'V':>12}")
    voltage = orbit.voltage(node)
    for k in row_indices(len(orbit), max_rows):
        print(f"  {orbit.times[k]:>12.5g} {voltage[k]:>12.6g}")


def _json_payload(orbit, node: str) -> dict:
    return {
        "mode": orbit.mode,
        "backend": orbit.backend,
        "period": orbit.period,
        "frequency": orbit.frequency,
        "iterations": orbit.iterations,
        "residual": orbit.residual,
        "residual_history": list(orbit.residual_history),
        "phase_node": orbit.phase_node,
        "node": node,
        "mean": orbit.mean(node),
        "amplitude": orbit.amplitude(node),
        "peak_to_peak": orbit.peak_to_peak(node),
        "harmonics": [orbit.harmonic_magnitude(node, order)
                      for order in range(1, min(6, len(orbit) // 2))],
        "flops": orbit.flops.total,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.pss",
        description="Periodic steady-state (shooting-Newton) analysis.",
    )
    add_circuit_arguments(parser)
    parser.add_argument("--period", type=float, default=None,
                        help="drive period in seconds (driven mode; "
                             "default: auto-detect from the sources)")
    parser.add_argument("--period-guess", type=float, default=None,
                        help="rough period in seconds (autonomous "
                             "mode, free-running oscillators)")
    parser.add_argument("--steps", type=int, default=400,
                        help="uniform steps per period (default 400)")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="periodicity tolerance on max|x(T)-x(0)| "
                             "(default 1e-9)")
    parser.add_argument("--max-iter", type=int, default=10,
                        help="Newton iteration cap (default 10)")
    parser.add_argument("--phase-node", default=None,
                        help="node pinned by the autonomous phase "
                             "condition (default: largest swing)")
    parser.add_argument("--node", default=None,
                        help="observed node (default: last node)")
    from repro.core.backends import available_backends

    parser.add_argument("--backend", default=None,
                        choices=available_backends(),
                        help="solver backend for the shooting marches")
    parser.add_argument("--validate", default="off",
                        choices=VALIDATE_MODES,
                        help="pre-flight lint gating (default off)")
    parser.add_argument("--json", action="store_true",
                        help="print a JSON summary instead of tables")
    parser.add_argument("--rows", type=int, default=15,
                        help="waveform rows to print (default 15)")
    args = parser.parse_args(argv)

    check_circuit_arguments(parser, args)

    from repro.runtime.jobs import PSSJob

    try:
        period_guess = args.period_guess
        template, params = circuit_template(args)
        node = args.node
        if node is None and template is not None:
            node = template.default_node
        job = PSSJob(
            builder=args.template,
            netlist=read_netlist(args),
            params=params,
            period=args.period,
            period_guess=period_guess,
            steps_per_period=args.steps,
            tolerance=args.tol,
            max_iterations=args.max_iter,
            phase_node=args.phase_node,
            backend=args.backend,
            validate=args.validate,
        )
        orbit = job.run()
        if node is None:
            node = orbit.node_names[-1]
        if args.json:
            print(json.dumps(_json_payload(orbit, node), indent=2))
        else:
            _print_summary(orbit, node)
            _print_waveform(orbit, node, args.rows)
    except (NanoSimError, OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
