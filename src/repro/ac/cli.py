"""Command-line entry point: ``python -m repro.ac``.

Mirrors the sweep CLI: the circuit comes from a netlist file or a
registered :mod:`repro.circuits_lib` template, the frequency grid from
``--start/--stop/--points/--scale``, and the output is a down-sampled
Bode table plus the derived measures (and, with ``--noise``, the
Johnson noise spectrum)::

    python -m repro.ac --template fet_rtd_inverter --source Vin \\
        --bias Vin=2.0 --start 1e3 --stop 1e12 --points 200 --node out
    python -m repro.ac lowpass.cir --start 1e3 --stop 1e9 \\
        --noise --csv bode.csv

Exit status 0 on success, 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.errors import AnalysisError, NanoSimError
from repro.runtime.cli import (add_circuit_arguments,
                               check_circuit_arguments, circuit_template,
                               key_value, read_netlist, row_indices)


def _print_bode(result, node: str, max_rows: int) -> None:
    print(f"\nBode plot of V({node})/{result.source_name} "
          f"({len(result)} points):")
    print(f"  {'freq Hz':>12} {'|H| dB':>10} {'phase deg':>10}")
    rows = result.bode_rows(node)
    for k in row_indices(len(rows), max_rows):
        frequency, magnitude_db, phase = rows[k]
        print(f"  {frequency:>12.4g} {magnitude_db:>10.2f} "
              f"{phase:>10.1f}")


def _print_measures(result, node: str) -> None:
    gain = result.low_frequency_gain(node)
    print(f"\nderived measures at {node!r}:")
    print(f"  low-frequency gain   {abs(gain):.6g} "
          f"({20.0 * np.log10(abs(gain)):.2f} dB)"
          if abs(gain) > 0.0 else "  low-frequency gain   0")
    for label, method in (("-3 dB bandwidth", result.bandwidth_3db),
                          ("unity-gain frequency",
                           result.unity_gain_frequency)):
        try:
            print(f"  {label:<20} {method(node):.6g} Hz")
        except AnalysisError as exc:
            print(f"  {label:<20} n/a ({exc})")
    try:
        print(f"  {'phase margin':<20} {result.phase_margin(node):.2f} deg")
    except AnalysisError as exc:
        print(f"  {'phase margin':<20} n/a ({exc})")


def _print_noise(noise, node: str, max_rows: int) -> None:
    psd = noise.psd(node)
    print(f"\nJohnson noise at {node!r} (T={noise.temperature:g} K):")
    print(f"  {'freq Hz':>12} {'S_v V^2/Hz':>12}")
    for k in row_indices(len(noise), max_rows):
        print(f"  {noise.frequencies[k]:>12.4g} {psd[k]:>12.4g}")
    print(f"  integrated RMS over the analysed band: "
          f"{noise.integrated_rms(node):.4g} V")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ac",
        description="Small-signal AC (and Johnson noise) analysis.",
    )
    add_circuit_arguments(parser)
    parser.add_argument("--source", default=None,
                        help="AC-driven source (default: first source)")
    parser.add_argument("--bias", action="append", type=key_value,
                        default=[], metavar="SOURCE=VALUE",
                        help="DC bias override for a source (repeatable)")
    parser.add_argument("--start", type=float, default=1e3,
                        help="first frequency in Hz (default 1e3)")
    parser.add_argument("--stop", type=float, default=1e9,
                        help="last frequency in Hz (default 1e9)")
    parser.add_argument("--points", type=int, default=101,
                        help="grid points (per decade with --scale "
                             "decade; default 101)")
    parser.add_argument("--scale", choices=("linear", "log", "decade"),
                        default="log", help="grid spacing (default log)")
    parser.add_argument("--node", default=None,
                        help="observed node (default: last node)")
    from repro.core.backends import available_backends

    parser.add_argument("--backend", default=None,
                        choices=available_backends(),
                        help="solver backend for the frequency solves "
                             "(default: stack, the batched path)")
    parser.add_argument("--noise", action="store_true",
                        help="also compute the Johnson noise spectrum")
    parser.add_argument("--temperature", type=float, default=300.0,
                        help="noise temperature in kelvin (default 300)")
    parser.add_argument("--rows", type=int, default=15,
                        help="table rows to print (default 15)")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write the Bode table as CSV")
    args = parser.parse_args(argv)

    check_circuit_arguments(parser, args)

    from repro.ac import ACAnalysis, frequency_grid
    from repro.runtime.jobs import materialize_circuit

    try:
        template, params = circuit_template(args)
        source = args.source
        if source is None and template is not None:
            source = template.ac_source
        circuit = materialize_circuit(None, args.template,
                                      read_netlist(args), params)
        # One ACAnalysis = one bias solve, shared by the Bode sweep
        # and the --noise spectra.
        analysis = ACAnalysis(circuit, source=source,
                              bias=dict(args.bias),
                              backend=args.backend)
        result = analysis.solve(frequency_grid(
            args.start, args.stop, args.points, args.scale))
        node = args.node or result.node_names[-1]
        _print_bode(result, node, args.rows)
        _print_measures(result, node)
        if args.noise:
            noise = analysis.noise(result.frequencies,
                                   temperature=args.temperature)
            _print_noise(noise, node, args.rows)
        if args.csv:
            result.to_csv(args.csv)
            print(f"\nwrote {args.csv}")
    except (NanoSimError, OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
