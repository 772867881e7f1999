"""Headline claim regenerator: "20-30 times speedup comparing with
existing simulators".

We measure the speedup two ways on the NDR-crossing workloads:

* algorithmic cost (flops) — the Table I metric;
* per-point solver work (linear solves + device evaluations per accepted
  point) — the metric that is hardware-independent.

Shape expectation: SWEC wins by roughly an order of magnitude; the
measured factor on our substrate is reported in EXPERIMENTS.md against
the paper's 20-30x.
"""

import time

import numpy as np
import pytest

from conftest import print_rows
from repro.baselines import MlaDC, MlaTransient, SpiceTransient
from repro.baselines.mla import MlaOptions
from repro.baselines.spice import SpiceOptions
from repro.circuit import Pulse
from repro.circuits_lib import rtd_chain, rtd_divider
from repro.mna import ConductanceStamper
from repro.mna.assembler import MnaSystem
from repro.perf.comparison import compare_dc_sweep
from repro.swec import SwecDC, SwecLinearization, SwecOptions, SwecTransient
from repro.swec.dc import SwecDCOptions
from repro.swec.timestep import StepControlOptions


def _transient_pair():
    waveform = Pulse(0.0, 2.5, delay=0.2e-9, rise=0.2e-9, fall=0.2e-9,
                     width=2e-9, period=5e-9)

    circuit_swec, info = rtd_divider(resistance=10.0)
    circuit_swec.voltage_sources[0].waveform = waveform
    circuit_swec.add_capacitor("Cp", info.device_node, "0", 1e-12)
    swec = SwecTransient(circuit_swec, SwecOptions(
        step=StepControlOptions(epsilon=0.05, h_min=1e-12, h_max=0.05e-9,
                                h_initial=1e-12)))

    circuit_mla, _ = rtd_divider(resistance=10.0)
    circuit_mla.voltage_sources[0].waveform = waveform
    circuit_mla.add_capacitor("Cp", info.device_node, "0", 1e-12)
    mla = MlaTransient(circuit_mla, MlaOptions(h_initial=0.01e-9))
    return swec, mla


def test_headline_dc_speedup(benchmark):
    def run():
        circuit_swec, info = rtd_divider(resistance=300.0)
        circuit_mla, _ = rtd_divider(resistance=300.0)
        return compare_dc_sweep(
            "NDR-crossing DC sweep",
            SwecDC(circuit_swec, SwecDCOptions(mode="stepwise")),
            MlaDC(circuit_mla),
            info.source, np.linspace(0.0, 4.0, 161))

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows("Headline: DC speedup, SWEC vs MLA",
               ["metric", "SWEC", "MLA", "ratio"],
               [["flops", row.swec_flops, row.baseline_flops,
                 round(row.flop_speedup, 1)],
                ["linear solves", row.swec_solves, row.baseline_solves,
                 round(row.baseline_solves / max(row.swec_solves, 1), 1)],
                ["wall seconds", round(row.swec_seconds, 4),
                 round(row.baseline_seconds, 4),
                 round(row.wall_speedup, 1)]])
    assert row.flop_speedup > 5.0


def test_headline_transient_per_point_cost():
    """Per accepted time point: SWEC does exactly one factorization and
    one chord evaluation per device; the NR engines do one per Newton
    iteration (plus rejected-step retries)."""
    swec, mla = _transient_pair()
    t_stop = 1.5e-9
    swec_result = swec.run(t_stop)
    mla_result = mla.run(t_stop)

    swec_per_point = (swec_result.flops.factorizations
                      / max(swec_result.accepted_steps, 1))
    mla_per_point = (mla_result.flops.factorizations
                     / max(mla_result.accepted_steps, 1))
    print_rows("Headline: factorizations per accepted point",
               ["engine", "points", "factorizations", "per point"],
               [["swec", swec_result.accepted_steps,
                 swec_result.flops.factorizations,
                 round(swec_per_point, 2)],
                ["mla", mla_result.accepted_steps,
                 mla_result.flops.factorizations,
                 round(mla_per_point, 2)]])
    assert swec_per_point <= 1.05   # one solve per point (+DC init)
    assert mla_per_point > 1.2      # NR pays iterations even warm-started

    # Device evaluations: SWEC pays chord + predictor derivative (2 per
    # point); MLA pays current + Jacobian derivative per NR *iteration*.
    swec_devices_per_point = (swec_result.flops.device_evaluations
                              / max(swec_result.accepted_steps, 1))
    mla_devices_per_point = (mla_result.flops.device_evaluations
                             / max(mla_result.accepted_steps, 1))
    assert swec_devices_per_point <= 2.1
    assert mla_devices_per_point > 1.2 * swec_devices_per_point


def test_headline_gather_vectorization_delta():
    """The index-gather rewrite of ``SwecLinearization.device_voltages``
    and the ``ConductanceStamper`` scatter (ISSUE 4 satellite) must beat
    the per-device Python loops they replaced, value for value — this
    speeds up every accepted point of the existing single-instance
    engine too."""
    circuit, _ = rtd_chain(40)
    system = MnaSystem(circuit)
    linearization = SwecLinearization(system)
    stamper = ConductanceStamper(system.chord_pairs(), system.size)
    terminals = system.device_terminals()
    state = np.linspace(0.1, 0.4, system.size)
    base = system.conductance_base()
    voltages, vgs, vds = linearization.branch_voltages(state)
    device_g = linearization.device_conductances(voltages)
    chords = np.array(device_g + linearization.mosfet_conductances(vgs, vds))
    repeats = 2000

    def loop_voltages():
        voltages = np.zeros(len(terminals))
        for k, (anode, cathode) in enumerate(terminals):
            va = state[anode] if anode >= 0 else 0.0
            vc = state[cathode] if cathode >= 0 else 0.0
            voltages[k] = va - vc
        return voltages

    def loop_stamp(matrix):
        for (anode, cathode), g in zip(terminals, device_g):
            system.stamp_conductance(matrix, anode, cathode, float(g))

    assert np.array_equal(loop_voltages(),
                          linearization.device_voltages(state))
    looped, gathered = base.copy(), base.copy()
    loop_stamp(looped)
    stamper.stamp(gathered, chords)
    assert np.array_equal(looped, gathered)

    start = time.perf_counter()
    for _ in range(repeats):
        loop_voltages()
        loop_stamp(base.copy())
    loop_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repeats):
        linearization.device_voltages(state)
        stamper.stamp(base.copy(), chords)
    vectorized_seconds = time.perf_counter() - start

    speedup = loop_seconds / vectorized_seconds
    print_rows(
        f"Headline: per-step gather+stamp, 40-device chain x{repeats}",
        ["path", "seconds", "speedup"],
        [["python loops", round(loop_seconds, 4), 1.0],
         ["index gathers", round(vectorized_seconds, 4),
          round(speedup, 1)]])
    assert speedup > 1.5, (
        f"index-based gather+stamp only {speedup:.2f}x the Python loop")


def test_headline_spice_pays_more_with_cold_starts():
    """Remove SPICE's warm-start crutch (the paper's Fig. 2 setting) and
    the NR bill grows further while SWEC is unaffected by construction."""
    waveform = Pulse(0.0, 2.5, delay=0.2e-9, rise=0.2e-9, fall=0.2e-9,
                     width=2e-9, period=5e-9)
    results = {}
    for warm in (True, False):
        circuit, info = rtd_divider(resistance=10.0)
        circuit.voltage_sources[0].waveform = waveform
        circuit.add_capacitor("Cp", info.device_node, "0", 1e-12)
        engine = SpiceTransient(circuit, SpiceOptions(
            h_initial=0.01e-9, warm_start=warm))
        result = engine.run(1.5e-9)
        results[warm] = sum(result.iteration_counts)
    print(f"\n=== Headline: NR iterations warm={results[True]} vs "
          f"cold={results[False]} ===")
    assert results[False] > results[True]
