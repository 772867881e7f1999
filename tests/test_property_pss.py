"""Property-based tests for the shooting PSS engine.

The contract under test: on any lint-clean *driven linear* circuit,
shooting either converges — returning an orbit whose reported residual
is below tolerance and whose endpoints actually close to that residual
— or raises a typed :class:`~repro.errors.PSSError`.  It never returns
a silently-wrong orbit.  And the whole pipeline is deterministic:
repeated runs of the same job are bit-identical, including across
batch worker counts.

The matrix-free Newton–Krylov operator is pinned against the one
reference copy of the dense chained monodromy, kept below: ``M v`` and
the Newton operators must match the explicit matrices to 1e-10 on
oscillator, memory-array, MOSFET and mesh circuits, on the dense and
sparse backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.ac.linearize import tangent_conductances
from repro.circuit import Pulse
from repro.circuits_lib.logic_gates import mobile_nand
from repro.circuits_lib import (
    power_grid_mesh,
    rtd_memory_array,
    rtd_relaxation_oscillator,
)
from repro.errors import PSSError
from repro.lint import lint_netlist
from repro.mna import ConductanceStamper
from repro.pss import PSSOptions, ShootingPSS
from repro.runtime import BatchRunner, PSSJob

STEPS = 64  # linear circuits converge in one Newton step; keep marches cheap


def _rc_netlist(resistances, capacitances, drive):
    """A lint-clean driven RC ladder netlist (one stage per R/C pair)."""
    lines = ["* property-generated driven RC ladder",
             f"V1 n0 0 {drive}"]
    for k, (r, c) in enumerate(zip(resistances, capacitances)):
        lines.append(f"R{k + 1} n{k} n{k + 1} {r!r}")
        lines.append(f"C{k + 1} n{k + 1} 0 {c!r}")
    return "\n".join(lines) + "\n"


@st.composite
def driven_rc_circuits(draw):
    """Netlist text of a random lint-clean driven linear circuit."""
    stages = draw(st.integers(1, 3))
    resistances = draw(st.lists(st.floats(10.0, 1e5),
                                min_size=stages, max_size=stages))
    capacitances = draw(st.lists(st.floats(1e-14, 1e-11),
                                 min_size=stages, max_size=stages))
    period = draw(st.floats(1e-9, 100e-9))
    amplitude = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        drive = f"SIN(0 {amplitude!r} {1.0 / period!r})"
    else:
        edge = 0.02 * period
        drive = (f"PULSE(0 {amplitude!r} 0 {edge!r} {edge!r} "
                 f"{0.4 * period!r} {period!r})")
    return _rc_netlist(resistances, capacitances, drive)


class TestConvergesOrTypedError:
    @given(netlist=driven_rc_circuits())
    @settings(max_examples=25, deadline=None)
    def test_converges_with_closed_orbit_or_raises(self, netlist):
        assert lint_netlist(netlist).ok, netlist
        job = PSSJob(netlist=netlist, steps_per_period=STEPS)
        try:
            orbit = job.run()
        except PSSError:
            return  # a typed refusal is an acceptable outcome
        # Silently-wrong is not: the reported residual must be below
        # tolerance AND the orbit endpoints must actually close to it.
        assert orbit.residual < 1e-9
        defect = float(np.max(np.abs(orbit.states[-1] - orbit.states[0])))
        assert defect <= orbit.residual
        assert np.all(np.isfinite(orbit.states))
        # Linear circuits are exactly one Newton step from anywhere.
        assert orbit.iterations <= 1

    @given(netlist=driven_rc_circuits())
    @settings(max_examples=10, deadline=None)
    def test_repeated_runs_bit_identical(self, netlist):
        job = PSSJob(netlist=netlist, steps_per_period=STEPS)
        try:
            first = job.run()
        except PSSError:
            with pytest.raises(PSSError):
                job.run()
            return
        second = job.run()
        assert first.period == second.period
        assert np.array_equal(first.states, second.states)
        assert np.array_equal(first.times, second.times)
        assert first.residual == second.residual


class TestWorkerCountInvariance:
    """The same PSS jobs produce bit-identical orbits at any worker
    count — the batch layer must not perturb the numerics."""

    def _jobs(self):
        return [
            PSSJob(netlist=_rc_netlist(
                [1e3], [c], "SIN(0 1.0 1e8)"), steps_per_period=STEPS)
            for c in (1e-12, 3e-12, 10e-12)
        ]

    def test_serial_matches_parallel(self):
        serial = BatchRunner(max_workers=1, executor="serial",
                             seed=7).run(self._jobs())
        parallel = BatchRunner(max_workers=2, executor="process",
                               seed=7).run(self._jobs())
        assert serial.ok and parallel.ok
        for a, b in zip(serial.results, parallel.results):
            assert np.array_equal(a.value.states, b.value.states)
            assert a.value.period == b.value.period
            assert a.value.residual == b.value.residual


# ----------------------------------------------------------------------
# Matrix-free Jacobian-vector products vs the dense monodromy
# ----------------------------------------------------------------------

#: Chord-derivative correction cut-off, as in the engine.
V_EPS = 1e-12

JVP_STEPS = 48


def dense_monodromy(shoot, states, grid):
    """Reference ``M = dPhi/dx0``: the explicit dense chain.

    ``M = prod_n A_n^{-1} (C/h - D_n)`` with every ``D_n`` stamped
    element by element from the AC linearization's tangents through
    ``g_ch'(v) v = dI/dV - g_ch`` — O(steps * n^3), so test-sized
    circuits only.  Returns ``(M, f_T)`` with ``f_T`` the endpoint
    state velocity.
    """
    system, lin = shoot.system, shoot.linearization
    base = system.conductance_base()
    capacitance = system.capacitance_matrix()
    monodromy = np.eye(system.size)
    for i in range(len(grid) - 1):
        h = grid[i + 1] - grid[i]
        xn, xn1 = states[i], states[i + 1]
        c_over_h = capacitance / h
        a = base + c_over_h
        voltages, vgs, vds = lin.branch_voltages(xn)
        device_chords = lin.device_conductances(voltages)
        mosfet_chords = lin.mosfet_conductances(vgs, vds)
        ConductanceStamper(system.chord_pairs(), system.size).stamp(
            a, device_chords + mosfet_chords)
        b = c_over_h.copy()
        device_tangents, mosfet_partials = tangent_conductances(
            shoot.circuit, system, xn)
        for k, (anode, cathode) in enumerate(system.device_terminals()):
            g_ch = device_chords[k]
            vn = (xn[anode] if anode >= 0 else 0.0) \
                - (xn[cathode] if cathode >= 0 else 0.0)
            if g_ch <= 0.0 or abs(vn) <= V_EPS:
                continue
            w = (xn1[anode] if anode >= 0 else 0.0) \
                - (xn1[cathode] if cathode >= 0 else 0.0)
            system.stamp_conductance(
                b, anode, cathode, -(device_tangents[k] - g_ch) * (w / vn))
        for k, (drain, gate, source) in enumerate(system.mosfet_terminals()):
            c_ch = mosfet_chords[k]
            vds = (xn[drain] if drain >= 0 else 0.0) \
                - (xn[source] if source >= 0 else 0.0)
            if c_ch <= 0.0 or abs(vds) <= V_EPS:
                continue
            w = (xn1[drain] if drain >= 0 else 0.0) \
                - (xn1[source] if source >= 0 else 0.0)
            gm, gds = mosfet_partials[k]
            scale = w / vds
            system.stamp_conductance(b, drain, source, -(gds - c_ch) * scale)
            system.stamp_transconductance(
                b, drain, source, gate, source, -gm * scale)
        monodromy = np.linalg.solve(a, b @ monodromy)
    velocity = (states[-1] - states[-2]) / (grid[-1] - grid[-2])
    return monodromy, velocity


# Each builder returns ``(circuit, horizon)``: the march window is kept
# short enough that ``M`` stays O(1) and its chord-derivative (and, on
# the NAND, transconductance) entries carry weight — over a full
# period these circuits forget their start and ``M`` underflows.


def _oscillator():
    circuit, info = rtd_relaxation_oscillator()
    return circuit, 0.1 * info.period_guess


def _memory_array():
    circuit, _ = rtd_memory_array(rows=2, cols=2)
    return circuit, 0.04e-9


def _mosfet_nand():
    """MOBILE NAND: a series MOSFET stack, so ``gm`` acts across a
    source node that is itself a state."""
    edge = 0.5e-9
    a = Pulse(0.0, 1.2, delay=2e-9, rise=edge, fall=edge, width=8e-9,
              period=20e-9)
    b = Pulse(0.0, 1.2, delay=6e-9, rise=edge, fall=edge, width=8e-9,
              period=20e-9)
    circuit, _ = mobile_nand(a, b)
    return circuit, 0.2e-9


def _mesh():
    circuit, _ = power_grid_mesh(rows=8, cols=8)
    return circuit, 1e-11


JVP_CIRCUITS = {
    "oscillator": _oscillator,
    "memory_array": _memory_array,
    "mosfet_nand": _mosfet_nand,
    "mesh": _mesh,
}

_JVP_CASES: dict = {}


def _jvp_case(name, backend):
    """``(shoot, monodromy operator, M, f_T, horizon)``, built once."""
    key = (name, backend)
    if key not in _JVP_CASES:
        circuit, horizon = JVP_CIRCUITS[name]()
        shoot = ShootingPSS(circuit, PSSOptions(
            period=horizon, steps_per_period=JVP_STEPS, backend=backend))
        x0 = np.random.default_rng(5).uniform(0.0, 1.0, shoot.system.size)
        grid = np.linspace(0.0, horizon, JVP_STEPS + 1)
        march = shoot.engine.run_grid(grid, initial_state=x0)
        reference, velocity = dense_monodromy(shoot, march.states,
                                              march.times)
        operator = shoot.monodromy(march.times, march.states)
        _JVP_CASES[key] = (shoot, operator, reference, velocity, horizon)
    return _JVP_CASES[key]


def _assert_close(actual, expected):
    error = float(np.max(np.abs(actual - expected)))
    assert error <= 1e-10 * max(1.0, float(np.max(np.abs(expected)))), error


vectors = st.integers(0, 2**32 - 1).map(
    lambda seed: np.random.default_rng(seed))


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("name", sorted(JVP_CIRCUITS))
class TestMatrixFreeMonodromy:
    """``Monodromy.matvec`` is ``M @ v`` for the dense chained ``M``."""

    @given(rng=vectors)
    @settings(max_examples=5, deadline=None)
    def test_matvec_matches_dense_monodromy(self, name, backend, rng):
        _, operator, reference, _, _ = _jvp_case(name, backend)
        v = rng.standard_normal(operator.size)
        _assert_close(operator.matvec(v), reference @ v)

    @given(rng=vectors)
    @settings(max_examples=3, deadline=None)
    def test_newton_operators_match_dense_matrices(self, name, backend,
                                                   rng):
        shoot, operator, reference, velocity, horizon = _jvp_case(
            name, backend)
        n = operator.size
        driven = shoot.newton_operator(operator)
        d = rng.standard_normal(n)
        _assert_close(driven @ d, (reference - np.eye(n)) @ d)
        # Autonomous: the bordered system, period column f_T * T for the
        # relative unknown dT/T and a phase row pinning one state.
        phase = int(rng.integers(0, n))
        column = velocity * horizon
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = reference - np.eye(n)
        bordered[:n, n] = column
        bordered[n, phase] = 1.0
        # The operator eliminates the phase row: column `phase` of
        # M - I carries the period column instead.
        eliminated = reference - np.eye(n)
        eliminated[:, phase] = column
        autonomous = shoot.newton_operator(operator, horizon, phase)
        z = rng.standard_normal(n)
        _assert_close(autonomous @ z, eliminated @ z)
        # Both forms give the same Newton step (d, dT/T) wherever the
        # bordered system is solvable (these circuits are not all
        # oscillators, so some phase pins leave it singular).
        assume(np.linalg.cond(bordered) < 1e10)
        rhs = rng.standard_normal(n)
        step = np.linalg.solve(bordered, np.append(rhs, 0.0))
        solution = np.linalg.solve(eliminated, rhs)
        relative_dt = solution[phase]
        solution[phase] = 0.0
        _assert_close(np.append(solution, relative_dt), step)
