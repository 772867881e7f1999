"""Solver-backend core tests: registry, equivalence, accounting.

The acceptance bar of the unified pipeline: every registered backend
(``dense``/``sparse``/``stack``, plus the ``auto`` selector) must march
the same circuits to the same waveforms at 1e-9, report *comparable*
flop accounting (identical factorization/solve event counts for the
same march), and replay a second run on the same engine bit for bit.
"""

import numpy as np
import pytest

from repro.circuit import Circuit, Pulse
from repro.circuits_lib import (
    fet_rtd_inverter,
    mobile_dflipflop,
    rtd_mesh,
)
from repro.core import (
    BACKENDS,
    LinearStepper,
    available_backends,
    create_backend,
    get_backend,
    register_backend,
    select_backend,
    system_density,
)
from repro.devices.base import TwoTerminalDevice
from repro.errors import AnalysisError, SingularMatrixError
from repro.mna import LinearSolver, MnaSystem
from repro.swec import SwecDC, SwecOptions, SwecTransient
from repro.swec.dc import SwecDCOptions
from repro.swec.timestep import StepControlOptions

ALL_BACKENDS = ("dense", "sparse", "stack", "auto")
WAVEFORM_ATOL = 1e-9


def swec_options(**kwargs):
    step = StepControlOptions(epsilon=0.05, h_min=1e-12, h_max=0.2e-9,
                              h_initial=1e-12)
    return SwecOptions(step=step, **kwargs)


def noisy_rc_circuit():
    """The stochastic fixture topology, deterministic here."""
    circuit = Circuit("noisy-rc")
    circuit.add_resistor("R1", "n1", "0", 1e3)
    circuit.add_capacitor("C1", "n1", "0", 1e-12)
    circuit.add_current_source("Id", "0", "n1", 1e-4)
    return circuit


def _circuit(name):
    if name == "inverter":
        return fet_rtd_inverter()[0]
    if name == "latch":
        return mobile_dflipflop()[0]
    if name == "noisy_rc":
        return noisy_rc_circuit()
    if name == "grid_10x10":
        return rtd_mesh(10, 10)[0]
    raise AssertionError(name)


class TestRegistry:
    def test_registered_names(self):
        assert set(BACKENDS) == {"dense", "sparse", "stack"}
        assert available_backends() == ("dense", "sparse", "stack",
                                        "auto")

    def test_get_backend_unknown(self):
        with pytest.raises(AnalysisError, match="unknown solver backend"):
            get_backend("ragged")

    def test_register_backend_rejects_bad_names(self):
        class Anonymous:
            pass

        with pytest.raises(ValueError):
            register_backend(Anonymous)

        class Reserved:
            name = "auto"

        with pytest.raises(ValueError):
            register_backend(Reserved)

    def test_register_and_resolve_custom_backend(self):
        from repro.core.backends import DenseBackend

        class Custom(DenseBackend):
            name = "custom-lu"

        try:
            register_backend(Custom)
            assert get_backend("custom-lu") is Custom
            assert "custom-lu" in available_backends()
            # A registered name is immediately a legal options value.
            SwecOptions(backend="custom-lu")
        finally:
            BACKENDS.pop("custom-lu", None)

    def test_auto_selects_by_size_and_density(self):
        small = MnaSystem(fet_rtd_inverter()[0])
        assert select_backend([small]) == "dense"
        assert select_backend([small, small]) == "stack"
        mesh = MnaSystem(rtd_mesh(16, 16)[0])
        assert mesh.size >= 192
        assert system_density(mesh) <= 0.05
        assert select_backend([mesh]) == "sparse"

    def test_create_backend_resolves_auto(self):
        mesh = MnaSystem(rtd_mesh(16, 16)[0])
        assert create_backend("auto", [mesh]).name == "sparse"
        small = MnaSystem(fet_rtd_inverter()[0])
        assert create_backend(None, [small], default="auto").name == "dense"


class TestWaveformEquivalence:
    """dense == sparse == stack == auto at 1e-9 on the tier-1 circuits."""

    @pytest.mark.parametrize("name", ["inverter", "latch", "noisy_rc",
                                      "grid_10x10"])
    def test_fixed_grid_agreement(self, name):
        t_stop = 2e-9 if name == "grid_10x10" else 4e-9
        times = np.linspace(0.0, t_stop, 81)
        results = {}
        for backend in ALL_BACKENDS:
            circuit = _circuit(name)
            engine = SwecTransient(circuit, swec_options(backend=backend))
            results[backend] = engine.run_grid(times).states
        reference = results["dense"]
        for backend in ALL_BACKENDS[1:]:
            error = float(np.max(np.abs(results[backend] - reference)))
            assert error < WAVEFORM_ATOL, (name, backend, error)

    @pytest.mark.parametrize("backend", ALL_BACKENDS[1:])
    def test_adaptive_agreement_on_inverter(self, backend):
        dense = SwecTransient(fet_rtd_inverter()[0],
                              swec_options()).run(4e-9)
        other = SwecTransient(fet_rtd_inverter()[0],
                              swec_options(backend=backend)).run(4e-9)
        grid = np.linspace(0.0, 4e-9, 101)
        error = np.max(np.abs(dense.resample(grid, "out")
                              - other.resample(grid, "out")))
        assert error < WAVEFORM_ATOL, (backend, error)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_ensemble_backends_match_stack(self, backend):
        rng = np.random.default_rng(7)
        circuits = [fet_rtd_inverter(
            fet_vth=float(1.0 + 0.1 * rng.uniform(-1.0, 1.0)))[0]
            for _ in range(3)]
        times = np.linspace(0.0, 3e-9, 61)
        stack = LinearStepper(circuits, swec_options()).run_grid(times)
        other = LinearStepper(circuits,
                              swec_options(backend=backend)) \
            .run_grid(times)
        assert stack.backend == "stack" and other.backend == backend
        error = float(np.max(np.abs(stack.states - other.states)))
        assert error < WAVEFORM_ATOL

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_dc_backends_agree(self, backend):
        from repro.circuits_lib import rtd_divider

        circuit, info = rtd_divider(resistance=10.0)
        dc = SwecDC(circuit, SwecDCOptions(backend=backend))
        sweep = dc.sweep(info.source, np.linspace(0.0, 2.0, 21))
        reference = SwecDC(rtd_divider(resistance=10.0)[0]) \
            .sweep(info.source, np.linspace(0.0, 2.0, 21))
        assert np.allclose(sweep.states, reference.states,
                           rtol=0.0, atol=WAVEFORM_ATOL)

    def test_sparse_rerun_is_bitwise_and_matches_dense(self):
        """A second run on the same engine replays the first bit for
        bit, and a backend swap still reproduces the waveform."""
        times = np.linspace(0.0, 2e-9, 81)
        circuit = noisy_rc_circuit()
        dense = SwecTransient(circuit, swec_options()).run_grid(times)
        swapped = SwecTransient(circuit, swec_options(backend="sparse"))
        sparse = swapped.run_grid(times)
        assert np.allclose(dense.states, sparse.states,
                           rtol=0.0, atol=WAVEFORM_ATOL)
        again = swapped.run_grid(times)
        assert np.array_equal(sparse.states, again.states)


class TestFlopParity:
    """Event counters (factorizations, solves) are backend-invariant."""

    def test_event_counts_match_across_backends(self):
        times = np.linspace(0.0, 1e-9, 41)
        counters = {}
        for backend in ("dense", "sparse", "stack"):
            circuit = rtd_mesh(4, 4)[0]
            options = swec_options(backend=backend, initialize_dc=False)
            result = SwecTransient(circuit, options).run_grid(
                times, initial_state=np.zeros(MnaSystem(circuit).size))
            counters[backend] = result.flops
        reference = counters["dense"]
        assert reference.factorizations == len(times) - 1
        assert reference.linear_solves == len(times) - 1
        for backend, flops in counters.items():
            assert flops.factorizations == reference.factorizations, backend
            assert flops.linear_solves == reference.linear_solves, backend
            categories = flops.by_category()
            assert categories.get("factor", 0) > 0, backend
            assert categories.get("solve", 0) > 0, backend
            assert (flops.device_evaluations
                    == reference.device_evaluations), backend

    def test_sparse_flop_totals_beat_dense_at_scale(self):
        """The Table-I story at grid scale: the sparse cost model must
        report far fewer factor flops than the dense ``2/3 n^3``."""
        times = np.linspace(0.0, 0.5e-9, 11)
        totals = {}
        for backend in ("dense", "sparse"):
            circuit = rtd_mesh(8, 8)[0]
            options = swec_options(backend=backend, initialize_dc=False)
            result = SwecTransient(circuit, options).run_grid(
                times, initial_state=np.zeros(MnaSystem(circuit).size))
            totals[backend] = result.flops.by_category()["factor"]
        assert totals["sparse"] < totals["dense"] / 3


class _NanAbove(TwoTerminalDevice):
    """A resistor-like device whose law returns NaN above 0.5 V."""

    def current(self, voltage):
        return float("nan") if voltage > 0.5 else 1e-3 * voltage


def _floating_circuit():
    """R2 hangs between two nodes with no path to ground."""
    circuit = Circuit("floating")
    circuit.add_voltage_source("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    circuit.add_resistor("R2", "a", "b", 1e3)
    return circuit


def _nan_stamp_circuit():
    circuit = Circuit("nan-stamp")
    circuit.add_voltage_source("V1", "in", "0",
                               Pulse(0.0, 1.0, delay=0.1e-9, rise=0.2e-9,
                                     width=1e-9))
    circuit.add_resistor("R1", "in", "out", 10.0)
    circuit.add_device("X1", "out", "0", _NanAbove())
    circuit.add_capacitor("C1", "out", "0", 1e-13)
    return circuit


class TestFusedDenseSolve:
    """The K = 1 dense march factors and solves each step in one dgesv
    call; its failures must read as before."""

    @pytest.fixture
    def fused_calls(self, monkeypatch):
        calls = []
        original = LinearSolver.factor_solve

        def counted(self, matrix, rhs):
            calls.append(1)
            return original(self, matrix, rhs)

        monkeypatch.setattr(LinearSolver, "factor_solve", counted)
        return calls

    @pytest.mark.parametrize("circuit,initialize_dc,message", [
        (_floating_circuit, True,
         "MNA matrix is singular (floating node or short loop?)"),
        (_floating_circuit, False,
         "MNA matrix is singular (floating node or short loop?)"),
        (_nan_stamp_circuit, True, "matrix contains non-finite entries"),
    ])
    def test_failures_keep_their_messages(self, fused_calls, circuit,
                                          initialize_dc, message):
        engine = SwecTransient(circuit(), swec_options(
            backend="dense", initialize_dc=initialize_dc))
        with pytest.raises(SingularMatrixError) as failure:
            engine.run(2e-9)
        assert str(failure.value) == message
        assert fused_calls

    def test_factor_solve_matches_factor_then_solve(self):
        rng = np.random.default_rng(15)
        for n in range(1, 12):
            matrix = rng.normal(size=(n, n)) + n * np.eye(n)
            rhs = rng.normal(size=n)
            split = LinearSolver()
            split.factor(matrix)
            fused = LinearSolver()
            solution = fused.factor_solve(matrix, rhs)
            assert solution.tobytes() == split.solve(rhs).tobytes()
            # The fused call leaves its factorization for later solves.
            assert fused.solve(2.0 * rhs).tobytes() == \
                split.solve(2.0 * rhs).tobytes()
        with pytest.raises(SingularMatrixError, match="does not match"):
            LinearSolver().factor_solve(np.eye(2), np.ones(3))
        with pytest.raises(SingularMatrixError, match="square"):
            LinearSolver().factor_solve(np.ones((2, 3)), np.ones(2))


class TestBackendKnobThreading:
    """backend= flows through jobs, sweep specs and option tables."""

    def test_transient_job_backend(self):
        from repro.runtime import job_from_mapping

        job = job_from_mapping({
            "type": "transient", "circuit": "fet_rtd_inverter",
            "t_stop": 1e-9, "backend": "sparse",
            "options": {"epsilon": 0.05, "h_min": 1e-12,
                        "h_max": 0.2e-9, "h_initial": 1e-12},
        })
        assert job.run().engine == "swec"

    def test_transient_job_backend_needs_swec(self):
        from repro.runtime import TransientJob

        with pytest.raises(AnalysisError, match="swec"):
            TransientJob(t_stop=1e-9, builder="fet_rtd_inverter",
                         engine="spice", backend="sparse")

    def test_ac_job_backend(self):
        from repro.runtime import job_from_mapping

        job = job_from_mapping({
            "type": "ac", "circuit": "fet_rtd_inverter",
            "f_start": 1e3, "f_stop": 1e9, "n_points": 11,
            "backend": "sparse", "bias": {"Vin": 2.0},
        })
        stack = job_from_mapping({
            "type": "ac", "circuit": "fet_rtd_inverter",
            "f_start": 1e3, "f_stop": 1e9, "n_points": 11,
            "backend": "stack", "bias": {"Vin": 2.0},
        })
        assert np.allclose(job.run().states, stack.run().states,
                           rtol=1e-9, atol=0.0)

    def test_ensemble_transient_job_backend(self):
        from repro.runtime import job_from_mapping

        spec = {
            "type": "ensemble_transient", "circuit": "fet_rtd_inverter",
            "t_stop": 1e-9, "steps": 20, "n_instances": 2,
            "return_result": True,
            "options": {"epsilon": 0.05, "h_min": 1e-12,
                        "h_max": 0.2e-9, "h_initial": 1e-12},
        }
        sparse = job_from_mapping({**spec, "backend": "sparse"}).run()
        stack = job_from_mapping({**spec, "backend": "stack"}).run()
        assert sparse.backend == "sparse" and stack.backend == "stack"
        assert np.allclose(sparse.states, stack.states,
                           rtol=0.0, atol=WAVEFORM_ATOL)

    def test_sweep_spec_accepts_backend_setting(self):
        from repro.sweep import SweepSpec

        spec = SweepSpec.from_mapping({
            "sweep": {"circuit": "fet_rtd_inverter", "t_stop": 1e-9,
                      "backend": "stack"},
            "axes": [{"name": "load_capacitance",
                      "values": [0.5e-12, 1e-12]}],
            "measures": [{"kind": "final"}],
        })
        assert spec.settings["backend"] == "stack"

    def test_unknown_backend_rejected_at_job_level(self):
        from repro.runtime import TransientJob

        job = TransientJob(t_stop=1e-9, builder="fet_rtd_inverter",
                           backend="ragged")
        with pytest.raises(AnalysisError, match="backend"):
            job.run()


@pytest.fixture(scope="module")
def pss_orbits():
    """One shooting orbit per backend, same circuit and options."""
    from repro.circuits_lib import rtd_relaxation_oscillator
    from repro.pss import run_pss

    orbits = {}
    for backend in ALL_BACKENDS:
        circuit, info = rtd_relaxation_oscillator()
        orbits[backend] = run_pss(
            circuit, period_guess=info.period_guess,
            steps_per_period=200, backend=backend)
    return orbits


class TestPSSBackendEquivalence:
    """Shooting PSS rides the same backend contract as the marches."""

    def test_orbits_agree_at_1e9(self, pss_orbits):
        reference = pss_orbits["dense"]
        for backend in ALL_BACKENDS[1:]:
            orbit = pss_orbits[backend]
            assert orbit.period == pytest.approx(
                reference.period, rel=1e-9, abs=0.0), backend
            error = float(np.max(np.abs(orbit.states
                                        - reference.states)))
            assert error < WAVEFORM_ATOL, (backend, error)

    def test_resolved_backend_is_recorded(self, pss_orbits):
        assert pss_orbits["dense"].backend == "dense"
        assert pss_orbits["sparse"].backend == "sparse"
        assert pss_orbits["stack"].backend == "stack"
        # auto resolves by size/density: the oscillator is small.
        assert pss_orbits["auto"].backend == "dense"

    def test_flop_events_backend_invariant(self, pss_orbits):
        reference = pss_orbits["dense"].flops
        assert reference.factorizations > 0
        assert reference.linear_solves > 0
        for backend, orbit in pss_orbits.items():
            flops = orbit.flops
            assert flops.factorizations == reference.factorizations, \
                backend
            assert flops.linear_solves == reference.linear_solves, backend
            assert (flops.device_evaluations
                    == reference.device_evaluations), backend

    def test_driven_orbit_backend_agreement(self):
        from repro.circuits_lib import rtd_memory_array
        from repro.pss import run_pss

        results = {}
        for backend in ("dense", "sparse"):
            circuit, info = rtd_memory_array(rows=2, cols=2)
            results[backend] = run_pss(circuit, steps_per_period=100,
                                       backend=backend)
        error = float(np.max(np.abs(results["sparse"].states
                                    - results["dense"].states)))
        assert error < WAVEFORM_ATOL, error
