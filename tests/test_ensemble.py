"""Tests for the lockstep ensemble transient engine (ISSUE 4).

The load-bearing property is *lockstep equivalence*: K instances
marched by :class:`~repro.swec.SwecEnsembleTransient` must match K
independent :class:`~repro.swec.SwecTransient` runs on the same grid
within tight tolerance — the batched path is a reorganization of the
arithmetic, not a different integrator.  Stochastic fixed-grid
ensembles must additionally be bit-identical for any solve chunk
size, ensemble split and worker count.
"""

import numpy as np
import pytest

from repro.circuit import Circuit, Pulse
from repro.circuits_lib import fet_rtd_inverter, mobile_dflipflop
from repro.errors import AnalysisError, SingularMatrixError, SweepSpecError
from repro.mna.batch import ConductanceStamper, solve_stack
from repro.runtime import BatchRunner, EnsembleTransientJob, job_from_mapping
from repro.stochastic import (
    path_normals,
    run_circuit_ensemble,
    run_circuit_ensemble_parallel,
)
from repro.stochastic.analytic import OrnsteinUhlenbeck
from repro.swec import (
    SwecEnsembleTransient,
    SwecOptions,
    SwecTransient,
)
from repro.swec.timestep import StepControlOptions

TOLERANCE = 1e-10


def swec_options(**kwargs):
    step = StepControlOptions(epsilon=0.05, h_min=1e-12, h_max=0.2e-9,
                              h_initial=1e-12)
    return SwecOptions(step=step, **kwargs)


def inverter_family(k, vary_source=False):
    """K same-topology inverters with jittered parameters."""
    rng = np.random.default_rng(20050307)
    circuits = []
    for index in range(k):
        vin = None
        if vary_source:
            vin = Pulse(0.0, 4.0 + index * 0.25, delay=5e-9, rise=0.5e-9,
                        fall=0.5e-9, width=15e-9, period=40e-9)
        circuit, _ = fet_rtd_inverter(
            vin=vin,
            fet_vth=float(1.0 + 0.2 * rng.uniform(-1.0, 1.0)),
            load_capacitance=float(
                1e-12 * (1.0 + 0.4 * rng.uniform(-1.0, 1.0))))
        circuits.append(circuit)
    return circuits


def noisy_rc_circuit():
    circuit = Circuit("noisy-rc")
    circuit.add_resistor("R1", "n1", "0", 1e3)
    circuit.add_capacitor("C1", "n1", "0", 1e-12)
    circuit.add_current_source("Id", "0", "n1", 1e-4)
    return circuit


class TestBatchPrimitives:
    """The shared mna.batch machinery."""

    def test_solve_stack_matches_per_system_solves(self, rng):
        matrices = rng.normal(size=(7, 4, 4)) + 4.0 * np.eye(4)
        rhs = rng.normal(size=(7, 4))
        batched = solve_stack(matrices, rhs, chunk_entries=20)
        for k in range(7):
            assert np.allclose(batched[k],
                               np.linalg.solve(matrices[k], rhs[k]),
                               rtol=1e-12, atol=0.0)

    def test_solve_stack_chunk_size_is_bit_invariant(self, rng):
        matrices = rng.normal(size=(9, 3, 3)) + 3.0 * np.eye(3)
        rhs = rng.normal(size=(9, 3))
        full = solve_stack(matrices, rhs)
        tiny = solve_stack(matrices, rhs, chunk_entries=1)
        assert np.array_equal(full, tiny)

    def test_solve_stack_lazy_builder(self, rng):
        matrices = rng.normal(size=(5, 3, 3)) + 3.0 * np.eye(3)
        rhs = rng.normal(size=(5, 3))
        lazy = solve_stack(lambda lo, hi: matrices[lo:hi], rhs,
                           chunk_entries=9)
        assert np.array_equal(lazy, solve_stack(matrices, rhs))

    def test_solve_stack_singular_names_the_chunk(self):
        matrices = np.zeros((3, 2, 2))
        rhs = np.ones((3, 2))
        with pytest.raises(SingularMatrixError, match="batch"):
            solve_stack(matrices, rhs)

    def test_stamper_matches_loop_stamping(self):
        pairs = [(0, 1), (1, -1), (-1, 2), (0, 0)]
        stamper = ConductanceStamper(pairs, 3)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        matrix = np.zeros((3, 3))
        stamper.stamp(matrix, values)
        expected = np.zeros((3, 3))
        from repro.mna.assembler import MnaSystem

        for (i, j), g in zip(pairs, values):
            MnaSystem.stamp_conductance(expected, i, j, g)
        assert np.array_equal(matrix, expected)

    def test_stamper_batch_axis(self):
        pairs = [(0, 1), (1, -1)]
        stamper = ConductanceStamper(pairs, 2)
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        stack = np.zeros((2, 2, 2))
        stamper.stamp(stack, values)
        for k in range(2):
            single = np.zeros((2, 2))
            stamper.stamp(single, values[k])
            assert np.array_equal(stack[k], single)

    def test_flat_entries_match_stamp(self):
        pairs = [(0, 1), (1, -1), (-1, 2), (0, 0)]
        stamper = ConductanceStamper(pairs, 3)
        rows = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, -1.0, 0.0, 2.5]])
        positions, entries = stamper.flat_entries(rows)
        for k, values in enumerate(rows):
            expected = np.arange(9.0).reshape(3, 3)
            stamper.stamp(expected, values)
            matrix = np.arange(9.0).reshape(3, 3)
            np.add.at(matrix.reshape(-1), positions, entries[k])
            assert np.array_equal(matrix, expected)


class TestVectorizedLinearization:
    """Index-gather device/mosfet voltage extraction (satellite)."""

    def test_batched_gathers_match_per_state_rows(self):
        circuit, _ = fet_rtd_inverter()
        engine = SwecTransient(circuit, swec_options())
        lin = engine.linearization
        states = np.random.default_rng(5).normal(size=(6, engine.system.size))
        batched_dev = lin.device_voltages(states)
        batched_mos = np.stack(lin.mosfet_vgs_vds(states), axis=-1)
        for k in range(6):
            assert np.array_equal(batched_dev[k],
                                  lin.device_voltages(states[k]))
            assert np.array_equal(
                batched_mos[k],
                np.stack(lin.mosfet_vgs_vds(states[k]), axis=-1))

    def test_mosfet_stack_matches_scalar_chords(self):
        from repro.devices import nmos, pmos
        from repro.devices.mosfet import mosfet_chord_stack

        rng = np.random.default_rng(11)
        models = [nmos(kp=8e-3, vth=1.0), nmos(kp=2e-3, vth=0.4),
                  pmos(kp=1e-3, vth=0.7)]
        vgs = rng.uniform(-3.0, 3.0, size=(50, len(models)))
        vds = rng.uniform(-3.0, 3.0, size=(50, len(models)))
        stacked = mosfet_chord_stack(
            vgs, vds,
            kp=np.array([m.kp for m in models]),
            w=np.array([m.w for m in models]),
            l=np.array([m.l for m in models]),
            vth=np.array([m.vth for m in models]),
            polarity=np.array([m.polarity for m in models]),
            channel_modulation=np.array(
                [m.channel_modulation for m in models]))
        for row in range(50):
            for j, model in enumerate(models):
                assert stacked[row, j] == model.chord_conductance(
                    vgs[row, j], vds[row, j])

    def test_rtd_chord_many_matches_scalar(self, rtd):
        voltages = np.linspace(-1.0, 2.0, 301)
        many = rtd.chord_terms_many(voltages, slope=False)[0]
        scalar = np.array([rtd.chord_conductance(float(v))
                           for v in voltages])
        assert np.allclose(many, scalar, rtol=1e-13, atol=1e-30)
        derivative = rtd.chord_terms_many(voltages)[1]
        scalar_d = np.array([rtd.chord_conductance_derivative(float(v))
                             for v in voltages])
        assert np.allclose(derivative, scalar_d, rtol=1e-10, atol=1e-20)


class TestConstruction:
    def test_single_circuit_needs_n_instances(self):
        circuit, _ = fet_rtd_inverter()
        with pytest.raises(AnalysisError, match="n_instances"):
            SwecEnsembleTransient(circuit)

    def test_topology_mismatch_rejected(self):
        a = noisy_rc_circuit()
        b = noisy_rc_circuit()
        b.add_resistor("R2", "n1", "0", 5e3)
        with pytest.raises(AnalysisError, match="instance 1"):
            SwecEnsembleTransient([a, b])

    def test_node_rename_rejected(self):
        a = noisy_rc_circuit()
        b = Circuit("noisy-rc")
        b.add_resistor("R1", "nX", "0", 1e3)
        b.add_capacitor("C1", "nX", "0", 1e-12)
        b.add_current_source("Id", "0", "nX", 1e-4)
        with pytest.raises(AnalysisError, match="different nodes"):
            SwecEnsembleTransient([a, b])

    def test_trap_and_sparse_backends_supported(self):
        """The unified solver core lifted the old dense/BE-only limits:
        trapezoidal and sparse ensembles march like any other."""
        circuit, _ = fet_rtd_inverter()
        times = np.linspace(0.0, 1e-9, 41)
        trap = SwecEnsembleTransient(
            circuit, swec_options(method="trap"), n_instances=2)
        assert trap.run_grid(times).states.shape[0] == 2
        sparse = SwecEnsembleTransient(
            circuit, swec_options(backend="sparse"), n_instances=2)
        assert sparse.backend_name == "sparse"
        reference = SwecEnsembleTransient(
            circuit, swec_options(), n_instances=2)
        assert np.allclose(sparse.run_grid(times).states,
                           reference.run_grid(times).states,
                           rtol=0.0, atol=1e-9)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SwecOptions(backend="ragged")

    def test_noise_requires_fixed_grid(self):
        engine = SwecEnsembleTransient(noisy_rc_circuit(), n_instances=3,
                                       noise=[("n1", 1e-8)])
        with pytest.raises(AnalysisError, match="fixed-grid"):
            engine.run(1e-9)

    def test_trace_needs_explicit_instances(self):
        circuit, _ = fet_rtd_inverter()
        with pytest.raises(AnalysisError, match="trace_instances"):
            SwecEnsembleTransient(circuit,
                                  swec_options(trace_conductance=True),
                                  n_instances=4)

    def test_trace_instances_need_the_flag(self):
        circuit, _ = fet_rtd_inverter()
        with pytest.raises(AnalysisError, match="trace_conductance"):
            SwecEnsembleTransient(circuit, swec_options(),
                                  n_instances=4, trace_instances=(0,))


class TestLockstepEquivalence:
    """Ensemble == K serial runs on shared grids (the acceptance bar)."""

    def test_rtd_inverter_family(self):
        circuits = inverter_family(5)
        times = np.linspace(0.0, 2e-8, 251)
        result = SwecEnsembleTransient(circuits, swec_options()) \
            .run_grid(times)
        for k, circuit in enumerate(circuits):
            reference = SwecTransient(circuit, swec_options()) \
                .run_grid(times)
            assert np.allclose(result.states[k], reference.states,
                               rtol=0.0, atol=TOLERANCE)

    def test_varied_source_waveforms(self):
        circuits = inverter_family(4, vary_source=True)
        times = np.linspace(0.0, 1.5e-8, 201)
        result = SwecEnsembleTransient(circuits, swec_options()) \
            .run_grid(times)
        finals = result.voltage("out")[:, -1]
        # Different drive amplitudes must produce different trajectories.
        assert len(np.unique(np.round(finals, 6))) > 1
        for k, circuit in enumerate(circuits):
            reference = SwecTransient(circuit, swec_options()) \
                .run_grid(times)
            assert np.allclose(result.states[k], reference.states,
                               rtol=0.0, atol=TOLERANCE)

    def test_mosfet_latch_family(self):
        circuits = [
            mobile_dflipflop(fet_beta=beta, output_capacitance=cap)[0]
            for beta, cap in ((0.08, 0.4e-12), (0.10, 0.5e-12),
                              (0.12, 0.6e-12))
        ]
        times = np.linspace(0.0, 6e-8, 401)
        options = SwecOptions(step=StepControlOptions(
            epsilon=0.05, h_min=1e-12, h_max=1e-9, h_initial=1e-12))
        result = SwecEnsembleTransient(circuits, options).run_grid(times)
        for k, circuit in enumerate(circuits):
            reference = SwecTransient(circuit, options).run_grid(times)
            assert np.allclose(result.states[k], reference.states,
                               rtol=0.0, atol=TOLERANCE)

    def test_per_instance_initial_states(self):
        circuits = inverter_family(3)
        times = np.linspace(0.0, 4e-9, 101)
        n = SwecTransient(circuits[0], swec_options()).system.size
        initial = np.random.default_rng(9).uniform(0.0, 1.0, size=(3, n))
        result = SwecEnsembleTransient(circuits, swec_options()) \
            .run_grid(times, initial_states=initial)
        for k, circuit in enumerate(circuits):
            reference = SwecTransient(circuit, swec_options()) \
                .run_grid(times, initial_state=initial[k])
            assert np.allclose(result.states[k], reference.states,
                               rtol=0.0, atol=TOLERANCE)

    def test_adaptive_single_instance_matches_scalar_engine(self):
        circuit, _ = fet_rtd_inverter()
        ensemble = SwecEnsembleTransient([circuit], swec_options()) \
            .run(8e-9)
        reference = SwecTransient(circuit, swec_options()).run(8e-9)
        grid = np.linspace(0.0, 8e-9, 200)
        ours = np.interp(grid, ensemble.times, ensemble.voltage("out")[0])
        theirs = np.interp(grid, reference.times,
                           reference.voltage("out"))
        assert np.max(np.abs(ours - theirs)) < 1e-8

    def test_adaptive_ensemble_takes_worst_case_grid(self):
        circuits = inverter_family(4)
        ensemble = SwecEnsembleTransient(circuits, swec_options())
        result = ensemble.run(5e-9)
        assert result.t_final == pytest.approx(5e-9, rel=1e-9)
        assert result.states.shape == (4, len(result),
                                       ensemble.size)
        # The shared step can never exceed any single instance's own
        # adaptive step bound at the shared state — spot-check against
        # instance 0 marched alone: its grid must be no denser than the
        # ensemble's (worst case over more instances can only shrink h).
        alone = SwecEnsembleTransient([circuits[0]], swec_options()) \
            .run(5e-9)
        assert len(result) >= len(alone)


class TestConductanceTrace:
    def test_traced_instance_matches_scalar_trace(self):
        circuits = inverter_family(3)
        times = np.linspace(0.0, 2e-9, 41)
        engine = SwecEnsembleTransient(
            circuits, swec_options(trace_conductance=True),
            trace_instances=(1,))
        result = engine.run_grid(times)
        assert set(result.conductance_trace) == {1}
        reference = SwecTransient(circuits[1],
                                  swec_options(trace_conductance=True)) \
            .run_grid(times)
        ref_trace = reference.conductance_trace
        ens_trace = result.conductance_trace[1]
        assert len(ens_trace) == len(ref_trace)
        for (t_a, g_a), (t_b, g_b) in zip(ens_trace, ref_trace):
            assert t_a == pytest.approx(t_b)
            assert np.allclose(g_a, g_b, rtol=0.0, atol=1e-12)
        instance = result.instance(1)
        assert len(instance.conductance_trace) == len(ref_trace)

    def test_untraced_instances_cost_no_memory(self):
        circuits = inverter_family(2)
        result = SwecEnsembleTransient(circuits, swec_options()) \
            .run_grid(np.linspace(0.0, 1e-9, 21))
        assert result.conductance_trace == {}


class TestStochasticEnsembles:
    def test_matches_analytic_ou_statistics(self):
        stats = run_circuit_ensemble(
            noisy_rc_circuit(), [("n1", 1e-8)], t_stop=5e-9, steps=250,
            n_paths=1024, seed=13)
        # The engine DC-initializes every path at the settled IR drop,
        # so the analytic reference starts there too.
        ou = OrnsteinUhlenbeck.from_rc(1e3, 1e-12, 1e-8, 1e-4, x0=0.1)
        t = stats.times
        assert np.max(np.abs(stats.mean - ou.mean(t))) < 0.05
        assert stats.std[-1] == pytest.approx(ou.std(t)[-1], rel=0.15)

    def test_seed_sequence_seed_matches_integer_seed(self):
        """A fresh ``SeedSequence(3)`` hands out the path streams that
        ``seed=3`` spawns."""
        kwargs = dict(t_stop=2e-9, steps=60, n_paths=4)
        by_int = run_circuit_ensemble(
            noisy_rc_circuit(), [("n1", 1e-8)], seed=3, **kwargs)
        by_sequence = run_circuit_ensemble(
            noisy_rc_circuit(), [("n1", 1e-8)],
            seed=np.random.SeedSequence(3), **kwargs)
        for name in ("mean", "std", "lower", "upper"):
            assert np.array_equal(getattr(by_int, name),
                                  getattr(by_sequence, name))

    def test_bit_identical_across_solve_chunk_sizes(self, monkeypatch):
        circuit = noisy_rc_circuit()
        times = np.linspace(0.0, 2e-9, 81)
        normals = path_normals(np.random.SeedSequence(3).spawn(16), 80, 1)
        full = SwecEnsembleTransient(
            circuit, n_instances=16, noise=[("n1", 1e-8)]) \
            .run_grid(times, normals=normals)
        # solve_stack reads the module constant at call time.
        monkeypatch.setattr("repro.mna.batch.CHUNK_ENTRIES", 1)
        tiny = SwecEnsembleTransient(
            circuit, n_instances=16, noise=[("n1", 1e-8)]) \
            .run_grid(times, normals=normals)
        assert np.array_equal(full.states, tiny.states)

    @pytest.mark.parametrize("chunks,workers", [(2, 1), (4, 1), (4, 3)])
    def test_bit_identical_across_splits_and_workers(self, chunks, workers):
        kwargs = dict(t_stop=2e-9, steps=60, n_paths=24, seed=99,
                      params={"drive": 1e-4})
        reference = run_circuit_ensemble_parallel(
            "noisy_rc_node", {"n1": 1e-8}, chunks=1,
            runner=BatchRunner(executor="serial"), **kwargs)
        split = run_circuit_ensemble_parallel(
            "noisy_rc_node", {"n1": 1e-8}, chunks=chunks,
            runner=BatchRunner(executor="process", max_workers=workers)
            if workers > 1 else BatchRunner(executor="serial"),
            **kwargs)
        assert np.array_equal(reference.mean, split.mean)
        assert np.array_equal(reference.std, split.std)
        assert np.array_equal(reference.lower, split.lower)

    def test_parallel_rejects_empty_noise(self):
        with pytest.raises(AnalysisError, match="injection"):
            run_circuit_ensemble_parallel(
                "noisy_rc_node", [], t_stop=1e-9, steps=10, n_paths=4,
                chunks=2, seed=1, runner=BatchRunner(executor="serial"))

    def test_noisy_grid_needs_normals(self):
        engine = SwecEnsembleTransient(noisy_rc_circuit(), n_instances=2,
                                       noise=[("n1", 1e-8)])
        with pytest.raises(AnalysisError, match="normals="):
            engine.run_grid(np.linspace(0.0, 1e-9, 11))
        with pytest.raises(AnalysisError, match="shape"):
            engine.run_grid(np.linspace(0.0, 1e-9, 11),
                            normals=np.zeros((2, 11, 1)))

    def test_per_instance_noise_amplitudes(self):
        amplitudes = np.array([0.0, 1e-8])
        engine = SwecEnsembleTransient(
            noisy_rc_circuit(), n_instances=2,
            noise=[("n1", amplitudes)])
        normals = path_normals(np.random.SeedSequence(1).spawn(2), 100, 1)
        result = engine.run_grid(np.linspace(0.0, 2e-9, 101),
                                 normals=normals)
        quiet, noisy = result.voltage("n1")
        assert np.std(np.diff(quiet)) < np.std(np.diff(noisy))


class TestEnsembleTransientJob:
    def test_variations_route_through_lockstep_engine(self):
        job = EnsembleTransientJob(
            t_stop=4e-9, builder="fet_rtd_inverter",
            variations=[{"load_capacitance": 0.5e-12},
                        {"load_capacitance": 2e-12}],
            steps=80,
            options={"epsilon": 0.05, "h_min": 1e-12, "h_max": 0.2e-9,
                     "h_initial": 1e-12})
        result = job.run()
        assert result.n_instances == 2
        times = np.linspace(0.0, 4e-9, 81)
        for k, cap in enumerate((0.5e-12, 2e-12)):
            circuit, _ = fet_rtd_inverter(load_capacitance=cap)
            reference = SwecTransient(circuit, swec_options()) \
                .run_grid(times)
            assert np.allclose(result.states[k], reference.states,
                               rtol=0.0, atol=TOLERANCE)

    def test_node_reduction_returns_statistics(self):
        job = EnsembleTransientJob(
            t_stop=2e-9, builder="noisy_rc_node",
            params={"drive": 1e-4}, n_instances=8, steps=40,
            noise=[("n1", 1e-8)], node="n1")
        stats = job.run(np.random.SeedSequence(4))
        assert stats.n_paths == 8
        assert stats.mean.shape == (41,)

    def test_runner_seeding_is_deterministic(self):
        def job():
            return EnsembleTransientJob(
                t_stop=1e-9, builder="noisy_rc_node",
                params={"drive": 1e-4}, n_instances=4, steps=20,
                noise=[("n1", 1e-8)], return_result=True)

        runner = BatchRunner(executor="serial", seed=7)
        a = runner.run([job()])
        b = BatchRunner(executor="serial", seed=7).run([job()])
        assert np.array_equal(a.values()[0].states, b.values()[0].states)

    def test_job_from_mapping_type(self):
        job = job_from_mapping({
            "type": "ensemble_transient", "circuit": "noisy_rc_node",
            "t_stop": 1e-9, "n_instances": 3, "steps": 10,
            "noise": [["n1", 1e-8]], "node": "n1"})
        assert isinstance(job, EnsembleTransientJob)
        assert job.size == 3

    def test_validation_errors(self):
        with pytest.raises(AnalysisError, match="exactly one"):
            EnsembleTransientJob(t_stop=1e-9, n_instances=2)
        with pytest.raises(AnalysisError, match="variations"):
            EnsembleTransientJob(t_stop=1e-9, builder="noisy_rc_node",
                                 variations=[])
        with pytest.raises(AnalysisError, match="steps"):
            EnsembleTransientJob(t_stop=1e-9, builder="noisy_rc_node",
                                 n_instances=2, noise=[("n1", 1e-8)])

    def test_path_seeds_need_noise(self):
        # A noiseless job would ignore the seeds, yet they would still
        # enter its cache key.
        with pytest.raises(AnalysisError, match="noise"):
            EnsembleTransientJob(
                t_stop=1e-9, builder="noisy_rc_node", n_instances=2,
                steps=10, path_seeds=np.random.SeedSequence(0).spawn(2))

    def test_path_seeds_need_one_stream_per_instance(self):
        kwargs = dict(t_stop=1e-9, builder="noisy_rc_node", steps=10,
                      noise=[("n1", 1e-8)])
        seeds = np.random.SeedSequence(0).spawn(4)
        with pytest.raises(AnalysisError, match="per instance: expected 3"):
            EnsembleTransientJob(n_instances=3, path_seeds=seeds, **kwargs)
        with pytest.raises(AnalysisError, match="per pair: expected 2"):
            EnsembleTransientJob(n_instances=4, path_seeds=seeds,
                                 antithetic=True, **kwargs)
        job = EnsembleTransientJob(n_instances=4, path_seeds=seeds,
                                   return_result=True, **kwargs)
        assert job.run().states.shape[0] == 4


class TestSweepVectorMode:
    def _spec(self, vector):
        from repro.sweep.measures import measures_from_spec
        from repro.sweep.spec import ParameterAxis, SweepSpec

        return SweepSpec(
            axes=[ParameterAxis.from_values(
                "load_capacitance",
                [0.5e-12, 1e-12, 1.5e-12, 2e-12, 3e-12])],
            template="fet_rtd_inverter",
            kind="transient",
            settings={"t_stop": 3e-9,
                      "options": {"epsilon": 0.2, "h_min": 1e-11,
                                  "h_max": 0.2e-9, "h_initial": 1e-11}},
            measures=measures_from_spec([{"kind": "final"}],
                                        kind="transient"),
            batch={"vector": vector},
        )

    def test_vector_results_match_scalar_sweep(self):
        from repro.sweep.runner import run_sweep

        scalar = run_sweep(self._spec(1), executor="serial")
        vector = run_sweep(self._spec(2), executor="serial")
        assert vector.ok
        assert vector.columns["label"] == scalar.columns["label"]
        assert np.allclose(vector.columns["final"],
                           scalar.columns["final"], rtol=1e-6)

    def test_vector_results_are_worker_invariant(self):
        from repro.sweep.runner import run_sweep

        serial = run_sweep(self._spec(2), executor="serial")
        parallel = run_sweep(self._spec(2), max_workers=2,
                             executor="process")
        assert serial.columns["final"] == parallel.columns["final"]
        assert serial.columns["flops"] == parallel.columns["flops"]

    def test_vector_validation(self):
        with pytest.raises(SweepSpecError, match="vector"):
            self._spec(0)
        from repro.sweep.measures import measures_from_spec
        from repro.sweep.spec import ParameterAxis, SweepSpec

        with pytest.raises(SweepSpecError, match="transient"):
            SweepSpec(
                axes=[ParameterAxis.from_values("load_capacitance",
                                                [1e-12])],
                template="fet_rtd_inverter",
                kind="ac",
                settings={"f_start": 1e3, "f_stop": 1e9},
                measures=measures_from_spec([{"kind": "ac_gain"}],
                                            kind="ac"),
                batch={"vector": 2},
            )


class TestResultContainer:
    def test_instance_views_and_final_voltages(self):
        circuits = inverter_family(3)
        result = SwecEnsembleTransient(circuits, swec_options()) \
            .run_grid(np.linspace(0.0, 1e-9, 21))
        assert result.voltage("out").shape == (3, 21)
        finals = result.final_voltages()
        assert finals["out"].shape == (3,)
        instance = result.instance(2)
        assert instance.voltage("out")[-1] == finals["out"][2]
        assert instance.at(0.5e-9, "out") == pytest.approx(
            float(np.interp(0.5e-9, result.times,
                            result.voltage("out")[2])))
        with pytest.raises(AnalysisError, match="out of range"):
            result.instance(3)
        # The copy carries the grid, instance 2's rows and every
        # run-level diagnostic, and stays a working TransientResult.
        assert instance.times.tobytes() == result.times.tobytes()
        assert instance.states.tobytes() == result.states[2].tobytes()
        result.rejected_steps, result.factor_reuses = 2, 3
        result.step_limits, result.steps_at_hmin = {"slope": 19, "growth": 1}, 1
        result.aborted, result.abort_reason = True, "max_points=21 reached"
        result.fallback_events = [("dense", "stack")]
        result.dc_iterations, result.dc_converged = 7, False
        copy = result.instance(2)
        for field in ("engine", "accepted_steps", "rejected_steps",
                      "step_limits", "steps_at_hmin", "aborted",
                      "abort_reason", "dc_iterations", "dc_converged",
                      "factor_reuses", "backend", "fallback_events"):
            assert getattr(copy, field) == getattr(result, field), field
        assert copy.convergence_failures == 1
        assert copy.flops.total == 0
        assert not hasattr(copy, "conductance_trace")
        with pytest.raises(AnalysisError, match="non-monotonic"):
            copy.append(0.5e-9, copy.states[-1])
        copy.append(2e-9, copy.states[-1])
        assert len(copy) == len(result) + 1

    def test_flops_count_the_whole_batch(self):
        circuits = inverter_family(4)
        times = np.linspace(0.0, 1e-9, 21)
        result = SwecEnsembleTransient(circuits, swec_options()) \
            .run_grid(times)
        single = SwecTransient(circuits[0], swec_options()) \
            .run_grid(times)
        # Same recipe, 4 instances: 4x the factorizations of one march.
        assert result.flops.factorizations == 4 * \
            single.flops.factorizations
