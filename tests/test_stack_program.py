"""The ``stack`` backend's straight-line LU against batched LAPACK.

:class:`~repro.mna.batch.StackProgram` replaces ``np.linalg.solve`` for
stacks of at most ``PLAN_MAX_SIZE`` unknowns.  These tests hold it to
:func:`~repro.mna.batch.solve_stack` on the step and DC stacks that real
lockstep marches solve, hold each instance's bits independent of the
stack around it, and check that its growth guard hands exactly the
instances it rejects to LAPACK.
"""

import numpy as np
import pytest

from repro.circuits_lib import (
    fet_rtd_inverter,
    mobile_dflipflop,
    rtd_chain,
    rtd_relaxation_oscillator,
)
from repro.circuits_lib.logic_gates import GateInfo, mobile_nand, mobile_nor
from repro.core.backends import StackBackend
from repro.errors import SingularMatrixError
from repro.mna import MnaSystem
from repro.mna.batch import PLAN_MAX_SIZE, solve_stack
from repro.runtime import BatchRunner
from repro.stochastic import run_circuit_ensemble_parallel
from repro.stochastic.vr import path_normals
from repro.swec import SwecEnsembleTransient, SwecOptions
from repro.swec.timestep import StepControlOptions

K = 256
HIGH = GateInfo().input_high


def _options():
    return SwecOptions(step=StepControlOptions(
        epsilon=0.05, h_min=1e-12, h_max=0.2e-9, h_initial=1e-12))


def _inverter(rng):
    return [fet_rtd_inverter(
        fet_vth=float(1.0 + 0.15 * rng.uniform(-1.0, 1.0)),
        load_capacitance=float(1e-12 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0))),
    )[0] for _ in range(K)], np.linspace(0.0, 2e-8, 41)


def _gate(builder):
    def build(rng):
        levels = HIGH * rng.integers(0, 2, size=(K, 2))
        return [builder(float(a), float(b))[0] for a, b in levels], \
            np.linspace(0.0, 10e-9, 41)
    return build


def _flipflop(rng):
    data = HIGH * rng.uniform(0.0, 1.0, K)
    return [mobile_dflipflop(data=float(d))[0] for d in data], \
        np.linspace(0.0, 10e-9, 41)


CIRCUITS = {
    "inverter": _inverter,
    "nand": _gate(mobile_nand),
    "nor": _gate(mobile_nor),
    "flipflop": _flipflop,
    # The oscillator (an inductor branch row) varies by its noise paths.
    "oscillator": None,
}


@pytest.fixture(scope="module", params=sorted(CIRCUITS))
def marched(request):
    """``(engine, stacks)`` of one K = 256 lockstep march: every
    ``(matrices, rhs, is_dc)`` its stack backend solved."""
    build = CIRCUITS[request.param]
    if build is None:
        circuit, info = rtd_relaxation_oscillator()
        engine = SwecEnsembleTransient(
            circuit, n_instances=K, noise=[(info.output, 1e-8)])
        times = np.linspace(0.0, float(info.period_guess), 121)
        normals = path_normals(np.random.SeedSequence(7).spawn(K), 120, 1)
    else:
        circuits, times = build(np.random.default_rng(20051))
        engine = SwecEnsembleTransient(circuits, _options())
        normals = None
    stacks = []
    solve = StackBackend._solve

    def recording(backend, matrices, rhs):
        stacks.append((matrices.copy(), rhs.copy(), matrices is backend._g))
        return solve(backend, matrices, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StackBackend, "_solve", recording)
        engine.run_grid(times, normals=normals)
    return engine, stacks


def test_marches_solve_both_forms_on_the_program(marched):
    engine, stacks = marched
    assert engine.backend._program is not None
    assert {is_dc for *_, is_dc in stacks} == {False, True}


def test_program_matches_lapack(marched):
    engine, stacks = marched
    program = engine.backend._program
    for matrices, rhs, _ in stacks:
        solution, rejected = program.solve(matrices, rhs)
        assert rejected is None
        reference = solve_stack(matrices, rhs)
        scale = np.abs(reference).max(axis=1, keepdims=True)
        assert np.all(np.abs(solution - reference) <= 1e-12 * scale)


def test_instance_bits_do_not_depend_on_the_stack(marched):
    engine, stacks = marched
    systems = engine.backend.systems
    wide = StackBackend(systems)
    narrow = StackBackend(systems[16:32])
    alone = StackBackend(systems[21:22])
    for matrices, rhs, _ in stacks[:: max(1, len(stacks) // 12)]:
        full = wide._solve(matrices, rhs)
        assert np.array_equal(full[16:32],
                              narrow._solve(matrices[16:32], rhs[16:32]))
        assert np.array_equal(full[21:22],
                              alone._solve(matrices[21:22], rhs[21:22]))


def test_chunked_statistics_are_bit_identical():
    _, info = rtd_relaxation_oscillator()
    kwargs = dict(t_stop=float(info.period_guess), steps=120, n_paths=256,
                  seed=5, runner=BatchRunner(executor="serial"))
    whole = run_circuit_ensemble_parallel(
        "rtd_relaxation_oscillator", {info.output: 1e-8}, chunks=1, **kwargs)
    split = run_circuit_ensemble_parallel(
        "rtd_relaxation_oscillator", {info.output: 1e-8}, chunks=4, **kwargs)
    for name in ("mean", "std", "lower", "upper"):
        assert np.array_equal(getattr(whole, name), getattr(split, name))


def test_program_bound_is_the_plan_bound():
    sizes = []
    for stages in (PLAN_MAX_SIZE - 2, PLAN_MAX_SIZE - 1):
        system = MnaSystem(rtd_chain(stages)[0])
        sizes.append(system.size)
        program = StackBackend([system, system])._program
        assert (program is not None) == (system.size <= PLAN_MAX_SIZE)
    assert sizes == [PLAN_MAX_SIZE, PLAN_MAX_SIZE + 1]


class TestGuard:
    @pytest.fixture()
    def stack(self):
        """An oscillator step stack (its growth check has one entry)."""
        circuit, info = rtd_relaxation_oscillator()
        engine = SwecEnsembleTransient(circuit, n_instances=16,
                                       noise=[(info.output, 1e-8)])
        times = np.linspace(0.0, float(info.period_guess), 61)
        normals = path_normals(np.random.SeedSequence(3).spawn(16), 60, 1)
        result = engine.run_grid(times, normals=normals)
        backend = engine.backend
        matrices = backend._system_matrix(times[1], False).copy()
        rhs = np.matmul(matrices, result.states[:, 30, :, None])[:, :, 0]
        assert backend._program._grown
        return backend, matrices, rhs

    def test_past_the_bound_takes_lapack_alone(self, stack):
        backend, matrices, rhs = stack
        clean = backend._solve(matrices, rhs)
        bad = matrices.copy()
        # The capacitor node's pivot: its inductor-row multiplier grows.
        bad[5, 1, 1] *= 1e-6
        _, rejected = backend._program.solve(bad, rhs)
        assert rejected.tolist() == [5]
        mixed = backend._solve(bad, rhs)
        assert np.array_equal(mixed[5], np.linalg.solve(bad[5], rhs[5]))
        others = np.arange(16) != 5
        assert np.array_equal(mixed[others], clean[others])

    def test_singular_instance_is_named_by_stack_index(self, stack):
        backend, matrices, rhs = stack
        singular = matrices.copy()
        singular[9, 1, :] = 0.0
        with pytest.raises(SingularMatrixError,
                           match=r"stack instance\(s\) \[9\]"):
            backend._solve(singular, rhs)

    def test_wrong_sized_stack_is_refused(self, stack):
        backend, matrices, rhs = stack
        with pytest.raises(ValueError, match=r"expected a \(16, 4, 4\)"):
            backend._program.solve(matrices[:8], rhs[:8])
