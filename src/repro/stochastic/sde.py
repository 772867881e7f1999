"""Linear SDE models, including the circuit-derived form of eq. (13).

The paper's stochastic state equation is

.. math::  C\\,dx = (-G(t)\\,x + b(t))\\,dt + B\\,dW

:class:`LinearSDE` holds the explicit form
``dx = (A(t) x + f(t)) dt + S dW`` that the EM integrator consumes;
:class:`CircuitSDE` builds it from a :class:`~repro.circuit.Circuit` by
inverting the capacitance matrix (every node must carry a grounded
capacitor — physically, the parasitic capacitance the paper's Fig. 10
circuit includes).  Deterministic drives enter through the circuit's
current sources; noise enters as white-noise current injections at named
nodes.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.mna.assembler import MnaSystem
from repro.mna.batch import ConductanceStamper
from repro.swec.conductance import SwecLinearization


class LinearSDE:
    """``dx = (A(t) x + f(t)) dt + S dW`` with ``m`` independent noises.

    Parameters
    ----------
    drift_matrix:
        Either a constant ``(n, n)`` array or a callable ``A(t)``.
    drift_offset:
        Constant ``(n,)`` array or callable ``f(t)``; defaults to zero.
    noise_matrix:
        ``(n, m)`` array ``S`` mapping the ``m`` Wiener differentials
        into the state equations.
    """

    def __init__(self, drift_matrix, noise_matrix, drift_offset=None) -> None:
        self._a = drift_matrix
        self._constant_a = not callable(drift_matrix)
        if self._constant_a:
            self._a = np.atleast_2d(np.asarray(drift_matrix, dtype=float))
        self.noise = np.atleast_2d(np.asarray(noise_matrix, dtype=float))
        self.dimension = self._a.shape[0] if self._constant_a else self.noise.shape[0]
        if self.noise.shape[0] != self.dimension:
            raise AnalysisError(
                f"noise matrix has {self.noise.shape[0]} rows, "
                f"state dimension is {self.dimension}"
            )
        self.num_noises = self.noise.shape[1]
        if drift_offset is None:
            self._f: Callable | np.ndarray = np.zeros(self.dimension)
            self._constant_f = True
        else:
            self._constant_f = not callable(drift_offset)
            self._f = (
                np.asarray(drift_offset, dtype=float)
                if self._constant_f
                else drift_offset
            )

    def drift_matrix(self, t: float) -> np.ndarray:
        """``A(t)``."""
        return (
            self._a
            if self._constant_a
            else np.atleast_2d(np.asarray(self._a(t), dtype=float))
        )

    def drift_offset(self, t: float) -> np.ndarray:
        """``f(t)``."""
        return self._f if self._constant_f else np.asarray(self._f(t), dtype=float)

    def drift(self, x: np.ndarray, t: float) -> np.ndarray:
        """Full drift ``A(t) x + f(t)``, vectorized over path rows.

        *x* may be ``(n,)`` or ``(paths, n)``.
        """
        a = self.drift_matrix(t)
        f = self.drift_offset(t)
        return x @ a.T + f

    def is_stable(self, t: float = 0.0) -> bool:
        """True when all eigenvalues of ``A(t)`` have negative real part."""
        eigenvalues = np.linalg.eigvals(self.drift_matrix(t))
        return bool(np.all(eigenvalues.real < 0.0))


class CircuitSDE(LinearSDE):
    """The paper's eq. (13) built from a circuit description.

    ``dx = C^{-1}(-G(t) x + b(t)) dt + C^{-1} B dW``

    Requirements: no voltage sources (use Norton equivalents), and a
    nonsingular node capacitance matrix (a grounded capacitor at every
    node).  Nonlinear devices are handled exactly as in the SWEC engine:
    their chord conductance, evaluated along the *mean* trajectory, makes
    ``G`` time-varying — which eq. (13) explicitly allows.
    """

    def __init__(
        self,
        circuit: Circuit,
        noise_nodes: Sequence[tuple[str, float]],
        linearize_at: np.ndarray | None = None,
    ) -> None:
        if circuit.voltage_sources:
            raise AnalysisError(
                "CircuitSDE needs current-driven circuits; replace voltage "
                "sources with Norton equivalents"
            )
        system = MnaSystem(circuit)
        if system.size != system.num_nodes:
            raise AnalysisError("inductors are not supported in CircuitSDE")
        self.system = system
        self.circuit = circuit
        c = system.capacitance_matrix()
        try:
            c_inverse = np.linalg.inv(c)
        except np.linalg.LinAlgError:
            raise AnalysisError(
                "capacitance matrix is singular: every node needs a "
                "grounded capacitor to form a well-posed SDE"
            ) from None
        self._c_inverse = c_inverse
        self._g_base = system.conductance_base()
        linearization = SwecLinearization(system)
        stamper = ConductanceStamper(system.chord_pairs(), system.size)
        self._operating_state = (
            np.zeros(system.size)
            if linearize_at is None
            else np.asarray(linearize_at, dtype=float)
        )

        noise_matrix = np.zeros((system.size, len(noise_nodes)))
        for column, (node, amplitude) in enumerate(noise_nodes):
            index = system.node_index(node)
            if index < 0:
                raise AnalysisError("cannot inject noise at ground")
            noise_matrix[index, column] = float(amplitude)
        if circuit.nonlinear():
            def drift_a(t: float) -> np.ndarray:
                voltages, vgs, vds = linearization.branch_voltages(
                    self._operating_state
                )
                chords = linearization.device_conductances(voltages)
                chords += linearization.mosfet_conductances(vgs, vds)
                g = self._g_base.copy()
                stamper.stamp(g, chords)
                return -c_inverse @ g
        else:
            g = self._g_base
            constant_a = -c_inverse @ g
            drift_a = constant_a  # type: ignore[assignment]

        def drift_f(t: float) -> np.ndarray:
            return c_inverse @ system.source_vector(t)

        super().__init__(drift_a, c_inverse @ noise_matrix, drift_offset=drift_f)

    def set_operating_state(self, state: np.ndarray) -> None:
        """Update the linearization point for nonlinear devices."""
        state = np.asarray(state, dtype=float)
        if state.shape != (self.system.size,):
            raise AnalysisError(f"state must have shape ({self.system.size},)")
        self._operating_state = state
