"""Small-signal linearization about a DC operating point.

The SWEC substrate already holds everything frequency-domain analysis
needs: the MNA split ``G(t) V + C dV/dt = b u(t)`` and, per device, the
differential conductance ``dI/dV``.  :func:`linearize` solves the bias
point with the chord fixed point (:meth:`repro.swec.dc.SwecDC.
operating_point`) and then replaces every nonlinear element by its
tangent at that bias:

* a two-terminal device becomes the conductance ``m * dI/dV(V_op)`` —
  *negative* inside an NDR region, which is perfectly fine here: the
  complex solves of :mod:`repro.ac.analysis` are direct, not iterative,
  so the divergence that breaks Newton never enters;
* a MOSFET becomes ``gds`` between drain and source plus a ``gm``
  voltage-controlled current source (the classic hybrid-pi skeleton).

The result is the constant real pair ``(G0, C)`` from which every AC
quantity derives as ``(G0 + j omega C) x = b_ac``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import sparse

from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.mna.assembler import MnaSystem
from repro.mna.batch import tangent_incidence
from repro.swec.conductance import SwecLinearization
from repro.swec.dc import SwecDC, SwecDCOptions


@dataclass
class SmallSignalSystem:
    """A circuit linearized about its DC operating point.

    Attributes
    ----------
    circuit / system:
        The source circuit and its assembled MNA view.
    state:
        The bias solution (full MNA state vector, node voltages first).
    g0:
        Small-signal conductance matrix: resistor/source/inductor
        stamps plus every device's ``dI/dV`` and MOSFET ``gds``/``gm``.
    c:
        The (bias-independent) capacitance matrix.
    """

    circuit: Circuit
    system: MnaSystem
    state: np.ndarray
    g0: np.ndarray
    c: np.ndarray

    @property
    def size(self) -> int:
        """Dimension of the MNA system."""
        return self.system.size

    @property
    def node_names(self) -> tuple[str, ...]:
        """Non-ground node names, in MNA row order."""
        return self.circuit.nodes

    def bias_voltages(self) -> dict[str, float]:
        """Node name -> operating-point voltage."""
        return self.system.voltages(self.state)

    # ------------------------------------------------------------------

    def default_source(self) -> str:
        """The source an AC excitation drives when none is named.

        The first voltage source wins, then the first current source —
        matching the "one stimulus plus supplies" shape of the library
        circuits, where the stimulus is added first.
        """
        for source in self.circuit.voltage_sources:
            return source.name
        for source in self.circuit.current_sources:
            return source.name
        raise AnalysisError(
            f"circuit {self.circuit.name!r} has no independent source "
            f"to excite")

    def excitation(self, source: str | None = None) -> np.ndarray:
        """Unit-amplitude AC right-hand side for *source*.

        Every other independent source is left at zero (a small-signal
        short/open), so the solved vector *is* the transfer function
        from that source to every MNA unknown.
        """
        kind, slot = self.system.source_slot(source or self.default_source())
        b = np.zeros(self.size)
        if kind == "v":
            b[slot] = 1.0
        else:
            self.system.stamp_current(b, slot[0], slot[1], 1.0)
        return b


def tangent_conductances(
        circuit: Circuit, system: MnaSystem, state: np.ndarray,
) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Per-element small-signal derivatives evaluated at *state*.

    Returns ``(device_g, mosfet_partials)``: the tangent ``dI/dV`` of
    every two-terminal device (element multiplicity folded in) and the
    ``(gm, gds)`` pair of every MOSFET, from the
    :class:`~repro.swec.conductance.SwecLinearization`'s grouped law
    calls.  :func:`linearize` evaluates them once at the DC operating
    point.
    """
    linearization = SwecLinearization(system, [circuit])
    states = np.asarray(state, dtype=float)[None, :]
    _, device_g = linearization.device_terms(
        linearization.device_voltages(states), tangent=True)
    _, gm, gds = linearization.mosfet_terms(
        *linearization.mosfet_vgs_vds(states), partials=True)
    return device_g[0], list(zip(gm[0].tolist(), gds[0].tolist()))


def stamp_tangent(system: MnaSystem, matrix: np.ndarray,
                  device_g: np.ndarray,
                  mosfet_partials: list[tuple[float, float]]) -> None:
    """Stamp :func:`tangent_conductances` output into *matrix* in place.

    Two-terminal tangents stamp like conductances (negative inside an
    NDR region is fine — the consumers solve directly, not
    iteratively); each MOSFET stamps ``gds`` across drain-source plus
    a ``gm`` voltage-controlled current source (the hybrid-pi
    skeleton), all as one incidence product
    (:func:`~repro.mna.batch.tangent_incidence`).
    """
    control, output = tangent_incidence(system)
    gm, gds = np.reshape(np.asarray(mosfet_partials, dtype=float), (-1, 2)).T
    values = np.concatenate((device_g, gds, gm))
    matrix += (output.T @ sparse.diags(values) @ control).toarray()


def linearize(circuit: Circuit,
              bias: Mapping[str, float] | None = None,
              dc_options: SwecDCOptions | None = None) -> SmallSignalSystem:
    """Bias *circuit* and stamp its small-signal ``(G0, C)`` matrices.

    *bias* maps independent-source names to DC override values (e.g.
    pin an inverter's input inside its transition region); sources not
    named keep their ``t=0`` value.  The bias solve reuses
    :class:`~repro.swec.dc.SwecDC`, so it inherits the chord fixed
    point's NDR robustness.
    """
    dc = SwecDC(circuit, dc_options)
    state = dc.operating_point(bias)
    system = dc.system
    g0 = system.conductance_base()
    device_g, mosfet_partials = tangent_conductances(circuit, system, state)
    stamp_tangent(system, g0, device_g, mosfet_partials)
    return SmallSignalSystem(circuit=circuit, system=system, state=state,
                             g0=g0, c=system.capacitance_matrix())
