"""Circuit element records.

Elements are thin, validated data holders; all numerical behaviour lives in
the MNA assembler (:mod:`repro.mna`) and the device models
(:mod:`repro.devices`).  Node names are strings; ``"0"`` and ``"gnd"`` are
ground.

Two nonlinear instance types exist:

:class:`TwoTerminalDeviceInstance`
    Wraps any two-terminal device model (RTD, diode, nanowire...) exposing
    ``current(v)`` / ``differential_conductance(v)`` / ``chord_conductance(v)``.
:class:`MosfetInstance`
    A three-terminal level-1 MOSFET.  SWEC treats it as a gate-controlled
    drain-source conductance (paper eqs. 2-3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.circuit.sources import Waveform, as_waveform
from repro.errors import CircuitError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.devices.base import TwoTerminalDevice
    from repro.devices.mosfet import MosfetModel


def _check_positive(name: str, quantity: str, value: float) -> float:
    value = float(value)
    if value <= 0.0 or value != value:  # NaN check
        raise CircuitError(
            f"{name}: {quantity} must be positive and finite, got {value!r}")
    return value


class Element:
    """Base class for all circuit elements.

    Attributes
    ----------
    name:
        Unique instance name (``"R1"``, ``"Vdd"``...).
    nodes:
        Tuple of node names this element connects to, in stamp order.
    """

    def __init__(self, name: str, nodes: tuple[str, ...]) -> None:
        if not name:
            raise CircuitError("element name must be non-empty")
        if any(not n for n in nodes):
            raise CircuitError(f"{name}: node names must be non-empty")
        self.name = name
        self.nodes = nodes

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, nodes={self.nodes!r})"


class Resistor(Element):
    """Linear resistor between two nodes."""

    def __init__(self, name: str, n1: str, n2: str, resistance: float) -> None:
        super().__init__(name, (n1, n2))
        self.resistance = _check_positive(name, "resistance", resistance)

    @property
    def conductance(self) -> float:
        """Conductance ``1/R`` in siemens."""
        return 1.0 / self.resistance


class Capacitor(Element):
    """Linear capacitor between two nodes, with optional initial voltage."""

    def __init__(self, name: str, n1: str, n2: str, capacitance: float,
                 initial_voltage: float | None = None) -> None:
        super().__init__(name, (n1, n2))
        self.capacitance = _check_positive(name, "capacitance", capacitance)
        self.initial_voltage = (
            None if initial_voltage is None else float(initial_voltage))


class Inductor(Element):
    """Linear inductor; contributes a branch-current unknown to the MNA."""

    def __init__(self, name: str, n1: str, n2: str, inductance: float,
                 initial_current: float = 0.0) -> None:
        super().__init__(name, (n1, n2))
        self.inductance = _check_positive(name, "inductance", inductance)
        self.initial_current = float(initial_current)


class VoltageSource(Element):
    """Independent voltage source; contributes a branch-current unknown."""

    def __init__(self, name: str, positive: str, negative: str,
                 waveform: Waveform | float) -> None:
        super().__init__(name, (positive, negative))
        self.waveform = as_waveform(waveform)

    def value(self, t: float) -> float:
        """Source voltage at time *t*."""
        return self.waveform.value(t)

    def slope(self, t: float) -> float:
        """Source time derivative at time *t*."""
        return self.waveform.slope(t)


class CurrentSource(Element):
    """Independent current source, flowing from *positive* to *negative*
    through the source (i.e. it pushes current into *negative*'s node)."""

    def __init__(self, name: str, positive: str, negative: str,
                 waveform: Waveform | float) -> None:
        super().__init__(name, (positive, negative))
        self.waveform = as_waveform(waveform)

    def value(self, t: float) -> float:
        """Source current at time *t*."""
        return self.waveform.value(t)

    def slope(self, t: float) -> float:
        """Source time derivative at time *t*."""
        return self.waveform.slope(t)


class TwoTerminalDeviceInstance(Element):
    """A nonlinear two-terminal device placed between *anode* and *cathode*.

    The voltage across the device is ``V(anode) - V(cathode)`` and positive
    current flows from anode to cathode through the device.  *multiplicity*
    scales the current (parallel devices), matching SPICE's ``M=`` factor.
    """

    def __init__(self, name: str, anode: str, cathode: str,
                 model: "TwoTerminalDevice", multiplicity: float = 1.0) -> None:
        super().__init__(name, (anode, cathode))
        if multiplicity <= 0.0:
            raise CircuitError(
                f"{name}: multiplicity must be positive, got {multiplicity!r}")
        self.model = model
        self.multiplicity = float(multiplicity)

    @property
    def anode(self) -> str:
        return self.nodes[0]

    @property
    def cathode(self) -> str:
        return self.nodes[1]

    def current(self, voltage: float) -> float:
        """Device current at branch *voltage*."""
        return self.multiplicity * self.model.current(voltage)

    def current_many(self, voltages):
        """Vectorized device current over an array of branch voltages."""
        return self.multiplicity * self.model.current_many(voltages)

    def differential_conductance(self, voltage: float) -> float:
        """Small-signal conductance ``dI/dV`` — negative inside NDR."""
        return self.multiplicity * self.model.differential_conductance(voltage)

    def chord_conductance(self, voltage: float) -> float:
        """SWEC chord conductance ``I(V)/V`` (paper Section 3.2)."""
        return self.multiplicity * self.model.chord_conductance(voltage)

    def chord_conductance_derivative(self, voltage: float) -> float:
        """``d(I/V)/dV`` used by the Taylor predictor (paper eq. 7)."""
        return self.multiplicity * self.model.chord_conductance_derivative(
            voltage)

    def chord_pair(self, voltage: float) -> tuple[float, float]:
        """Chord and its derivative in one device-law evaluation."""
        g, dg_dv = self.model.chord_pair(voltage)
        return self.multiplicity * g, self.multiplicity * dg_dv


class MosfetInstance(Element):
    """Level-1 MOSFET with nodes ``(drain, gate, source)``.

    The gate draws no DC current; the drain-source branch carries
    ``Ids(Vgs, Vds)``.  Negative ``Vds`` is handled by the model via
    source/drain symmetry.
    """

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 model: "MosfetModel") -> None:
        super().__init__(name, (drain, gate, source))
        self.model = model

    @property
    def drain(self) -> str:
        return self.nodes[0]

    @property
    def gate(self) -> str:
        return self.nodes[1]

    @property
    def source(self) -> str:
        return self.nodes[2]

    def current(self, vgs: float, vds: float) -> float:
        """Drain-source current at the given terminal voltages."""
        return self.model.current(vgs, vds)

    def chord_conductance(self, vgs: float, vds: float) -> float:
        """SWEC equivalent conductance ``Ids/Vds`` (paper eq. 3)."""
        return self.model.chord_conductance(vgs, vds)

    def partials(self, vgs: float, vds: float) -> tuple[float, float]:
        """Return ``(gm, gds)`` partial derivatives for Newton baselines."""
        return self.model.partials(vgs, vds)
