"""The :class:`Circuit` builder.

A circuit is a named collection of elements over string-named nodes.  It
owns no mathematics: the MNA assembler consumes its element lists.  The
builder API is what examples and the netlist parser use::

    ckt = Circuit("rtd-divider")
    ckt.add_voltage_source("Vs", "in", "0", 1.0)
    ckt.add_resistor("R1", "in", "out", 50.0)
    ckt.add_device("X1", "out", "0", SchulmanRTD())
"""

from __future__ import annotations

from typing import Iterator

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    MosfetInstance,
    Resistor,
    TwoTerminalDeviceInstance,
    VoltageSource,
)
from repro.circuit.sources import Waveform
from repro.errors import CircuitError

#: Node names treated as the reference (ground) node.
GROUND_NAMES = frozenset({"0", "gnd", "GND", "ground"})


def is_ground(node: str) -> bool:
    """Return True when *node* names the reference node."""
    return node in GROUND_NAMES


class Circuit:
    """Mutable netlist builder.

    Parameters
    ----------
    name:
        Human-readable circuit title, used in reports and reprs.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.resistors: list[Resistor] = []
        self.capacitors: list[Capacitor] = []
        self.inductors: list[Inductor] = []
        self.voltage_sources: list[VoltageSource] = []
        self.current_sources: list[CurrentSource] = []
        self.devices: list[TwoTerminalDeviceInstance] = []
        self.mosfets: list[MosfetInstance] = []
        self._names: set[str] = set()
        self._node_order: list[str] = []
        self._node_seen: set[str] = set()

    # ------------------------------------------------------------------
    # Node bookkeeping
    # ------------------------------------------------------------------

    def _register(self, element: Element) -> None:
        if element.name in self._names:
            raise CircuitError(f"duplicate element name {element.name!r}")
        self._names.add(element.name)
        for node in element.nodes:
            if not is_ground(node) and node not in self._node_seen:
                self._node_seen.add(node)
                self._node_order.append(node)

    @property
    def nodes(self) -> tuple[str, ...]:
        """Non-ground node names in first-appearance order."""
        return tuple(self._node_order)

    @property
    def num_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._node_order)

    def node_index(self, node: str) -> int:
        """Index of *node* into the MNA voltage vector; ``-1`` for ground."""
        if is_ground(node):
            return -1
        try:
            return self._node_order.index(node)
        except ValueError:
            raise CircuitError(
                f"unknown node {node!r} in circuit {self.name!r}") from None

    # ------------------------------------------------------------------
    # Element builders
    # ------------------------------------------------------------------

    def add_resistor(self, name: str, n1: str, n2: str,
                     resistance: float) -> Resistor:
        """Add a linear resistor and return it."""
        element = Resistor(name, n1, n2, resistance)
        self._register(element)
        self.resistors.append(element)
        return element

    def add_capacitor(self, name: str, n1: str, n2: str, capacitance: float,
                      initial_voltage: float | None = None) -> Capacitor:
        """Add a linear capacitor and return it."""
        element = Capacitor(name, n1, n2, capacitance, initial_voltage)
        self._register(element)
        self.capacitors.append(element)
        return element

    def add_inductor(self, name: str, n1: str, n2: str, inductance: float,
                     initial_current: float = 0.0) -> Inductor:
        """Add a linear inductor and return it."""
        element = Inductor(name, n1, n2, inductance, initial_current)
        self._register(element)
        self.inductors.append(element)
        return element

    def add_voltage_source(self, name: str, positive: str, negative: str,
                           waveform: Waveform | float) -> VoltageSource:
        """Add an independent voltage source and return it."""
        element = VoltageSource(name, positive, negative, waveform)
        self._register(element)
        self.voltage_sources.append(element)
        return element

    def add_current_source(self, name: str, positive: str, negative: str,
                           waveform: Waveform | float) -> CurrentSource:
        """Add an independent current source and return it."""
        element = CurrentSource(name, positive, negative, waveform)
        self._register(element)
        self.current_sources.append(element)
        return element

    def add_device(self, name: str, anode: str, cathode: str, model,
                   multiplicity: float = 1.0) -> TwoTerminalDeviceInstance:
        """Add a nonlinear two-terminal device (RTD, diode, nanowire...)."""
        element = TwoTerminalDeviceInstance(
            name, anode, cathode, model, multiplicity)
        self._register(element)
        self.devices.append(element)
        return element

    def add_mosfet(self, name: str, drain: str, gate: str, source: str,
                   model) -> MosfetInstance:
        """Add a level-1 MOSFET instance."""
        element = MosfetInstance(name, drain, gate, source, model)
        self._register(element)
        self.mosfets.append(element)
        return element

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def elements(self) -> Iterator[Element]:
        """Iterate over every element in insertion-category order."""
        for group in (self.resistors, self.capacitors, self.inductors,
                      self.voltage_sources, self.current_sources,
                      self.devices, self.mosfets):
            yield from group

    def element(self, name: str) -> Element:
        """Look up an element by name."""
        for candidate in self.elements():
            if candidate.name == name:
                return candidate
        raise CircuitError(f"no element named {name!r} in {self.name!r}")

    @property
    def num_elements(self) -> int:
        """Total number of elements."""
        return sum(1 for _ in self.elements())

    def nonlinear(self) -> bool:
        """Return True when the circuit contains nonlinear devices."""
        return bool(self.devices or self.mosfets)

    def validate(self) -> None:
        """Raise :class:`CircuitError` on structural problems.

        Checks: at least one element; a ground connection somewhere; and
        no node whose *only* attachment is a single capacitor terminal —
        such a node has an all-zero conductance row, which makes every DC
        operating-point solve singular.  (A node ending in a single
        resistor is electrically a dead end but still solvable, so it is
        allowed.)
        """
        if self.num_elements == 0:
            raise CircuitError(f"circuit {self.name!r} is empty")
        touches: dict[str, int] = {}
        grounded = False
        for element in self.elements():
            for node in element.nodes:
                if is_ground(node):
                    grounded = True
                else:
                    touches[node] = touches.get(node, 0) + 1
        if not grounded:
            raise CircuitError(
                f"circuit {self.name!r} has no ground ('0') connection")
        capacitor_touches: dict[str, int] = {}
        for element in self.capacitors:
            for node in element.nodes:
                if not is_ground(node):
                    capacitor_touches[node] = (
                        capacitor_touches.get(node, 0) + 1)
        dangling = sorted(
            node for node, count in touches.items()
            if count == 1 and capacitor_touches.get(node, 0) == 1)
        if dangling:
            raise CircuitError(
                f"circuit {self.name!r} has dangling node(s): {dangling}")

    def __repr__(self) -> str:
        return (f"Circuit({self.name!r}, nodes={self.num_nodes}, "
                f"elements={self.num_elements})")
