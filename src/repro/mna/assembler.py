"""MNA system assembly.

Unknown vector layout::

    x = [ v_1 ... v_N | i_V1 ... i_VM | i_L1 ... i_LK ]

node voltages first, then one branch current per voltage source, then one
per inductor.  Ground is eliminated (index ``-1`` never stamps).

The assembler produces:

``conductance_base()``
    Constant part of ``G``: resistor stamps plus source/inductor incidence
    rows.  Engines copy it and add device conductances each step.
``capacitance_matrix()``
    ``C`` with capacitor stamps and ``-L`` on inductor branch diagonals.
``source_vector(t)``
    ``b(t)`` from the independent sources.
``stamp_two_terminal`` / ``stamp_mosfet_*``
    In-place stamp helpers shared by every engine (SWEC chords, Newton
    companion models, PWL segment conductances all stamp identically).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import Circuit, is_ground
from repro.errors import AnalysisError, AssemblyError


class MnaSystem:
    """Matrix-level view of a :class:`~repro.circuit.Circuit`.

    Parameters
    ----------
    circuit:
        The circuit to assemble.  It is validated on construction.
    """

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        self.num_nodes = circuit.num_nodes
        self._vsrc_offset = self.num_nodes
        self._ind_offset = self.num_nodes + len(circuit.voltage_sources)
        self.size = self._ind_offset + len(circuit.inductors)
        if self.size == 0:
            raise AssemblyError(
                f"circuit {circuit.name!r} produced an empty system")
        self._node_of = {name: k for k, name in enumerate(circuit.nodes)}

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------

    def node_index(self, node: str) -> int:
        """Row index for *node*'s voltage; ``-1`` for ground."""
        if is_ground(node):
            return -1
        try:
            return self._node_of[node]
        except KeyError:
            raise AssemblyError(f"unknown node {node!r}") from None

    def vsource_index(self, name: str) -> int:
        """Row index of the branch current of voltage source *name*."""
        for k, source in enumerate(self.circuit.voltage_sources):
            if source.name == name:
                return self._vsrc_offset + k
        raise AssemblyError(f"no voltage source named {name!r}")

    def inductor_index(self, name: str) -> int:
        """Row index of the branch current of inductor *name*."""
        for k, inductor in enumerate(self.circuit.inductors):
            if inductor.name == name:
                return self._ind_offset + k
        raise AssemblyError(f"no inductor named {name!r}")

    # ------------------------------------------------------------------
    # Stamp helpers (shared by every engine)
    # ------------------------------------------------------------------

    @staticmethod
    def stamp_conductance(matrix: np.ndarray, i: int, j: int,
                          g: float) -> None:
        """Stamp conductance *g* between row/col indices *i* and *j*.

        Either index may be ``-1`` (ground), in which case only the
        diagonal of the other survives.
        """
        if i >= 0:
            matrix[i, i] += g
        if j >= 0:
            matrix[j, j] += g
        if i >= 0 and j >= 0:
            matrix[i, j] -= g
            matrix[j, i] -= g

    @staticmethod
    def stamp_current(vector: np.ndarray, i: int, j: int,
                      current: float) -> None:
        """Inject *current* flowing from node *i* into node *j*."""
        if i >= 0:
            vector[i] -= current
        if j >= 0:
            vector[j] += current

    def stamp_two_terminal(self, matrix: np.ndarray, anode: int,
                           cathode: int, g: float) -> None:
        """Stamp a device's (chord or companion) conductance."""
        self.stamp_conductance(matrix, anode, cathode, g)

    def stamp_transconductance(self, matrix: np.ndarray, out_p: int,
                               out_n: int, ctrl_p: int, ctrl_n: int,
                               gm: float) -> None:
        """Stamp a VCCS: current ``gm * (V_ctrlp - V_ctrln)`` into
        ``out_p -> out_n`` (used for the MOSFET ``gm`` in Newton mode)."""
        for row, sign_r in ((out_p, 1.0), (out_n, -1.0)):
            if row < 0:
                continue
            for col, sign_c in ((ctrl_p, 1.0), (ctrl_n, -1.0)):
                if col < 0:
                    continue
                matrix[row, col] += gm * sign_r * sign_c

    # ------------------------------------------------------------------
    # Matrix builders
    # ------------------------------------------------------------------

    def conductance_base(self) -> np.ndarray:
        """Constant ``G`` stamps: resistors + source/inductor incidence."""
        g = np.zeros((self.size, self.size))
        for resistor in self.circuit.resistors:
            i = self.node_index(resistor.nodes[0])
            j = self.node_index(resistor.nodes[1])
            self.stamp_conductance(g, i, j, resistor.conductance)
        for k, source in enumerate(self.circuit.voltage_sources):
            row = self._vsrc_offset + k
            p = self.node_index(source.nodes[0])
            n = self.node_index(source.nodes[1])
            if p >= 0:
                g[p, row] += 1.0
                g[row, p] += 1.0
            if n >= 0:
                g[n, row] -= 1.0
                g[row, n] -= 1.0
        for k, inductor in enumerate(self.circuit.inductors):
            row = self._ind_offset + k
            p = self.node_index(inductor.nodes[0])
            n = self.node_index(inductor.nodes[1])
            if p >= 0:
                g[p, row] += 1.0
                g[row, p] += 1.0
            if n >= 0:
                g[n, row] -= 1.0
                g[row, n] -= 1.0
        return g

    def capacitance_matrix(self) -> np.ndarray:
        """``C`` matrix: capacitor stamps, ``-L`` on inductor diagonals."""
        c = np.zeros((self.size, self.size))
        for capacitor in self.circuit.capacitors:
            i = self.node_index(capacitor.nodes[0])
            j = self.node_index(capacitor.nodes[1])
            self.stamp_conductance(c, i, j, capacitor.capacitance)
        for k, inductor in enumerate(self.circuit.inductors):
            row = self._ind_offset + k
            c[row, row] -= inductor.inductance
        return c

    def source_vector(self, t: float,
                      out: np.ndarray | None = None) -> np.ndarray:
        """Independent-source contribution ``b(t)``.

        Passing *out* (a ``(size,)`` array) reuses the buffer instead of
        allocating — the transient engines call this every step.
        """
        if out is None:
            b = np.zeros(self.size)
        else:
            b = out
            b.fill(0.0)
        for k, source in enumerate(self.circuit.voltage_sources):
            b[self._vsrc_offset + k] = source.value(t)
        for source in self.circuit.current_sources:
            p = self.node_index(source.nodes[0])
            n = self.node_index(source.nodes[1])
            self.stamp_current(b, p, n, source.value(t))
        return b

    # ------------------------------------------------------------------
    # Device terminal indices, precomputed once per analysis
    # ------------------------------------------------------------------

    def device_terminals(self) -> list[tuple[int, int]]:
        """``(anode, cathode)`` index pairs for each two-terminal device."""
        return [
            (self.node_index(d.nodes[0]), self.node_index(d.nodes[1]))
            for d in self.circuit.devices
        ]

    def device_branch(self, name: str, states: np.ndarray):
        """``(device, voltages)`` for the two-terminal device *name*:
        its branch voltage ``V(anode) - V(cathode)`` in every row of the
        ``(T, size)`` *states*."""
        for device, (anode, cathode) in zip(self.circuit.devices,
                                            self.device_terminals()):
            if device.name == name:
                zeros = np.zeros(states.shape[0])
                va = states[:, anode] if anode >= 0 else zeros
                vc = states[:, cathode] if cathode >= 0 else zeros
                return device, va - vc
        raise AnalysisError(f"no device named {name!r}")

    def source_slot(self, name: str):
        """``("v", row)`` or ``("i", (p, n, source))`` for the
        independent source *name*."""
        for source in self.circuit.voltage_sources:
            if source.name == name:
                return "v", self.vsource_index(name)
        for source in self.circuit.current_sources:
            if source.name == name:
                p = self.node_index(source.nodes[0])
                n = self.node_index(source.nodes[1])
                return "i", (p, n, source)
        raise AnalysisError(f"no independent source named {name!r}")

    def mosfet_terminals(self) -> list[tuple[int, int, int]]:
        """``(drain, gate, source)`` index triples for each MOSFET."""
        return [
            (self.node_index(m.drain), self.node_index(m.gate),
             self.node_index(m.source))
            for m in self.circuit.mosfets
        ]

    def chord_pairs(self) -> list[tuple[int, int]]:
        """The chord stamp pairs: each two-terminal device's ``(anode,
        cathode)``, then each MOSFET's ``(drain, source)`` (paper eq. 3
        stamps a MOSFET chord like a two-terminal one).  This is the
        column order of every chord stack."""
        return self.device_terminals() + [
            (drain, source) for drain, _gate, source in self.mosfet_terminals()
        ]

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------

    def initial_state(self) -> np.ndarray:
        """Zero state with capacitor initial voltages honoured.

        A capacitor with ``initial_voltage`` set pins the *difference* of
        its node voltages; when one terminal is grounded the assignment is
        exact, otherwise the positive node takes the value (standard IC
        semantics for the circuits in this library).
        """
        x = np.zeros(self.size)
        for capacitor in self.circuit.capacitors:
            if capacitor.initial_voltage is None:
                continue
            i = self.node_index(capacitor.nodes[0])
            j = self.node_index(capacitor.nodes[1])
            if i >= 0:
                x[i] = capacitor.initial_voltage + (x[j] if j >= 0 else 0.0)
            elif j >= 0:
                x[j] = -capacitor.initial_voltage
        for k, inductor in enumerate(self.circuit.inductors):
            x[self._ind_offset + k] = inductor.initial_current
        return x

    def voltages(self, state: np.ndarray) -> dict[str, float]:
        """Map node name -> voltage for a solved state vector."""
        return {name: float(state[k]) for name, k in self._node_of.items()}

    def branch_voltage(self, state: np.ndarray, node_a: str,
                       node_b: str) -> float:
        """Voltage ``V(node_a) - V(node_b)`` from a state vector."""
        va = 0.0 if is_ground(node_a) else float(state[self.node_index(node_a)])
        vb = 0.0 if is_ground(node_b) else float(state[self.node_index(node_b)])
        return va - vb

    def __repr__(self) -> str:
        return (f"MnaSystem({self.circuit.name!r}, size={self.size}, "
                f"nodes={self.num_nodes})")
