"""MNA system assembly.

Unknown vector layout::

    x = [ v_1 ... v_N | i_V1 ... i_VM | i_L1 ... i_LK ]

node voltages first, then one branch current per voltage source, then one
per inductor.  Ground is eliminated (index ``-1`` never stamps).

:func:`stamp_entries` defines the two-terminal stamp once, and
:class:`MnaSystem` assembles its linear elements with it into COO
triplets ``(rows, cols, values)`` (Davis, *Direct Methods for Sparse
Linear Systems*, SIAM 2006, ch. 2), afresh on each call:

``conductance_triplets()`` / ``conductance_base()``
    Constant part of ``G``: resistor stamps plus source/inductor
    incidence rows, as triplets or densified with one ``np.add.at`` in
    element order (sparse consumers sum them by :func:`summed_keys`).
``capacitance_triplets()`` / ``capacitance_matrix()``
    ``C`` with capacitor stamps and ``-L`` on inductor branch diagonals.
``source_vector(t)``
    ``b(t)`` from the independent sources.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.circuit.netlist import Circuit, is_ground
from repro.errors import AnalysisError, AssemblyError

#: Entry slots ``(rows, cols)`` picked from an element's ends, signed
#: ``+, +, -, -``: the stamp of ``(i, j)`` at ``(i, i), (j, j), (i, j),
#: (j, i)``; the incidence of ``(p, n)`` on branch row ``b`` at
#: ``(p, b), (b, p), (n, b), (b, n)``.
_STAMP_SLOTS = (np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0]))
_INCIDENCE_SLOTS = (np.array([0, 2, 1, 2]), np.array([2, 0, 2, 1]))
_SLOT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def _entries(ends: np.ndarray, slots):
    """``(rows, cols, columns, signs)`` of the *slots* of every row of
    *ends* that touch no ground (-1) index, row by row in slot order;
    ``columns`` holds each entry's row of *ends*."""
    rows, cols = ends.take(slots[0], axis=1), ends.take(slots[1], axis=1)
    flat = (np.minimum(rows, cols) >= 0).ravel().nonzero()[0]
    columns, slot = np.divmod(flat, 4)
    return rows.take(flat), cols.take(flat), columns, _SLOT_SIGNS.take(slot)


def stamp_entries(pairs):
    """The two-terminal stamps between index *pairs* as matrix entries.

    Entry ``e`` adds ``signs[e] * g[columns[e]]`` at ``(rows[e],
    cols[e])`` for the conductances ``g`` of the pairs; entries run pair
    by pair, so adding them in turn sums each matrix entry in pair order.
    """
    return _entries(np.array(pairs, dtype=np.int64).reshape(-1, 2),
                    _STAMP_SLOTS)


def summed_keys(triplets, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ``row * size + col`` keys and summed values of *triplets*.

    Duplicates sum in element order, as in the dense matrix, and exact
    zeros are dropped: the pattern ``csr_matrix`` finds in the dense one.
    """
    rows, cols, values = triplets
    keys, slots = np.unique(rows * size + cols, return_inverse=True)
    sums = np.zeros(keys.size)
    np.add.at(sums, slots, values)
    kept = sums != 0.0
    return keys[kept], sums[kept]


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
    # In-place stamps of one element
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
    # Linear elements as COO triplets
    # ------------------------------------------------------------------

    def _pairs(self, elements) -> list[tuple[int, int]]:
        return [(self.node_index(e.nodes[0]), self.node_index(e.nodes[1]))
                for e in elements]

    def conductance_triplets(self):
        """``G_base`` as COO ``(rows, cols, values)``, duplicates
        included: resistor stamps, then the voltage-source and inductor
        incidence, element by element."""
        resistors = self.circuit.resistors
        rows, cols, columns, signs = stamp_entries(self._pairs(resistors))
        g = np.array([r.conductance for r in resistors], dtype=float)
        # Source branch rows run on into the inductor branch rows.
        branches = [*self.circuit.voltage_sources, *self.circuit.inductors]
        ends = [(p, n, self._vsrc_offset + k)
                for k, (p, n) in enumerate(self._pairs(branches))]
        b_rows, b_cols, _, b_signs = _entries(
            np.array(ends, dtype=np.int64).reshape(-1, 3), _INCIDENCE_SLOTS)
        return (np.concatenate((rows, b_rows)),
                np.concatenate((cols, b_cols)),
                np.concatenate((g.take(columns) * signs, b_signs)))

    def capacitance_triplets(self):
        """``C`` as COO ``(rows, cols, values)``, duplicates included:
        capacitor stamps, then ``-L`` on each inductor branch diagonal."""
        capacitors = self.circuit.capacitors
        rows, cols, columns, signs = stamp_entries(self._pairs(capacitors))
        c = np.array([cap.capacitance for cap in capacitors], dtype=float)
        inductors = self.circuit.inductors
        branch = self._ind_offset + np.arange(len(inductors), dtype=np.int64)
        inductance = np.array([ind.inductance for ind in inductors],
                              dtype=float)
        return (np.concatenate((rows, branch)),
                np.concatenate((cols, branch)),
                np.concatenate((c.take(columns) * signs, -inductance)))

    def _densify(self, triplets) -> np.ndarray:
        rows, cols, values = triplets
        matrix = np.zeros((self.size, self.size))
        np.add.at(matrix, (rows, cols), values)
        return matrix

    def conductance_base(self) -> np.ndarray:
        """Constant ``G`` stamps: resistors + source/inductor incidence."""
        return self._densify(self.conductance_triplets())

    def capacitance_matrix(self) -> np.ndarray:
        """``C`` matrix: capacitor stamps, ``-L`` on inductor diagonals."""
        return self._densify(self.capacitance_triplets())

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
        sources = self.circuit.current_sources
        for (p, n), source in zip(self._pairs(sources), sources):
            self.stamp_current(b, p, n, source.value(t))
        return b

    # ------------------------------------------------------------------
    # Device terminal indices, resolved once per system
    # ------------------------------------------------------------------

    @cached_property
    def _terminals(self):
        """Device pairs, MOSFET triples and chord pairs, resolved on
        first use (ensemble instances that never stamp never pay)."""
        devices = tuple(self._pairs(self.circuit.devices))
        mosfets = tuple(
            (self.node_index(m.drain), self.node_index(m.gate),
             self.node_index(m.source))
            for m in self.circuit.mosfets)
        return devices, mosfets, devices + tuple(
            (drain, source) for drain, _gate, source in mosfets)

    def device_terminals(self) -> tuple[tuple[int, int], ...]:
        """``(anode, cathode)`` index pairs for each two-terminal device."""
        return self._terminals[0]

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
        sources = self.circuit.current_sources
        for (p, n), source in zip(self._pairs(sources), sources):
            if source.name == name:
                return "i", (p, n, source)
        raise AnalysisError(f"no independent source named {name!r}")

    def mosfet_terminals(self) -> tuple[tuple[int, int, int], ...]:
        """``(drain, gate, source)`` index triples for each MOSFET."""
        return self._terminals[1]

    def chord_pairs(self) -> tuple[tuple[int, int], ...]:
        """The chord stamp pairs: each two-terminal device's ``(anode,
        cathode)``, then each MOSFET's ``(drain, source)`` (paper eq. 3
        stamps a MOSFET chord like a two-terminal one).  This is the
        column order of every chord stack."""
        return self._terminals[2]

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
