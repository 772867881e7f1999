"""Adaptive time-step control (paper Section 3.4).

For a requested local error fraction ``eps`` the paper derives two
constraints (its eqs. 11-12, after Lin/Marek-Sadowska/Kuh):

input-slope constraint
    ``h <= 3 eps |V_i0| / alpha_i`` for every active input, where
    ``alpha_i = dV_in/dt`` is the source slope and ``V_i0`` the present
    source magnitude.
node-RC constraint
    ``h <= eps C_j / sum_k G_jk(t_n)`` for every node ``j`` with grounded
    capacitance ``C_j``; the denominator is the total conductance hanging
    off the node — the diagonal of the current ``G`` matrix.

Deviation from the paper's eq. 12: the node-RC term only bounds nodes
that move.  Backward Euler is L-stable, so a fast node held at rest by
a stiff conductance needs no step bound; applied literally, eq. 12
clamps a whole march at ``h_min`` because of one such node.  With the
last accepted step's ``|dV_j|`` and the present ``|V_j|``, node ``j``
has the reference motion ``ref_j = THETA eps max(|V_j|, voltage_floor)``;
when ``|dV_j| < ref_j`` its eq.-12 ratio is multiplied by
``ref_j / |dV_j|`` (a node that did not move is not bounded at all).
The first step of a march has no last step and takes plain eq. 12, and
so does the step after a source breakpoint: there the inputs change
slope, the last step's motion says nothing about the next one, and the
slope bound (which reads the slope at the step's start) is still zero
at the foot of an edge.  :meth:`LinearStepper.run
<repro.core.stepper.LinearStepper.run>` passes no last step there.

The controller takes the minimum over all constraints, clamps it into
``[h_min, h_max]``, limits growth to ``growth_limit`` per step, and never
steps across a source breakpoint (so pulse edges are honoured exactly).
A step that would leave less than ``h_min`` before ``t_stop`` is
stretched onto ``t_stop``, so no step is shorter than ``h_min`` unless
the whole remainder is.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from repro.circuit.sources import DC, waveform_state_key

#: Motion threshold of the node-RC bound, as a fraction of ``eps``: a
#: node whose last step moved less than ``THETA * eps * max(|V_j|,
#: voltage_floor)`` has its eq.-12 ratio scaled up by the shortfall.
#: Small on purpose — larger values let slowly drifting nodes run
#: ahead of their RC time constant.
THETA = 0.1


@dataclass
class StepControlOptions:
    """Tunables for :class:`EnsembleStepController`.

    Attributes
    ----------
    epsilon:
        Target fractional local error (paper's ``eps``); 2% default.
    h_min, h_max:
        Hard clamp on the step size.
    h_initial:
        First step; defaults to ``h_min`` when ``None``.
    growth_limit:
        Maximum ratio ``h_{n+1} / h_n``.
    voltage_floor:
        Floor on ``|V_i0|`` in the slope constraint so a source crossing
        zero does not drive the step to ``h_min`` forever, and on
        ``|V_j|`` in the node-RC motion threshold.
    """

    epsilon: float = 0.02
    h_min: float = 1e-15
    h_max: float = math.inf
    h_initial: float | None = None
    growth_limit: float = 2.0
    voltage_floor: float = 1e-3

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.h_min <= 0.0:
            raise ValueError(f"h_min must be positive, got {self.h_min!r}")
        if self.h_max < self.h_min:
            raise ValueError("h_max must be >= h_min")
        if self.growth_limit <= 1.0:
            raise ValueError("growth_limit must exceed 1")
        if self.voltage_floor <= 0.0:
            raise ValueError(
                f"voltage_floor must be positive, got {self.voltage_floor!r}")


class EnsembleStepController:
    """Eq.-10/12 step control, worst case over an instance ensemble.

    Computes the next SWEC step from the current operating point of
    every instance: the slope bound over the sources, the node-RC
    bound over the stamped ``G`` diagonals (weighted by how far each
    node moved in the last step, see the module docstring), clamped
    and landed on the source breakpoints.  Value-identical waveforms
    are deduplicated (:func:`~repro.circuit.sources.waveform_state_key`) so the slope
    and breakpoint bounds pay one evaluation per *distinct* source,
    and the node-RC bound is vectorized over a ``(K, n)`` diagonal
    stack — the only part of ``G`` the bound needs, which is what the
    solver backends expose regardless of matrix representation.  A
    single circuit is the ensemble ``([system], [circuit])``.

    After each :meth:`next_step_from_diagonal`, :attr:`limit` names
    the constraint that set the step: ``"slope"``,
    ``"node_rc:<node>"``, ``"growth"``, ``"h_max"`` or
    ``"breakpoint"`` (a source edge or ``t_stop``).
    """

    def __init__(self, systems, circuits,
                 options: StepControlOptions | None = None, *,
                 scalar: bool = False) -> None:
        self.options = options or StepControlOptions()
        seen: set = set()
        sources = []
        for circuit in circuits:
            for source in (list(circuit.voltage_sources)
                           + list(circuit.current_sources)):
                key = waveform_state_key(source.waveform)
                # A DC source has no slope and no breakpoints.
                if key in seen or type(source.waveform) is DC:
                    continue
                seen.add(key)
                sources.append(source)
        self._sources = sources
        self._table: list[float] = []
        self._table_stop: float | None = None
        caps: dict[int, np.ndarray] = {}
        stack = []
        for system in systems:
            if id(system) not in caps:
                # Grounded capacitance per node: C's diagonal on the
                # node rows, summed at each capacitor's non-ground ends
                # in element order, as the diagonal slots of its stamp.
                capacitors = system.circuit.capacitors
                ends = np.array([system.node_index(node) for c in capacitors
                                 for node in c.nodes], dtype=np.intp)
                values = np.repeat([c.capacitance for c in capacitors], 2)
                caps[id(system)] = np.zeros(system.num_nodes)
                np.add.at(caps[id(system)], ends[ends >= 0],
                          values[ends >= 0])
            stack.append(caps[id(system)])
        self._node_capacitance_stack = np.stack(stack)
        # The capacitance stack is fixed for the march, so the
        # (instance, node) pairs with grounded capacitance — and their
        # eps * C_j numerators — are precomputed once; the per-step
        # bound is one gather, one divide and a min.
        c = self._node_capacitance_stack
        self._rc_instances, self._rc_nodes = np.nonzero(c > 0.0)
        self._rc_scaled = (self.options.epsilon
                           * c[self._rc_instances, self._rc_nodes])
        self._rc_ratio = np.empty_like(self._rc_scaled)
        nodes = circuits[0].nodes
        self._rc_labels = [f"node_rc:{nodes[j]}"
                           for j in self._rc_nodes.tolist()]
        self._theta_eps = THETA * self.options.epsilon
        # A single small instance takes the bound on Python floats: the
        # same quotients and min, without numpy's per-call overhead.
        self._rc_pairs = None
        if scalar and len(systems) == 1:
            self._rc_pairs = list(zip(self._rc_scaled.tolist(),
                                      self._rc_nodes.tolist(),
                                      self._rc_labels))
        self.limit: str | None = None

    # ------------------------------------------------------------------
    # Constraint evaluation
    # ------------------------------------------------------------------

    def slope_bound(self, t: float) -> float:
        """``min_i 3 eps |V_i0| / alpha_i`` over active sources (eq. 11)."""
        eps = self.options.epsilon
        bound = math.inf
        for source in self._sources:
            slope = abs(source.slope(t))
            if slope == 0.0:
                continue
            level = max(abs(source.value(t)), self.options.voltage_floor)
            bound = min(bound, 3.0 * eps * level / slope)
        return bound

    def node_rc_bound_stack(self, diagonal_stack, states=None,
                            prev_states=None) -> float:
        """``min_{k,j} eps C_j^k / G_jj^k`` over the whole ensemble (eq. 12).

        *diagonal_stack* is the ``(K, n)`` stamped-``G`` diagonal
        (only the leading ``num_nodes`` columns are consulted).  With
        the ``(K, n)`` *states* and *prev_states* of the last accepted
        step, each ratio is weighted by the node's motion (module
        docstring); without them the bound is plain eq. 12.
        """
        return self._node_rc(diagonal_stack, states, prev_states)[0]

    def _node_rc(self, diagonal_stack, states, prev_states):
        """The node-RC bound and the ``node_rc:<node>`` label of the
        node that sets it (None when no node bounds the step)."""
        floor = self.options.voltage_floor
        if self._rc_pairs is not None:
            bound, label = math.inf, None
            if not self._rc_pairs:
                return bound, label
            # The K = 1 step plan hands its diagonal and states over as
            # lists.
            diag = diagonal_stack[0]
            if not isinstance(diag, list):
                diag = diag.tolist()
            x = xp = None
            if prev_states is not None:
                x, xp = states[0], prev_states[0]
                if not isinstance(x, list):
                    x, xp = x.tolist(), xp.tolist()
            theta_eps = self._theta_eps
            for scaled, j, name in self._rc_pairs:
                g_j = diag[j]
                if xp is not None and g_j > 0.0:
                    v = x[j]
                    moved = abs(v - xp[j])
                    ref = theta_eps * max(abs(v), floor)
                    if moved < ref:
                        g_j *= moved / ref
                if g_j > 0.0:
                    ratio = scaled / g_j
                    if ratio < bound:
                        bound, label = ratio, name
            return bound, label
        if self._rc_nodes.size == 0:
            return math.inf, None
        rows, cols = self._rc_instances, self._rc_nodes
        g = np.asarray(diagonal_stack)[rows, cols]
        if prev_states is not None:
            v = np.asarray(states)[rows, cols]
            moved = np.abs(v - np.asarray(prev_states)[rows, cols])
            ref = self._theta_eps * np.maximum(np.abs(v), floor)
            g *= np.minimum(moved / ref, 1.0)
        # Only nodes with positive (motion-weighted) conductance bound
        # the step; the rest are masked out of the divide and the min.
        ratio = self._rc_ratio
        ratio.fill(math.inf)
        np.divide(self._rc_scaled, g, out=ratio, where=g > 0.0)
        index = int(ratio.argmin())
        bound = float(ratio[index])
        return bound, (self._rc_labels[index] if bound < math.inf else None)

    def _breakpoint_table(self, t_stop: float) -> list[float]:
        """Sorted breakpoints a march to *t_stop* can land on.

        The static breakpoints plus every periodic pulse edge in
        ``[0, t_stop]``, built once per ``t_stop`` and kept until a
        march asks for another one.
        """
        if self._table_stop != t_stop:
            points: set[float] = set()
            for source in self._sources:
                waveform = source.waveform
                points.update(waveform.breakpoints())
                folder = getattr(waveform, "periodic_breakpoints", None)
                if folder is not None:
                    points.update(folder(t_stop))
            self._table, self._table_stop = sorted(points), t_stop
        return self._table

    def breakpoint_bound(self, t: float, h: float, t_stop: float) -> float:
        """Shrink *h* so the step lands exactly on the next breakpoint or
        on ``t_stop``, whichever comes first."""
        limit = t_stop - t
        table = self._breakpoint_table(t_stop)
        index = bisect.bisect_right(table, t)
        if index < len(table) and table[index] < t + h:
            limit = min(limit, table[index] - t)
        return min(h, max(limit, 0.0))

    # ------------------------------------------------------------------
    # Main entry
    # ------------------------------------------------------------------

    def next_step_from_diagonal(self, t: float, h_prev: float,
                                diagonal_stack, t_stop: float,
                                states=None, prev_states=None) -> float:
        """Next accepted step size ``h_n`` (paper eq. 12) from the
        stamped ``G`` diagonals of all instances.

        *states* and *prev_states* are the ``(K, n)`` end points of the
        last accepted step (None on a march's first step); they weight
        the node-RC bound by each node's motion.  A step landing on
        ``t_stop`` is exactly ``t_stop - t``.  Sets :attr:`limit`.
        """
        opts = self.options
        h, limit = self.slope_bound(t), "slope"
        rc, node = self._node_rc(diagonal_stack, states, prev_states)
        if rc < h:
            h, limit = rc, node
        grown = h_prev * opts.growth_limit
        if not math.isfinite(h):
            h, limit = ((opts.h_max, "h_max") if math.isfinite(opts.h_max)
                        else (grown, "growth"))
        if grown < h:
            h, limit = grown, "growth"
        if opts.h_max < h:
            h, limit = opts.h_max, "h_max"
        h = max(h, opts.h_min)
        landed = self.breakpoint_bound(t, h, t_stop)
        if landed < h:
            h, limit = max(landed, min(opts.h_min, t_stop - t)), "breakpoint"
        if t_stop - (t + h) < opts.h_min:
            # Stretch onto t_stop rather than leave a sliver below h_min.
            h, limit = t_stop - t, "breakpoint"
        self.limit = limit
        return h

    def initial_step(self, t_stop: float) -> float:
        """First step: explicit option, else a conservative fraction."""
        if self.options.h_initial is not None:
            return self.options.h_initial
        fallback = t_stop * 1e-4
        if math.isfinite(self.options.h_max):
            fallback = min(fallback, self.options.h_max)
        return max(fallback, self.options.h_min)
