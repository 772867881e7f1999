"""DC sweep result container.

Stores the solved state for each source value of a DC sweep, plus per-point
solver diagnostics (iteration counts, convergence flags) so the Table I
comparison can report iterations alongside flops.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import is_ground
from repro.errors import AnalysisError
from repro.perf.flops import FlopCounter


class DCSweepResult:
    """Result of sweeping one source over a list of values."""

    def __init__(self, node_names, source_name: str,
                 engine: str = "unknown") -> None:
        self.node_names = tuple(node_names)
        self.source_name = source_name
        self.engine = engine
        self._values: list[float] = []
        self._states: list[np.ndarray] = []
        self.iteration_counts: list[int] = []
        self.converged_flags: list[bool] = []
        self.flops = FlopCounter()

    def append(self, value: float, state: np.ndarray, iterations: int,
               converged: bool) -> None:
        """Record one solved sweep point."""
        self._values.append(float(value))
        self._states.append(np.array(state, dtype=float, copy=True))
        self.iteration_counts.append(int(iterations))
        self.converged_flags.append(bool(converged))

    # ------------------------------------------------------------------

    @property
    def sweep_values(self) -> np.ndarray:
        """Swept source values."""
        return np.array(self._values)

    @property
    def states(self) -> np.ndarray:
        """State matrix, one row per sweep point."""
        if not self._states:
            raise AnalysisError("empty sweep result")
        return np.vstack(self._states)

    def __len__(self) -> int:
        return len(self._values)

    def voltage(self, node: str) -> np.ndarray:
        """Node voltage versus sweep value."""
        try:
            column = self.node_names.index(node)
        except ValueError:
            raise AnalysisError(
                f"node {node!r} not in result (have {self.node_names})"
            ) from None
        return self.states[:, column]

    def branch_voltage(self, node_a: str, node_b: str) -> np.ndarray:
        """``V(node_a) - V(node_b)`` versus sweep value (ground = 0)."""
        def column(node: str) -> np.ndarray:
            if is_ground(node):
                return np.zeros(len(self))
            return self.voltage(node)
        return column(node_a) - column(node_b)

    @property
    def all_converged(self) -> bool:
        """True when every sweep point converged."""
        return all(self.converged_flags)

    @property
    def total_iterations(self) -> int:
        """Sum of solver iterations over the sweep."""
        return sum(self.iteration_counts)

    def summary(self) -> str:
        """One-paragraph diagnostic summary."""
        return (
            f"engine={self.engine} source={self.source_name} "
            f"points={len(self)} iterations={self.total_iterations} "
            f"converged={sum(self.converged_flags)}/{len(self)} "
            f"flops={self.flops.total:,}")

    def __repr__(self) -> str:
        return (f"DCSweepResult(engine={self.engine!r}, "
                f"source={self.source_name!r}, points={len(self)})")
