"""Engine-versus-engine cost comparison (Table I machinery).

The paper's Table I compares the floating-point operation counts of DC
simulations under SWEC and under its re-implementation of MLA, and the
headline claims a 20-30x speedup over SPICE-like simulation.  These
helpers run the same workload through any pair of engines and produce a
comparison row: flops, linear solves, iterations, wall-clock, speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class ComparisonRow:
    """One Table-I-style row comparing two engines on one workload."""

    workload: str
    swec_flops: int
    baseline_flops: int
    swec_solves: int
    baseline_solves: int
    swec_iterations: int
    baseline_iterations: int
    swec_seconds: float
    baseline_seconds: float
    baseline_name: str = "mla"

    @property
    def flop_speedup(self) -> float:
        """Baseline flops divided by SWEC flops."""
        return self.baseline_flops / max(self.swec_flops, 1)

    @property
    def wall_speedup(self) -> float:
        """Baseline wall-clock divided by SWEC wall-clock."""
        return self.baseline_seconds / max(self.swec_seconds, 1e-12)

    def as_table_line(self) -> str:
        """Fixed-width line for the Table I report."""
        return (f"{self.workload:<28} {self.swec_flops:>12,} "
                f"{self.baseline_flops:>12,} {self.flop_speedup:>7.1f}x "
                f"{self.swec_iterations:>6} {self.baseline_iterations:>6}")

    @staticmethod
    def header() -> str:
        """Column header matching :meth:`as_table_line`."""
        return (f"{'workload':<28} {'SWEC flops':>12} {'base flops':>12} "
                f"{'speedup':>8} {'SWECit':>6} {'baseit':>6}")


def compare_dc_sweep(workload_name: str, swec_engine, baseline_engine,
                     source_name: str, values,
                     baseline_name: str = "mla") -> ComparisonRow:
    """Run the same DC sweep through both engines and tally costs.

    Engines must expose ``sweep(source_name, values)`` returning a
    :class:`~repro.analysis.dcsweep.DCSweepResult`.
    """
    start = time.perf_counter()
    swec_result = swec_engine.sweep(source_name, values)
    swec_seconds = time.perf_counter() - start

    start = time.perf_counter()
    baseline_result = baseline_engine.sweep(source_name, values)
    baseline_seconds = time.perf_counter() - start

    return ComparisonRow(
        workload=workload_name,
        swec_flops=swec_result.flops.total,
        baseline_flops=baseline_result.flops.total,
        swec_solves=swec_result.flops.linear_solves,
        baseline_solves=baseline_result.flops.linear_solves,
        swec_iterations=swec_result.total_iterations,
        baseline_iterations=baseline_result.total_iterations,
        swec_seconds=swec_seconds,
        baseline_seconds=baseline_seconds,
        baseline_name=baseline_name,
    )


def format_table(rows) -> str:
    """Render comparison rows as the Table I report."""
    lines = [ComparisonRow.header(), "-" * len(ComparisonRow.header())]
    lines.extend(row.as_table_line() for row in rows)
    return "\n".join(lines)
