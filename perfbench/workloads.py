"""The benchmark's four workloads.

Each workload turns ``--seed`` into its inputs (plain numbers), builds
circuits and engines in :meth:`Workload.setup`, and exposes one *pass*:
a fixed list of jobs run in a closed loop (the next job starts when the
previous one returns).  Every job's output is checked after the pass,
outside the timed region, by :meth:`Workload.check`; a job that raised
or failed its check counts as failed.  :meth:`Workload.counters` gives
the exact work counts of a pass, which repeat exactly for a given seed.

Library calls go through module attributes (``pss.run_pss``), never
through names bound at import time, so the tracer's patches are seen.  Why
each workload exists is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy import stats

from repro import circuit, circuits_lib, pss, service, stochastic, sweep, swec
from repro.circuits_lib import arrays, logic_gates
from repro.swec import timestep
from repro.sweep import measures

OUT = Path(__file__).resolve().parent / "out"




@dataclass
class Job:
    """One timed call: *fn* returns the output :meth:`Workload.check` inspects."""

    label: str
    fn: Callable[[], Any]
    meta: dict


class Workload:
    """Base class: inputs from the seed, setup, one pass of jobs."""

    name = "?"
    #: Nominal seconds of one untraced pass on the reference machine
    #: (see README.md); sets how many passes fill ``--seconds``.
    pass_seconds = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2005]))
        self._jobs: list[Job] = []

    def setup(self) -> None:
        """Build circuits and engines (counted in ``setup_s``)."""

    def warmup(self) -> None:
        """One small untimed job so lazy imports and caches are filled."""

    def jobs(self) -> list[Job]:
        return self._jobs

    def begin_pass(self) -> None:
        """Untimed hook run before each pass."""

    def end_pass(self) -> None:
        """Untimed hook run after each pass (before the checks)."""

    def check(self, job: Job, output, outputs: dict) -> str | None:
        """Error text when *output* is wrong, else None."""
        raise NotImplementedError

    def counters(self, jobs: list[Job], outputs: dict) -> dict:
        """Exact work counts of one pass."""
        return {}

    def close(self) -> None:
        """Release anything the workload holds on disk."""


def march_counters(results, h_min: float | None = None) -> dict:
    """Step, flop-event and reuse counts of transient results."""
    steps = rejected = at_hmin = factorizations = solves = reuses = 0
    for result in results:
        steps += int(result.accepted_steps)
        rejected += int(result.rejected_steps)
        factorizations += int(result.flops.factorizations)
        solves += int(result.flops.linear_solves)
        reuses += int(result.factor_reuses)
        if h_min is not None:
            h = np.diff(np.asarray(result.times))
            at_hmin += int(np.count_nonzero(h <= h_min * (1.0 + 1e-9)))
    return {
        "core.stepper.steps": steps,
        "core.stepper.rejected": rejected,
        "core.stepper.steps_at_hmin": at_hmin,
        "mna.factorizations": factorizations,
        "mna.linear_solves": solves,
        "mna.factor_reuses": reuses,
    }


def _step_options(**step):
    return timestep.StepControlOptions(**step)


# ----------------------------------------------------------------------
# logic_k1
# ----------------------------------------------------------------------

#: MOBILE truth-table cases (builder, input bits).  NAND (1, 0) and
#: (1, 1) cost as much as NAND (0, 1) and are left out.
GATE_CASES = (
    ("mobile_buffer", (0,)), ("mobile_buffer", (1,)),
    ("mobile_inverter", (0,)), ("mobile_inverter", (1,)),
    ("mobile_nor", (0, 0)), ("mobile_nor", (0, 1)),
    ("mobile_nor", (1, 0)), ("mobile_nor", (1, 1)),
    ("mobile_nand", (0, 0)), ("mobile_nand", (0, 1)),
)
TRUTH = {
    "mobile_buffer": lambda a: a,
    "mobile_inverter": lambda a: 1 - a,
    "mobile_nor": lambda a, b: 1 - (a | b),
    "mobile_nand": lambda a, b: 1 - (a & b),
}
#: The gate outputs settle by 2.5 ns (the clock is high from 2 ns), so
#: 3 ns reads the same logic levels as the 6 ns of the tier-1 tests.
GATE_T_STOP = 3e-9
#: NAND with input b high clamps every step at h_min from t = 0 (60,001
#: steps to the 6 ns of the tier-1 tests) — the case ROADMAP item 2
#: targets.  It runs to 0.3 ns (3,000 clamped steps, before the clock
#: rises) so that the job stays short enough to repeat within a run.
CLAMPED_T_STOP = 0.3e-9
#: Logic-level tolerance of ``tests/test_logic_gates.py``.
LEVEL_TOL = 0.15
H_MIN = 1e-13
#: Fig. 9 flip-flop clock period: rising edges at 3 and 9 ns, data high
#: from 6 ns, so q stays low at the first edge and latches high at the
#: second (the 100 ns period of the paper, compressed).
FLIPFLOP_PERIOD = 6e-9


def _clamped(builder: str, bits: tuple) -> bool:
    return builder == "mobile_nand" and bool(bits[1])


class LogicK1(Workload):
    """Single-instance adaptive transients on the dense backend."""

    name = "logic_k1"
    pass_seconds = 4.4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        # The seed picks the case order and small input-level offsets
        # that keep every input a clean logic level.
        cases = []
        for builder, bits in GATE_CASES:
            levels = tuple(float(rng.uniform(0.98, 1.01)) if bit
                           else float(rng.uniform(0.0, 0.01)) for bit in bits)
            cases.append(("gate", builder, bits, levels))
        cases.append(("fig8_inverter", float(rng.uniform(0.98, 1.02))))
        cases.append(("fig9_flipflop", float(rng.uniform(0.98, 1.02))))
        self.cases = [cases[k] for k in rng.permutation(len(cases))]

    @staticmethod
    def _gate_options():
        return swec.SwecOptions(
            step=_step_options(epsilon=0.1, h_min=H_MIN, h_max=0.2e-9,
                               h_initial=1e-12),
            dv_limit=0.2)

    def setup(self) -> None:
        self.gate_info = logic_gates.GateInfo()
        gate_options = self._gate_options()
        for case in self.cases:
            if case[0] == "gate":
                _, builder, bits, levels = case
                high = self.gate_info.input_high
                inputs = [circuit.DC(level * high if bit else level)
                          for bit, level in zip(bits, levels)]
                net, info = getattr(logic_gates, builder)(*inputs)
                t_stop = CLAMPED_T_STOP if _clamped(builder, bits) else GATE_T_STOP
                engine = swec.SwecTransient(net, gate_options)
                label = f"{builder}{''.join(map(str, bits))}"
                meta = {"kind": "gate", "builder": builder, "bits": bits}
            elif case[0] == "fig8_inverter":
                vin = circuit.Pulse(0.0, 5.0 * case[1], delay=0.5e-9, rise=0.3e-9,
                                    fall=0.3e-9, width=2e-9, period=5e-9)
                net, info = circuits_lib.fet_rtd_inverter(vin=vin)
                options = swec.SwecOptions(
                    step=_step_options(epsilon=0.05, h_min=H_MIN, h_max=0.2e-9,
                                       h_initial=1e-12),
                    dv_limit=0.5)
                engine, t_stop = swec.SwecTransient(net, options), 5e-9
                label, meta = "fig8_inverter", {"kind": "inverter"}
            else:
                period = FLIPFLOP_PERIOD
                clock = circuit.Pulse(0.0, 1.15, delay=period / 2, rise=0.2e-9,
                                      fall=0.2e-9, width=period / 2 - 0.2e-9,
                                      period=period)
                data = circuit.Pulse(0.0, 1.2 * case[1], delay=period, rise=0.2e-9,
                                     fall=0.2e-9, width=1.0, period=float("inf"))
                net, info = circuits_lib.mobile_dflipflop(clock=clock, data=data,
                                                 output_capacitance=2e-12)
                engine, t_stop = swec.SwecTransient(net, gate_options), 2 * period
                label, meta = "fig9_flipflop", {"kind": "flipflop"}
            meta["info"], meta["t_stop"] = info, t_stop
            self._jobs.append(Job(label, _transient(engine, t_stop), meta))

    def warmup(self) -> None:
        net, _ = logic_gates.mobile_buffer(circuit.DC(0.0))
        swec.SwecTransient(net, self._gate_options()).run(0.5e-9)

    def _bit(self, value: float) -> int | None:
        if abs(value - self.gate_info.v_q_low) < LEVEL_TOL:
            return 0
        if abs(value - self.gate_info.v_q_high) < LEVEL_TOL:
            return 1
        return None

    def check(self, job, result, outputs):
        if result.aborted:
            return f"aborted: {result.abort_reason}"
        if not np.all(np.isfinite(result.states)):
            return "non-finite state"
        meta, info, t_stop = job.meta, job.meta["info"], job.meta["t_stop"]
        if meta["kind"] == "gate":
            value = result.at(t_stop, info.output_node)
            if _clamped(meta["builder"], meta["bits"]):
                # Before the clock rises the output reads no logic level.
                if not (np.isfinite(value) and -0.2 < value < 1.3):
                    return f"output {value!r} V outside the rails"
            else:
                expected = TRUTH[meta["builder"]](*meta["bits"])
                if self._bit(value) != expected:
                    return f"output {value:.3f} V is not logic {expected}"
            if meta["builder"] == "mobile_nand":
                mid = result.at(t_stop, "mid")
                if not (np.isfinite(mid) and -0.2 < mid < 1.3):
                    return f"internal node mid = {mid!r} outside the rails"
            return None
        if meta["kind"] == "inverter":
            low = result.at(2.3e-9, info.output_node)
            high = result.at(4.8e-9, info.output_node)
            if abs(low - info.v_out_low) > 0.1 or abs(high - info.v_out_high) > 0.1:
                return f"inverter levels {low:.3f}/{high:.3f} V off design"
            return None
        q, period = info.output_node, FLIPFLOP_PERIOD
        if abs(result.at(0.8 * period, q) - info.v_q_low) > 0.1:
            return "q not low after the first clock edge"
        if result.at(1.45 * period, q) >= 0.1:
            return "q switched before the second clock edge"
        if abs(result.at(1.9 * period, q) - info.v_q_high) > 0.1:
            return "q did not latch high after the second clock edge"
        return None

    def counters(self, jobs, outputs):
        return march_counters([outputs[job.label] for job in jobs], h_min=H_MIN)


def _transient(engine, t_stop):
    return lambda: engine.run(t_stop)


# ----------------------------------------------------------------------
# grid_sparse
# ----------------------------------------------------------------------

MESH = 30
MESH_STEPS = 40
MESH_JOBS = 12
#: Far-corner peak-to-peak ripple of ``power_grid_mesh`` per volt of
#: ripple amplitude, recorded at the commit that added this benchmark
#: (sparse backend, 100 steps per period).  The mesh is linear, so the
#: ripple of a seeded amplitude scales exactly.  The 24x24 mesh (4.4 s
#: a solve) is left out so that a pass stays short enough to repeat.
PSS_REFERENCE = {16: 0.03289471767703739 / 0.05}
PSS_STEPS = 100
PSS_TOLERANCE = 1e-9


class GridSparse(Workload):
    """Sparse-backend mesh transients and driven PSS solves."""

    name = "grid_sparse"
    pass_seconds = 2.2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        self.mesh_seeds = [int(s) for s in rng.integers(0, 2**32, size=MESH_JOBS)]
        self.ripples = {n: float(0.05 * rng.uniform(0.9, 1.1)) for n in PSS_REFERENCE}

    def setup(self) -> None:
        drive = circuit.Pulse(0.0, 1.0, delay=0.02e-9, rise=0.05e-9, fall=0.05e-9,
                              width=0.3e-9, period=1e-9)
        mesh, _ = circuits_lib.rtd_mesh(MESH, MESH, drive=drive)
        options = swec.SwecOptions(
            step=_step_options(epsilon=0.05, h_min=H_MIN, h_max=0.05e-9,
                               h_initial=1e-12),
            backend="sparse", initialize_dc=False)
        self.mesh_engine = swec.SwecTransient(mesh, options)
        self.times = np.linspace(0.0, 0.2e-9, MESH_STEPS + 1)
        system = self.mesh_engine.system
        for k, seed in enumerate(self.mesh_seeds):
            # Seeded initial node voltages: distinct inputs, same work.
            x0 = np.zeros(system.size)
            x0[:system.num_nodes] = np.random.default_rng(seed).uniform(
                0.0, 0.05, system.num_nodes)
            self._jobs.append(Job(f"mesh{k}", self._mesh_job(x0), {"kind": "mesh"}))
        for n, ripple in self.ripples.items():
            grid, info = arrays.power_grid_mesh(rows=n, cols=n, ripple=ripple)
            meta = {"kind": "pss", "n": n, "ripple": ripple, "info": info}
            self._jobs.append(Job(f"pss{n}", _pss_job(grid, PSS_STEPS), meta))

    def _mesh_job(self, x0):
        engine, times = self.mesh_engine, self.times
        return lambda: engine.run_grid(times, initial_state=x0)

    def warmup(self) -> None:
        self.mesh_engine.run_grid(self.times[:3])
        grid, _ = arrays.power_grid_mesh(rows=4, cols=4)
        _pss_job(grid, 16)()

    def check(self, job, result, outputs):
        meta = job.meta
        if meta["kind"] == "mesh":
            if result.aborted or not np.all(np.isfinite(result.states)):
                return "mesh march aborted or non-finite"
            volts = result.states[:, :self.mesh_engine.system.num_nodes]
            if volts.min() < -0.01 or volts.max() > 1.01:
                return (f"node voltage outside the rails "
                        f"[{volts.min():.3f}, {volts.max():.3f}]")
            return None
        if not result.residual < PSS_TOLERANCE:
            return f"PSS defect {result.residual:.3g} above tolerance"
        expected = PSS_REFERENCE[meta["n"]] * meta["ripple"]
        ripple = result.peak_to_peak(meta["info"].far_corner)
        if abs(ripple - expected) > 1e-6 * expected:
            return f"far-corner ripple {ripple:.9g} V, reference {expected:.9g} V"
        return None

    def counters(self, jobs, outputs):
        marches = [outputs[j.label] for j in jobs if j.meta["kind"] == "mesh"]
        counts = march_counters(marches)
        orbits = [outputs[j.label] for j in jobs if j.meta["kind"] == "pss"]
        counts["pss.newton_iters"] = sum(int(o.iterations) for o in orbits)
        counts["mna.factorizations"] += sum(int(o.flops.factorizations) for o in orbits)
        counts["mna.linear_solves"] += sum(int(o.flops.linear_solves) for o in orbits)
        return counts


def _pss_job(grid, steps):
    return lambda: pss.run_pss(grid, steps_per_period=steps,
                                    tolerance=PSS_TOLERANCE, backend="sparse")


# ----------------------------------------------------------------------
# mc_lockstep
# ----------------------------------------------------------------------

ENSEMBLE_K = 256
#: Eight ensembles: the median job of a pass is an ensemble march,
#: whose work is fixed, whatever paths the seeded estimates need.
ENSEMBLE_SETS = 8
ENSEMBLE_POINTS = 401
MC_ESTIMATES = 4
#: Relative CI target.  At 2% the control variate stops at its floor
#: (pilot + one batch, 32 paths) and naive MC needs about 270 paths
#: (about 0.5 s, twice an ensemble march), so naive MC carries weight.
#: At 1% naive MC needs about 1,100 paths (2 s a job), too long to
#: repeat within a run.
MC_TARGET = 0.02
MC_BATCH = 16
MC_MAX_TRIALS = 4096
MC_STEPS = 120
MC_NOISE = 1e-8
#: Naive and control-variate estimates must agree within this many
#: combined CI half-widths, the tolerance of benchmarks/bench_mc_vr.py.
#: Three standard errors would fail about one check in a hundred: the
#: control-variate error estimate rests on as few as 16 samples.
MC_AGREEMENT = 3.0


class McLockstep(Workload):
    """K = 256 lockstep ensembles and CI-targeted Monte-Carlo."""

    name = "mc_lockstep"
    pass_seconds = 4.2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        self.variations = [
            (1.0 + 0.15 * rng.uniform(-1.0, 1.0, ENSEMBLE_K),
             1e-12 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, ENSEMBLE_K)))
            for _ in range(ENSEMBLE_SETS)
        ]
        self.mc_seeds = [int(s) for s in rng.integers(0, 2**32, size=MC_ESTIMATES)]
        self._references: dict[int, np.ndarray] = {}

    def setup(self) -> None:
        self.times = np.linspace(0.0, 2.0e-8, ENSEMBLE_POINTS)
        self.options = swec.SwecOptions(step=_step_options(
            epsilon=0.05, h_min=1e-12, h_max=0.2e-9, h_initial=1e-12))
        self.ensembles = []
        for k, (vth, cap) in enumerate(self.variations):
            circuits = [circuits_lib.fet_rtd_inverter(fet_vth=float(v),
                                             load_capacitance=float(c))[0]
                        for v, c in zip(vth, cap)]
            engine = swec.SwecEnsembleTransient(circuits, self.options)
            self.ensembles.append(circuits)
            self._jobs.append(Job(f"ensemble{k}", self._ensemble_job(engine),
                                  {"kind": "ensemble", "set": k}))
        self.oscillator, self.osc_info = arrays.rtd_relaxation_oscillator()
        for k, seed in enumerate(self.mc_seeds):
            self._jobs.append(Job(f"mc{k}", self._mc_pair_job(seed), {"kind": "mc"}))

    def _ensemble_job(self, engine):
        times = self.times
        return lambda: engine.run_grid(times)

    def _mc_pair_job(self, seed):
        """Naive and control-variate estimates of one quantity, one job.

        A control-variate estimate alone often stops at its floor of 32
        paths and takes about as long as an ensemble march; as separate
        jobs the two estimators would straddle the ensembles and move
        the median job from seed to seed.
        """
        naive = self._mc_job(seed, control_variate=False)
        controlled = self._mc_job(seed, control_variate=True)
        return lambda: (naive(), controlled())

    def _mc_job(self, seed, **overrides):
        info = self.osc_info
        kwargs = dict(node=info.output, seed=seed, max_trials=MC_MAX_TRIALS,
                      batch_size=MC_BATCH, target_rel_ci=MC_TARGET)
        kwargs.update(overrides)
        return lambda: stochastic.run_circuit_ensemble_vr(
            self.oscillator, [(info.output, MC_NOISE)], float(info.period_guess),
            MC_STEPS, **kwargs)

    def warmup(self) -> None:
        engine = swec.SwecEnsembleTransient(self.ensembles[0][:4], self.options)
        engine.run_grid(self.times[:11])
        self._mc_job(1, control_variate=True, max_trials=64, target_rel_ci=None)()

    def check(self, job, result, outputs):
        meta = job.meta
        if meta["kind"] == "ensemble":
            k = meta["set"]
            if k not in self._references:
                single = swec.SwecTransient(self.ensembles[k][0], self.options)
                self._references[k] = single.run_grid(self.times).states
            error = float(np.max(np.abs(result.states[0] - self._references[k])))
            if not error <= 1e-10:
                return f"instance 0 differs from its own march by {error:.3g}"
            return None
        naive, result = result
        for name, estimate in (("naive", naive), ("control-variate", result)):
            if not estimate.stopped_early:
                return f"{name} CI target not reached before max_trials"
        # Compared at the peak of the control's exact (noise-free) mean:
        # an index picked from either noisy estimate would bias the gap.
        # The bound is MC_AGREEMENT combined CI half-widths.
        k = int(np.argmax(np.abs(result.control_mean)))
        z = float(stats.norm.ppf(0.5 * (1.0 + result.confidence)))
        halfwidth = z * float(np.hypot(naive.standard_error[k], result.standard_error[k]))
        gap = abs(float(naive.mean[k]) - float(result.mean[k]))
        if not gap <= MC_AGREEMENT * halfwidth:
            return (f"naive and CV estimates differ by {gap:.3g} V > "
                    f"{MC_AGREEMENT:g} CI half-widths ({halfwidth:.3g} V)")
        return None

    def counters(self, jobs, outputs):
        marches = [outputs[j.label] for j in jobs if j.meta["kind"] == "ensemble"]
        counts = march_counters(marches)
        pairs = [outputs[j.label] for j in jobs if j.meta["kind"] == "mc"]
        counts["paths_to_ci.naive"] = sum(naive.n_simulated for naive, _ in pairs)
        counts["paths_to_ci.cv"] = sum(cv.n_simulated for _, cv in pairs)
        counts["stochastic.paths"] = sum(s.n_simulated for pair in pairs for s in pair)
        counts["stochastic.batches"] = sum(s.n_batches for pair in pairs for s in pair)
        counts["stochastic.variance_reduction"] = float(np.median(
            [cv.variance_reduction for _, cv in pairs]))
        return counts


# ----------------------------------------------------------------------
# sweep_cached
# ----------------------------------------------------------------------

SWEEP_POINTS = 64
SWEEP_WORKERS = 2
#: A DC-driven resistor + RTD divider: the march is cheap (no
#: capacitor, so the step grows to h_max), which leaves hashing, parse,
#: lint, pool dispatch and store I/O as most of the pass.
DIVIDER_NETLIST = """* RTD divider for the cached sweep
.title rtd-divider-sweep
.param rser=10 vdrive=0.6
.model paper RTD
Vs in 0 {vdrive}
R1 in out {rser}
X1 out 0 paper
.end
"""
SWEEP_SETTINGS = {
    "t_stop": 2e-9,
    "options": {"epsilon": 0.05, "h_min": 1e-13, "h_max": 5e-11, "h_initial": 1e-12},
}
SWEEP_MEASURES = ("v_peak", "v_final")


class SweepCached(Workload):
    """Cold, warm and half-new sweeps through ``run_sweep`` and one store."""

    name = "sweep_cached"
    pass_seconds = 0.85

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        half = SWEEP_POINTS // 2
        self.values = [round(float(v), 6) for v in rng.uniform(5.0, 300.0, SWEEP_POINTS)]
        fresh = [round(float(v), 6) for v in rng.uniform(5.0, 300.0, SWEEP_POINTS - half)]
        self.partial_values = self.values[:half] + fresh
        self.sweep_seed = int(rng.integers(0, 2**31))
        self.store = None
        self.store_root: Path | None = None
        self.bytes_written = 0
        self._stores = 0

    def _spec(self, values):
        return sweep.SweepSpec(
            name="perfbench-divider", netlist_text=DIVIDER_NETLIST,
            settings=SWEEP_SETTINGS,
            axes=[sweep.ParameterAxis.from_values("rser", values)],
            measures=[measures.MeasureSpec(kind="peak", node="out", name="v_peak"),
                      measures.MeasureSpec(kind="final", node="out", name="v_final")],
            validate="strict")

    def _sweep(self, spec):
        store = self.store
        before = (store.hits, store.misses, store.puts)
        report = sweep.run_sweep(spec, max_workers=SWEEP_WORKERS,
                                      executor="process", seed=self.sweep_seed,
                                      cache=store)
        hits, misses, puts = (after - start for start, after in
                              zip(before, (store.hits, store.misses, store.puts)))
        return {"report": report, "hits": hits, "misses": misses, "puts": puts}

    def setup(self) -> None:
        cold, partial = self._spec(self.values), self._spec(self.partial_values)
        self._jobs = [
            Job("cold", lambda: self._sweep(cold), {"kind": "cold"}),
            Job("warm", lambda: self._sweep(cold), {"kind": "warm"}),
            Job("partial", lambda: self._sweep(partial), {"kind": "partial"}),
        ]

    def _open_store(self) -> None:
        self._drop_store()
        self._stores += 1
        self.store_root = OUT / f"store-{self.name}-{self.seed}-{self._stores}"
        shutil.rmtree(self.store_root, ignore_errors=True)
        self.store = service.ResultStore(self.store_root)

    def _drop_store(self) -> None:
        if self.store_root is not None:
            shutil.rmtree(self.store_root, ignore_errors=True)
            self.store_root = None

    def warmup(self) -> None:
        self._open_store()
        self._sweep(self._spec(self.values[:4]))
        self._drop_store()

    def begin_pass(self) -> None:
        self._open_store()

    def end_pass(self) -> None:
        self.bytes_written = int(self.store.stats()["payload_bytes"])
        self._drop_store()

    def check(self, job, output, outputs):
        report, kind = output["report"], job.meta["kind"]
        if report.n_points != SWEEP_POINTS or report.n_failed:
            return f"{report.n_failed} of {report.n_points} points failed"
        if kind == "cold":
            if output["puts"] != SWEEP_POINTS or output["hits"]:
                return f"cold pass: {output['hits']} hits, {output['puts']} puts"
            return None
        cold = outputs.get("cold")
        if not isinstance(cold, dict):
            return "no cold pass to compare with"
        shared = SWEEP_POINTS if kind == "warm" else SWEEP_POINTS // 2
        if output["hits"] != shared or output["misses"] != SWEEP_POINTS - shared:
            return f"{kind} pass: {output['hits']} hits, {output['misses']} misses"
        for name in SWEEP_MEASURES:
            if report.columns[name][:shared] != cold["report"].columns[name][:shared]:
                return f"{kind} {name} differs from the cold pass on shared points"
        return None

    def counters(self, jobs, outputs):
        runs = [outputs[j.label] for j in jobs]
        return {
            "service.hits": sum(r["hits"] for r in runs),
            "service.misses": sum(r["misses"] for r in runs),
            "service.puts": sum(r["puts"] for r in runs),
            "service.bytes_written": self.bytes_written,
            "sweep.points": sum(r["report"].n_points for r in runs),
        }

    def close(self) -> None:
        self._drop_store()


WORKLOADS = {cls.name: cls for cls in (LogicK1, GridSparse, McLockstep, SweepCached)}
