"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each ``repro`` layer for
the duration of a traced pass and restores the originals afterwards;
no file under ``src/`` changes.  Each wrapped call records one span
(name, start, end, parent span, job id) into flat in-memory arrays; the
arrays are analysed (self time = duration minus the time covered by
child spans) and written out when the benchmark ends.

A name is patched where its caller looks it up: a module-level function
is replaced in every loaded ``repro`` module that holds the same
object, so names imported at call time (``solve_stack`` inside
``repro.core.backends``, ``mosfet_chord_stack`` and
``tangent_conductances`` in their defining modules) are caught too.
Methods are replaced on the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: (module, function, span) — module-level entry points.
FUNCTIONS = (
    ("repro.circuit.parser", "parse_netlist", "circuit.parse"),
    ("repro.lint.analyzer", "lint_circuit", "lint.check"),
    ("repro.lint.analyzer", "lint_netlist", "lint.check"),
    ("repro.core.backends", "create_backend", "mna.build"),
    ("repro.devices.mosfet", "mosfet_chord_stack", "swec.chords"),
    ("repro.mna.batch", "solve_stack", "mna.stack_solve"),
    ("repro.pss.engine", "run_pss", "pss.solve"),
    ("repro.ac.linearize", "tangent_conductances", "pss.tangent"),
    ("repro.stochastic.vr", "path_normals", "stochastic.normals"),
    ("repro.stochastic.vr", "antithetic_normals", "stochastic.normals"),
    ("repro.stochastic.vr", "linearized_control_circuit", "stochastic.control"),
    ("repro.service.cache", "batch_job_keys", "service.key"),
    ("repro.sweep.runner", "run_sweep", "sweep.run"),
)

_BACKEND_SPANS = {
    "stamp": "core.backends.stamp",
    "g_diagonal": "core.backends.stamp",
    "solve_transient": "core.backends.solve",
    "solve_conductance": "core.backends.solve",
    "c_matvec": "core.backends.matvec",
    "g_matvec": "core.backends.matvec",
}
_SOLVER_SPANS = {"factor": "mna.factor", "solve": "mna.backsolve"}

#: (module, class, {method: span}) — methods, patched on the class
#: whose ``__dict__`` defines them.
METHODS = (
    ("repro.mna.assembler", "MnaSystem", {"__init__": "mna.build"}),
    ("repro.core.stepper", "LinearStepper",
     {"run": "core.stepper.march", "run_grid": "core.stepper.march"}),
    ("repro.swec.conductance", "SwecLinearization",
     {"device_conductances": "swec.chords",
      "mosfet_conductances": "swec.chords"}),
    ("repro.devices.base", "TwoTerminalDevice",
     {"chord_conductance_many": "swec.chords",
      "chord_conductance_derivative_many": "swec.chords"}),
    ("repro.devices.mosfet", "MosfetModel",
     {"chord_conductance_many": "swec.chords"}),
    ("repro.core.backends", "_DenseStorageBackend", _BACKEND_SPANS),
    ("repro.core.backends", "DenseBackend", _BACKEND_SPANS),
    ("repro.core.backends", "StackBackend", _BACKEND_SPANS),
    ("repro.core.backends", "SparseBackend", _BACKEND_SPANS),
    ("repro.mna.linsolve", "LinearSolver", _SOLVER_SPANS),
    ("repro.mna.sparse", "SparseSolver", _SOLVER_SPANS),
    ("repro.swec.timestep", "EnsembleStepController",
     {"next_step_from_diagonal": "swec.timestep.control"}),
    ("repro.analysis.waveforms", "EnsembleTransientResult",
     {"append": "analysis.record"}),
    ("repro.swec.engine", "SwecTransient", {"run_grid": "swec.run_grid"}),
    ("repro.runtime.runner", "BatchRunner", {"run": "runtime.batch"}),
    ("repro.service.store", "ResultStore",
     {"get": "service.get", "put": "service.put"}),
    ("repro.circuit.elements", "VoltageSource", {"value": "circuit.sources"}),
    ("repro.circuit.elements", "CurrentSource", {"value": "circuit.sources"}),
    # Source assembly b(t) inside the march: the fill and scatter around
    # the waveform evaluations belong to the same layer.
    ("repro.core.stepper", "_SourceBank", {"assemble": "circuit.sources"}),
)

#: Spans whose return values are kept (the runtime layer's reports).
CAPTURE = frozenset({"runtime.batch"})


def _waveform_methods():
    """Every waveform class in ``repro.circuit.sources`` defining ``value``."""
    sources = importlib.import_module("repro.circuit.sources")
    for cls in vars(sources).values():
        if (isinstance(cls, type) and issubclass(cls, sources.Waveform)
                and "value" in cls.__dict__):
            yield cls, "value", "circuit.sources"


class Tracer:
    """Span recorder plus the patch table that feeds it.

    Spans are numbered in call order and recorded when they end, so a
    traced call costs one counter step and a stack push on entry and a
    handful of array appends on exit.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_id = array("q")
        self.name_id = array("i")
        self.parent = array("q")
        self.job_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._job = [-1]
        self._next = [0]
        self.captured: list[object] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Calibrated per-span wrapper cost (see :meth:`calibrate`).
        self.overhead = 0.0

    @property
    def job(self) -> int:
        return self._job[0]

    @job.setter
    def job(self, value: int) -> None:
        self._job[0] = value

    def clear(self) -> None:
        """Drop every recorded span (and captured return value)."""
        for column in (self.span_id, self.name_id, self.parent, self.job_id,
                       self.start, self.end):
            del column[:]
        self._stack[:] = [-1]
        self._next[0] = 0
        self.captured.clear()

    def _span_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, fn, span: str):
        """*fn* wrapped so each call records one *span*."""
        sid = self._span_id(span)
        clock = time.perf_counter
        stack, job, counter = self._stack, self._job, self._next
        push, pop = stack.append, stack.pop
        add_span, add_name = self.span_id.append, self.name_id.append
        add_parent, add_job = self.parent.append, self.job_id.append
        add_start, add_end = self.start.append, self.end.append
        keep = self.captured.append if span in CAPTURE else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = counter[0]
            counter[0] = index + 1
            push(index)
            t0 = clock()
            try:
                value = fn(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                add_span(index)
                add_name(sid)
                add_parent(stack[-1])
                add_job(job[0])
                add_start(t0)
                add_end(t1)
            if keep is not None:
                keep(value)
            return value

        return traced

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point of the layer table."""
        if self._patches:
            return
        for name, *_ in FUNCTIONS + METHODS:
            importlib.import_module(name)
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "repro" or n.startswith("repro."))]
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, span)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, traced)
        targets = list(_waveform_methods())
        for module_name, class_name, spans in METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            targets.extend((cls, attr, span) for attr, span in spans.items()
                           if attr in cls.__dict__)
        for cls, attr, span in targets:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, span))

    def uninstall(self) -> None:
        """Restore every patched name, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy columns, ordered by span id."""
        ids = np.frombuffer(self.span_id, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        columns = {
            "name": (self.name_id, np.int32),
            "parent": (self.parent, np.int64),
            "job": (self.job_id, np.int32),
            "start": (self.start, np.float64),
            "end": (self.end, np.float64),
        }
        return {key: np.frombuffer(column, dtype=dtype)[order]
                for key, (column, dtype) in columns.items()}

    def calibrate(self, calls: int = 20000, repeats: int = 7) -> float:
        """Seconds of wrapper work one span adds to its parent's self time.

        Times a loop of calls to a traced no-op inside a traced parent
        against the same loop calling the bare no-op; the median over
        *repeats* is kept as :attr:`overhead`.
        """
        def noop(state, previous, step=None):
            return None

        traced_noop = self.wrap(noop, "trace.calibration")
        samples = []
        for _ in range(repeats):
            # The call shape of a typical traced entry point: two
            # positional arguments and one keyword.
            def loop(call=traced_noop):
                for _ in range(calls):
                    call(calls, repeats, step=None)

            start = time.perf_counter()
            loop(noop)
            bare = time.perf_counter() - start
            self.clear()
            self.wrap(loop, "trace.calibration")()
            summary = SpanSummary(self.names, self.arrays())
            parent = int(np.flatnonzero(summary.spans["parent"] < 0)[0])
            samples.append((summary.duration[parent]
                            - summary.duration[summary.spans["parent"] == parent].sum()
                            - bare) / calls)
        self.clear()
        self.overhead = max(float(np.median(samples)), 0.0)
        return self.overhead

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays(), self.overhead)

    def save(self, path) -> None:
        """Write the spans (and the span-name table) to *path* (``.npz``)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanSummary:
    """Self/inclusive times and call counts per span name.

    Times are corrected for the tracer's own cost: every span charges
    its parent *overhead* seconds of wrapper work outside its own
    interval (:meth:`Tracer.calibrate`), which is removed from the
    parent's self time and from every enclosing span's inclusive time.
    """

    def __init__(self, names: list[str], spans: dict[str, np.ndarray],
                 overhead: float = 0.0) -> None:
        self.names = names
        self.spans = spans
        name, parent = spans["name"], spans["parent"]
        size = name.size
        duration = spans["end"] - spans["start"]
        nested = parent >= 0
        children = np.bincount(parent[nested], minlength=size)
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=size)
        descendants = _descendant_counts(parent)
        self.duration = duration - overhead * descendants
        width = len(names)
        self.self_time = np.bincount(
            name, weights=duration - covered - overhead * children, minlength=width)
        self.inclusive = np.bincount(name, weights=self.duration, minlength=width)
        self.calls = np.bincount(name, minlength=width)
        self._parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)

    def _id(self, span: str) -> int | None:
        try:
            return self.names.index(span)
        except ValueError:
            return None

    def self_s(self, span: str) -> float:
        sid = self._id(span)
        return 0.0 if sid is None else float(self.self_time[sid])

    def inclusive_s(self, span: str) -> float:
        sid = self._id(span)
        return 0.0 if sid is None else float(self.inclusive[sid])

    def count(self, span: str) -> int:
        sid = self._id(span)
        return 0 if sid is None else int(self.calls[sid])

    def child_inclusive_s(self, span: str, parent: str) -> float:
        """Summed duration of *span* calls made directly under *parent*."""
        sid, pid = self._id(span), self._id(parent)
        if sid is None or pid is None:
            return 0.0
        mask = (self.spans["name"] == sid) & (self._parent_name == pid)
        return float(self.duration[mask].sum())


def _descendant_counts(parent: np.ndarray) -> np.ndarray:
    """Number of spans below each span (*parent* indexes span ids)."""
    size = parent.size
    depth = np.full(size, -1)
    depth[parent < 0] = 0
    pending = np.flatnonzero(parent >= 0)
    while pending.size:
        up = parent[pending]
        ready = depth[up] >= 0
        depth[pending[ready]] = depth[up[ready]] + 1
        pending = pending[~ready]
    counts = np.zeros(size)
    for level in range(int(depth.max(initial=0)), 0, -1):
        at = np.flatnonzero(depth == level)
        np.add.at(counts, parent[at], counts[at] + 1.0)
    return counts
