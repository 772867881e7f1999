"""Sweep specifications: parameter axes, grids and validation.

A :class:`SweepSpec` describes a design-space exploration: a *base*
(a registered :mod:`repro.circuits_lib` template, or a netlist with
``.PARAM`` definitions), one or more :class:`ParameterAxis` entries,
the simulation settings shared by every point, and the measures to
extract per point.  ``points()`` expands the axes into the concrete
parameter grid — the Cartesian product by default, or position-wise
``zip`` pairing.

Everything is validated eagerly: bad ranges, empty grids, unknown
template parameters and unknown measures raise
:class:`~repro.errors.SweepSpecError` *before* any simulation runs.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.circuits_lib.templates import CircuitTemplate, get_template
from repro.errors import AnalysisError, SweepSpecError
from repro.runtime.cli import BATCH_KEYS, check_batch, load_spec
from repro.runtime.jobs import check_validate_mode
from repro.sweep.measures import MeasureSpec, measures_from_spec

_MODES = ("product", "zip")
_KINDS = ("transient", "ensemble", "ac", "pss")
#: A sweep's ``[batch]`` keys: the runtime's plus the lockstep knobs.
SWEEP_BATCH_KEYS = (*BATCH_KEYS, "vector", "isolate")

#: Job fields owned by the sweep runner, not the spec's settings table.
_RUNNER_OWNED = frozenset(
    {"circuit", "builder", "netlist", "sde", "params", "label"})


def _job_class(kind: str):
    from repro.runtime.jobs import ACJob, EnsembleJob, PSSJob, TransientJob

    return {"transient": TransientJob, "ensemble": EnsembleJob,
            "ac": ACJob, "pss": PSSJob}[kind]


def _check_settings(kind: str, settings: Mapping[str, Any]) -> None:
    """Eagerly validate the per-kind job settings keys.

    Without this, a typo'd key (``tstop``) would pass spec validation
    and surface later as a ``TypeError`` inside ``build_jobs``.
    """
    job_fields = [f for f in fields(_job_class(kind))
                  if f.name not in _RUNNER_OWNED]
    allowed = {f.name for f in job_fields}
    unknown = set(settings) - allowed
    if unknown:
        raise SweepSpecError(
            f"unknown {kind} setting(s) {sorted(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})")
    required = {f.name for f in job_fields
                if f.default is MISSING and f.default_factory is MISSING}
    missing = required - set(settings)
    if missing:
        raise SweepSpecError(
            f"{kind} sweep is missing required setting(s) "
            f"{sorted(missing)}")


@dataclass(frozen=True)
class ParameterAxis:
    """One swept parameter: a name and the values it takes.

    Built either from an explicit value list or from a range
    (``start``/``stop``/``num``, linearly or logarithmically spaced).
    """

    name: str
    values: tuple[float, ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ParameterAxis":
        """Build an axis from one deserialized ``[[axes]]`` table."""
        mapping = dict(mapping)
        name = mapping.pop("name", None)
        if not name or not isinstance(name, str):
            raise SweepSpecError(
                f"axis needs a string name=, got {name!r}")
        values = mapping.pop("values", None)
        if values is not None:
            if mapping:
                raise SweepSpecError(
                    f"axis {name!r}: values= excludes {sorted(mapping)}")
            return cls.from_values(name, values)
        try:
            start = float(mapping.pop("start"))
            stop = float(mapping.pop("stop"))
            num = int(mapping.pop("num"))
        except KeyError as exc:
            raise SweepSpecError(
                f"axis {name!r} needs either values= or "
                f"start=/stop=/num= (missing {exc})") from None
        except (TypeError, ValueError) as exc:
            raise SweepSpecError(f"axis {name!r}: {exc}") from exc
        scale = mapping.pop("scale", "linear")
        if mapping:
            raise SweepSpecError(
                f"axis {name!r}: unknown key(s) {sorted(mapping)}")
        return cls.from_range(name, start, stop, num, scale)

    @classmethod
    def from_values(cls, name: str, values) -> "ParameterAxis":
        """Axis over an explicit value list."""
        try:
            numbers = tuple(float(v) for v in values)
        except (TypeError, ValueError) as exc:
            raise SweepSpecError(
                f"axis {name!r}: non-numeric value in {values!r}") from exc
        if not numbers:
            raise SweepSpecError(f"axis {name!r} has no values")
        return cls(name, numbers)

    @classmethod
    def from_range(cls, name: str, start: float, stop: float, num: int,
                   scale: str = "linear") -> "ParameterAxis":
        """Axis over ``num`` points from *start* to *stop* inclusive."""
        if num < 1:
            raise SweepSpecError(
                f"axis {name!r}: num must be >= 1, got {num}")
        if num == 1 and start != stop:
            raise SweepSpecError(
                f"axis {name!r}: num=1 needs start == stop")
        if scale == "linear":
            values = np.linspace(start, stop, num)
        elif scale == "log":
            if start <= 0.0 or stop <= 0.0:
                raise SweepSpecError(
                    f"axis {name!r}: log scale needs positive "
                    f"endpoints, got [{start}, {stop}]")
            values = np.geomspace(start, stop, num)
        else:
            raise SweepSpecError(
                f"axis {name!r}: scale must be 'linear' or 'log', "
                f"got {scale!r}")
        return cls(name, tuple(float(v) for v in values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class SweepSpec:
    """A validated parametric sweep over one circuit family.

    Exactly one of ``template`` (a registered
    :class:`~repro.circuits_lib.templates.CircuitTemplate` name) or
    ``netlist_text`` (SPICE-dialect source with ``.PARAM`` cards for
    every swept name) identifies the base design.  ``settings`` holds
    the per-kind job keywords (``t_stop``/``engine``/``options`` for
    transients; ``t_final``/``steps``/``n_paths``/... for ensembles;
    ``f_start``/``f_stop``/``n_points``/``source``/... for AC sweeps).
    """

    axes: list[ParameterAxis]
    kind: str = "transient"
    template: str | None = None
    netlist_text: str | None = None
    mode: str = "product"
    fixed: dict = field(default_factory=dict)
    settings: dict = field(default_factory=dict)
    measures: list[MeasureSpec] = field(default_factory=list)
    name: str = "sweep"
    batch: dict = field(default_factory=dict)
    #: Pre-flight lint mode for every design point: ``"off"`` (no
    #: linting), ``"warn"`` (log broken points, run anyway) or
    #: ``"strict"`` (refuse broken points before any solve) — see
    #: :mod:`repro.lint.gate`.
    validate: str = "off"

    def __post_init__(self) -> None:
        check_validate_mode(self.validate, SweepSpecError)
        if (self.template is None) == (self.netlist_text is None):
            raise SweepSpecError(
                "sweep needs exactly one of template= or netlist")
        if self.kind not in _KINDS:
            raise SweepSpecError(
                f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.mode not in _MODES:
            raise SweepSpecError(
                f"mode must be one of {_MODES}, got {self.mode!r}")
        if not self.axes:
            raise SweepSpecError("sweep defines no parameter axes")
        names = [axis.name for axis in self.axes]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SweepSpecError(
                f"duplicate axis name(s): {sorted(duplicates)}")
        overlap = set(names) & set(self.fixed)
        if overlap:
            raise SweepSpecError(
                f"parameter(s) both fixed and swept: {sorted(overlap)}")
        if self.mode == "zip":
            lengths = {len(axis) for axis in self.axes}
            if len(lengths) > 1:
                raise SweepSpecError(
                    f"zip mode needs equal-length axes, got lengths "
                    f"{sorted(len(a) for a in self.axes)}")
        if self.netlist_text is not None and self.kind == "ensemble":
            raise SweepSpecError(
                "ensemble sweeps need a registered SDE template "
                "(netlists describe deterministic circuits)")
        if self.template is not None:
            info = self.template_info()
            if info.kind == "sde" and self.kind != "ensemble":
                raise SweepSpecError(
                    f"template {self.template!r} is an SDE; "
                    f"use kind = 'ensemble'")
            if info.kind == "circuit" and self.kind == "ensemble":
                raise SweepSpecError(
                    f"template {self.template!r} is a circuit; "
                    f"use kind = 'transient', 'ac' or 'pss'")
            info.coerce({name: 0.0 for name in names})
            info.coerce({k: 0.0 for k in self.fixed})
        _check_settings(self.kind, self.settings)
        if not self.measures:
            raise SweepSpecError("sweep defines no measures")
        if self.n_points == 0:
            raise SweepSpecError("sweep grid is empty")
        self._check_batch()

    def _check_batch(self) -> None:
        """Validate the ``[batch]`` keys and its ``vector`` setting."""
        check_batch(self.batch, SWEEP_BATCH_KEYS, SweepSpecError)
        vector = self.batch.get("vector", 1)
        if not isinstance(vector, int) or isinstance(vector, bool) \
                or vector < 1:
            raise SweepSpecError(
                f"[batch] vector must be an integer >= 1, got {vector!r}")
        if vector == 1:
            return
        if self.kind != "transient":
            raise SweepSpecError(
                "[batch] vector > 1 needs a transient sweep (lockstep "
                "batching marches shared-topology transients)")
        engine = self.settings.get("engine", "swec")
        if engine != "swec":
            raise SweepSpecError(
                f"[batch] vector > 1 needs engine = 'swec', got {engine!r}")

    @property
    def vector(self) -> int:
        """Design points marched per lockstep batch (1 = scalar jobs)."""
        return self.batch.get("vector", 1)

    # ------------------------------------------------------------------

    def template_info(self) -> CircuitTemplate:
        """The registered template this sweep instantiates."""
        if self.template is None:
            raise SweepSpecError("netlist-based sweep has no template")
        return get_template(self.template)

    @property
    def n_points(self) -> int:
        """Number of design points the grid expands to."""
        if self.mode == "zip":
            return len(self.axes[0])
        count = 1
        for axis in self.axes:
            count *= len(axis)
        return count

    def points(self) -> list[dict[str, float]]:
        """Expand the axes into per-point parameter dictionaries.

        Point order is deterministic: the Cartesian product iterates
        the *last* axis fastest (like nested for-loops in axis order).
        """
        names = [axis.name for axis in self.axes]
        if self.mode == "zip":
            combos = zip(*(axis.values for axis in self.axes))
        else:
            combos = itertools.product(*(axis.values for axis in self.axes))
        grid = []
        for combo in combos:
            point = dict(self.fixed)
            point.update(zip(names, combo))
            grid.append(point)
        return grid

    def resolved_measures(self) -> list[MeasureSpec]:
        """The measures with template default nodes filled in.

        For template-based transient/AC sweeps, a measure that omits
        ``node=`` acts on the template's registered ``default_node``
        (netlist sweeps keep the last-node fallback of
        :func:`repro.sweep.measures._node_waveform`).
        """
        if self.kind == "ensemble" or self.template is None:
            return self.measures
        default = self.template_info().default_node
        if default is None:
            return self.measures
        return [replace(measure, node=default)
                if measure.node is None else measure
                for measure in self.measures]

    def point_label(self, point: Mapping[str, float]) -> str:
        """Compact ``name=value`` label for one design point."""
        parts = [f"{axis.name}={point[axis.name]:.6g}"
                 for axis in self.axes]
        return " ".join(parts)

    # ------------------------------------------------------------------

    @classmethod
    def from_mapping(cls, spec: Mapping[str, Any],
                     base_dir: str | Path | None = None) -> "SweepSpec":
        """Build a spec from a deserialized TOML/JSON document.

        Schema (TOML)::

            [sweep]                      # all [sweep] keys except base
            name = "inverter-corners"    # are optional
            circuit = "fet_rtd_inverter" # template name, OR:
            netlist = "family.cir"       # path, relative to the spec file
            kind = "transient"           # transient | ensemble | ac |
                                         # pss ("analysis" is an alias)
            mode = "product"             # product | zip
            t_stop = 4e-8                # job settings, per kind
                                         # (AC: f_start/f_stop/n_points/
                                         #  scale/source/bias/dc_options)
            backend = "auto"             # solver backend for every
                                         # point: dense | sparse |
                                         # stack | auto (transient/AC)
            validate = "strict"          # pre-flight lint every point:
                                         # off | warn | strict
            [sweep.options]              # engine options (transient)
            epsilon = 0.05
            [sweep.fixed]                # unswept parameter pins
            vdd = 5.0

            [[axes]]
            name = "load_area"
            start = 1.5
            stop = 3.0
            num = 4                      # or: values = [1.5, 2.0, 3.0]
                                         # scale = "log" for geomspace

            [[measures]]
            kind = "rise_time"           # see repro.sweep.measures
            node = "out"                 # column name defaults to kind

            [batch]                      # optional, as repro.runtime
            workers = 4
            seed = 42
        """
        spec = {k: v for k, v in spec.items()}
        sweep = dict(spec.pop("sweep", {}))
        axes_tables = spec.pop("axes", [])
        measure_tables = spec.pop("measures", [])
        batch = dict(spec.pop("batch", {}))
        if spec:
            raise SweepSpecError(
                f"unknown top-level table(s): {sorted(spec)}")

        if "analysis" in sweep and "kind" in sweep:
            raise SweepSpecError(
                "[sweep] takes kind= or its alias analysis=, not both")
        kind = sweep.pop("analysis", None) or sweep.pop("kind", "transient")
        template = sweep.pop("circuit", None)
        netlist_text = sweep.pop("netlist_text", None)
        netlist_path = sweep.pop("netlist", None)
        if netlist_path is not None:
            if netlist_text is not None:
                raise SweepSpecError(
                    "give netlist= (a path) or netlist_text=, not both")
            path = Path(netlist_path)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            if not path.exists():
                raise SweepSpecError(f"netlist file not found: {path}")
            netlist_text = path.read_text()

        axes = [ParameterAxis.from_mapping(table) for table in axes_tables]
        measures = measures_from_spec(measure_tables, kind=kind)
        return cls(
            axes=axes,
            kind=kind,
            template=template,
            netlist_text=netlist_text,
            mode=sweep.pop("mode", "product"),
            fixed=dict(sweep.pop("fixed", {})),
            name=sweep.pop("name", "sweep"),
            validate=sweep.pop("validate", "off"),
            settings=sweep,  # the remaining keys are job settings
            measures=measures,
            batch=batch,
        )


def load_sweep_spec(path: str | Path) -> SweepSpec:
    """Load and validate a ``.toml`` or ``.json`` sweep-spec file."""
    try:
        document = load_spec(path)
    except AnalysisError as exc:
        raise SweepSpecError(str(exc)) from exc
    return SweepSpec.from_mapping(document, base_dir=Path(path).parent)
