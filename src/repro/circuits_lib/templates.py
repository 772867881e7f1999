"""Sweepable circuit/SDE template registry.

The sweep subsystem addresses :mod:`repro.circuits_lib` builders by
name; this registry records, per builder, which keyword arguments are
*numerically sweepable* (a parameter axis can range over them) and what
the template measures by default.  Registering here is what makes a
factory show up in ``python -m repro.sweep --list-templates`` and lets
:mod:`repro.sweep.spec` reject typo'd axis names before any job runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SweepSpecError

__all__ = [
    "CircuitTemplate",
    "TEMPLATES",
    "get_template",
    "register_template",
]


@dataclass(frozen=True)
class CircuitTemplate:
    """Metadata for one sweepable builder.

    Attributes
    ----------
    name:
        Registry key; matches the builder's importable name.
    kind:
        ``"circuit"`` (deterministic transient) or ``"sde"``
        (stochastic ensemble).
    description:
        One line for ``--list-templates``.
    sweepable:
        Keyword arguments a parameter axis may range over.  Every entry
        accepts a float (integer-valued floats are cast for ``int``
        parameters such as grid sizes).
    integer_params:
        The subset of ``sweepable`` that must be integral.
    default_node:
        Node whose waveform measures act on when a measure omits
        ``node=`` (circuit templates only).
    ac_source:
        Independent source an ``analysis = "ac"`` sweep excites when
        the spec omits ``source=`` (circuit templates only).
    """

    name: str
    kind: str
    description: str
    sweepable: tuple[str, ...]
    integer_params: tuple[str, ...] = ()
    default_node: str | None = None
    ac_source: str | None = None

    def coerce(self, params: dict) -> dict:
        """Cast integer-valued parameters; reject non-sweepable names."""
        coerced = {}
        for key, value in params.items():
            if key not in self.sweepable:
                raise SweepSpecError(
                    f"template {self.name!r} has no sweepable parameter "
                    f"{key!r} (has: {', '.join(self.sweepable)})")
            coerced[key] = int(value) if key in self.integer_params \
                else value
        return coerced


#: Registered templates, by name.
TEMPLATES: dict[str, CircuitTemplate] = {}


def register_template(template: CircuitTemplate) -> CircuitTemplate:
    """Add *template* to the registry (duplicate names are an error)."""
    if template.name in TEMPLATES:
        raise SweepSpecError(
            f"template {template.name!r} is already registered")
    if template.kind not in ("circuit", "sde"):
        raise SweepSpecError(
            f"template kind must be 'circuit' or 'sde', "
            f"got {template.kind!r}")
    TEMPLATES[template.name] = template
    return template


def get_template(name: str) -> CircuitTemplate:
    """Look up a template; raises :class:`SweepSpecError` when unknown."""
    template = TEMPLATES.get(name)
    if template is None:
        raise SweepSpecError(
            f"unknown template {name!r} "
            f"(available: {', '.join(sorted(TEMPLATES))})")
    return template


def _register_builtins() -> None:
    for template in (
        CircuitTemplate(
            name="rtd_divider", kind="circuit",
            description="series resistor + RTD divider (Fig. 7a)",
            sweepable=("resistance",), default_node="out",
            ac_source="Vs"),
        CircuitTemplate(
            name="nanowire_divider", kind="circuit",
            description="series resistor + quantized nanowire (Fig. 7b)",
            sweepable=("resistance",), default_node="out",
            ac_source="Vs"),
        CircuitTemplate(
            name="rtd_chain", kind="circuit",
            description="ladder of R-RTD sections (Table I scaling)",
            sweepable=("stages", "resistance"),
            integer_params=("stages",), default_node="n1",
            ac_source="Vs"),
        CircuitTemplate(
            name="fet_rtd_inverter", kind="circuit",
            description="MOBILE FET-RTD inverter (Fig. 8a)",
            sweepable=("vdd", "load_area", "drive_area", "fet_beta",
                       "fet_vth", "load_capacitance"),
            default_node="out", ac_source="Vin"),
        CircuitTemplate(
            name="mobile_dflipflop", kind="circuit",
            description="RTD-D flip-flop (Fig. 9a)",
            sweepable=("load_area", "drive_area", "fet_beta", "fet_vth",
                       "output_capacitance"),
            default_node="q", ac_source="Vd"),
        CircuitTemplate(
            name="rtd_mesh", kind="circuit",
            description="rows x cols RTD/RC mesh (sparse-path workload)",
            sweepable=("rows", "cols", "mesh_resistance",
                       "node_capacitance", "rtd_area", "drive"),
            integer_params=("rows", "cols"), default_node="n0_0",
            ac_source="Vs"),
        CircuitTemplate(
            name="rc_mesh", kind="circuit",
            description="linear RC interconnect mesh",
            sweepable=("rows", "cols", "mesh_resistance",
                       "node_capacitance", "drive"),
            integer_params=("rows", "cols"), default_node="n0_0",
            ac_source="Vs"),
        CircuitTemplate(
            name="rtd_relaxation_oscillator", kind="circuit",
            description="free-running RTD-LC relaxation oscillator "
                        "(autonomous PSS target)",
            sweepable=("inductance", "capacitance", "bias", "rtd_area"),
            default_node="out", ac_source="Vb"),
        CircuitTemplate(
            name="coupled_oscillator_bank", kind="circuit",
            description="resistively coupled, detuned RTD oscillators",
            sweepable=("count", "coupling_resistance", "detune",
                       "inductance", "capacitance", "bias", "rtd_area"),
            integer_params=("count",), default_node="out0",
            ac_source="Vb"),
        CircuitTemplate(
            name="rtd_memory_array", kind="circuit",
            description="rows x cols RTD memory cells with staggered "
                        "word-line clocks",
            sweepable=("rows", "cols", "access_resistance",
                       "column_resistance", "cell_capacitance",
                       "rtd_area", "word_period", "word_high"),
            integer_params=("rows", "cols"), default_node="m0_0",
            ac_source="Vw0"),
        CircuitTemplate(
            name="power_grid_mesh", kind="circuit",
            description="N x N supply mesh with distributed load and "
                        "sinusoidal ripple",
            sweepable=("rows", "cols", "grid_resistance",
                       "load_resistance", "decap", "vdd", "ripple",
                       "ripple_frequency"),
            integer_params=("rows", "cols"), default_node="n0_0",
            ac_source="Vdd"),
        CircuitTemplate(
            name="noisy_rc_node", kind="sde",
            description="single RC node with white-noise current (Sec. 4)",
            sweepable=("resistance", "capacitance", "drive",
                       "noise_amplitude")),
        CircuitTemplate(
            name="noisy_rc_ladder", kind="sde",
            description="RC ladder with noise injection at the far end",
            sweepable=("stages", "resistance", "capacitance", "drive",
                       "noise_amplitude"),
            integer_params=("stages",)),
        CircuitTemplate(
            name="ornstein_uhlenbeck", kind="sde",
            description="scalar OU process dX = (a - l X)dt + s dW",
            sweepable=("decay_rate", "noise_amplitude", "drift_level")),
    ):
        register_template(template)


_register_builtins()
