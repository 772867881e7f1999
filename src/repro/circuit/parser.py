"""SPICE-like netlist text parser.

Supported card types (case-insensitive, ``*`` and ``;`` comments,
``+`` continuation lines)::

    R<name> n1 n2 <value>
    C<name> n1 n2 <value> [IC=<v0>]
    L<name> n1 n2 <value> [IC=<i0>]
    V<name> n+ n- <dc value> | PULSE(v1 v2 td tr tf pw per) |
                               SIN(off ampl freq [delay]) |
                               PWL(t1 v1 t2 v2 ...)
    I<name> n+ n- <same waveform syntax>
    D<name> n+ n- <model>            (diode)
    X<name> n+ n- <model> [M=<mult>] (two-terminal nanodevice)
    X<name> n1 n2 ... <subckt> [param=value ...]  (subcircuit call)
    M<name> nd ng ns <model>         (MOSFET)
    .MODEL <name> <RTD|NANOWIRE|RTT|DIODE|NMOS|PMOS> [param=value ...]
    .PARAM <name>=<expr> [<name>=<expr> ...]
    .SUBCKT <name> port1 port2 ... [param=default ...] / .ENDS
    .TITLE <text> / .END

Values accept engineering suffixes (``1k``, ``10p``...).  Any value
position may be an expression in braces (``{rload * 2}``) over the
``.PARAM`` environment — see :mod:`repro.circuit.expressions`.
Subcircuits are flattened at parse time: internal nodes and element
names are prefixed with the instance name (``X1.n1``), and instances
may nest.  Device models reference ``.MODEL`` cards (global, even when
written inside a ``.SUBCKT`` body); the RTD model exposes the Schulman
parameters under their paper names (``A B C D N1 N2 H``).

The full dialect is documented in ``docs/netlist_format.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from repro.circuit.expressions import ExpressionError, evaluate
from repro.circuit.netlist import Circuit, is_ground
from repro.circuit.sources import DC, PiecewiseLinear, Pulse, Sine, Waveform
from repro.devices.diode import Diode
from repro.devices.mosfet import nmos, pmos
from repro.devices.nanowire import QuantizedNanowire
from repro.devices.rtd import (
    NANO_SIM_DATE05,
    SchulmanParameters,
    SchulmanRTD,
)
from repro.devices.rtt import MultiPeakRTT
from repro.errors import NetlistParseError
from repro.units import parse_value

_FUNC_RE = re.compile(r"^(PULSE|SIN|PWL)\s*\((.*)\)$", re.IGNORECASE)
_PARAM_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(.+)$", re.DOTALL)
_BRACE_RE = re.compile(r"\{([^{}]*)\}")

#: Recursion limit for subcircuit expansion; hitting it means a cycle.
MAX_SUBCKT_DEPTH = 32

#: Distinct netlist texts whose card tables stay compiled, least
#: recently used out.  A sweep parses one text at every design point;
#: a handful of slots covers the texts one process alternates between.
NETLIST_CACHE_SIZE = 16


def _join_continuations(text: str) -> list[tuple[int, str]]:
    """Strip comments, join ``+`` continuation lines; keep line numbers."""
    logical: list[tuple[int, str]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not logical:
                raise NetlistParseError(
                    "continuation line with nothing to continue",
                    number, raw)
            prev_number, prev_line = logical[-1]
            logical[-1] = (prev_number, prev_line + " " + stripped[1:])
        else:
            logical.append((number, stripped))
    return logical


def _split_fields(line: str) -> list[str]:
    """Tokenize a card, keeping ``FUNC(...)``/``{...}`` groups together."""
    fields: list[str] = []
    depth = 0
    current: list[str] = []
    for char in line:
        if char in "({":
            depth += 1
        elif char in ")}":
            depth -= 1
        if char.isspace() and depth == 0:
            if current:
                fields.append("".join(current))
                current = []
        else:
            current.append(char)
    if current:
        fields.append("".join(current))
    return fields


def _substitute(token: str, env: dict, number: int, line: str) -> str:
    """Replace every ``{expr}`` in *token* with its evaluated value."""
    if "{" not in token:
        return token

    def replace(match: re.Match) -> str:
        return repr(evaluate(match.group(1), env))

    try:
        return _BRACE_RE.sub(replace, token)
    except ExpressionError as exc:
        raise NetlistParseError(str(exc), number, line) from exc


def _expression_value(token: str, env: dict, number: int,
                      line: str) -> float:
    """Evaluate a value token: ``{expr}``, bare expression, or number."""
    text = token.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    try:
        return evaluate(text, env)
    except ExpressionError as exc:
        raise NetlistParseError(str(exc), number, line) from exc


def _parse_waveform(fields: list[str], line_number: int,
                    line: str) -> Waveform:
    """Parse the source-value tail of a V/I card."""
    joined = " ".join(fields)
    match = _FUNC_RE.match(joined)
    if match is None:
        if len(fields) == 2 and fields[0].upper() == "DC":
            return DC(parse_value(fields[1]))
        if len(fields) == 1:
            return DC(parse_value(fields[0]))
        raise NetlistParseError(
            f"cannot parse source value {joined!r}", line_number, line)
    kind = match.group(1).upper()
    arguments = [parse_value(tok) for tok in
                 re.split(r"[\s,]+", match.group(2).strip()) if tok]
    try:
        if kind == "PULSE":
            names = ("initial", "pulsed", "delay", "rise", "fall",
                     "width", "period")
            kwargs = dict(zip(names, arguments))
            initial = kwargs.pop("initial")
            pulsed = kwargs.pop("pulsed")
            if "period" not in kwargs:
                kwargs["period"] = float("inf")
            return Pulse(initial, pulsed, **kwargs)
        if kind == "SIN":
            return Sine(*arguments)
        if kind == "PWL":
            if len(arguments) % 2 != 0:
                raise ValueError("PWL needs time/value pairs")
            points = list(zip(arguments[0::2], arguments[1::2]))
            return PiecewiseLinear(points)
    except (TypeError, ValueError) as exc:
        raise NetlistParseError(
            f"bad {kind} source: {exc}", line_number, line) from exc
    raise NetlistParseError(
        f"unknown source function {kind!r}", line_number, line)


def _build_model(kind: str, params: dict[str, float], line_number: int,
                 line: str):
    """Instantiate a device model from a ``.MODEL`` card."""
    kind = kind.upper()
    if kind == "RTD":
        base = NANO_SIM_DATE05
        record = SchulmanParameters(
            a=params.pop("a", base.a), b=params.pop("b", base.b),
            c=params.pop("c", base.c), d=params.pop("d", base.d),
            n1=params.pop("n1", base.n1), n2=params.pop("n2", base.n2),
            h=params.pop("h", base.h),
            temperature=params.pop("temp", base.temperature))
        model = SchulmanRTD(record)
    elif kind == "NANOWIRE":
        steps = int(params.pop("steps", 4))
        spacing = params.pop("spacing", 0.3)
        first = params.pop("first", 0.2)
        model = QuantizedNanowire(
            step_voltages=tuple(first + spacing * k for k in range(steps)),
            smearing=params.pop("smearing", 0.02))
    elif kind == "RTT":
        peaks = int(params.pop("peaks", 3))
        spacing = params.pop("spacing", 0.7)
        first = params.pop("first", 0.5)
        model = MultiPeakRTT(
            peak_voltages=tuple(first + spacing * k for k in range(peaks)),
            base_drive=params.pop("drive", 1.0))
    elif kind == "DIODE":
        model = Diode(saturation_current=params.pop("is", 1e-14),
                      ideality=params.pop("n", 1.0))
    elif kind in ("NMOS", "PMOS"):
        builder = nmos if kind == "NMOS" else pmos
        model = builder(kp=params.pop("kp", 2e-5),
                        w=params.pop("w", 10e-6),
                        l=params.pop("l", 1e-6),
                        vth=params.pop("vth", 1.0 if kind == "NMOS" else -1.0))
    else:
        raise NetlistParseError(
            f"unknown model kind {kind!r}", line_number, line)
    if params:
        raise NetlistParseError(
            f"unknown {kind} parameters: {sorted(params)}",
            line_number, line)
    return model


@dataclass(frozen=True)
class Card:
    """One logical line: its first physical line number, its text
    (comments stripped, continuations joined) and its fields."""

    number: int
    line: str
    fields: tuple[str, ...]
    head: str  # ``fields[0].upper()``


@dataclass(frozen=True)
class SubcktDef:
    """One ``.SUBCKT`` definition, kept unexpanded until instantiated."""

    name: str
    ports: tuple[str, ...]
    defaults: Mapping[str, str]
    body: tuple[Card, ...]
    line_number: int
    line: str


@dataclass(frozen=True)
class CardTable:
    """A netlist text compiled once: tokenized cards and subcircuits.

    Everything here depends on the text alone, so one table serves
    every parse of that text whatever its ``.PARAM`` overrides; parses
    only read it.
    """

    cards: tuple[Card, ...]  # every logical line, in order
    top: tuple[Card, ...]  # the cards outside ``.SUBCKT`` bodies
    subckts: Mapping[str, SubcktDef]


@dataclass
class _Scope:
    """Expansion context: name prefix, port mapping, parameter env."""

    env: dict
    prefix: str = ""
    node_map: dict = field(default_factory=dict)

    def resolve(self, node: str) -> str:
        """Map a local node name to its flattened global name."""
        if is_ground(node):
            return node
        if node in self.node_map:
            return self.node_map[node]
        return self.prefix + node


def _extract_subckts(
    cards: tuple[Card, ...],
) -> tuple[tuple[Card, ...], Mapping[str, SubcktDef]]:
    """Split logical lines into top-level cards and subckt definitions."""
    top: list[Card] = []
    subckts: dict[str, SubcktDef] = {}
    current: SubcktDef | None = None
    body: list[Card] = []
    for card in cards:
        fields, number, line = card.fields, card.number, card.line
        if card.head == ".SUBCKT":
            if current is not None:
                raise NetlistParseError(
                    "nested .SUBCKT definitions are not supported "
                    "(nested *instantiation* is)", number, line)
            if len(fields) < 3:
                raise NetlistParseError(
                    ".SUBCKT needs a name and at least one port",
                    number, line)
            name = fields[1].lower()
            if name in subckts:
                raise NetlistParseError(
                    f"duplicate .SUBCKT name {fields[1]!r}", number, line)
            ports: list[str] = []
            defaults: dict[str, str] = {}
            for token in fields[2:]:
                match = _PARAM_RE.match(token)
                if match is not None:
                    defaults[match.group(1)] = match.group(2)
                elif defaults:
                    raise NetlistParseError(
                        f"port {token!r} after parameter defaults",
                        number, line)
                else:
                    ports.append(token)
            if not ports:
                raise NetlistParseError(
                    ".SUBCKT needs at least one port", number, line)
            current = SubcktDef(name, tuple(ports),
                                MappingProxyType(defaults), (), number, line)
            body = []
        elif card.head == ".ENDS":
            if current is None:
                raise NetlistParseError(
                    ".ENDS without a matching .SUBCKT", number, line)
            subckts[current.name] = replace(current, body=tuple(body))
            current = None
        elif current is not None:
            if card.head == ".PARAM":
                raise NetlistParseError(
                    ".PARAM inside a .SUBCKT body; declare defaults on "
                    "the .SUBCKT line instead", number, line)
            body.append(card)
        else:
            top.append(card)
    if current is not None:
        raise NetlistParseError(
            f".SUBCKT {current.name!r} is never closed by .ENDS",
            current.line_number, current.line)
    return tuple(top), MappingProxyType(subckts)


@lru_cache(maxsize=NETLIST_CACHE_SIZE)
def compile_netlist(text: str) -> CardTable:
    """Compile *text* into its :class:`CardTable`, once per text.

    Joins continuations, tokenizes every card and extracts the
    ``.SUBCKT`` definitions.  Tables are kept in an LRU cache of
    :data:`NETLIST_CACHE_SIZE` texts; a text that fails to compile
    raises its :class:`~repro.errors.NetlistParseError` on every call
    and is never cached.
    """
    cards = []
    for number, line in _join_continuations(text):
        fields = tuple(_split_fields(line))
        cards.append(Card(number, line, fields, fields[0].upper()))
    top, subckts = _extract_subckts(tuple(cards))
    return CardTable(cards=tuple(cards), top=top, subckts=subckts)


def _collect_params(top: tuple[Card, ...],
                    overrides: dict | None) -> dict[str, float]:
    """Process ``.PARAM`` cards in order, applying external overrides.

    Overrides replace the value of a parameter *at its definition
    point*, so later parameters derived from it see the override.
    Overriding a name no ``.PARAM`` card defines is an error — it is
    almost always a typo in a sweep spec.
    """
    overrides = dict(overrides or {})
    env: dict[str, float] = {}
    for card in top:
        if card.head != ".PARAM":
            continue
        fields, number, line = card.fields, card.number, card.line
        if len(fields) < 2:
            raise NetlistParseError(
                ".PARAM needs at least one name=value pair", number, line)
        for token in fields[1:]:
            match = _PARAM_RE.match(token)
            if match is None:
                raise NetlistParseError(
                    f"bad .PARAM token {token!r} (expected name=value)",
                    number, line)
            name = match.group(1)
            if name in env:
                raise NetlistParseError(
                    f"parameter {name!r} redefined", number, line)
            if name in overrides:
                env[name] = float(overrides.pop(name))
            else:
                env[name] = _expression_value(match.group(2), env,
                                              number, line)
    if overrides:
        unknown = ", ".join(sorted(overrides))
        raise NetlistParseError(
            f"override of parameter(s) not defined by any .PARAM card: "
            f"{unknown}")
    return env


def _collect_models(cards: tuple[Card, ...],
                    env: dict[str, float]) -> dict[str, object]:
    """Build the (global) model table from every ``.MODEL`` card."""
    models: dict[str, object] = {}
    for card in cards:
        if card.head != ".MODEL":
            continue
        fields, number, line = card.fields, card.number, card.line
        if len(fields) < 3:
            raise NetlistParseError(".MODEL needs name and kind",
                                    number, line)
        name = fields[1].lower()
        params: dict[str, float] = {}
        for token in fields[3:]:
            token = _substitute(token, env, number, line)
            match = _PARAM_RE.match(token)
            if match is None:
                raise NetlistParseError(
                    f"bad model parameter {token!r}", number, line)
            params[match.group(1).lower()] = parse_value(match.group(2))
        models[name] = _build_model(fields[2], params, number, line)
    return models


def _split_bare_and_params(tokens) -> tuple[list[str], list[str]]:
    """Separate positional tokens from trailing ``name=value`` tokens."""
    bare = [t for t in tokens if _PARAM_RE.match(t) is None]
    params = [t for t in tokens if _PARAM_RE.match(t) is not None]
    return bare, params


class _Parser:
    """Single-netlist parse state: model/subckt tables plus the circuit."""

    def __init__(self, models: dict, subckts: Mapping[str, SubcktDef],
                 provenance: dict | None = None) -> None:
        self.models = models
        self.subckts = subckts
        self.circuit = Circuit()
        self.provenance = provenance

    def _note(self, name: str, number: int, line: str) -> None:
        """Record where an element came from, when provenance is on."""
        if self.provenance is not None:
            self.provenance[name] = (number, line)

    # ------------------------------------------------------------------

    def add_card(self, fields, number: int, line: str,
                 scope: _Scope, depth: int = 0) -> None:
        """Parse one element card into the circuit, inside *scope*."""
        head = fields[0]
        name = scope.prefix + head
        if head[0].upper() in "RCLVIM":
            self._note(name, number, line)
        fields = [head] + [_substitute(token, scope.env, number, line)
                           for token in fields[1:]]
        letter = head[0].upper()
        circuit = self.circuit
        try:
            if letter == "R":
                circuit.add_resistor(name, scope.resolve(fields[1]),
                                     scope.resolve(fields[2]),
                                     parse_value(fields[3]))
            elif letter == "C":
                initial = None
                for token in fields[4:]:
                    match = _PARAM_RE.match(token)
                    if match and match.group(1).upper() == "IC":
                        initial = parse_value(match.group(2))
                circuit.add_capacitor(name, scope.resolve(fields[1]),
                                      scope.resolve(fields[2]),
                                      parse_value(fields[3]), initial)
            elif letter == "L":
                initial = 0.0
                for token in fields[4:]:
                    match = _PARAM_RE.match(token)
                    if match and match.group(1).upper() == "IC":
                        initial = parse_value(match.group(2))
                circuit.add_inductor(name, scope.resolve(fields[1]),
                                     scope.resolve(fields[2]),
                                     parse_value(fields[3]), initial)
            elif letter == "V":
                circuit.add_voltage_source(
                    name, scope.resolve(fields[1]), scope.resolve(fields[2]),
                    _parse_waveform(fields[3:], number, line))
            elif letter == "I":
                circuit.add_current_source(
                    name, scope.resolve(fields[1]), scope.resolve(fields[2]),
                    _parse_waveform(fields[3:], number, line))
            elif letter == "X":
                self._add_x_card(fields, number, line, scope, depth)
            elif letter == "D":
                self._add_device(fields, number, line, scope)
            elif letter == "M":
                model_name = fields[4].lower()
                if model_name not in self.models:
                    raise NetlistParseError(
                        f"unknown model {fields[4]!r}", number, line)
                circuit.add_mosfet(name, scope.resolve(fields[1]),
                                   scope.resolve(fields[2]),
                                   scope.resolve(fields[3]),
                                   self.models[model_name])
            else:
                raise NetlistParseError(
                    f"unknown card type {head!r}", number, line)
        except NetlistParseError:
            raise
        except IndexError:
            raise NetlistParseError(
                f"too few fields for {head!r}", number, line) from None
        except Exception as exc:
            raise NetlistParseError(str(exc), number, line) from exc

    # ------------------------------------------------------------------

    def _add_device(self, fields: list[str], number: int, line: str,
                    scope: _Scope) -> None:
        """``D``/two-terminal ``X`` card referencing a ``.MODEL``."""
        model_name = fields[3].lower()
        if model_name not in self.models:
            raise NetlistParseError(
                f"unknown model {fields[3]!r}", number, line)
        multiplicity = 1.0
        for token in fields[4:]:
            match = _PARAM_RE.match(token)
            if match and match.group(1).upper() == "M":
                multiplicity = parse_value(match.group(2))
        self._note(scope.prefix + fields[0], number, line)
        self.circuit.add_device(
            scope.prefix + fields[0], scope.resolve(fields[1]),
            scope.resolve(fields[2]), self.models[model_name], multiplicity)

    def _add_x_card(self, fields: list[str], number: int, line: str,
                    scope: _Scope, depth: int) -> None:
        """``X`` card: subcircuit call, or two-terminal nanodevice."""
        bare, param_tokens = _split_bare_and_params(fields[1:])
        if len(bare) < 2:
            raise NetlistParseError(
                f"too few fields for {fields[0]!r}", number, line)
        reference = bare[-1].lower()
        if reference in self.subckts:
            self._expand_subckt(fields[0], bare[:-1], param_tokens,
                                self.subckts[reference], number, line,
                                scope, depth)
            return
        if reference in self.models:
            self._add_device(fields, number, line, scope)
            return
        raise NetlistParseError(
            f"unknown model or subcircuit {bare[-1]!r}", number, line)

    def _expand_subckt(self, instance: str, nodes: list[str],
                       param_tokens: list[str], definition: SubcktDef,
                       number: int, line: str, scope: _Scope,
                       depth: int) -> None:
        """Flatten one subcircuit call into prefixed elements."""
        if depth >= MAX_SUBCKT_DEPTH:
            raise NetlistParseError(
                f"subcircuit nesting deeper than {MAX_SUBCKT_DEPTH} "
                f"levels (recursive definition?)", number, line)
        if len(nodes) != len(definition.ports):
            raise NetlistParseError(
                f"subcircuit {definition.name!r} has "
                f"{len(definition.ports)} port(s) "
                f"{definition.ports}, got {len(nodes)} node(s)",
                number, line)
        # Instance overrides are evaluated in the caller's scope...
        overrides: dict[str, float] = {}
        for token in param_tokens:
            match = _PARAM_RE.match(token)
            key = match.group(1)
            if key not in definition.defaults:
                raise NetlistParseError(
                    f"subcircuit {definition.name!r} has no parameter "
                    f"{key!r} (has: {sorted(definition.defaults) or 'none'})",
                    number, line)
            overrides[key] = _expression_value(match.group(2), scope.env,
                                               number, line)
        # ...while defaults are evaluated in the global/outer env, with
        # earlier subckt parameters visible to later defaults.
        child_env = dict(scope.env)
        for key, default in definition.defaults.items():
            if key in overrides:
                child_env[key] = overrides[key]
            else:
                child_env[key] = _expression_value(
                    default, child_env, definition.line_number,
                    definition.line)
        child = _Scope(
            env=child_env,
            prefix=scope.prefix + instance + ".",
            node_map={port: scope.resolve(node)
                      for port, node in zip(definition.ports, nodes)})
        for card in definition.body:
            if card.head == ".MODEL":
                continue  # models are global; collected in the first pass
            if card.head.startswith("."):
                raise NetlistParseError(
                    f"directive {card.fields[0]!r} not allowed inside "
                    f".SUBCKT {definition.name!r}", card.number, card.line)
            self.add_card(card.fields, card.number, card.line, child,
                          depth + 1)


def parse_netlist(text: str, params: dict | None = None,
                  provenance: dict | None = None) -> Circuit:
    """Parse *text* into a :class:`~repro.circuit.Circuit`.

    Parameters
    ----------
    text:
        The netlist source.
    params:
        External overrides for ``.PARAM`` values — this is how the
        sweep subsystem turns one netlist into a circuit family.  Every
        key must be defined by a ``.PARAM`` card in the netlist.
    provenance:
        Optional dict the parser fills with
        ``element name -> (line_number, logical_line)`` for every
        element it creates (subcircuit-expanded elements point at
        their body line).  The lint subsystem uses this to attach
        netlist locations to graph-level diagnostics.

    >>> circuit = parse_netlist('''
    ... .title divider
    ... .param rser=10
    ... Vs in 0 1.0
    ... R1 in out {rser}
    ... .model myrtd RTD
    ... Xrtd out 0 myrtd
    ... .end
    ... ''', params={"rser": 22.0})
    >>> circuit.num_nodes
    2
    >>> circuit.resistors[0].resistance
    22.0
    """
    table = compile_netlist(text)
    env = _collect_params(table.top, params)
    parser = _Parser(_collect_models(table.cards, env), table.subckts,
                     provenance)
    circuit = parser.circuit

    for card in table.top:
        if card.head == ".TITLE":
            circuit.name = " ".join(card.fields[1:]) or circuit.name
            continue
        # Exact matches only: a mistyped directive (".MODELS",
        # ".PARAMS") must be reported, not silently skipped.
        if card.head in (".END", ".MODEL", ".PARAM"):
            continue
        if card.head.startswith("."):
            raise NetlistParseError(
                f"unsupported directive {card.fields[0]!r}", card.number,
                card.line)
        parser.add_card(card.fields, card.number, card.line,
                        _Scope(env=env))
    return circuit
