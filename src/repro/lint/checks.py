"""The check registry and the built-in checks.

Checks come in two scopes:

* ``graph`` checks receive a :class:`~repro.lint.graph.CircuitGraph`
  (a flattened circuit plus provenance) and detect topology defects:
  floating nodes, capacitor-only cuts, structurally singular MNA rows,
  source loops, dead ends, implausible element values.
* ``text`` checks receive a :class:`TextContext` (the logical netlist
  lines plus the extracted ``.SUBCKT`` table) and detect defects that
  flattening erases: dangling subcircuit ports, unused definitions.

Each check is registered under a stable id via :func:`register_check`;
``python -m repro.lint --list-checks`` prints the registry.  Two more
ids — ``duplicate-element`` and ``subckt-arity`` — are emitted by the
analyzer by classifying parser errors (the parser already detects
those defects with exact line numbers; re-deriving them here would
duplicate its logic), and ``parse-error`` / ``build-error`` cover
everything else that keeps a design from producing a circuit at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    MosfetInstance,
    Resistor,
    TwoTerminalDeviceInstance,
    VoltageSource,
)
from repro.circuit.sources import DC
from repro.lint.graph import GROUND, CircuitGraph, _canon, conductive_pairs
from repro.lint.report import Diagnostic

__all__ = [
    "CHECKS",
    "PARSE_CHECK_IDS",
    "LintCheck",
    "TextContext",
    "register_check",
    "run_graph_checks",
    "run_text_checks",
]

#: Check ids produced by classifying parser/build failures (documented
#: here so ``--list-checks`` and the docs can enumerate every id).
PARSE_CHECK_IDS = {
    "parse-error": "the netlist does not parse at all",
    "duplicate-element": "two elements share one name",
    "subckt-arity": "a subcircuit call passes the wrong number of nodes",
    "build-error": "a registered circuit builder rejected its parameters",
}


@dataclass(frozen=True)
class TextContext:
    """Input to text-scope checks: tokenized logical lines + subckt table."""

    lines: tuple  # every Card of the compiled netlist, in order
    top: tuple  # top-level subset of ``lines``
    subckts: Mapping  # name -> SubcktDef


@dataclass(frozen=True)
class LintCheck:
    """One registered check: id, default severity, scope, function."""

    check_id: str
    severity: str
    scope: str  # "graph" | "text"
    title: str
    fn: Callable = field(compare=False)


#: Registry of all graph/text checks, keyed by check id.
CHECKS: dict[str, LintCheck] = {}


def register_check(
    check_id: str, *, severity: str, scope: str = "graph", title: str
) -> Callable:
    """Decorator adding a check function to :data:`CHECKS`.

    The function receives a :class:`CircuitGraph` (scope ``graph``) or
    a :class:`TextContext` (scope ``text``) and returns a list of
    :class:`Diagnostic`.  Registering an id twice is an error — ids
    are a public, documented namespace.
    """

    def wrap(fn: Callable) -> Callable:
        if check_id in CHECKS or check_id in PARSE_CHECK_IDS:
            raise ValueError(f"check id {check_id!r} already registered")
        CHECKS[check_id] = LintCheck(check_id, severity, scope, title, fn)
        return fn

    return wrap


def run_graph_checks(graph: CircuitGraph) -> list[Diagnostic]:
    """Run every graph-scope check over *graph*."""
    diagnostics: list[Diagnostic] = []
    for check in CHECKS.values():
        if check.scope == "graph":
            diagnostics.extend(check.fn(graph))
    return diagnostics


def run_text_checks(context: TextContext) -> list[Diagnostic]:
    """Run every text-scope check over *context*."""
    diagnostics: list[Diagnostic] = []
    for check in CHECKS.values():
        if check.scope == "text":
            diagnostics.extend(check.fn(context))
    return diagnostics


# ----------------------------------------------------------------------
# Graph-scope checks
# ----------------------------------------------------------------------
#
# The node-level checks partition defective nodes so one broken node
# yields exactly one diagnostic: capacitor-only nodes are open
# circuits; other zero-G-row nodes are structurally singular; nodes
# with a usable row that cannot reach ground are floating.


def _cap_only(graph: CircuitGraph, node: str) -> bool:
    elements = graph.elements_at(node)
    return bool(elements) and all(
        isinstance(e, Capacitor) for e in elements
    )


@register_check(
    "empty-circuit",
    severity="error",
    title="the circuit has no elements, or no non-ground nodes",
)
def _check_empty(graph: CircuitGraph) -> list[Diagnostic]:
    if not graph.circuit.num_elements:
        return [
            Diagnostic(
                severity="error",
                check="empty-circuit",
                message=f"circuit {graph.circuit.name!r} has no elements",
                hint="add at least one element card (R/C/L/V/I/X/D/M)",
            )
        ]
    if graph.circuit.num_nodes:
        return []
    # Elements exist but every terminal sits on ground: zero unknowns,
    # so MNA assembly produces an empty system.
    first = next(graph.circuit.elements())
    line, source = graph.element_location(first)
    return [
        Diagnostic(
            severity="error",
            check="empty-circuit",
            message=(
                f"circuit {graph.circuit.name!r} has no non-ground "
                f"nodes: every element terminal is tied to '0', so "
                f"there is nothing to solve for"
            ),
            line=line,
            source=source,
            hint="connect at least one element to a non-ground node",
        )
    ]


@register_check(
    "no-ground",
    severity="error",
    title="no element connects to the reference node",
)
def _check_no_ground(graph: CircuitGraph) -> list[Diagnostic]:
    if graph.has_ground or graph.circuit.num_elements == 0:
        return []
    first = next(graph.circuit.elements())
    line, source = graph.element_location(first)
    return [
        Diagnostic(
            severity="error",
            check="no-ground",
            message=(
                f"circuit {graph.circuit.name!r} never connects to "
                f"ground ('0'/'gnd'); the MNA reference is undefined"
            ),
            line=line,
            source=source,
            hint="tie one node to '0' (every potential is relative to it)",
        )
    ]


@register_check(
    "open-circuit",
    severity="error",
    title="a node connects only to capacitor terminals",
)
def _check_open_circuit(graph: CircuitGraph) -> list[Diagnostic]:
    out = []
    for node in graph.nodes():
        if _cap_only(graph, node):
            names = ", ".join(
                repr(e.name) for e in graph.elements_at(node)
            )
            line, source = graph.node_location(node)
            out.append(
                Diagnostic(
                    severity="error",
                    check="open-circuit",
                    message=(
                        f"node {node!r} connects only to capacitor "
                        f"terminal(s) ({names}); no DC current can "
                        f"define its voltage"
                    ),
                    line=line,
                    source=source,
                    subject=node,
                    hint=(
                        f"give {node!r} a DC path (resistor or source) "
                        f"or remove the dangling capacitor"
                    ),
                )
            )
    return out


@register_check(
    "singular-mna",
    severity="error",
    title="a node has a structurally all-zero conductance row",
)
def _check_singular_mna(graph: CircuitGraph) -> list[Diagnostic]:
    out = []
    for node in graph.nodes():
        if graph.has_structural_g_row(node) or _cap_only(graph, node):
            continue
        kinds = sorted(
            {type(e).__name__ for e in graph.elements_at(node)}
        )
        line, source = graph.node_location(node)
        hint = f"attach a resistor, source or device branch to {node!r}"
        if any(
            isinstance(e, CurrentSource) for e in graph.elements_at(node)
        ):
            hint = (
                f"a current source needs a DC return path; add a "
                f"shunt resistor at {node!r}"
            )
        out.append(
            Diagnostic(
                severity="error",
                check="singular-mna",
                message=(
                    f"node {node!r} has an all-zero conductance row "
                    f"(attached: {', '.join(kinds) or 'nothing'}); "
                    f"every factorization of this system is singular"
                ),
                line=line,
                source=source,
                subject=node,
                hint=hint,
            )
        )
    return out


@register_check(
    "floating-node",
    severity="error",
    title="a node is not DC-reachable from ground",
)
def _check_floating(graph: CircuitGraph) -> list[Diagnostic]:
    if not graph.has_ground:
        return []  # no-ground already covers every node
    reachable = graph.dc_reachable()
    out = []
    for node in graph.nodes():
        if node in reachable:
            continue
        if _cap_only(graph, node) or not graph.has_structural_g_row(node):
            continue  # already diagnosed more specifically
        line, source = graph.node_location(node)
        out.append(
            Diagnostic(
                severity="error",
                check="floating-node",
                message=(
                    f"node {node!r} is not DC-reachable from ground: "
                    f"every path to '0' crosses a capacitor or current "
                    f"source, or the node sits in an isolated island"
                ),
                line=line,
                source=source,
                subject=node,
                hint=(
                    "ground the island or bridge it with a "
                    "DC-conducting element (resistor, source, device)"
                ),
            )
        )
    return out


class _UnionFind:
    """Minimal union-find for the source-loop check."""

    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, node: str) -> str:
        root = node
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a: str, b: str) -> bool:
        """Join the sets of *a* and *b*; False when already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


@register_check(
    "vsource-loop",
    severity="error",
    title="voltage-source/inductor branches form a loop",
)
def _check_vsource_loop(graph: CircuitGraph) -> list[Diagnostic]:
    forest = _UnionFind()
    out = []
    for element in graph.circuit.elements():
        if not isinstance(element, (VoltageSource, Inductor)):
            continue
        (a, b) = conductive_pairs(element)[0]
        if a == b or not forest.union(a, b):
            kind = (
                "voltage source"
                if isinstance(element, VoltageSource)
                else "inductor"
            )
            line, source = graph.element_location(element)
            out.append(
                Diagnostic(
                    severity="error",
                    check="vsource-loop",
                    message=(
                        f"{kind} {element.name!r} closes a loop of "
                        f"voltage-source/inductor branches between "
                        f"{a!r} and {b!r}; at DC the branch equations "
                        f"are dependent and the MNA system is singular"
                    ),
                    line=line,
                    source=source,
                    subject=element.name,
                    hint=(
                        "break the loop (sources in parallel, or an "
                        "inductor across a source, short each other)"
                    ),
                )
            )
    return out


@register_check(
    "dangling-node",
    severity="warning",
    title="a resistor dead-ends into a single-terminal node",
)
def _check_dangling(graph: CircuitGraph) -> list[Diagnostic]:
    out = []
    reachable = graph.dc_reachable()
    for node in graph.nodes():
        if graph.terminal_count(node) != 1:
            continue
        if graph.has_ground and node not in reachable:
            continue  # floating-node already errors on this node
        element = graph.elements_at(node)[0]
        if not isinstance(element, Resistor):
            continue
        line, source = graph.element_location(element)
        out.append(
            Diagnostic(
                severity="warning",
                check="dangling-node",
                message=(
                    f"node {node!r} is a dead end: only one terminal "
                    f"(of resistor {element.name!r}) reaches it, so no "
                    f"current can flow there"
                ),
                line=line,
                source=source,
                subject=node,
                hint=(
                    f"remove {element.name!r} or connect {node!r} "
                    f"onward"
                ),
            )
        )
    return out


@register_check(
    "self-loop",
    severity="warning",
    title="an element connects a node to itself",
)
def _check_self_loop(graph: CircuitGraph) -> list[Diagnostic]:
    out = []
    for element in graph.circuit.elements():
        if isinstance(element, (VoltageSource, Inductor, MosfetInstance)):
            continue  # V/L self-loops raise vsource-loop instead
        canonical = {_canon(node) for node in element.nodes}
        if len(canonical) != 1:
            continue
        (node,) = canonical
        line, source = graph.element_location(element)
        out.append(
            Diagnostic(
                severity="warning",
                check="self-loop",
                message=(
                    f"element {element.name!r} connects node {node!r} "
                    f"to itself; its stamps cancel and it has no effect"
                ),
                line=line,
                source=source,
                subject=element.name,
                hint=f"remove {element.name!r} or fix one of its nodes",
            )
        )
    return out


#: Plausibility windows for element values (SI units).  Values outside
#: these decades almost always mean a mistyped engineering suffix.
_MAGNITUDE_WINDOWS = {
    "resistance": (1e-3, 1e12, "ohm"),
    "capacitance": (1e-18, 1e-3, "F"),
    "inductance": (1e-15, 1e3, "H"),
}


@register_check(
    "param-magnitude",
    severity="warning",
    title="an element value is outside its plausible decade window",
)
def _check_param_magnitude(graph: CircuitGraph) -> list[Diagnostic]:
    out = []
    for element in graph.circuit.elements():
        for attribute, (low, high, unit) in _MAGNITUDE_WINDOWS.items():
            value = getattr(element, attribute, None)
            if value is None or low <= value <= high:
                continue
            line, source = graph.element_location(element)
            out.append(
                Diagnostic(
                    severity="warning",
                    check="param-magnitude",
                    message=(
                        f"{type(element).__name__.lower()} "
                        f"{element.name!r} has an implausible "
                        f"{attribute} of {value:.3g} {unit} (expected "
                        f"{low:.0e}..{high:.0e})"
                    ),
                    line=line,
                    source=source,
                    subject=element.name,
                    hint=(
                        "check the engineering suffix: 'f' is femto "
                        "(1e-15), 'meg' is 1e6, 'm' is milli"
                    ),
                )
            )
        if isinstance(element, (VoltageSource, CurrentSource)):
            waveform = element.waveform
            if isinstance(waveform, DC) and abs(waveform.level) > 1e6:
                unit = "V" if isinstance(element, VoltageSource) else "A"
                line, source = graph.element_location(element)
                out.append(
                    Diagnostic(
                        severity="warning",
                        check="param-magnitude",
                        message=(
                            f"source {element.name!r} has an "
                            f"implausible DC level of "
                            f"{waveform.level:.3g} {unit}"
                        ),
                        line=line,
                        source=source,
                        subject=element.name,
                        hint="check the engineering suffix on the value",
                    )
                )
    return out


# ----------------------------------------------------------------------
# Text-scope checks
# ----------------------------------------------------------------------


def _card_node_tokens(fields: tuple[str, ...]) -> tuple[str, ...]:
    """Node-position tokens of one element card (best effort)."""
    if not fields or fields[0].startswith("."):
        return ()
    letter = fields[0][0].upper()
    if letter in "RCLVID":
        return fields[1:3]
    if letter == "M":
        return fields[1:4]
    if letter == "X":
        bare = tuple(f for f in fields[1:] if "=" not in f)
        return bare[:-1] if len(bare) > 1 else ()
    return ()


@register_check(
    "dangling-subckt-port",
    severity="warning",
    scope="text",
    title="a .SUBCKT port is never used inside its body",
)
def _check_dangling_port(context: TextContext) -> list[Diagnostic]:
    out = []
    for definition in context.subckts.values():
        used: set[str] = set()
        for card in definition.body:
            used.update(_card_node_tokens(card.fields))
        for port in definition.ports:
            if port in used:
                continue
            out.append(
                Diagnostic(
                    severity="warning",
                    check="dangling-subckt-port",
                    message=(
                        f"port {port!r} of .SUBCKT "
                        f"{definition.name!r} is never used inside "
                        f"the body; every instance leaves that "
                        f"terminal unconnected"
                    ),
                    line=definition.line_number,
                    source=definition.line,
                    subject=f"{definition.name}.{port}",
                    hint=(
                        f"wire {port!r} inside the body or drop it "
                        f"from the port list"
                    ),
                )
            )
    return out


@register_check(
    "unused-subckt",
    severity="info",
    scope="text",
    title="a .SUBCKT is defined but never instantiated",
)
def _check_unused_subckt(context: TextContext) -> list[Diagnostic]:
    referenced: set[str] = set()
    bodies = [context.top]
    bodies.extend(d.body for d in context.subckts.values())
    for cards in bodies:
        for card in cards:
            fields = card.fields
            if not fields or fields[0][0].upper() != "X":
                continue
            bare = [f for f in fields[1:] if "=" not in f]
            if bare:
                referenced.add(bare[-1].lower())
    out = []
    for definition in context.subckts.values():
        if definition.name in referenced:
            continue
        out.append(
            Diagnostic(
                severity="info",
                check="unused-subckt",
                message=(
                    f".SUBCKT {definition.name!r} is defined but "
                    f"never instantiated"
                ),
                line=definition.line_number,
                source=definition.line,
                subject=definition.name,
                hint=(
                    f"instantiate it with an X card or delete the "
                    f"definition"
                ),
            )
        )
    return out
