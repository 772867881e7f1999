"""Top-level entry points: lint netlist text or a built circuit.

:func:`lint_netlist` is the full pipeline — text checks over the raw
(logical) lines, a provenance-tracking parse, then graph checks over
the flattened circuit.  The text checks depend on the text alone and
run once per distinct text; the parse and the graph checks run for
every call, since ``.PARAM`` overrides change the circuit.  A netlist
that fails to parse still produces a report: the parser's
line-numbered :class:`NetlistParseError` is
classified into a check id (``duplicate-element``, ``subckt-arity``,
or the catch-all ``parse-error``) so callers see one uniform
diagnostic stream whatever the failure mode.

:func:`lint_circuit` runs the graph checks alone, for circuits built
through the Python API (or by a registered template builder) where no
netlist text exists.

Both functions never raise on bad input — a broken design is the
expected input, and the answer is a report, not an exception.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.circuit.netlist import Circuit
from repro.circuit.parser import (
    NETLIST_CACHE_SIZE,
    compile_netlist,
    parse_netlist,
)
from repro.errors import NanoSimError, NetlistParseError
from repro.lint.checks import (
    CHECKS,
    TextContext,
    run_graph_checks,
    run_text_checks,
)
from repro.lint.graph import CircuitGraph
from repro.lint.report import Diagnostic, LintReport

__all__ = ["lint_circuit", "lint_netlist"]

#: Parser-message patterns mapped to stable check ids.  The parser is
#: the authority on these defects (it has exact line numbers); lint
#: only classifies its messages.
_PARSE_CLASSIFIERS = (
    ("duplicate-element", re.compile(r"duplicate element name")),
    ("subckt-arity", re.compile(r"has \d+ port\(s\).*\d+ node\(s\)")),
)

_PARSE_HINTS = {
    "duplicate-element": "rename one of the elements; names must be unique",
    "subckt-arity": (
        "pass exactly one node per .SUBCKT port, in port order"
    ),
}


def _classify_parse_error(exc: NetlistParseError) -> Diagnostic:
    """Turn a parser exception into a classified diagnostic."""
    message = str(exc)
    check = "parse-error"
    for check_id, pattern in _PARSE_CLASSIFIERS:
        if pattern.search(message):
            check = check_id
            break
    return Diagnostic(
        severity="error",
        check=check,
        message=message,
        line=exc.line_number,
        source=exc.line,
        hint=_PARSE_HINTS.get(check),
    )


@lru_cache(maxsize=NETLIST_CACHE_SIZE)
def _text_diagnostics(text: str, checks: tuple) -> tuple[Diagnostic, ...]:
    """Diagnostics of the text-scope checks over a compiled *text*.

    They depend on the text alone, so a sweep runs them once, not at
    every design point.  *checks*, the registered text-scope check
    functions, is only part of the key: a check registered later is
    run, not served a stale answer.
    """
    table = compile_netlist(text)
    return tuple(run_text_checks(TextContext(
        lines=table.cards, top=table.top, subckts=table.subckts)))


def lint_netlist(
    text: str,
    params: dict | None = None,
    name: str = "<netlist>",
) -> LintReport:
    """Lint netlist source *text*; never raises on bad input.

    Parameters
    ----------
    text:
        The netlist source to analyze.
    params:
        ``.PARAM`` overrides, exactly as :func:`parse_netlist` takes
        them — lint a sweep design point by passing its parameters.
    name:
        Label used in the report (typically the file name).
    """
    try:
        compile_netlist(text)
    except NetlistParseError as exc:
        return LintReport(name=name, diagnostics=[_classify_parse_error(exc)])
    text_checks = tuple(
        check.fn for check in CHECKS.values() if check.scope == "text"
    )
    diagnostics = list(_text_diagnostics(text, text_checks))
    provenance: dict[str, tuple[int, str]] = {}
    try:
        circuit = parse_netlist(text, params=params, provenance=provenance)
    except NetlistParseError as exc:
        diagnostics.append(_classify_parse_error(exc))
        return LintReport(name=name, diagnostics=diagnostics)
    except NanoSimError as exc:
        diagnostics.append(
            Diagnostic(
                severity="error",
                check="parse-error",
                message=f"{type(exc).__name__}: {exc}",
            )
        )
        return LintReport(name=name, diagnostics=diagnostics)
    graph = CircuitGraph(circuit, provenance)
    diagnostics.extend(run_graph_checks(graph))
    return LintReport(name=name, diagnostics=diagnostics)


def lint_circuit(
    circuit: Circuit,
    provenance: dict[str, tuple[int, str]] | None = None,
    name: str | None = None,
) -> LintReport:
    """Run the graph checks over an already-built :class:`Circuit`.

    Unlike :meth:`Circuit.validate` this never raises — it reports.
    Pass the ``provenance`` dict from a tracking parse to get line
    numbers on the diagnostics.
    """
    graph = CircuitGraph(circuit, provenance)
    return LintReport(
        name=name if name is not None else circuit.name,
        diagnostics=run_graph_checks(graph),
    )
