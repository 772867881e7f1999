"""The compile-once netlist front end gives what a fresh parse gives.

``parse_netlist`` reads a netlist text's tokenized card table from a
bounded LRU cache (``compile_netlist``) and each expression's syntax
tree from another (``expressions._parse``).  For every netlist of the
lint corpus and of the parser tests, a parse with both caches empty
and a parse with both caches warm must agree: the same canonical
circuit, element names and provenance, or the same
:class:`~repro.errors.NetlistParseError` message and line.  Two
parses of one text share no object that could be mutated.  The lint
analyzer's once-per-text checks give the same report cold and warm,
and a text check registered later still runs on a cached text.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.circuit import expressions
from repro.circuit.parser import (
    NETLIST_CACHE_SIZE,
    compile_netlist,
    parse_netlist,
)
from repro.errors import NanoSimError, NetlistParseError
from repro.lint import analyzer
from repro.lint.checks import CHECKS, register_check
from repro.lint.report import Diagnostic
from repro.service.hashing import canonical_value

TESTS = Path(__file__).resolve().parent
PARSER_TESTS = ("test_parser.py", "test_parser_locations.py")
_PARSING_CALLS = {"parse_netlist", "_error"}


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _module_strings(tree: ast.Module) -> dict[str, str]:
    strings = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            strings[node.targets[0].id] = node.value.value
    return strings


def _parser_test_cases() -> list[tuple[str, str, dict | None]]:
    """Every literal netlist the parser tests hand to the parser, with
    its ``params=`` when that is a literal too."""
    cases = []
    for name in PARSER_TESTS:
        tree = ast.parse((TESTS / name).read_text())
        strings = _module_strings(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and _call_name(node) in _PARSING_CALLS and node.args):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value,
                                                              str):
                text = first.value
            elif isinstance(first, ast.Name) and first.id in strings:
                text = strings[first.id]
            else:
                continue
            params = None
            for keyword in node.keywords:
                if keyword.arg == "params":
                    try:
                        params = ast.literal_eval(keyword.value)
                    except ValueError:
                        params = None
            cases.append((f"{name}:{node.lineno}", text, params))
    return cases


def _corpus_cases() -> list[tuple[str, str, dict | None]]:
    return [(path.name, path.read_text(), None)
            for path in sorted((TESTS / "lint_corpus").glob("*.cir"))]


CASES = _corpus_cases() + _parser_test_cases()


def _clear_caches() -> None:
    compile_netlist.cache_clear()
    expressions._parse.cache_clear()
    analyzer._text_diagnostics.cache_clear()


def _outcome(text: str, params: dict | None):
    """Everything a parse shows: the circuit's canonical form, names
    and provenance, or the error it raised."""
    provenance: dict = {}
    try:
        circuit = parse_netlist(text, params=params, provenance=provenance)
    except NetlistParseError as exc:
        return ("parse-error", str(exc), exc.line_number, exc.line)
    except NanoSimError as exc:
        return ("error", type(exc).__name__, str(exc))
    names = [element.name for element in circuit.elements()]
    return ("circuit", canonical_value(circuit), circuit.name, names,
            provenance)


def test_the_corpus_and_parser_tests_are_collected():
    assert len(_corpus_cases()) >= 15
    assert len(_parser_test_cases()) >= 60
    outcomes = {_outcome(text, params)[0] for _, text, params in CASES}
    assert outcomes >= {"circuit", "parse-error"}


@pytest.mark.parametrize("label,text,params", CASES,
                         ids=[case[0] for case in CASES])
def test_cold_and_warm_parses_agree(label, text, params):
    _clear_caches()
    cold = _outcome(text, params)
    warm = _outcome(text, params)
    assert warm == cold
    if cold[0] == "circuit":
        assert compile_netlist.cache_info().hits >= 1


def _mutable_ids(root) -> set[int]:
    """Ids of every object reachable from *root* that is not an
    immutable scalar (strings and numbers are shared freely)."""
    seen: set[int] = set()
    found: set[int] = set()
    stack = [root]
    while stack:
        value = stack.pop()
        if value is None or isinstance(value, (str, bytes, int, float,
                                               complex, type)):
            continue
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, (tuple, frozenset)):
            stack.extend(value)  # immutable shells; look inside
            continue
        found.add(id(value))
        if isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, (list, set)):
            stack.extend(value)
        elif hasattr(value, "__dict__"):
            stack.extend(vars(value).values())
        elif hasattr(value, "__array__"):
            continue
    return found


@pytest.mark.parametrize("label,text,params", CASES,
                         ids=[case[0] for case in CASES])
def test_parses_of_one_text_share_no_object(label, text, params):
    provenances: tuple[dict, dict] = ({}, {})
    try:
        circuits = [parse_netlist(text, params=params, provenance=p)
                    for p in provenances]
    except NanoSimError:
        return
    first, second = zip(circuits, provenances)
    assert not _mutable_ids(first) & _mutable_ids(second)


def test_cache_bounds():
    _clear_caches()
    texts = [f"V1 a 0 1\nR1 a 0 {k + 1}" for k in range(NETLIST_CACHE_SIZE + 5)]
    for text in texts:
        parse_netlist(text)
    info = compile_netlist.cache_info()
    assert info.maxsize == NETLIST_CACHE_SIZE
    assert info.currsize == NETLIST_CACHE_SIZE
    # the oldest texts were evicted, the newest kept
    before = compile_netlist.cache_info().hits
    parse_netlist(texts[-1])
    assert compile_netlist.cache_info().hits == before + 1
    parse_netlist(texts[0])
    assert compile_netlist.cache_info().misses == info.misses + 1
    assert (expressions._parse.cache_info().maxsize
            == expressions.EXPRESSION_CACHE_SIZE)


def test_failed_compiles_are_not_cached():
    _clear_caches()
    broken = "V1 a 0 1\n.ends\n"
    for _ in range(2):
        with pytest.raises(NetlistParseError, match=".ENDS without"):
            parse_netlist(broken)
    assert compile_netlist.cache_info().currsize == 0


def test_bad_expression_raises_the_same_both_times():
    _clear_caches()
    text = "V1 a 0 1\nR1 a 0 {2 +* 2}"
    messages = []
    for _ in range(2):
        with pytest.raises(NetlistParseError) as excinfo:
            parse_netlist(text)
        messages.append((str(excinfo.value), excinfo.value.line_number))
    assert messages[0] == messages[1]
    assert "cannot parse expression" in messages[0][0]
    assert expressions._parse.cache_info().currsize == 0


@pytest.mark.parametrize("label,text,params", CASES,
                         ids=[case[0] for case in CASES])
def test_cold_and_warm_lint_reports_agree(label, text, params):
    _clear_caches()
    cold = analyzer.lint_netlist(text, params=params).to_json()
    warm = analyzer.lint_netlist(text, params=params).to_json()
    assert warm == cold


def test_a_text_check_registered_later_runs_on_a_cached_text():
    text = (TESTS / "lint_corpus" / "clean.cir").read_text()
    before = analyzer.lint_netlist(text).to_json()
    check_id = "test-every-text-flagged"

    def flag(context):
        return [Diagnostic(severity="info", check=check_id,
                           message=f"{len(context.lines)} cards")]

    register_check(check_id, severity="info", scope="text",
                   title="test only")(flag)
    try:
        report = analyzer.lint_netlist(text)
        assert [d.check for d in report.diagnostics].count(check_id) == 1
    finally:
        del CHECKS[check_id]
    assert analyzer.lint_netlist(text).to_json() == before
