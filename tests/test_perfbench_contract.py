"""Every csrap call in perfbench's source binds to the signature it calls.

perfbench's traced replay hands its own candidate table to the solvers
positionally, so a removed or reordered parameter would break
``perfbench/run.py --trace 1`` and ``perfbench/selftest.py`` while every
other test passes.  The calls are read from perfbench's source with ``ast``
and each argument list is bound with ``inspect.signature(...).bind``.
"""

import ast
import inspect
from pathlib import Path

import pytest

import csrap
from csrap.solvers import CandidateTable

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The calls the traced replay makes with a table of its own, and the table's.
TRACED = {
    "CandidateTable",
    "candidate_count",
    "mramc_greedy",
    "mramc_relocate",
    "m_mramc",
    "baseline_schedule",
    "greedy_based_reference",
}


def csrap_calls(path):
    """``(where, name, callee, call)`` for each call of a csrap name in
    ``path``: a direct call, a class attribute (``Schedule.build``), a
    function handed to ``tracer.call`` and a method of a ``table``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {
        alias.asname or alias.name: getattr(csrap, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "csrap"
        for alias in node.names
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        where = f"{path.name}:{node.lineno}"
        if isinstance(func, ast.Name) and func.id in names:
            yield where, func.id, names[func.id], args, node.keywords
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in names:
                yield where, func.attr, getattr(names[func.value.id], func.attr), args, node.keywords
            elif func.attr == "call" and len(args) > 1 and isinstance(args[1], ast.Name) and args[1].id in names:
                yield where, args[1].id, names[args[1].id], args[2:], node.keywords
            elif func.value.id == "table":
                # The method's ``self`` is the table.
                yield where, func.attr, getattr(CandidateTable, func.attr), [func.value, *args], node.keywords


CALLS = [call for path in sorted(PERFBENCH.glob("*.py")) for call in csrap_calls(path)]


def test_the_traced_calls_are_found():
    assert TRACED <= {name for _, name, *_ in CALLS}


@pytest.mark.parametrize("where, name, callee, args, keywords", CALLS, ids=[f"{w} {n}" for w, n, *_ in CALLS])
def test_call_binds_to_its_signature(where, name, callee, args, keywords):
    assert not any(isinstance(arg, ast.Starred) for arg in args), "an unpacked argument list cannot be bound"
    assert all(kw.arg is not None for kw in keywords), "an unpacked keyword mapping cannot be bound"
    inspect.signature(callee).bind(*args, **{kw.arg: kw.value for kw in keywords})
