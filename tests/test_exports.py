"""Every exported name resolves, so a deleted name cannot linger in an
export list, and every defaulted parameter of an exported function has a
caller, so no option lingers that nothing sets."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

MODULES = (
    "safelogrank",
    "safelogrank.core",
    "safelogrank.gaussian",
    "safelogrank.adaptive",
    "safelogrank.simulate",
    "safelogrank.data",
)
ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "demos", "perfbench", "tests")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_an_attribute(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def _exported_callables() -> dict:
    """Every function and classmethod named in an ``__all__``, keyed by
    ``(owner, name)``, ``owner`` the class name of a classmethod or None."""
    seen = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for export in module.__all__:
            obj = getattr(module, export)
            if inspect.isfunction(obj):
                seen[(None, export)] = obj
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if isinstance(raw, classmethod):
                        seen[(export, attr)] = getattr(obj, attr)
    return seen


def _tail(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _all_calls() -> list[ast.Call]:
    """Every ``ast.Call`` in the callers' files."""
    return [node for folder in CALLERS for path in sorted((ROOT / folder).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Call)]


def _calls(every: list[ast.Call], owner, name) -> list[ast.Call]:
    """The calls of ``every`` that call ``name`` (``owner.name`` for a
    classmethod)."""
    return [node for node in every if _tail(node.func) == name and (
        owner is None or isinstance(node.func, ast.Attribute) and _tail(node.func.value) == owner)]


def _passes(call: ast.Call, position: int | None, keyword: str) -> bool:
    """Whether ``call`` passes the parameter at ``position`` (None when it is
    keyword-only) or named ``keyword``; a starred argument passes any."""
    if any(k.arg in (keyword, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_of_an_export_has_a_caller():
    # an option that no command, demo, benchmark or test sets is public API
    # that nothing needs: each defaulted parameter of each exported function
    # and classmethod is passed, by keyword or by position, by some call
    unset, every = [], _all_calls()
    for (owner, name), fn in _exported_callables().items():
        calls = _calls(every, owner, name)
        params = [p for p in inspect.signature(fn).parameters.values()
                  if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
        for i, p in enumerate(params):
            if p.default is p.empty:
                continue
            position = i if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) else None
            if not any(_passes(call, position, p.name) for call in calls):
                unset.append(f"{owner + '.' if owner else ''}{name}({p.name})")
    assert unset == []
