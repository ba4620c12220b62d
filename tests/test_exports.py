"""Each module's ``__all__`` names what it defines, no more and no less.

Every name listed must be bound in the module, and every top-level public
function or class the module defines must be listed.  ``cli`` exports its
entry point ``main`` alone; ``errors`` declares no ``__all__``, so a star
import already takes every public exception class.
"""
import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kdvrmt"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("cli", "errors"))


@pytest.mark.parametrize("stem", MODULES)
def test_all_lists_exactly_the_public_definitions(stem):
    module = importlib.import_module("kdvrmt" if stem == "__init__" else f"kdvrmt.{stem}")
    listed = module.__all__
    assert [name for name in listed if not hasattr(module, name)] == []
    defined = {
        node.name
        for node in ast.parse((SRC / f"{stem}.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert sorted(defined - set(listed)) == []
