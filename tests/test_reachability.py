"""Every top-level definition in ``src/kdvrmt`` has a caller or a named reason.

A static scan by name: the roots are every definition in ``cli.py`` and
every name that the demos and the acceptance gate use, and a definition is
reached once a reached body names it, bare or as an attribute.  The
definitions left over must be exactly ``REASONS``: a new orphan fails, and
so does a listed name that gains a caller.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# unreached definition -> the ROADMAP item that will call it
REASONS = {
    "complete_elliptic": "item 4: the genus-1 parameters of the Whitham modulation",
    "theta3": "item 4: the genus-1 theta-function formula",
    "EllipticAnsatz": "item 4: branch points from the Whitham solution beta_i(x, t)",
    "elliptic_approx": "item 4: the window = elliptic comparison in kdv-compare",
    "catastrophe_approx": "item 3: the window = catastrophe comparison in kdv-compare",
}


def _names(tree) -> set:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_definition_has_a_caller_or_a_reason():
    defs = {}
    for path in sorted((ROOT / "src" / "kdvrmt").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
    todo = [name for name, sites in defs.items() if any(module == "cli" for module, _ in sites)]
    for path in [*sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        todo.extend(_names(ast.parse(path.read_text())))
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            for _, node in defs[name]:
                todo.extend(_names(node))
    assert {name for name in defs if name not in reached} == set(REASONS)
