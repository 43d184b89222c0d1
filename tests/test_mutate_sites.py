"""The site finder of the mutation sweep, on a small source, in-process.

`tools/mutate.py` draws its mutants from `sites(tree, scope)`; a scope
name selects the spots inside a function or class of that name, or inside a
module-level assignment that binds it.  No sweep is run here.
"""

import ast
import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parents[1] / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutate)

SOURCE = '''
LIMIT = 3 + 4
_RULES = {"a": lambda x: x - 1, "b": lambda x: x < 2}
top: int = 5


def step(x):
    y = x + 1
    return y <= 9


class Walker:
    size = 7

    def move(self, x):
        x -= 2
        return x > 0
'''


def described(scope):
    """Per site in scope: (owners, line, what the spot is)."""
    out = []
    for node, i, owners in mutate.sites(ast.parse(SOURCE), set(scope)):
        kind = type(node).__name__ if i is None else type(node.ops[i]).__name__
        out.append((owners, node.lineno, kind))
    return out


def test_every_site_with_its_owners():
    assert described([]) == [
        (("LIMIT",), 2, "BinOp"), (("LIMIT",), 2, "Constant"), (("LIMIT",), 2, "Constant"),
        (("_RULES",), 3, "BinOp"), (("_RULES",), 3, "Constant"),
        (("_RULES",), 3, "Lt"), (("_RULES",), 3, "Constant"),
        (("top",), 4, "Constant"),
        (("step",), 8, "BinOp"), (("step",), 8, "Constant"),
        (("step",), 9, "LtE"), (("step",), 9, "Constant"),
        (("Walker",), 13, "Constant"),
        (("Walker", "move"), 16, "AugAssign"), (("Walker", "move"), 16, "Constant"),
        (("Walker", "move"), 17, "Gt"), (("Walker", "move"), 17, "Constant"),
    ]


def test_a_scope_selects_functions_classes_and_assignments():
    assert {line for _, line, _ in described(["_RULES"])} == {3}
    assert {line for _, line, _ in described(["top", "step"])} == {4, 8, 9}
    assert {line for _, line, _ in described(["move"])} == {16, 17}
    assert {line for _, line, _ in described(["Walker"])} == {13, 16, 17}
    # an assignment in a class body binds no scope name of its own
    assert described(["size"]) == []


def test_a_mutant_of_an_assignment_names_it():
    picks = [i for i, (owners, _, _) in enumerate(described([])) if owners == ("_RULES",)]
    text, what = mutate.mutant(SOURCE, set(), picks[0])
    assert what == "_RULES:3 - -> +"
    assert "lambda x: x + 1" in text
