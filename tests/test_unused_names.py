"""Every module-level private name in the package is used somewhere.

Each `src/latticepaths/*.py` is parsed with `ast` for its module-level
`_private` functions, classes and assignments.  A name that the text of
`src/` and `tests/` mentions only where it is defined is dead, and the test
names it.  A mention is any whole word of a `.py` file, so an import, an
attribute read, a `monkeypatch.setattr` string or a comment all count.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latticepaths"


def _private_definitions(tree: ast.Module):
    """(name, line) of each module-level private def, class or assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_module_name_is_mentioned_beyond_its_definition():
    words = Counter(word for folder in ("src", "tests")
                    for path in (ROOT / folder).rglob("*.py")
                    for word in re.findall(r"\w+", path.read_text()))
    definitions = [(path.name, name, line) for path in sorted(PACKAGE.glob("*.py"))
                   for name, line in _private_definitions(ast.parse(path.read_text()))]
    assert definitions
    defined = Counter(name for _, name, _ in definitions)
    unused = [f"{module}:{line} {name}" for module, name, line in definitions
              if words[name] <= defined[name]]
    assert not unused, "private names mentioned only where they are defined: " + ", ".join(unused)
