"""Serial AST mutation sweep over one module of the package, run on a copy.

    python tools/mutate.py MODULE COUNT SEED [--scope NAME ...] [-- PYTEST ARGS ...]

Copies src/, tests/, bench/, tools/ and pyproject.toml into a new temporary
directory, removed at the end, and draws COUNT of the mutation sites of
src/latticepaths/MODULE.py with random.Random(SEED).  Each mutant is the
module with one site changed:

* ``+`` and ``-`` swapped, in a binary operation or an augmented assignment;
* ``<`` and ``<=``, or ``>`` and ``>=``, swapped in a comparison;
* an int constant n replaced by n + 1.

``--scope`` keeps only the sites inside functions or classes of those names,
or inside the value of a module-level assignment to one of them (a table of
rules such as ``paths._STEP_RULES``).  A dotted name such as
``PowerSeries.__pow__`` selects one method and leaves a namesake in another
class alone.
For each mutant the mutated module is written into the copy, pytest runs
there once, and the module is put back.  A mutant is killed when pytest
fails (or runs past TIMEOUT seconds) and survives when it passes.  Everything
is serial: one pytest at a time.  The checkout itself is only read.

The pytest arguments default to the whole suite with ``-x``, less
``test_criterion_10_register_layers``, which fails on the unmutated code.
The unmutated copy must pass them first, or the sweep stops with exit code 2.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "tools", "pyproject.toml")
TIMEOUT = 600  # seconds per pytest run; a mutant may loop forever
DEFAULT_PYTEST = ["tests", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                  "--deselect", "tests/test_acceptance.py::test_criterion_10_register_layers"]
_FLIP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt}
_SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


def sites(tree: ast.AST, scope: set) -> list:
    """(node, index, owners) of every mutable spot in source order; index is
    the comparison operator's position, None for an operator or a constant.
    owners are the names of the enclosing functions and classes, or the
    names a module-level assignment binds for a spot in its statement."""
    found = []

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners + (node.name,)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not owners:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            owners = tuple(name.id for target in targets for name in ast.walk(target)
                           if isinstance(name, ast.Name))
        dotted = {".".join(owners[:k]) for k in range(2, len(owners) + 1)}
        if not scope or scope.intersection(owners) or scope.intersection(dotted):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _FLIP:
                found.append((node, None, owners))
            elif isinstance(node, ast.Compare):
                found.extend((node, i, owners)
                             for i, op in enumerate(node.ops) if type(op) in _FLIP)
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                found.append((node, None, owners))
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, ())
    return found


def mutant(source: str, scope: set, pick: int):
    """The source with site `pick` changed, and a one-line description."""
    tree = ast.parse(source)
    node, i, owners = sites(tree, scope)[pick]
    if isinstance(node, ast.Constant):
        before, after = repr(node.value), repr(node.value + 1)
        node.value += 1
    elif i is None:
        before, after = _SYMBOL[type(node.op)], _SYMBOL[_FLIP[type(node.op)]]
        node.op = _FLIP[type(node.op)]()
    else:
        before, after = _SYMBOL[type(node.ops[i])], _SYMBOL[_FLIP[type(node.ops[i])]]
        node.ops[i] = _FLIP[type(node.ops[i])]()
    where = ".".join(owners) or "<module>"
    return ast.unparse(tree), f"{where}:{node.lineno} {before} -> {after}"


def run_pytest(copy: Path, args: list) -> str:
    # no bytecode: a mutant of the same size written in the same second would
    # otherwise be read from a stale cache
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", *args], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module of the package, e.g. series")
    parser.add_argument("count", type=int, help="number of mutants to draw")
    parser.add_argument("seed", type=int, help="seed of the draw")
    parser.add_argument("--scope", nargs="+", default=[],
                        help="only sites inside functions, classes or module-level "
                             "assignments of these names, or of dotted names such as "
                             "Class.method")
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    pytest_args = argv[cut + 1:] or DEFAULT_PYTEST

    name = args.module.removeprefix("latticepaths.")
    source = (ROOT / "src" / "latticepaths" / f"{name}.py").read_text()
    scope = set(args.scope)
    total = len(sites(ast.parse(source), scope))
    picks = sorted(random.Random(args.seed).sample(range(total), min(args.count, total)))

    print(f"{name}: {total} sites in scope, {len(picks)} drawn (seed {args.seed})")
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        return sweep(Path(tmp), name, source, scope, picks, pytest_args)


def sweep(copy: Path, name: str, source: str, scope: set, picks: list, pytest_args: list) -> int:
    """Copy the checkout into `copy` and run pytest there once per mutant."""
    for item in COPIED:
        src = ROOT / item
        if src.is_dir():
            shutil.copytree(src, copy / item,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, copy / item)
    target = copy / "src" / "latticepaths" / f"{name}.py"
    if run_pytest(copy, pytest_args) != "survived":
        print("the unmutated copy fails the tests; nothing to measure")
        return 2

    survivors = []
    for pick in picks:
        text, what = mutant(source, scope, pick)
        target.write_text(text)
        try:
            verdict = run_pytest(copy, pytest_args)
        finally:
            target.write_text(source)
        print(f"{verdict:8s} {what}", flush=True)
        if verdict == "survived":
            survivors.append(what)
    print(f"{len(picks) - len(survivors)} killed, {len(survivors)} survived of {len(picks)}")
    for what in survivors:
        print(f"  survivor: {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
