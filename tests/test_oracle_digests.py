"""The recorded benchmark digests, checked in-process.

`bench/oracle.json` holds the exit code and output digest of every benchmark
operation.  This runs every operation any seed can draw (each `check`, `seq`
and `asym` command line and each `bivariate` library call) in this
interpreter, digests each output as `bench/child.py` does, and compares, so a
byte change to any benchmarked output fails here.  It only reads `bench/`.
"""

import json
import types
from pathlib import Path

import pytest

import latticepaths.cli  # bench/child.py also finds the modules in sys.modules

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """Execute bench/<name>.py as a module without writing a bytecode cache."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"_bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


child = _load("child")
ops = _load("ops")
ORACLE = json.loads((BENCH / "oracle.json").read_text())

EVERY_OP = ops.every_op()
# the operations that go through series division: every `bivariate` library
# call, `seq kemp-valley`/`kemp-peak` and the `asym kemp_valley`/`kemp_gap` ladders
DIVISION_CLI = {("seq", "kemp-valley"), ("seq", "kemp-peak"),
                ("asym", "kemp_valley"), ("asym", "kemp_gap")}
OPS = [op for group in ops.groups("bivariate") for op in group] + [
    op for workload in ("sequences", "ladders") for group in ops.groups(workload)
    for op in group if (op["argv"][0], op["argv"][2]) in DIVISION_CLI]


def test_the_benchmark_draws_every_cli_family():
    # bench/ops.py keeps its own copies of the family lists; a family added to
    # the CLI and not to the benchmark fails here
    assert ops.CHECK_FAMILIES == tuple(latticepaths.cli.CHECKS)
    assert ops.ASYM_KINDS == tuple(latticepaths.cli.ASYM_LADDERS)


def test_the_selection_covers_every_division_cli_op():
    assert {(op["argv"][0], op["argv"][2]) for op in OPS if op["kind"] == "cli"} == DIVISION_CLI


@pytest.mark.parametrize("op", EVERY_OP, ids=[ops.key(op) for op in EVERY_OP])
def test_output_digest_matches_the_oracle(op):
    want = ORACLE[ops.key(op)]
    code, text, _ = child._call(op, lambda name, fn: fn)
    assert code == want["exit"]
    assert child.digest(code, text) == want["digest"]
