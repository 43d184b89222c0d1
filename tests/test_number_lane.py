"""The coefficient ring of `series` against the dict route, byte for byte.

A series stores its marker-free coefficients as plain numbers, and each
`PowerSeries` operation and `Kernel.eval` is one loop over `+` and `*`.
Patching in the dict route of `old_series`, which holds every coefficient as
a `MarkerPoly` and multiplies through `_mac`, sends all of that work back
through the earlier code.  Every `check` family at `--max` 1..12, `check
--family deutsch-strip --m` 1..6 and every `seq` operation of the benchmark's
`sequences` workload must print the same bytes and exit with the same code
both ways.
"""

import types
from pathlib import Path

import pytest

from latticepaths import cli, pathseries, series
from old_series import OLD_SERIES, old_eval

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """Execute bench/<name>.py as a module without writing a bytecode cache."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"_bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


ARGVS = [["check", "--family", family, "--max", str(budget)]
         for family in cli.CHECKS for budget in range(1, 13)]
ARGVS += [["check", "--family", "deutsch-strip", "--m", str(m)] for m in range(1, 7)]
ARGVS += [op["argv"] for group in _load("ops").groups("sequences") for op in group]


def run(argv, capsys):
    """Exit code and stdout of one command, with no series cached from before."""
    for value in vars(pathseries).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_stdout_is_the_same_on_the_dict_route(argv, monkeypatch, capsys):
    ring = run(argv, capsys)
    for name, fn in OLD_SERIES.items():
        monkeypatch.setattr(series.PowerSeries, name, fn)
    monkeypatch.setattr(series.Kernel, "eval", old_eval)
    assert run(argv, capsys) == ring
