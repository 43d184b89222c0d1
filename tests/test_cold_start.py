"""Start-up: the CLI loads no stdlib module it does not need.

`TrendReport` is a plain class instead of a dataclass (`dataclasses` loads
`inspect`, `ast`, `dis` and `tokenize`), and `--format json-lines` records
are written by hand instead of through `json`.  The old dataclass and
`json.dumps` stay here as oracles.  A canonical command line is parsed
without `argparse` (and its `gettext`), which only help and errors load.
"""

import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticepaths
from latticepaths import asymptotics, cli

SRC = Path(latticepaths.__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# TrendReport against the dataclass it replaced
# ----------------------------------------------------------------------

@dataclass
class TrendReport:
    """The dataclass `asymptotics.TrendReport` used to be, fields only."""

    kind: str
    rows: List[Tuple[int, object, float, float]] = field(default_factory=list)
    ok: bool = True


BOTH = (TrendReport, asymptotics.TrendReport)
ROWS = [(10, Fraction(7, 3), 2.0, 0.25), (20, 5, 4.0, 0.125)]
CONSTRUCTIONS = [
    ((), {"kind": "red_edges"}),
    (("red_edges",), {}),
    (("red_edges", ROWS), {}),
    (("red_edges", ROWS, False), {}),
    (("red_edges",), {"ok": False}),
    ((), {"kind": "kemp_gap", "rows": ROWS, "ok": True}),
    (("kemp_gap",), {"rows": []}),
    (("kemp_gap",), {"rows": None}),
    (("kemp_gap", (), 0), {}),
]


def test_plain_class_is_named_like_the_dataclass():
    assert asymptotics.TrendReport.__qualname__ == TrendReport.__qualname__
    assert asymptotics.TrendReport.__match_args__ == TrendReport.__match_args__


@pytest.mark.parametrize("args,kwargs", CONSTRUCTIONS)
def test_construction_and_repr_match_the_dataclass(args, kwargs):
    old, new = (cls(*args, **kwargs) for cls in BOTH)
    assert repr(new) == repr(old)
    assert (new.kind, new.rows, new.ok) == (old.kind, old.rows, old.ok)
    if "rows" in kwargs or len(args) > 1:
        given_rows = kwargs["rows"] if "rows" in kwargs else args[1]
        assert old.rows is given_rows and new.rows is given_rows


@pytest.mark.parametrize("args,kwargs", [
    ((), {}),
    (("a", [], True, "extra"), {}),
    (("a",), {"kind": "b"}),
    (("a",), {"colour": 1}),
])
def test_bad_construction_raises_like_the_dataclass(args, kwargs):
    for cls in BOTH:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_default_rows_are_a_fresh_list_per_report():
    for cls in BOTH:
        first, second = cls("red_edges"), cls("red_edges")
        assert first.rows == [] and first.rows is not second.rows
        first.rows.append(ROWS[0])
        assert second.rows == [] and cls("red_edges").rows == []


def test_equality_and_hash_match_the_dataclass():
    for a_args, a_kwargs in CONSTRUCTIONS:
        for b_args, b_kwargs in CONSTRUCTIONS:
            old = TrendReport(*a_args, **a_kwargs) == TrendReport(*b_args, **b_kwargs)
            new = (asymptotics.TrendReport(*a_args, **a_kwargs)
                   == asymptotics.TrendReport(*b_args, **b_kwargs))
            assert new == old
    new = asymptotics.TrendReport("red_edges", list(ROWS))
    old = TrendReport("red_edges", list(ROWS))
    # another class never compares equal, even with the same fields
    assert new != old and old != new
    assert (new == ("red_edges", ROWS, True)) is False
    assert new.__eq__(old) is NotImplemented
    for report in (new, old):
        with pytest.raises(TypeError):
            hash(report)


exact_values = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(max_denominator=10 ** 6),
    st.floats(allow_nan=False),
)
report_rows = st.lists(st.tuples(st.integers(0, 10 ** 6), exact_values,
                                 st.floats(allow_nan=False), st.floats(allow_nan=False)),
                       max_size=4)


@settings(max_examples=200, deadline=None)
@given(kind=st.text(max_size=12), rows=report_rows, ok=st.booleans(),
       other_rows=report_rows, other_ok=st.booleans())
def test_trend_report_matches_the_dataclass(kind, rows, ok, other_rows, other_ok):
    old, new = (cls(kind, rows, ok) for cls in BOTH)
    assert repr(new) == repr(old)
    old_other, new_other = (cls(kind, other_rows, other_ok) for cls in BOTH)
    assert (new == new_other) == (old == old_other)
    assert new == asymptotics.TrendReport(kind=kind, rows=list(rows), ok=ok)


# ----------------------------------------------------------------------
# json-lines records against json.dumps
# ----------------------------------------------------------------------

def _json_dumps_record(n, value) -> str:
    """The json-lines record as `cli._emit_rows` used to build it."""
    if isinstance(value, (list, tuple)):
        payload = list(value)
    elif isinstance(value, Fraction) and value.denominator != 1:
        payload = f"{value.numerator}/{value.denominator}"
    else:
        payload = int(value) if isinstance(value, Fraction) else value
    return json.dumps({"n": n, "value": payload})


JSON_VALUES = [0, 1, -1, 7, -123456789, 2 ** 64, -(3 ** 200),
               Fraction(13, 3), Fraction(-13, 3), Fraction(6, 3), Fraction(-4, 1),
               Fraction(0), Fraction(1, 10 ** 40), [], [0], [1, -2, 3], [10 ** 50, 0, -7],
               (4, 5)]


@pytest.mark.parametrize("value", JSON_VALUES, ids=repr)
def test_json_record_matches_json_dumps(value):
    for n in (0, 1, 37):
        assert cli._json_record(n, value) == _json_dumps_record(n, value)


json_payloads = st.one_of(
    st.integers(-10 ** 80, 10 ** 80),
    st.fractions(),
    st.lists(st.integers(-10 ** 40, 10 ** 40), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 10 ** 4), value=json_payloads)
def test_json_record_matches_json_dumps_property(n, value):
    record = cli._json_record(n, value)
    assert record == _json_dumps_record(n, value)
    assert json.loads(record)["n"] == n


def test_json_record_past_the_int_string_limit():
    big = 10 ** 5000 + 17
    values = [big, -big, Fraction(big, 10 ** 4400 + 1), Fraction(-3, big), [big, -1, 0]]
    records = [cli._json_record(5, value) for value in values]  # at the default limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        expected = [_json_dumps_record(5, value) for value in values]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert records == expected
    assert all(len(record) > 4300 for record in records)


def test_emit_rows_writes_json_lines_records(capsys):
    rows = [(1, 3), (2, Fraction(13, 3)), (3, Fraction(8, 2)), (4, [1, 2, 0])]
    cli._emit_rows(rows, "json-lines")
    assert capsys.readouterr().out == "".join(
        _json_dumps_record(n, value) + "\n" for n, value in rows)


# ----------------------------------------------------------------------
# import creep
# ----------------------------------------------------------------------

NOT_AT_START_UP = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json", "argparse",
                   "gettext")


def test_cli_import_loads_no_unneeded_stdlib_module():
    # -S: the environment's site hooks may load modules of their own
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, latticepaths, latticepaths.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & set(NOT_AT_START_UP)
    submodules = {f"latticepaths.{info.name}"
                  for info in pkgutil.iter_modules(latticepaths.__path__)}
    assert "latticepaths.cli" in submodules and len(submodules) >= 9
    # every module is still imported eagerly: none was made lazy
    assert submodules <= loaded


def test_canonical_argv_leaves_argparse_unloaded_and_help_loads_it():
    # the command output goes to stdout, the loaded modules to stderr
    script = (
        "import sys\n"
        "from latticepaths.cli import main\n"
        "codes = [main(argv.split()) for argv in (\n"
        "    'seq --family a002212 --n 3', 'check --family skew --max 2',\n"
        "    'bij --family rotation --n 2', 'asym --family red_edges --n 8')]\n"
        "print(*codes, 'argparse' in sys.modules, 'gettext' in sys.modules, file=sys.stderr)\n"
        "print(main(['seq', '--help']), 'argparse' in sys.modules, file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    canonical, helped = proc.stderr.splitlines()
    assert canonical.split()[:3] == ["0", "0", "0"]
    assert canonical.split()[4:] == ["False", "False"]
    assert helped == "0 True"
    assert "usage: latticepaths seq" in proc.stdout
