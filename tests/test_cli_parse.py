"""The canonical argv walk against argparse, and the CLI against its old parser.

`cli.parse_canonical` parses `COMMAND --family F [--FLAG VALUE]...` from the
command and flag tables and declines everything else, which `cli.main` then
hands to argparse.  The walk must decline or agree with argparse on every
argv, and the CLI must write the same bytes and exit codes as the argparse-only
`main` it replaced, which stays here as the oracle together with its parser.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticepaths
from latticepaths import cli

import argv_grid
from test_cli import BAD_PARAMETERS, USAGE_ERRORS

SRC = Path(latticepaths.__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# the walk against argparse
# ----------------------------------------------------------------------

@pytest.mark.parametrize("command", tuple(cli.COMMANDS))
def test_walk_matches_argparse_on_the_grid(command):
    argvs = [argv for argv in argv_grid.grid() if argv[:1] == [command]]
    wrong, parsed, declined = argv_grid.compare(argvs)
    assert wrong == []
    # only spellings outside the canonical form are left to argparse
    assert all(any(token.startswith("-") for token in argv[2::2])
               or any(token[2:] not in cli.OPTIONS and token != "--family"
                      for token in argv[1::2])
               for argv in declined)
    families = cli.COMMANDS[command][0]
    canonical = [[command, "--family", family] + extra for family in families
                 for flag in cli.OPTIONS
                 for extra in ([], [f"--{flag}", "csv" if flag == "format" else "7"])]
    assert set(map(tuple, canonical)) <= set(map(tuple, parsed))


def test_walk_keeps_the_last_of_a_repeated_flag():
    args = cli.parse_canonical(["asym", "--family", "red_edges", "--family", "kemp_gap",
                                "--n", "40", "--tolerance", "nan", "--n", "80"])
    assert (args.command, args.family, args.n, args.func) == ("asym", "kemp_gap", 80,
                                                              cli.cmd_asym)
    assert args.tolerance != args.tolerance and args.a is None


FAMILIES = ("a002212", "deutsch-phi", "skew", "rotation", "kemp_gap", "bogus")
FLAGS = ("--family", "--n", "--k", "--max", "--tolerance", "--format", "--fam", "--n=5",
         "-h", "--help", "--", "-n")
VALUES = argv_grid.VALUES + ("csv", "json-lines", "inf", " 3", "1_0") + FAMILIES
tokens = st.sampled_from(tuple(cli.COMMANDS) + FLAGS + VALUES)
near_canonical = st.builds(
    lambda command, pairs: [command] + [token for pair in pairs for token in pair],
    st.sampled_from(tuple(cli.COMMANDS)),
    st.lists(st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)), max_size=4))
PARSER = cli.build_parser()


@settings(max_examples=400, deadline=None)
@given(argv=st.one_of(st.lists(tokens, max_size=8), near_canonical))
def test_walk_matches_argparse_property(argv):
    walked = cli.parse_canonical(argv)
    if walked is not None:
        assert argv_grid.attrs(walked) == argv_grid.argparse_attrs(PARSER, argv)


# ----------------------------------------------------------------------
# the CLI against the argparse-only main
# ----------------------------------------------------------------------

def old_build_parser():
    """`cli.build_parser` as it was before the command table."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="latticepaths",
        description="Exact lattice-path and tree enumeration workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, families, func, summary in (
            ("seq", cli.SEQS, cli.cmd_seq, "stream an exact sequence"),
            ("check", cli.CHECKS, cli.cmd_check, "run formula = series = brute checks"),
            ("bij", cli.BIJS, cli.cmd_bij, "print a bijection pairing table"),
            ("asym", cli.ASYM_LADDERS, cli.cmd_asym, "CSV trend report for a growth law")):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--family", required=True, choices=tuple(families))
        for flag, spec in cli.OPTIONS.items():
            p.add_argument(f"--{flag}", default=None, **spec)
        p.set_defaults(func=func)
    return parser


def old_main(argv):
    """`cli.main` as it was: argparse parses every argv."""
    parser = old_build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, NotImplementedError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


# command -> (size flag, another size)
OTHER_SIZE = {"seq": ("n", "5"), "check": ("max", "3"), "bij": ("n", "2"), "asym": ("n", "40")}
CORPUS = [[command, "--family", family] + extra
          for command, (families, _, _) in cli.COMMANDS.items() for family in families
          for extra in ([], [f"--{OTHER_SIZE[command][0]}", OTHER_SIZE[command][1]])]
CORPUS += USAGE_ERRORS + BAD_PARAMETERS + [["--help"], ["-h"]]
for command, (families, _, _) in cli.COMMANDS.items():
    family = next(iter(families))
    CORPUS += [[command, "--help"], [command, "--fam", family],
               [command, "--family", family, "--n=5"]]


@pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(argv) or "(none)" for argv in CORPUS])
def test_output_is_byte_identical_to_the_argparse_only_main(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    want_code = old_main(list(argv))
    want = capsys.readouterr()
    assert cli.main(list(argv)) == want_code
    got = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)


# ----------------------------------------------------------------------
# a reader that stops early
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["seq", "--family", "a002212", "--n", "20000"],
    ["bij", "--family", "rotation", "--n", "9"],
], ids=["seq", "bij"])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    proc = subprocess.Popen([sys.executable, "-m", "latticepaths.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=str(SRC)))
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert first.strip() and err == b"" and code == 1
