"""The argv grid on which `cli.parse_canonical` must agree with argparse.

For every argv the walk either declines (returns None) or gives the same
attributes, of the same types, as `cli.build_parser().parse_args(argv)`.  The
module needs neither pytest nor hypothesis, so the grid can be checked under
each supported Python as a plain loop:

    PYTHONPATH=src python3.X tests/argv_grid.py
"""

import contextlib
import io
import sys

from latticepaths.cli import COMMANDS, OPTIONS, build_parser, parse_canonical

VALUES = ("0", "1", "7", "-1", "-0", "", "x", "1.5", "nan", "-1e3", "--")


def attrs(namespace) -> dict:
    """The namespace's attributes as (type, repr), so that nan equals nan."""
    return {name: (type(value), repr(value)) for name, value in vars(namespace).items()}


def argparse_attrs(parser, argv):
    """`attrs` of what argparse parses from argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return attrs(parser.parse_args(argv))
        except SystemExit:
            return None


def spellings(command: str, family: str):
    """Argvs around `command --family family` that leave the canonical form, or
    stay in it by repeating a flag or putting --family last."""
    base = [command, "--family", family]
    yield from ([command, "--fam", family], [command, f"--family={family}"],
                base + ["--n=5"], base + ["--n", "5", "--n", "6"],
                base + ["--format", "csv", "--format", "tsv"],
                [command, "--family", "bogus", "--family", family],
                [command, "--family", family, "--family", "bogus"],
                base + ["-h"], [command, "-h", "--family", family], base + ["--help"],
                [command, "--n", "5"], [command], base + ["extra"], base + ["--n", "5", "6"],
                base + ["--"], base + ["--", "5"], base + ["-n", "5"],
                [command, "--n", "5", "--family", family])


def grid():
    """Every command, family, flag and value, the other spellings, and argvs
    that never reach a subcommand."""
    yield from ([], ["-h"], ["--help"], ["bogus"], ["bogus", "--family", "skew"],
                ["--family", "skew", "check"], ["--", "check", "--family", "skew"])
    for command, (families, _, _) in COMMANDS.items():
        for family in families:
            yield [command, "--family", family]
            yield from spellings(command, family)
            for flag in OPTIONS:
                for value in VALUES + (("csv", "tsv") if flag == "format" else ()):
                    yield [command, "--family", family, f"--{flag}", value]


def compare(argvs):
    """(argvs the walk parses unlike argparse, argvs it parses, argvs it
    declines that argparse parses)."""
    parser = build_parser()
    wrong, parsed, declined = [], [], []
    for argv in argvs:
        walked, expected = parse_canonical(argv), argparse_attrs(parser, argv)
        if walked is None:
            if expected is not None:
                declined.append(argv)
        elif attrs(walked) == expected:
            parsed.append(argv)
        else:
            wrong.append(argv)
    return wrong, parsed, declined


if __name__ == "__main__":
    argvs = list(grid())
    wrong, parsed, declined = compare(argvs)
    print(f"Python {sys.version.split()[0]}: {len(argvs)} argvs, {len(parsed)} parsed "
          f"as argparse does, {len(declined)} left to argparse, {len(wrong)} wrong")
    for argv in wrong:
        print("wrong:", argv)
    sys.exit(1 if wrong else 0)
