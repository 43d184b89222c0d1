"""Command-line front door.

Four subcommands: `seq` streams exact coefficient sequences, `check` runs
formula = series = brute-force agreement for a family within a size budget
(each line is a label and the values its routes compute, ok when all are
equal), `bij` prints bijection pairing tables, and `asym` emits CSV trend
reports comparing exact averages against their growth laws.  Exit codes: 0 success,
1 a check or trend failed or stdout closed, 2 usage error.  Only `asym` prints
floats.  `COMMAND --family F [--FLAG VALUE]...` skips argparse unless a value
starts with `-` (none is valid); argparse takes any other argv and writes all help and errors.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .asymptotics import _decimal, _exact_str, trend_check
from .bijections import (
    marked_to_skew,
    motzkin3_to_multiedge,
    multiedge_to_3motzkin,
    path_to_str,
    rotation_multiedge_to_unarybinary,
    rotation_unarybinary_to_multiedge,
    skew_to_marked,
    tree_to_str,
)
from .combinat import a002212_terms, motzkin_numbers
from .paths import gen_dual_skew, gen_motzkin, gen_skew
from .paths import tally as tally_paths
from .pathseries import (
    _amplitude_ladder,
    _deutsch_strip_solutions,
    _dual_gj_ladder,
    _skew_sj_ladder,
    amplitude_average,
    amplitude_coeff,
    amplitude_series,
    deng_mansour_count,
    denom_Sj,
    deutsch_phi,
    dual_skew_Gj_series,
    hoppy_negative_coeff,
    hoppy_negative_series,
    kemp_peak_series,
    kemp_valley_series,
    last_downrun_total,
    motzkin_bounded,
    motzkin_bounded_coeff,
    motzkin_height_total,
    skew_red_total,
    skew_sj_series,
)
from .trees import gen_marked, gen_multiedge, gen_unary_binary
from .trees import tally as tally_trees
from .trees import values as tree_values
from .treeseries import (
    horton_Rp,
    horton_avg_reg,
    marked_count,
    marked_height_ph,
    marked_height_total,
    marked_leaf_total,
    retakh_bounded_count,
    retakh_full,
    retakh_height_total,
    retakh_leaf_total,
    ternary_T,
    ternary_row,
    ternary_row_sum,
    unary_binary_count,
)


def _coeff_value(c):
    """Unwrap a series coefficient, as `PowerSeries.coeff` gives it, to int or Fraction."""
    c = c.constant()
    return int(c) if c.denominator == 1 else c


def _json_record(n: int, value) -> str:
    """json.dumps({"n": n, "value": value}) byte for byte, written out by hand
    for an int, a list of ints or a Fraction (a "p/q" string unless integral),
    at any length."""
    if isinstance(value, (list, tuple)):
        payload = f"[{', '.join(_decimal(v) for v in value)}]"
    elif isinstance(value, Fraction) and value.denominator != 1:
        payload = f'"{_exact_str(value)}"'
    else:
        payload = _exact_str(value)
    return f'{{"n": {n}, "value": {payload}}}'


def _emit_rows(rows: Iterable[Tuple[int, object]], fmt: str) -> None:
    sep = "," if fmt == "csv" else "\t"
    for n, value in rows:
        if fmt == "json-lines":
            print(_json_record(n, value))
        elif isinstance(value, (list, tuple)):
            print(f"{n}{sep}{' '.join(_exact_str(v) for v in value)}")
        else:
            print(f"{n}{sep}{_exact_str(value)}")


def _or(value, default):
    return default if value is None else value


def _series_rows(ser, lo: int, n_max: int) -> List[Tuple[int, object]]:
    return [(n, _coeff_value(ser.coeff(n))) for n in range(lo, n_max + 1)]


# The flags every subcommand parses, each None unless given.  A family reads
# its command's size flag, the command's own flag and the parameters of its
# runner after the size; any other given flag is rejected.
OPTIONS: Dict[str, dict] = {
    "tolerance": {"type": float, "help": "allowed fractional step-up in relative deviation"},
    "n": {"type": int, "help": "size / order limit"},
    "j": {"type": int, "help": "end level / layer index"},
    "k": {"type": int, "help": "up-step height"},
    "a": {"type": int, "help": "extra unary colours"},
    "m": {"type": int, "help": "strip width / index"},
    "t": {"type": int, "help": "starting level"},
    "max": {"type": int, "help": "size budget"},
    "format": {"choices": ("tsv", "csv", "json-lines"), "help": "seq output format"},
}


def reads(runner: Callable) -> Tuple[str, ...]:
    """The flags a family's runner reads: its parameters after the size."""
    code = runner.__code__
    return code.co_varnames[1:code.co_argcount]


def _setup(args, families: Dict[str, Callable], size_flag: str, default: int,
           least: int, own: str = "") -> Tuple[Callable, int, Dict[str, object]]:
    """The family's runner, the size and the given flags the runner reads.

    Raises ValueError (one line, exit 2) when the size is below `least` or a
    given flag is read neither by the command nor by the family.
    """
    runner = families[args.family]
    size = _or(getattr(args, size_flag), default)
    if size < least:
        raise ValueError(f"--{size_flag} must be >= {least}")
    read = reads(runner)
    given = {flag: getattr(args, flag) for flag in OPTIONS if getattr(args, flag) is not None}
    unread = [f"--{flag}" for flag in given if flag not in (size_flag, own) + read]
    if unread:
        raise ValueError(
            f"{args.command} --family {args.family} does not read {', '.join(unread)}")
    return runner, size, {flag: given[flag] for flag in read if flag in given}


# family -> rows(n_max, **the flags it reads)
SEQS: Dict[str, Callable[..., Iterable[Tuple[int, object]]]] = {
    "a002212": lambda n: enumerate(a002212_terms(n)),
    "skew-sj": lambda n, j=0: zip(range(j, n + 1, 2), _skew_sj_ladder(n, j)),
    "dual-gj": lambda n, j=0: zip(range(j, n + 1, 2), _dual_gj_ladder(n, j)),
    "hoppy-neg": lambda n, k=2: [(l, hoppy_negative_coeff(l, k)) for l in range(n + 1)],
    "ternary-T": lambda n: [(m, ternary_row(m)) for m in range(1, n + 1)],
    "deutsch-phi": lambda n, t=0, j=0: _series_rows(deutsch_phi(t, j, n), 0, n),
    "amplitude": lambda n: enumerate(_amplitude_ladder(n)),
    "kemp-valley": lambda n: _series_rows(kemp_valley_series(n), 1, n),
    "kemp-peak": lambda n: _series_rows(kemp_peak_series(n), 1, n),
    "horton-Rp": lambda n, j=1, a=0: _series_rows(horton_Rp(j, a, n), 0, n),
    "marked-ph": lambda n, j=1: _series_rows(marked_height_ph(j, n), 0, n),
    "retakh": lambda n: _series_rows(retakh_full(n), 0, n),
}


def cmd_seq(args) -> int:
    rows, n_max, flags = _setup(args, SEQS, "n", 10, 0, "format")
    _emit_rows(rows(n_max, **flags), _or(args.format, "tsv"))
    return 0


# ----------------------------------------------------------------------
# check: formula = series = brute force, per family.  A family returns its
# lines, each its label and then the value each of its routes computes;
# cmd_check prints a line ok when every value equals the first.
# ----------------------------------------------------------------------

CheckLine = Tuple[object, ...]


def _total(dist: Counter) -> int:
    return sum(value * count for value, count in dist.items())


def _coeffs(ser, ns: Iterable[int]) -> List[object]:
    return [_coeff_value(ser.coeff(n)) for n in ns]


def _check_end_levels(name: str, series, ladder, gen, budget: int) -> List[CheckLine]:
    top = min(budget, 12)
    lines = []
    for j in range(min(top, 3) + 1):
        ns = range(j, top + 1, 2)
        lines.append((f"{name} end-level {j}: formula = series = brute, n <= {top}",
                      ladder(top, j), _coeffs(series(j, top), ns),
                      [len(gen(n, j)) for n in ns]))
    return lines


def _check_hoppy(budget: int) -> List[CheckLine]:
    lines = []
    top = min(budget, 6)
    rises, terms = range(1, top + 1), range(budget + 1)
    for k in (2, 3):
        dists = tally_paths("kdyck", top, "last_downrun_len", k=k)
        ends = [(n_up, j) for n_up in rises for j in range(k * n_up + 2)]
        lines.append((f"k={k} last-down-run distribution and total, rises <= {top}",
                      [deng_mansour_count(n_up, j, k) for n_up, j in ends]
                      + [last_downrun_total(n_up, k) for n_up in rises],
                      [dists[n_up][j] for n_up, j in ends]
                      + [_total(dists[n_up]) for n_up in rises]))
        lines.append((f"k={k} negative-territory closed form = series, {budget + 1} terms",
                      [hoppy_negative_coeff(l, k) for l in terms],
                      _coeffs(hoppy_negative_series(k, budget), terms)))
        lines.append((f"k={k} denominator recursion S_j - S_(j-1) + z S_(j-k-1) = 0",
                      [(denom_Sj(j, k, budget) - denom_Sj(j - 1, k, budget)
                        + denom_Sj(j - k - 1, k, budget).shift(1).truncate(budget)).is_zero
                       for j in range(1, budget + 1)], [True] * budget))
    return lines


def _check_ternary(budget: int) -> List[CheckLine]:
    top = min(budget, 7)
    dists = tally_trees("ternary", top, "middle_edges")
    ns, rows = range(1, top + 1), range(1, budget + 1)
    return [(f"ternary middle-edge table = brute classification, n <= {top}",
             [[ternary_T(n, kk) for kk in range(n)] + [ternary_row_sum(n)] for n in ns],
             [[dists[n].get(kk, 0) for kk in range(n)] + [sum(dists[n].values())] for n in ns]),
            (f"ternary row sums equal (1/n) C(3n, n-1), n <= {budget}",
             [sum(ternary_row(n)) for n in rows], [ternary_row_sum(n) for n in rows])]


def _check_amplitude(budget: int) -> List[CheckLine]:
    top = min(budget, 10)
    # a Motzkin path of height h has amplitude 2h+1 with a flat step at the top level, 2h without
    dists = tally_paths("motzkin", budget, "amplitude")
    heights = [(n, h) for n in range(top + 1) for h in range(n + 1)]
    layers, ns = range(min(budget, 6) + 1), range(budget + 1)
    return [(f"amplitude distribution = brute classification, n <= {top}",
             [(amplitude_coeff(n, h, "horiz"), amplitude_coeff(n, h, "no-horiz"))
              for n, h in heights],
             [(dists[n][2 * h + 1], dists[n][2 * h]) for n, h in heights]),
            (f"amplitude layer series = coefficient extraction, order {budget}",
             [_coeffs(amplitude_series(h, "horiz", budget)
                      + amplitude_series(h, "no-horiz", budget), ns) for h in layers],
             [[amplitude_coeff(n, h, "horiz") + amplitude_coeff(n, h, "no-horiz") for n in ns]
              for h in layers],
             [[dists[n][2 * h + 1] + dists[n][2 * h] for n in ns] for h in layers])]


def _check_motzkin_bounded(budget: int) -> List[CheckLine]:
    top = min(budget, 10)
    ns = range(top + 1)
    return [(f"height-bounded counts: determinant = extraction = brute, n <= {top}",
             [_coeffs(motzkin_bounded(h, top), ns) for h in range(4)],
             [[motzkin_bounded_coeff(n, h) for n in ns] for h in range(4)],
             [[dist.total() for dist in tally_paths("motzkin", top, "height", max_height=h)]
              for h in range(4)])]


def _check_deutsch(budget: int, m: int = 5) -> List[CheckLine]:
    if m < 1:
        raise ValueError("strip width --m must be >= 1")
    order = min(budget, 12)
    closed = [[deutsch_phi(t, j, order, bound=m) for j in range(m)] for t in range(m)]
    # the order-top closed forms are truncations of the order-`order` ones
    top = min(budget, 9)
    ends = [(t, j) for t in range(min(m, 3)) for j in range(min(m, 3))]
    return [(f"strip m={m}: kernel closed forms = band solve, order {order}",
             closed, _deutsch_strip_solutions(m, order)),
            (f"strip m={m}: closed forms = brute force, n <= {top}",
             [_coeffs(closed[t][j], range(top + 1)) for t, j in ends],
             [[dist.total() for dist in tally_paths("deutsch", top, "height", start=t,
                                                    ceiling=m - 1, end_level=j)]
              for t, j in ends])]


def _bijection_ok(sizes, domain, forward, backward, codomain, kept=None) -> bool:
    """Whether, for each n of sizes, forward maps the list domain(n) onto the
    set codomain(n) and backward undoes it, and kept(n, images) holds of
    forward's images in the order of domain(n)."""
    ok = True
    for n in sizes:
        objects = domain(n)
        images = list(map(forward, objects))
        if list(map(backward, images)) != objects or set(images) != codomain(n) \
                or kept is not None and not kept(n, images):
            ok = False
    return ok


def _check_bijections(budget: int) -> List[CheckLine]:
    wtop, ntop = min(budget, 6), min(budget + 1, 7)
    weights = range(1, wtop + 1)
    # each tree's statistic from its declaration, in the order of gen_*
    edges = tree_values("multiedge", wtop, "edges")
    marks = tree_values("marked", ntop, "mark_count")
    return [
        (f"multi-edge <-> 3-Motzkin: round trip, statistics, sets, weight <= {wtop}",
         _bijection_ok(weights, gen_multiedge, multiedge_to_3motzkin, motzkin3_to_multiedge,
                       lambda w: set(gen_motzkin(w - 1, horiz_colors=3)),
                       lambda w, paths: [w - p.count("H2") for p in paths] == list(edges[w])),
         True),
        (f"marked <-> skew: round trip, marks = red steps, sets, nodes <= {ntop}",
         _bijection_ok(range(1, ntop + 1), gen_marked, marked_to_skew, skew_to_marked,
                       lambda n: set(gen_skew(2 * (n - 1))),
                       lambda n, paths: [p.count("r") for p in paths] == list(marks[n])), True),
        (f"rotation multi-edge <-> unary-binary: round trip and sets, weight <= {wtop}",
         _bijection_ok(weights, gen_multiedge, rotation_multiedge_to_unarybinary,
                       rotation_unarybinary_to_multiedge, lambda w: set(gen_unary_binary(w, 1))),
         True),
    ]


def _check_horton(budget: int) -> List[CheckLine]:
    top = min(budget, 9)
    ns, colours = range(top + 1), (0, 1, 2)
    tallies = [tally_trees("unary_binary", top, "reg", a) for a in colours]
    return [(f"unary-binary counts = brute force, a in 0..2, n <= {top}",
             [[unary_binary_count(n, a) for n in ns] for a in colours],
             [[sum(dist.values()) for dist in dists] for dists in tallies]),
            (f"register-classified counts match R_p, p <= 3, n <= {top}",
             [[_coeffs(horton_Rp(p, a, top), ns) for p in range(1, 4)] for a in colours],
             [[[dist.get(p, 0) for dist in dists] for p in range(1, 4)] for dists in tallies])]


def _check_marked(budget: int) -> List[CheckLine]:
    top = min(budget, 7)
    ns = range(1, top + 1)
    leaves, heights = (tally_trees("marked", top, stat) for stat in ("leaves", "height_nodes"))
    return [(f"marked-tree counts, leaf and height totals = brute, n <= {top}",
             [(marked_count(n), marked_leaf_total(n), marked_height_total(n)) for n in ns],
             [(leaves[n].total(), _total(leaves[n]), _total(heights[n])) for n in ns])]


def _check_retakh(budget: int) -> List[CheckLine]:
    # series index n corresponds to paths with n-1 up-down pairs
    top = min(budget, 8)
    mo = motzkin_numbers(top + 1)
    heights = tally_paths("retakh", top, "height")
    # a leaf of the encoded tree is a peak, a rise followed by a fall
    peaks = tally_paths("retakh", top, "peak_count")
    pairs = range(1, top + 1)
    return [(f"restricted-path counts, leaves, heights, bounds = brute, "
             f"pairs <= {top}",
             [(mo[m], retakh_leaf_total(m + 1), retakh_height_total(m + 1),
               [retakh_bounded_count(m + 1, h) for h in range(m + 2)]) for m in pairs],
             [(heights[m].total(), _total(peaks[m]), _total(heights[m]),
               [sum(c for hh, c in heights[m].items() if hh <= h) for h in range(m + 2)])
              for m in pairs])]


CHECKS: Dict[str, Callable[..., List[CheckLine]]] = {
    "skew": lambda budget: _check_end_levels("skew", skew_sj_series, _skew_sj_ladder,
                                             gen_skew, budget),
    "dual": lambda budget: _check_end_levels("dual", dual_skew_Gj_series, _dual_gj_ladder,
                                             gen_dual_skew, budget),
    "hoppy": _check_hoppy,
    "ternary": _check_ternary,
    "amplitude": _check_amplitude,
    "motzkin-bounded": _check_motzkin_bounded,
    "deutsch-strip": _check_deutsch,
    "bijections": _check_bijections,
    "horton": _check_horton,
    "marked": _check_marked,
    "retakh": _check_retakh,
}


def _first_difference(values: list) -> Tuple[str, list]:
    """Where the routes' values first differ, as indices into them, and each
    route's value there.  It descends while every value is a list or a
    tuple; a route whose list has ended has "(none)" there."""
    where = ""
    while all(isinstance(value, (list, tuple)) for value in values):
        rows = zip_longest(*values, fillvalue="(none)")
        at = next(((i, row) for i, row in enumerate(rows)
                   if any(v != row[0] for v in row[1:])), None)
        if at is None:  # equal entries, but a list against a tuple
            break
        where, values = f"{where}[{at[0]}]", at[1]
    return where, values


def cmd_check(args) -> int:
    """Prints each line's verdict and label; a failing line also writes to
    stderr where its routes first differ and their values there."""
    check, budget, flags = _setup(args, CHECKS, "max", 10, 1)
    failed = False
    for label, first, *others in check(budget, **flags):
        ok = all(value == first for value in others)
        print(("ok   " if ok else "FAIL ") + label)
        if not ok:
            where, here = _first_difference([first, *others])
            print(f"{label}: routes differ{' at ' + where if where else ''}: "
                  + " | ".join(map(str, here)), file=sys.stderr)
        failed = failed or not ok
    return 1 if failed else 0


# family -> (left, right) string pairs of the bijection at size --n, its only flag
BIJS: Dict[str, Callable[[int], Iterable[Tuple[str, str]]]] = {
    "multiedge-motzkin": lambda n: (
        (tree_to_str(t, "multiedge"), path_to_str(multiedge_to_3motzkin(t)))
        for t in gen_multiedge(n)),
    "marked-skew": lambda n: (
        (tree_to_str(t, "marked"), path_to_str(marked_to_skew(t))) for t in gen_marked(n)),
    "rotation": lambda n: (
        (tree_to_str(t, "multiedge"),
         tree_to_str(rotation_multiedge_to_unarybinary(t), "unary_binary"))
        for t in gen_multiedge(n)),
}


def cmd_bij(args) -> int:
    pairs, size, _ = _setup(args, BIJS, "n", 3, 1)
    for left, right in pairs(size):
        print(f"{left} -> {right}")
    return 0


def _over_motzkin(total, ns: List[int]) -> List[Tuple[int, object]]:
    mo = motzkin_numbers(ns[-1])
    return [(n, Fraction(total(n), mo[n - 1])) for n in ns]


def _red_edge_rows(ns: List[int]) -> List[Tuple[int, object]]:
    closed = _skew_sj_ladder(2 * ns[-1], 0)  # closed[n] counts skew paths of length 2n
    return [(n, Fraction(skew_red_total(n), closed[n])) for n in ns]


def _kemp_rows(ns: List[int], gap: bool) -> List[Tuple[int, object]]:
    val = kemp_valley_series(ns[-1])
    if not gap:
        return [(m, val.coeff(m).constant()) for m in ns]
    pk = kemp_peak_series(ns[-1])
    return [(m, pk.coeff(m).constant() - val.coeff(m).constant()) for m in ns]


# law kind -> exact ladder rows(sizes in increasing order, **the flags it reads)
ASYM_LADDERS: Dict[str, Callable[..., List[Tuple[int, object]]]] = {
    "horton_avg": lambda ns, a=0: [(n, horton_avg_reg(n, a)) for n in ns],
    "node_count_growth": lambda ns, a=0: [(n, unary_binary_count(n, a)) for n in ns],
    "marked_leaves": lambda ns: [
        (n, Fraction(marked_leaf_total(n), marked_count(n))) for n in ns],
    "marked_height": lambda ns: [
        (n, Fraction(marked_height_total(n), marked_count(n))) for n in ns],
    "red_edges": _red_edge_rows,
    "retakh_height": lambda ns: _over_motzkin(retakh_height_total, ns),
    "retakh_leaves": lambda ns: _over_motzkin(retakh_leaf_total, ns),
    "motzkin_height": lambda ns: [
        (n, Fraction(motzkin_height_total(n), motzkin_bounded_coeff(n, n))) for n in ns],
    "amplitude_avg": lambda ns: [(n, amplitude_average(n)) for n in ns],
    "amplitude_split": lambda ns: [
        (n, Fraction(sum(amplitude_coeff(n, h, "horiz") for h in range(n + 1)),
                     motzkin_bounded_coeff(n, n))) for n in ns],
    "kemp_valley": lambda ns: _kemp_rows(ns, gap=False),
    "kemp_gap": lambda ns: _kemp_rows(ns, gap=True),
}


def cmd_asym(args) -> int:
    ladder, top, flags = _setup(args, ASYM_LADDERS, "n", 160, 2, "tolerance")
    tol = _or(args.tolerance, 0.2)
    if not tol >= 0:  # also rejects nan
        raise ValueError("--tolerance must be >= 0")
    ns = sorted({max(1, top // 8), max(1, top // 4), max(1, top // 2), top})
    rows = ladder(ns, **flags)
    try:
        report = trend_check(args.family, rows, tolerance=tol, **flags)
    except OverflowError:  # the float law, or float(exact), past about 1e308
        print(f"{args.family} at --n {top}: a value overflows a float; use a smaller --n",
              file=sys.stderr)
        return 2
    sys.stdout.write(report.to_csv())
    print("trend ok" if report.ok else "trend FAIL")
    return 0 if report.ok else 1


# command -> (families, runner, summary)
COMMANDS: Dict[str, Tuple[Dict[str, Callable], Callable[..., int], str]] = {
    "seq": (SEQS, cmd_seq, "stream an exact sequence"),
    "check": (CHECKS, cmd_check, "run formula = series = brute checks"),
    "bij": (BIJS, cmd_bij, "print a bijection pairing table"),
    "asym": (ASYM_LADDERS, cmd_asym, "CSV trend report for a growth law"),
}


def parse_canonical(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace `build_parser` gives for a canonical argv, or None for any other."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    families, func, _ = COMMANDS[argv[0]]
    specs = dict(OPTIONS, family={"choices": families})
    args = dict(dict.fromkeys(specs), command=argv[0], func=func)
    for flag, value in zip(argv[1::2], argv[2::2]):
        spec = specs.get(flag[2:])
        if spec is None or not flag.startswith("--") or value.startswith("-") \
                or value not in spec.get("choices", (value,)):
            return None
        try:
            args[flag[2:]] = spec.get("type", str)(value)
        except ValueError:
            return None
    return None if args["family"] is None else SimpleNamespace(**args)


def build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="latticepaths",
        description="Exact lattice-path and tree enumeration workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (families, func, summary) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--family", required=True, choices=tuple(families))
        for flag, spec in OPTIONS.items():
            p.add_argument(f"--{flag}", default=None, **spec)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_canonical(sys.argv[1:] if argv is None else argv)
    try:
        args = args or build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, NotImplementedError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout was closed: the rest and the exit flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
