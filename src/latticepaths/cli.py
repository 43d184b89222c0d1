"""Command-line front door.

Four subcommands: `seq` streams exact coefficient sequences, `check` runs
formula = series = brute-force agreement for a family within a size budget,
`bij` prints bijection pairing tables, and `asym` emits CSV trend reports
comparing exact averages against their growth laws.  Exit codes: 0 success,
1 a check or trend failed, 2 usage error.  Everything except `asym` prints
exact integers or rationals, never floats.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .asymptotics import LAW_KINDS, _decimal, _exact_str, trend_check
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
from .paths import (
    gen_deutsch,
    gen_dual_skew,
    gen_kdyck,
    gen_motzkin,
    gen_retakh,
    gen_skew,
    last_downrun_len,
    levels,
    path_stats,
)
from .pathseries import (
    amplitude_average,
    amplitude_coeff,
    amplitude_series,
    amplitude_total,
    deng_mansour_count,
    denom_Sj,
    deutsch_phi,
    deutsch_strip_solve,
    dual_skew_Gj_series,
    dual_skew_coeff,
    hoppy_negative_coeff,
    hoppy_negative_series,
    kemp_peak_series,
    kemp_valley_series,
    last_downrun_total,
    motzkin_bounded,
    motzkin_bounded_coeff,
    motzkin_height_total,
    skew_red_total,
    skew_sj_coeff,
    skew_sj_series,
)
from .trees import gen_marked, gen_multiedge, gen_unary_binary, tally, tree_stats
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
    """Unwrap a series coefficient to int or Fraction."""
    if hasattr(c, "constant"):
        c = c.constant()
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


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


def _parity_rows(coeff, j: int, n_max: int) -> List[Tuple[int, object]]:
    return [(n, coeff(n, j)) for n in range(j, n_max + 1, 2)]


def _series_rows(ser, lo: int, n_max: int) -> List[Tuple[int, object]]:
    return [(n, _coeff_value(ser.coeff(n))) for n in range(lo, n_max + 1)]


# The integer flags every subcommand parses.  A family gets the ones it reads
# (SEQ_FLAGS, CHECK_FLAGS) as keyword arguments; a given flag that neither
# the command nor the family reads is rejected.
SHARED_FLAGS = ("n", "j", "k", "a", "m", "t", "max")


def _unread_flags(args, reads: Sequence[str]) -> bool:
    """Print one line and return True when a flag outside `reads` is given."""
    unread = [f"--{flag}" for flag in SHARED_FLAGS
              if getattr(args, flag) is not None and flag not in reads]
    if unread:
        print(f"{args.command} --family {args.family} does not read {', '.join(unread)}",
              file=sys.stderr)
    return bool(unread)


# family -> rows(n_max, **flags in SEQ_FLAGS)
SEQS: Dict[str, Callable[..., Iterable[Tuple[int, object]]]] = {
    "a002212": lambda n: enumerate(a002212_terms(n)),
    "skew-sj": lambda n, j=0: _parity_rows(skew_sj_coeff, j, n),
    "dual-gj": lambda n, j=0: _parity_rows(dual_skew_coeff, j, n),
    "hoppy-neg": lambda n, k=2: [(l, hoppy_negative_coeff(l, k)) for l in range(n + 1)],
    "ternary-T": lambda n: [(m, ternary_row(m)) for m in range(1, n + 1)],
    "deutsch-phi": lambda n, t=0, j=0: _series_rows(deutsch_phi(t, j, n), 0, n),
    "amplitude": lambda n: [(m, amplitude_total(m)) for m in range(n + 1)],
    "kemp-valley": lambda n: _series_rows(kemp_valley_series(n), 1, n),
    "kemp-peak": lambda n: _series_rows(kemp_peak_series(n), 1, n),
    "horton-Rp": lambda n, j=1, a=0: _series_rows(horton_Rp(j, a, n), 0, n),
    "marked-ph": lambda n, j=1: _series_rows(marked_height_ph(j, n), 0, n),
    "retakh": lambda n: _series_rows(retakh_full(n), 0, n),
}
SEQ_FAMILIES = tuple(SEQS)
SEQ_FLAGS = {"skew-sj": ("j",), "dual-gj": ("j",), "hoppy-neg": ("k",),
             "deutsch-phi": ("t", "j"), "horton-Rp": ("j", "a"), "marked-ph": ("j",)}


def _given(args, flags: Sequence[str]) -> Dict[str, int]:
    return {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}


def cmd_seq(args) -> int:
    n_max = _or(args.n, 10)
    if n_max < 0:
        print("--n must be >= 0", file=sys.stderr)
        return 2
    reads = SEQ_FLAGS.get(args.family, ())
    if _unread_flags(args, ("n",) + reads):
        return 2
    _emit_rows(SEQS[args.family](n_max, **_given(args, reads)), args.format)
    return 0


# ----------------------------------------------------------------------
# check: formula = series = brute force, per family
# ----------------------------------------------------------------------

CheckResult = Tuple[bool, str]


def _check_end_levels(name: str, series, coeff, gen, budget: int) -> List[CheckResult]:
    out = []
    top = min(budget, 12)
    for j in range(4):
        ser = series(j, top)
        ok = all(coeff(n, j) == _coeff_value(ser.coeff(n)) == len(gen(n, j))
                 for n in range(j, top + 1, 2))
        out.append((ok, f"{name} end-level {j}: formula = series = brute, n <= {top}"))
    return out


def _check_hoppy(budget: int) -> List[CheckResult]:
    out = []
    top = min(budget, 6)
    for k in (2, 3):
        ok = True
        for n_up in range(1, top + 1):
            paths = gen_kdyck(k, n_up)
            dist = Counter(last_downrun_len(p) for p in paths)
            for j in range(0, k * n_up + 2):
                if deng_mansour_count(n_up, j, k) != dist.get(j, 0):
                    ok = False
            total = sum(j * c for j, c in dist.items())
            if total != last_downrun_total(n_up, k):
                ok = False
        out.append((ok, f"k={k} last-down-run distribution and total, rises <= {top}"))
        ser = hoppy_negative_series(k, budget)
        ok = all(hoppy_negative_coeff(l, k) == _coeff_value(ser.coeff(l))
                 for l in range(budget + 1))
        out.append((ok, f"k={k} negative-territory closed form = series, {budget + 1} terms"))
        ok = True
        for j in range(1, budget + 1):
            lhs = denom_Sj(j, k, budget) - denom_Sj(j - 1, k, budget) \
                + denom_Sj(j - k - 1, k, budget).shift(1).truncate(budget)
            if not lhs.is_zero:
                ok = False
        out.append((ok, f"k={k} denominator recursion S_j - S_(j-1) + z S_(j-k-1) = 0"))
    return out


def _check_ternary(budget: int) -> List[CheckResult]:
    out = []
    top = min(budget, 7)
    ok = True
    dists = tally("ternary", top, "middle_edges")
    for n in range(1, top + 1):
        dist = dists[n]
        for kk in range(n):
            if ternary_T(n, kk) != dist.get(kk, 0):
                ok = False
        if sum(dist.values()) != ternary_row_sum(n):
            ok = False
    out.append((ok, f"ternary middle-edge table = brute classification, n <= {top}"))
    ok = all(sum(ternary_row(n)) == ternary_row_sum(n) for n in range(1, budget + 1))
    out.append((ok, f"ternary row sums equal (1/n) C(3n, n-1), n <= {budget}"))
    return out


def _check_amplitude(budget: int) -> List[CheckResult]:
    out = []
    top = min(budget, 10)
    ok = True
    for n in range(top + 1):
        horiz: Counter = Counter()
        nohoriz: Counter = Counter()
        for p in gen_motzkin(n):
            stats = path_stats(p)
            h = stats["height"]
            lv = levels(p)
            top_flat = any(tok.startswith("H") and lv[i] == h
                           for i, tok in enumerate(p))
            # amplitude is 2h+1 with a flat step at the top level, 2h without
            if stats["amplitude"] != 2 * h + (1 if top_flat else 0):
                ok = False
            (horiz if top_flat else nohoriz)[h] += 1
        for h in range(n + 1):
            if amplitude_coeff(n, h, "horiz") != horiz.get(h, 0) \
                    or amplitude_coeff(n, h, "no-horiz") != nohoriz.get(h, 0):
                ok = False
    out.append((ok, f"amplitude distribution = brute classification, n <= {top}"))
    ok = True
    for h in range(min(budget, 6) + 1):
        ser = amplitude_series(h, "horiz", budget) + amplitude_series(h, "no-horiz", budget)
        for n in range(budget + 1):
            if _coeff_value(ser.coeff(n)) != amplitude_coeff(n, h, "horiz") \
                    + amplitude_coeff(n, h, "no-horiz"):
                ok = False
    out.append((ok, f"amplitude layer series = coefficient extraction, order {budget}"))
    return out


def _check_motzkin_bounded(budget: int) -> List[CheckResult]:
    out = []
    top = min(budget, 10)
    ok = True
    for h in range(4):
        ser = motzkin_bounded(h, top)
        for n in range(top + 1):
            brute = len(gen_motzkin(n, max_height=h))
            if _coeff_value(ser.coeff(n)) != brute \
                    or motzkin_bounded_coeff(n, h) != brute:
                ok = False
    out.append((ok, f"height-bounded counts: determinant = extraction = brute, n <= {top}"))
    return out


def _check_deutsch(budget: int, m: int = 5) -> List[CheckResult]:
    if m < 1:
        raise ValueError("strip width --m must be >= 1")
    out = []
    order = min(budget, 12)
    ok = True
    for t in range(m):
        solved = deutsch_strip_solve(t, m, order)
        for j in range(m):
            closed = deutsch_phi(t, j, order, bound=m)
            if not (closed - solved[j]).is_zero:
                ok = False
    out.append((ok, f"strip m={m}: kernel closed forms = band solve, order {order}"))
    top = min(budget, 9)
    ok = True
    for t in range(min(m, 3)):
        for j in range(min(m, 3)):
            closed = deutsch_phi(t, j, top, bound=m)
            for n in range(top + 1):
                brute = sum(1 for p in gen_deutsch(n, start=t, ceiling=m - 1,
                                                   end_level=j))
                if _coeff_value(closed.coeff(n)) != brute:
                    ok = False
    out.append((ok, f"strip m={m}: closed forms = brute force, n <= {top}"))
    return out


def _edge_count(tree) -> int:
    return sum(1 + _edge_count(sub) for _, sub in tree)


def _check_bijections(budget: int) -> List[CheckResult]:
    out = []
    wtop = min(budget, 6)
    ok = True
    for w in range(1, wtop + 1):
        trees = gen_multiedge(w)
        images = set()
        for t in trees:
            p = multiedge_to_3motzkin(t)
            if motzkin3_to_multiedge(p) != t:
                ok = False
            if sum(1 for s in p if s == "H2") != w - _edge_count(t):
                ok = False
            images.add(p)
        codomain = {tuple(p) for p in gen_motzkin(w - 1, horiz_colors=3)}
        if images != codomain:
            ok = False
    out.append((ok, f"multi-edge <-> 3-Motzkin: round trip, statistics, sets, weight <= {wtop}"))
    ntop = min(budget + 1, 7)
    ok = True
    for n in range(1, ntop + 1):
        trees = gen_marked(n)
        images = set()
        for t in trees:
            p = marked_to_skew(t)
            if skew_to_marked(p) != t:
                ok = False
            if sum(1 for s in p if s == "r") != tree_stats(t, "marked")["mark_count"]:
                ok = False
            images.add(p)
        codomain = {tuple(p) for p in gen_skew(2 * (n - 1))}
        if images != codomain:
            ok = False
    out.append((ok, f"marked <-> skew: round trip, marks = red steps, sets, nodes <= {ntop}"))
    ok = True
    for w in range(1, wtop + 1):
        trees = gen_multiedge(w)
        images = set()
        for t in trees:
            u = rotation_multiedge_to_unarybinary(t)
            if rotation_unarybinary_to_multiedge(u) != t:
                ok = False
            images.add(u)
        if images != set(gen_unary_binary(w, 1)):
            ok = False
    out.append((ok, f"rotation multi-edge <-> unary-binary: round trip and sets, weight <= {wtop}"))
    return out


def _check_horton(budget: int) -> List[CheckResult]:
    top = min(budget, 9)
    counts_ok = regs_ok = True
    for a in (0, 1, 2):
        layers = {p: horton_Rp(p, a, top) for p in range(1, 4)}
        for n, dist in enumerate(tally("unary_binary", top, "reg", a)):
            if unary_binary_count(n, a) != sum(dist.values()):
                counts_ok = False
            if any(_coeff_value(ser.coeff(n)) != dist.get(p, 0)
                   for p, ser in layers.items()):
                regs_ok = False
    return [(counts_ok, f"unary-binary counts = brute force, a in 0..2, n <= {top}"),
            (regs_ok, f"register-classified counts match R_p, p <= 3, n <= {top}")]


def _check_marked(budget: int) -> List[CheckResult]:
    out = []
    top = min(budget, 7)
    ok = True
    for n in range(1, top + 1):
        trees = gen_marked(n)
        if marked_count(n) != len(trees):
            ok = False
        stats = [tree_stats(t, "marked") for t in trees]
        if marked_leaf_total(n) != sum(s["leaves"] for s in stats):
            ok = False
        if marked_height_total(n) != sum(s["height_nodes"] for s in stats):
            ok = False
    out.append((ok, f"marked-tree counts, leaf and height totals = brute, n <= {top}"))
    return out


def _check_retakh(budget: int) -> List[CheckResult]:
    # series index n corresponds to paths with n-1 up-down pairs
    out = []
    top = min(budget, 8)
    mo = motzkin_numbers(top + 1)
    ok = True
    for m in range(1, top + 1):
        paths = gen_retakh(m)
        if len(paths) != mo[m]:
            ok = False
        stats = [path_stats(p) for p in paths]
        # a leaf of the encoded tree is a peak, a rise followed by a fall
        if sum(len(s["peak_heights"]) for s in stats) != retakh_leaf_total(m + 1):
            ok = False
        if sum(s["height"] for s in stats) != retakh_height_total(m + 1):
            ok = False
        dist = Counter(s["height"] for s in stats)
        for h in range(m + 2):
            if retakh_bounded_count(m + 1, h) != sum(c for hh, c in dist.items()
                                                     if hh <= h):
                ok = False
    out.append((ok, f"restricted-path counts, leaves, heights, bounds = brute, "
                    f"pairs <= {top}"))
    return out


CHECKS: Dict[str, Callable[..., List[CheckResult]]] = {
    "skew": lambda budget: _check_end_levels("skew", skew_sj_series, skew_sj_coeff,
                                             gen_skew, budget),
    "dual": lambda budget: _check_end_levels("dual", dual_skew_Gj_series, dual_skew_coeff,
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
CHECK_FAMILIES = tuple(CHECKS)
CHECK_FLAGS = {"deutsch-strip": ("m",)}


def cmd_check(args) -> int:
    budget = _or(args.max, 10)
    if budget < 1:
        print("--max must be >= 1", file=sys.stderr)
        return 2
    reads = CHECK_FLAGS.get(args.family, ())
    if _unread_flags(args, ("max",) + reads):
        return 2
    results = CHECKS[args.family](budget, **_given(args, reads))
    failed = False
    for ok, label in results:
        print(("ok   " if ok else "FAIL ") + label)
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
BIJ_FAMILIES = tuple(BIJS)


def cmd_bij(args) -> int:
    size = args.n if args.n is not None else 3
    if size < 1:
        print("--n must be >= 1", file=sys.stderr)
        return 2
    if _unread_flags(args, ("n",)):
        return 2
    for left, right in BIJS[args.family](size):
        print(f"{left} -> {right}")
    return 0


def _over_motzkin(total, ns: List[int], top: int) -> List[Tuple[int, object]]:
    mo = motzkin_numbers(top)
    return [(n, Fraction(total(n), mo[n - 1])) for n in ns]


def _kemp_rows(ns: List[int], top: int, gap: bool) -> List[Tuple[int, object]]:
    val = kemp_valley_series(top)
    if not gap:
        return [(m, val.coeff(m).constant()) for m in ns]
    pk = kemp_peak_series(top)
    return [(m, pk.coeff(m).constant() - val.coeff(m).constant()) for m in ns]


# law kind -> exact ladder rows(sizes, top size, extra unary colours a)
ASYM_LADDERS: Dict[str, Callable[[List[int], int, int], List[Tuple[int, object]]]] = {
    "horton_avg": lambda ns, top, a: [(n, horton_avg_reg(n, a)) for n in ns],
    "node_count_growth": lambda ns, top, a: [(n, unary_binary_count(n, a)) for n in ns],
    "marked_leaves": lambda ns, top, a: [
        (n, Fraction(marked_leaf_total(n), marked_count(n))) for n in ns],
    "marked_height": lambda ns, top, a: [
        (n, Fraction(marked_height_total(n), marked_count(n))) for n in ns],
    "red_edges": lambda ns, top, a: [
        (n, Fraction(skew_red_total(n), skew_sj_coeff(2 * n, 0))) for n in ns],
    "retakh_height": lambda ns, top, a: _over_motzkin(retakh_height_total, ns, top),
    "retakh_leaves": lambda ns, top, a: _over_motzkin(retakh_leaf_total, ns, top),
    "motzkin_height": lambda ns, top, a: [
        (n, Fraction(motzkin_height_total(n), motzkin_bounded_coeff(n, n))) for n in ns],
    "amplitude_avg": lambda ns, top, a: [(n, amplitude_average(n)) for n in ns],
    "amplitude_split": lambda ns, top, a: [
        (n, Fraction(sum(amplitude_coeff(n, h, "horiz") for h in range(n + 1)),
                     motzkin_bounded_coeff(n, n))) for n in ns],
    "kemp_valley": lambda ns, top, a: _kemp_rows(ns, top, gap=False),
    "kemp_gap": lambda ns, top, a: _kemp_rows(ns, top, gap=True),
}
# the kinds whose ladder and law read --a; every kind reads --n (and --tolerance)
ASYM_FLAGS = {"horton_avg": ("a",), "node_count_growth": ("a",)}


def cmd_asym(args) -> int:
    kind = args.family
    top = args.n if args.n is not None else 160
    a = args.a if args.a is not None else 0
    tol = args.tolerance if args.tolerance is not None else 0.2
    if not tol >= 0:  # also rejects nan
        print("--tolerance must be >= 0", file=sys.stderr)
        return 2
    if _unread_flags(args, ("n",) + ASYM_FLAGS.get(kind, ())):
        return 2
    ns = sorted({max(1, top // 8), max(1, top // 4), max(1, top // 2), top})
    try:
        ladder = ASYM_LADDERS[kind](ns, top, a)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(ladder) < 2:
        print("--n is too small: the ladder needs at least two sizes", file=sys.stderr)
        return 2
    try:
        report = trend_check(kind, ladder, tolerance=tol, a=a)
    except OverflowError:  # the float law, or float(exact), past about 1e308
        print(f"{kind} at --n {top}: a value overflows a float; use a smaller --n",
              file=sys.stderr)
        return 2
    sys.stdout.write(report.to_csv())
    print("trend ok" if report.ok else "trend FAIL")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticepaths",
        description="Exact lattice-path and tree enumeration workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", type=int, default=None, help="size / order limit")
        p.add_argument("--j", type=int, default=None, help="end level / layer index")
        p.add_argument("--k", type=int, default=None, help="up-step height")
        p.add_argument("--a", type=int, default=None, help="extra unary colours")
        p.add_argument("--m", type=int, default=None, help="strip width / index")
        p.add_argument("--t", type=int, default=None, help="starting level")
        p.add_argument("--max", type=int, default=None, help="size budget")
        p.add_argument("--format", choices=("tsv", "csv", "json-lines"),
                       default="tsv", help="seq output format")

    p_seq = sub.add_parser("seq", help="stream an exact sequence")
    p_seq.add_argument("--family", required=True, choices=SEQ_FAMILIES)
    add_common(p_seq)
    p_seq.set_defaults(func=cmd_seq)

    p_check = sub.add_parser("check", help="run formula = series = brute checks")
    p_check.add_argument("--family", required=True, choices=CHECK_FAMILIES)
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_bij = sub.add_parser("bij", help="print a bijection pairing table")
    p_bij.add_argument("--family", required=True, choices=BIJ_FAMILIES)
    add_common(p_bij)
    p_bij.set_defaults(func=cmd_bij)

    p_asym = sub.add_parser("asym", help="CSV trend report for a growth law")
    p_asym.add_argument("--family", required=True,
                        choices=LAW_KINDS)
    p_asym.add_argument("--tolerance", type=float, default=None,
                        help="allowed fractional step-up in relative deviation")
    add_common(p_asym)
    p_asym.set_defaults(func=cmd_asym)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, NotImplementedError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
