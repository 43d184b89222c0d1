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
import json
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, List, Sequence, Tuple

from .asymptotics import eval_law, trend_check
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
    hoppy_early_total,
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
from .trees import gen_marked, gen_multiedge, gen_ternary, gen_unary_binary, reg, tree_stats
from .treeseries import (
    horton_Rp,
    horton_Sp,
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

SEQ_FAMILIES = (
    "a002212",
    "skew-sj",
    "dual-gj",
    "hoppy-neg",
    "ternary-T",
    "deutsch-phi",
    "amplitude",
    "kemp-valley",
    "kemp-peak",
    "horton-Rp",
    "marked-ph",
    "retakh",
)

CHECK_FAMILIES = (
    "skew",
    "dual",
    "hoppy",
    "ternary",
    "amplitude",
    "motzkin-bounded",
    "deutsch-strip",
    "bijections",
    "horton",
    "marked",
    "retakh",
)

BIJ_FAMILIES = ("multiedge-motzkin", "marked-skew", "rotation")


def _exact_str(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _coeff_value(c):
    """Unwrap a series coefficient to int or Fraction."""
    if hasattr(c, "constant"):
        c = c.constant()
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _emit_rows(rows: Iterable[Tuple[int, object]], fmt: str) -> None:
    for n, value in rows:
        if fmt == "tsv":
            if isinstance(value, (list, tuple)):
                print(f"{n}\t{' '.join(_exact_str(v) for v in value)}")
            else:
                print(f"{n}\t{_exact_str(value)}")
        elif fmt == "csv":
            if isinstance(value, (list, tuple)):
                print(f"{n},{' '.join(_exact_str(v) for v in value)}")
            else:
                print(f"{n},{_exact_str(value)}")
        else:  # json-lines
            if isinstance(value, (list, tuple)):
                payload = list(value)
            elif isinstance(value, Fraction) and value.denominator != 1:
                payload = _exact_str(value)
            else:
                payload = int(value) if isinstance(value, Fraction) else value
            print(json.dumps({"n": n, "value": payload}))


def cmd_seq(args) -> int:
    fam = args.family
    n_max = args.n if args.n is not None else 10
    if n_max < 0:
        print("--n must be >= 0", file=sys.stderr)
        return 2
    rows: List[Tuple[int, object]] = []
    if fam == "a002212":
        terms = a002212_terms(n_max)
        rows = list(enumerate(terms))
    elif fam == "skew-sj":
        j = args.j if args.j is not None else 0
        rows = [(n, skew_sj_coeff(n, j)) for n in range(j, n_max + 1, 2)]
    elif fam == "dual-gj":
        j = args.j if args.j is not None else 0
        rows = [(n, dual_skew_coeff(n, j)) for n in range(j, n_max + 1, 2)]
    elif fam == "hoppy-neg":
        k = args.k if args.k is not None else 2
        rows = [(l, hoppy_negative_coeff(l, k)) for l in range(n_max + 1)]
    elif fam == "ternary-T":
        rows = [(n, ternary_row(n)) for n in range(1, n_max + 1)]
    elif fam == "deutsch-phi":
        t = args.t if args.t is not None else 0
        j = args.j if args.j is not None else 0
        ser = deutsch_phi(t, j, n_max)
        rows = [(n, _coeff_value(ser.coeff(n))) for n in range(n_max + 1)]
    elif fam == "amplitude":
        rows = [(n, amplitude_total(n)) for n in range(n_max + 1)]
    elif fam in ("kemp-valley", "kemp-peak"):
        ser = kemp_valley_series(n_max) if fam == "kemp-valley" else kemp_peak_series(n_max)
        rows = [(m, _coeff_value(ser.coeff(m))) for m in range(1, n_max + 1)]
    elif fam == "horton-Rp":
        p = args.j if args.j is not None else 1
        a = args.a if args.a is not None else 0
        ser = horton_Rp(p, a, n_max)
        rows = [(n, _coeff_value(ser.coeff(n))) for n in range(n_max + 1)]
    elif fam == "marked-ph":
        h = args.j if args.j is not None else 1
        ser = marked_height_ph(h, n_max)
        rows = [(n, _coeff_value(ser.coeff(n))) for n in range(n_max + 1)]
    elif fam == "retakh":
        ser = retakh_full(n_max)
        rows = [(n, _coeff_value(ser.coeff(n))) for n in range(n_max + 1)]
    else:  # pragma: no cover - argparse choices guard this
        print(f"unknown family {fam!r}", file=sys.stderr)
        return 2
    _emit_rows(rows, args.format)
    return 0


# ----------------------------------------------------------------------
# check: formula = series = brute force, per family
# ----------------------------------------------------------------------

CheckResult = Tuple[bool, str]


def _check_skew(budget: int) -> List[CheckResult]:
    out = []
    top = min(budget, 12)
    for j in range(4):
        ser = skew_sj_series(j, top)
        ok = True
        for n in range(j, top + 1, 2):
            closed = skew_sj_coeff(n, j)
            brute = len(gen_skew(n, j))
            if closed != _coeff_value(ser.coeff(n)) or closed != brute:
                ok = False
        out.append((ok, f"skew end-level {j}: formula = series = brute, n <= {top}"))
    return out


def _check_dual(budget: int) -> List[CheckResult]:
    out = []
    top = min(budget, 12)
    for j in range(4):
        ser = dual_skew_Gj_series(j, top)
        ok = True
        for n in range(j, top + 1, 2):
            closed = dual_skew_coeff(n, j)
            brute = len(gen_dual_skew(n, j))
            if closed != _coeff_value(ser.coeff(n)) or closed != brute:
                ok = False
        out.append((ok, f"dual end-level {j}: formula = series = brute, n <= {top}"))
    return out


def _check_hoppy(budget: int) -> List[CheckResult]:
    out = []
    top = min(budget, 6)
    for k in (2, 3):
        ok = True
        for n_up in range(1, top + 1):
            paths = gen_kdyck(k, n_up)
            dist = Counter(path_stats(p, up=k)["last_downrun_len"] for p in paths)
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
    for n in range(1, top + 1):
        dist = Counter(tree_stats(t, "ternary")["middle_edges"] for t in gen_ternary(n))
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


def _check_deutsch(budget: int, m: int) -> List[CheckResult]:
    if m < 1:
        raise ValueError("strip width --m must be >= 1")
    out = []
    order = min(budget, 12)
    ok = True
    for t in range(m):
        for j in range(m):
            closed = deutsch_phi(t, j, order, bound=m)
            solved = deutsch_strip_solve(t, m, order)[j]
            if not (closed - solved).is_zero:
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
            images.add(tree_to_str(u, "unary_binary"))
        codomain = {tree_to_str(u, "unary_binary") for u in gen_unary_binary(w, 1)}
        if images != codomain:
            ok = False
    out.append((ok, f"rotation multi-edge <-> unary-binary: round trip and sets, weight <= {wtop}"))
    return out


def _check_horton(budget: int) -> List[CheckResult]:
    out = []
    top = min(budget, 9)
    ok = True
    for a in (0, 1, 2):
        for n in range(top + 1):
            if unary_binary_count(n, a) != len(gen_unary_binary(n, a)):
                ok = False
    out.append((ok, f"unary-binary counts = brute force, a in 0..2, n <= {top}"))
    ok = True
    for a in (0, 1, 2):
        for p in range(1, 4):
            ser = horton_Rp(p, a, top)
            for n in range(top + 1):
                brute = sum(1 for t in gen_unary_binary(n, a)
                            if reg(t, "unary_binary") == p)
                if _coeff_value(ser.coeff(n)) != brute:
                    ok = False
    out.append((ok, f"register-classified counts match R_p, p <= 3, n <= {top}"))
    return out


def _check_marked(budget: int) -> List[CheckResult]:
    out = []
    top = min(budget, 7)
    ok = True
    for n in range(1, top + 1):
        trees = gen_marked(n)
        if marked_count(n) != len(trees):
            ok = False
        if marked_leaf_total(n) != sum(tree_stats(t, "marked")["leaves"] for t in trees):
            ok = False
        if marked_height_total(n) != sum(tree_stats(t, "marked")["height_nodes"]
                                         for t in trees):
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
        leaves = sum(sum(1 for i in range(len(p) - 1) if p[i] == "U" and p[i + 1] == "d")
                     for p in paths)
        if leaves != retakh_leaf_total(m + 1):
            ok = False
        heights = sum(path_stats(p)["height"] for p in paths)
        if heights != retakh_height_total(m + 1):
            ok = False
        dist = Counter(path_stats(p)["height"] for p in paths)
        for h in range(m + 2):
            if retakh_bounded_count(m + 1, h) != sum(c for hh, c in dist.items()
                                                     if hh <= h):
                ok = False
    out.append((ok, f"restricted-path counts, leaves, heights, bounds = brute, "
                    f"pairs <= {top}"))
    return out


def cmd_check(args) -> int:
    budget = args.max if args.max is not None else 10
    if budget < 1:
        print("--max must be >= 1", file=sys.stderr)
        return 2
    fam = args.family
    if fam == "skew":
        results = _check_skew(budget)
    elif fam == "dual":
        results = _check_dual(budget)
    elif fam == "hoppy":
        results = _check_hoppy(budget)
    elif fam == "ternary":
        results = _check_ternary(budget)
    elif fam == "amplitude":
        results = _check_amplitude(budget)
    elif fam == "motzkin-bounded":
        results = _check_motzkin_bounded(budget)
    elif fam == "deutsch-strip":
        results = _check_deutsch(budget, args.m if args.m is not None else 5)
    elif fam == "bijections":
        results = _check_bijections(budget)
    elif fam == "horton":
        results = _check_horton(budget)
    elif fam == "marked":
        results = _check_marked(budget)
    elif fam == "retakh":
        results = _check_retakh(budget)
    else:  # pragma: no cover
        print(f"unknown family {fam!r}", file=sys.stderr)
        return 2
    failed = False
    for ok, label in results:
        print(("ok   " if ok else "FAIL ") + label)
        failed = failed or not ok
    return 1 if failed else 0


def cmd_bij(args) -> int:
    fam = args.family
    size = args.n if args.n is not None else 3
    if size < 1:
        print("--n must be >= 1", file=sys.stderr)
        return 2
    if fam == "multiedge-motzkin":
        for t in gen_multiedge(size):
            print(f"{tree_to_str(t, 'multiedge')} -> {path_to_str(multiedge_to_3motzkin(t))}")
    elif fam == "marked-skew":
        for t in gen_marked(size):
            print(f"{tree_to_str(t, 'marked')} -> {path_to_str(marked_to_skew(t))}")
    elif fam == "rotation":
        for t in gen_multiedge(size):
            u = rotation_multiedge_to_unarybinary(t)
            print(f"{tree_to_str(t, 'multiedge')} -> {tree_to_str(u, 'unary_binary')}")
    else:  # pragma: no cover
        print(f"unknown family {fam!r}", file=sys.stderr)
        return 2
    return 0


def _asym_ladder(kind: str, top: int, a: int) -> List[Tuple[int, object]]:
    ns = sorted({max(1, top // 8), max(1, top // 4), max(1, top // 2), top})
    rows: List[Tuple[int, object]] = []
    if kind == "horton_avg":
        return [(n, horton_avg_reg(n, a)) for n in ns]
    if kind == "node_count_growth":
        return [(n, unary_binary_count(n, a)) for n in ns]
    if kind == "marked_leaves":
        return [(n, Fraction(marked_leaf_total(n), marked_count(n))) for n in ns]
    if kind == "marked_height":
        return [(n, Fraction(marked_height_total(n), marked_count(n))) for n in ns]
    if kind == "red_edges":
        return [(n, Fraction(skew_red_total(n), skew_sj_coeff(2 * n, 0))) for n in ns]
    if kind == "retakh_height":
        mo = motzkin_numbers(top)
        return [(n, Fraction(retakh_height_total(n), mo[n - 1])) for n in ns]
    if kind == "retakh_leaves":
        mo = motzkin_numbers(top)
        return [(n, Fraction(retakh_leaf_total(n), mo[n - 1])) for n in ns]
    if kind == "motzkin_height":
        return [(n, Fraction(motzkin_height_total(n), motzkin_bounded_coeff(n, n)))
                for n in ns]
    if kind == "amplitude_avg":
        return [(n, amplitude_average(n)) for n in ns]
    if kind == "amplitude_split":
        for n in ns:
            horiz = sum(amplitude_coeff(n, h, "horiz") for h in range(n + 1))
            rows.append((n, Fraction(horiz, motzkin_bounded_coeff(n, n))))
        return rows
    if kind in ("kemp_valley", "kemp_gap"):
        val = kemp_valley_series(top)
        pk = kemp_peak_series(top) if kind == "kemp_gap" else None
        for m in ns:
            c = val.coeff(m).constant()
            if pk is not None:
                c = pk.coeff(m).constant() - c
            rows.append((m, c))
        return rows
    raise ValueError(f"unknown law kind {kind!r}")


def cmd_asym(args) -> int:
    kind = args.family
    top = args.n if args.n is not None else 160
    a = args.a if args.a is not None else 0
    try:
        ladder = _asym_ladder(kind, top, a)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    tol = args.tolerance if args.tolerance is not None else 0.2
    report = trend_check(kind, ladder, tolerance=tol, a=a)
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
                        choices=("horton_avg", "node_count_growth", "marked_leaves",
                                 "marked_height", "red_edges", "retakh_height",
                                 "retakh_leaves", "motzkin_height", "amplitude_avg",
                                 "amplitude_split", "kemp_valley", "kemp_gap"))
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
