"""The `check` families as they were before `cmd_check` judged their lines,
kept as an oracle for its verdicts.

Each body below decides its own verdict and returns `(ok, label)` pairs.
They are kept as they were, with the names they read imported from
`latticepaths.cli` (`tree_stats`, which `cli` no longer reads, from
`latticepaths.trees`, the fold `_edge_count`, which `cli` no longer has,
written here, and the two end-level coefficients, which `cli` now
reads as ladders, from `latticepaths.pathseries`), so a test that replaces
one of those names must replace it here as well.  The one exception is
`_check_marked`, which counts its trees with `tally_trees`, as `cli` does,
so that a fault there reaches both; its per-tree body is kept in
`test_trees`.  `as_lines` turns a body into a family of today's shape,
whose lines are a label and route values: `(label, ok, True)` is ok exactly
when `ok` is.
"""

from collections import Counter
from typing import Callable, Dict, List, Tuple

from latticepaths.cli import (
    _coeff_value,
    _deutsch_strip_solutions,
    amplitude_coeff,
    amplitude_series,
    deng_mansour_count,
    denom_Sj,
    deutsch_phi,
    dual_skew_Gj_series,
    gen_dual_skew,
    gen_marked,
    gen_motzkin,
    gen_multiedge,
    gen_skew,
    gen_unary_binary,
    hoppy_negative_coeff,
    hoppy_negative_series,
    horton_Rp,
    last_downrun_total,
    marked_count,
    marked_height_total,
    marked_leaf_total,
    marked_to_skew,
    motzkin3_to_multiedge,
    motzkin_bounded,
    motzkin_bounded_coeff,
    motzkin_numbers,
    multiedge_to_3motzkin,
    reads,
    retakh_bounded_count,
    retakh_height_total,
    retakh_leaf_total,
    rotation_multiedge_to_unarybinary,
    rotation_unarybinary_to_multiedge,
    skew_sj_series,
    skew_to_marked,
    tally_paths,
    tally_trees,
    ternary_row,
    ternary_row_sum,
    ternary_T,
    unary_binary_count,
)
from latticepaths.pathseries import dual_skew_coeff, skew_sj_coeff
from latticepaths.trees import _CHILDREN, _fold, tree_stats

CheckResult = Tuple[bool, str]


def _total(dist: Counter) -> int:
    return sum(value * count for value, count in dist.items())


def _check_end_levels(name: str, series, coeff, gen, budget: int) -> List[CheckResult]:
    out = []
    top = min(budget, 12)
    for j in range(min(top, 3) + 1):
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
        dists = tally_paths("kdyck", top, "last_downrun_len", k=k)
        for n_up in range(1, top + 1):
            dist = dists[n_up]
            for j in range(0, k * n_up + 2):
                if deng_mansour_count(n_up, j, k) != dist[j]:
                    ok = False
            if _total(dist) != last_downrun_total(n_up, k):
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
    dists = tally_trees("ternary", top, "middle_edges")
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
    # a Motzkin path of height h has amplitude 2h+1 with a flat step at the top level, 2h without
    for n, dist in enumerate(tally_paths("motzkin", top, "amplitude")):
        for h in range(n + 1):
            if amplitude_coeff(n, h, "horiz") != dist[2 * h + 1] \
                    or amplitude_coeff(n, h, "no-horiz") != dist[2 * h]:
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
        dists = tally_paths("motzkin", top, "height", max_height=h)
        for n in range(top + 1):
            brute = dists[n].total()
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
    closed = [[deutsch_phi(t, j, order, bound=m) for j in range(m)] for t in range(m)]
    ok = all((phi - solved).is_zero
             for row, solved_row in zip(closed, _deutsch_strip_solutions(m, order))
             for phi, solved in zip(row, solved_row))
    out.append((ok, f"strip m={m}: kernel closed forms = band solve, order {order}"))
    # the order-top closed forms are truncations of the order-`order` ones
    top = min(budget, 9)
    ok = True
    for t in range(min(m, 3)):
        for j in range(min(m, 3)):
            dists = tally_paths("deutsch", top, "height", start=t, ceiling=m - 1, end_level=j)
            for n in range(top + 1):
                if _coeff_value(closed[t][j].coeff(n)) != dists[n].total():
                    ok = False
    out.append((ok, f"strip m={m}: closed forms = brute force, n <= {top}"))
    return out


def _edge_count(tree) -> int:
    """The edges of a multi-edge tree: its nodes, folded without recursion, less the root."""
    return _fold(_CHILDREN["multiedge"], lambda node, kids: 1 + sum(kids), 0, tree) - 1


def _bijection_ok(sizes, domain, forward, backward, kept, codomain) -> bool:
    """Whether, for each n of sizes, forward maps domain(n) onto the set
    codomain(n), backward undoes it, and kept(n, object, image) holds."""
    ok = True
    for n in sizes:
        images = set()
        for t in domain(n):
            image = forward(t)
            if backward(image) != t or not kept(n, t, image):
                ok = False
            images.add(image)
        if images != codomain(n):
            ok = False
    return ok


def _check_bijections(budget: int) -> List[CheckResult]:
    wtop, ntop = min(budget, 6), min(budget + 1, 7)
    weights = range(1, wtop + 1)
    return [
        (_bijection_ok(weights, gen_multiedge, multiedge_to_3motzkin, motzkin3_to_multiedge,
                       lambda w, t, p: p.count("H2") == w - _edge_count(t),
                       lambda w: set(gen_motzkin(w - 1, horiz_colors=3))),
         f"multi-edge <-> 3-Motzkin: round trip, statistics, sets, weight <= {wtop}"),
        (_bijection_ok(range(1, ntop + 1), gen_marked, marked_to_skew, skew_to_marked,
                       lambda n, t, p: p.count("r") == tree_stats(t, "marked")["mark_count"],
                       lambda n: set(gen_skew(2 * (n - 1)))),
         f"marked <-> skew: round trip, marks = red steps, sets, nodes <= {ntop}"),
        (_bijection_ok(weights, gen_multiedge, rotation_multiedge_to_unarybinary,
                       rotation_unarybinary_to_multiedge, lambda w, t, u: True,
                       lambda w: set(gen_unary_binary(w, 1))),
         f"rotation multi-edge <-> unary-binary: round trip and sets, weight <= {wtop}"),
    ]


def _check_horton(budget: int) -> List[CheckResult]:
    top = min(budget, 9)
    counts_ok = regs_ok = True
    for a in (0, 1, 2):
        layers = {p: horton_Rp(p, a, top) for p in range(1, 4)}
        for n, dist in enumerate(tally_trees("unary_binary", top, "reg", a)):
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
    leaves = tally_trees("marked", top, "leaves")
    heights = tally_trees("marked", top, "height_nodes")
    for n in range(1, top + 1):
        if marked_count(n) != sum(leaves[n].values()):
            ok = False
        if marked_leaf_total(n) != _total(leaves[n]):
            ok = False
        if marked_height_total(n) != _total(heights[n]):
            ok = False
    out.append((ok, f"marked-tree counts, leaf and height totals = brute, n <= {top}"))
    return out


def _check_retakh(budget: int) -> List[CheckResult]:
    # series index n corresponds to paths with n-1 up-down pairs
    out = []
    top = min(budget, 8)
    mo = motzkin_numbers(top + 1)
    ok = True
    heights = tally_paths("retakh", top, "height")
    peaks = tally_paths("retakh", top, "peak_count")
    for m in range(1, top + 1):
        dist = heights[m]
        if dist.total() != mo[m]:
            ok = False
        # a leaf of the encoded tree is a peak, a rise followed by a fall
        if _total(peaks[m]) != retakh_leaf_total(m + 1):
            ok = False
        if _total(dist) != retakh_height_total(m + 1):
            ok = False
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


def as_lines(body: Callable[..., List[CheckResult]]) -> Callable[..., List[tuple]]:
    """body as a `check` family of `(label, ok, True)` lines.  It takes body's
    parameters, since `cli.reads` reads the flags a family takes from them."""
    if reads(body) == ("m",):
        return lambda budget, m=5: [(label, ok, True) for ok, label in body(budget, m)]
    assert reads(body) == (), reads(body)
    return lambda budget: [(label, ok, True) for ok, label in body(budget)]
