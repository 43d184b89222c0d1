"""Path statistics tallied over the walk's shared suffixes.

`paths.tally` evaluates a family's move rule in a statistic's value algebra:
a path's value is a step rule's value on its first step, that step's level
and the value of its suffix, and each walk state holds value -> number of
suffixes, so equal values merge.  Here it is compared with per-path
classification of the `gen_*` output and with the list tally it replaced
(`old_tallies`) on a grid that exercises every walk bound, and with the
closed forms far beyond enumeration.  The per-path bodies of the `check`
families that now read it, and both list tallies patched into `check`,
stay below as oracles for their output.
"""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticepaths
from latticepaths import cli, paths
from latticepaths.combinat import motzkin_numbers
from latticepaths.paths import (
    gen_deutsch,
    gen_dual_skew,
    gen_kdyck,
    gen_motzkin,
    gen_retakh,
    gen_skew,
    last_downrun_len,
    levels,
    path_stats,
    step_delta,
    tally,
)
from latticepaths.pathseries import (
    amplitude_total,
    dual_skew_coeff,
    motzkin_bounded_coeff,
    skew_sj_coeff,
)
from latticepaths.trees import tally as trees_tally
from latticepaths.treeseries import horton_avg_reg, retakh_leaf_total
from old_checks import as_lines
from old_tallies import old_paths_tally, old_trees_tally

SRC = Path(latticepaths.__file__).resolve().parents[1]
STATS = ("height", "amplitude", "last_downrun_len", "peak_count")


# ----------------------------------------------------------------------
# per-path classification of the generators' output
# ----------------------------------------------------------------------

def gen(family, size, params):
    if family == "kdyck":
        return gen_kdyck(params["k"], size, **{p: v for p, v in params.items() if p != "k"})
    return {"skew": gen_skew, "dual_skew": gen_dual_skew, "motzkin": gen_motzkin,
            "deutsch": gen_deutsch, "retakh": gen_retakh}[family](size, **params)


def classify(path, params):
    stats = path_stats(path, up=params.get("k", 1), start=params.get("start", 0))
    assert stats["last_downrun_len"] == last_downrun_len(path)
    return {**stats, "peak_count": len(stats["peak_heights"])}


def assert_tally_classifies(family, top, params, stats=STATS):
    dists = {stat: tally(family, top, stat, **params) for stat in stats}
    for stat in stats:
        assert dists[stat] == old_paths_tally(family, top, stat, **params), (family, params, stat)
    for size in range(top + 1):
        built = gen(family, size, params)
        classified = [classify(p, params) for p in built]
        for stat in stats:
            assert len(dists[stat]) == top + 1
            assert dists[stat][size] == Counter(c[stat] for c in classified), \
                (family, params, stat, size)
            assert dists[stat][size].total() == len(built)


GRID = {
    "kdyck": [(top, {"k": k, "floor": floor, "end_level": end})
              for k, top in ((1, 6), (2, 5), (3, 4)) for floor in (0, -1) for end in (0, 1, 3)],
    "skew": [(9, {"end_level": end}) for end in range(4)],
    "dual_skew": [(9, {"end_level": end}) for end in range(4)],
    "motzkin": [(top, {"horiz_colors": colors, "max_height": cap, "end_level": end})
                for colors, top in ((1, 8), (2, 6), (3, 5)) for cap in (None, 0, 1, 2, 3)
                for end in (0, 2)],
    # starts below the floor and above the ceiling, floor -1, ceilings 0..3
    "deutsch": [(5, {"start": start, "floor": floor, "ceiling": cap, "end_level": end})
                for start in (-2, 0, 2, 5) for floor in (-1, 0, 1)
                for cap in (None, 0, 1, 2, 3) for end in (0, 1)],
    "retakh": [(8, {})],
}


@pytest.mark.parametrize("family", sorted(GRID))
def test_tally_matches_per_path_classification(family):
    for top, params in GRID[family]:
        assert_tally_classifies(family, top, params)


def test_the_grid_reaches_every_walk_bound():
    # the start above the ceiling and below the floor both leave paths
    assert gen_deutsch(2, start=5, ceiling=2)
    assert gen_deutsch(3, start=-2, floor=0, end_level=1)
    assert any(min(levels(p, up=2)) == -1 for p in gen_kdyck(2, 3, floor=-1))
    assert tally("deutsch", 2, "height", start=5, ceiling=2)[2] == \
        Counter({5: len(gen_deutsch(2, start=5, ceiling=2))})


@st.composite
def walks(draw):
    family = draw(st.sampled_from(("kdyck", "skew", "dual_skew", "motzkin", "deutsch",
                                   "retakh")))
    top = draw(st.integers(0, 8))
    end = draw(st.integers(0, 2))
    if family == "kdyck":
        k = draw(st.integers(1, 3))
        params = {"k": k, "floor": draw(st.integers(-1, 0)), "end_level": end}
        top = min(top, (7, 5, 4)[k - 1])
    elif family == "motzkin":
        colors = draw(st.integers(1, 3))
        params = {"horiz_colors": colors, "end_level": end,
                  "max_height": draw(st.one_of(st.none(), st.integers(0, 3)))}
        top = min(top, (8, 6, 5)[colors - 1])
    elif family == "deutsch":
        params = {"start": draw(st.integers(-2, 5)), "floor": draw(st.integers(-1, 1)),
                  "ceiling": draw(st.one_of(st.none(), st.integers(0, 3))), "end_level": end}
        top = min(top, 6)
    elif family == "retakh":
        params = {}
    else:
        params = {"end_level": end}
    return family, top, params, draw(st.sampled_from(STATS))


@settings(max_examples=40, deadline=None)
@given(case=walks())
def test_tally_property(case):
    family, top, params, stat = case
    assert_tally_classifies(family, top, params, (stat,))


def test_tally_rejects_what_it_cannot_count():
    with pytest.raises(ValueError):
        tally("binary", 3, "height")
    with pytest.raises(ValueError):
        tally("motzkin", 3, "red_count")
    # a negative top checks the params as any other top does
    with pytest.raises(ValueError, match="rise height k must be >= 1"):
        tally("kdyck", -1, "height", k=0)
    with pytest.raises(ValueError, match="horiz_colors must be >= 0"):
        tally("motzkin", -1, "height", horiz_colors=-1)
    assert tally("motzkin", -1, "height") == []
    assert tally("kdyck", 2, "height", k=2, end_level=9) == [Counter()] * 3


# ----------------------------------------------------------------------
# a DP over merged values: one rule call per state, move and distinct value
# of the rest, counted from the enumerated paths
# ----------------------------------------------------------------------

KEYED = {"skew", "dual_skew", "retakh"}


def peak_value(rest, up, level):
    """The peak-count rule's value of a rest of a path: twice its peaks, plus
    one if it starts with a fall."""
    falls_first = bool(rest) and step_delta(rest[0], up) < 0
    return 2 * len(path_stats(rest, up, level)["peak_heights"]) + falls_first


def downrun_value(rest, up, level):
    """The last-down-run rule's value of a rest of a path: twice its last run
    of unit falls, plus one if it is unit falls only."""
    return 2 * last_downrun_len(rest) + all(tok == "d" for tok in rest)


def rule_calls(family, top, params, value):
    """The distinct (steps left, level, previous token where the moves read
    it, step, value of the rest) over every step of the paths of sizes
    0..top: the rule calls of a tally that merges equal values."""
    up, found = params.get("k", 1), set()
    for size in range(top + 1):
        for path in gen(family, size, params):
            lv = levels(path, up=up, start=params.get("start", 0))
            for i, tok in enumerate(path):
                prev = path[i - 1] if i and family in KEYED else None
                found.add((len(path) - i, lv[i], prev, tok, value(path[i + 1:], up, lv[i + 1])))
    return len(found)


def count_rule_calls(monkeypatch, stat):
    """Record the level of each call of stat's step rule."""
    calls = []
    rule, empty, finish = paths._STEP_RULES[stat]
    monkeypatch.setitem(paths._STEP_RULES, stat, (
        lambda tok, level, rest: calls.append(level) or rule(tok, level, rest), empty, finish))
    return calls


@pytest.mark.parametrize("family,top,params", [
    ("skew", 10, {"end_level": 1}),
    ("dual_skew", 9, {}),
    ("motzkin", 8, {"horiz_colors": 2, "max_height": 3}),
    ("deutsch", 7, {"start": 2, "ceiling": 4, "end_level": 1}),
    ("retakh", 7, {}),
    ("kdyck", 5, {"k": 2, "floor": -1, "end_level": 1}),
])
def test_the_rule_runs_once_per_state_move_and_distinct_value_of_the_rest(
        family, top, params, monkeypatch):
    calls = count_rule_calls(monkeypatch, "peak_count")
    dists = tally(family, top, "peak_count", **params)
    assert len(calls) == rule_calls(family, top, params, peak_value)
    # the counts still total the paths
    n_paths = sum(len(gen(family, size, params)) for size in range(top + 1))
    assert sum(d.total() for d in dists) == n_paths


def test_check_hoppy_runs_the_rule_once_per_state_move_and_distinct_value(monkeypatch,
                                                                          capsys):
    calls = count_rule_calls(monkeypatch, "last_downrun_len")
    totals = []

    def totalled(*args, **params):
        dists = tally(*args, **params)
        totals.append(sum(d.total() for d in dists))
        return dists

    monkeypatch.setattr(cli, "tally_paths", totalled)
    assert cli.main(["check", "--family", "hoppy"]) == 0
    capsys.readouterr()
    assert len(calls) == sum(rule_calls("kdyck", 6, {"k": k}, downrun_value) for k in (2, 3))
    assert totals == [sum(len(gen_kdyck(k, n_up)) for n_up in range(7)) for k in (2, 3)]


# ----------------------------------------------------------------------
# reach: the DP totals against the closed forms, beyond enumeration
# ----------------------------------------------------------------------

def test_motzkin_height_totals_are_the_motzkin_numbers_to_60():
    dists = tally("motzkin", 60, "height")
    assert [d.total() for d in dists] == motzkin_numbers(60)
    assert dists[60][0] == 1 and max(dists[60]) == 30


def test_skew_height_totals_equal_the_closed_form_to_60():
    for j in range(4):
        dists = tally("skew", 60, "height", end_level=j)
        assert [d.total() for d in dists] == [skew_sj_coeff(n, j) for n in range(61)], j


def test_kernel_extractions_equal_the_object_tallies_to_60():
    # closed forms that are Kernel.coeff calls, against the objects they count
    def stat_sum(dist):
        return sum(value * count for value, count in dist.items())

    amplitudes = tally("motzkin", 60, "amplitude")
    peaks = tally("retakh", 60, "peak_count")
    bounded = [tally("motzkin", 60, "height", max_height=h) for h in range(6)]
    registers = [trees_tally("unary_binary", 60, "reg", a) for a in range(3)]
    for n in range(61):
        assert amplitude_total(n) == stat_sum(amplitudes[n]), n
        if n:  # a Retakh path of n pairs encodes a tree on n + 1 nodes, its peaks the leaves
            assert retakh_leaf_total(n + 1) == stat_sum(peaks[n]), n
            for a, dists in enumerate(registers):
                mean = Fraction(stat_sum(dists[n]), dists[n].total())
                assert horton_avg_reg(n, a) == mean, (n, a)
        for h, dists in enumerate(bounded):
            assert motzkin_bounded_coeff(n, h) == dists[n].total(), (n, h)


def test_a_walk_deeper_than_the_recursion_limit():
    top = 1200
    assert top > sys.getrecursionlimit()
    dists = tally("motzkin", top, "height", max_height=1)
    sizes = [*range(0, top, 50), top - 1, top]
    assert [dists[n].total() for n in sizes] == [motzkin_bounded_coeff(n, 1) for n in sizes]
    assert dists[top][0] == 1


def test_check_hoppy_keeps_no_path_values_after_it_returns():
    script = ("import io, contextlib\n"
              "from latticepaths import cli, paths\n"
              "def sizes():\n"
              "    return {name: len(value) for name, value in vars(paths).items()\n"
              "            if isinstance(value, (dict, list, set))}\n"
              "before = sizes()\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.main(['check', '--family', 'hoppy']) == 0\n"
              "caches = [value.cache_info().currsize for value in vars(paths).values()\n"
              "          if hasattr(value, 'cache_info')]\n"
              "print(sizes() == before, sum(caches))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the memo lives inside one tally call
    assert proc.stdout.split() == ["True", "0"]


# ----------------------------------------------------------------------
# check: the per-path bodies the tally replaced
# ----------------------------------------------------------------------

# The bodies read the closed forms through `cli`, as the checks do, so that
# `computed_once` can share each one between the two.

def old_check_end_levels(name, series, coeff, gen, budget):
    out = []
    top = min(budget, 12)
    for j in range(4):
        ser = series(j, top)
        ok = all(coeff(n, j) == cli._coeff_value(ser.coeff(n)) == len(gen(n, j))
                 for n in range(j, top + 1, 2))
        out.append((ok, f"{name} end-level {j}: formula = series = brute, n <= {top}"))
    return out


def old_check_hoppy(budget):
    out = []
    top = min(budget, 6)
    for k in (2, 3):
        ok = True
        for n_up in range(1, top + 1):
            paths_n = gen_kdyck(k, n_up)
            dist = Counter(last_downrun_len(p) for p in paths_n)
            for j in range(0, k * n_up + 2):
                if cli.deng_mansour_count(n_up, j, k) != dist.get(j, 0):
                    ok = False
            total = sum(j * c for j, c in dist.items())
            if total != cli.last_downrun_total(n_up, k):
                ok = False
        out.append((ok, f"k={k} last-down-run distribution and total, rises <= {top}"))
        ser = cli.hoppy_negative_series(k, budget)
        ok = all(cli.hoppy_negative_coeff(l, k) == cli._coeff_value(ser.coeff(l))
                 for l in range(budget + 1))
        out.append((ok, f"k={k} negative-territory closed form = series, {budget + 1} terms"))
        ok = True
        for j in range(1, budget + 1):
            lhs = cli.denom_Sj(j, k, budget) - cli.denom_Sj(j - 1, k, budget) \
                + cli.denom_Sj(j - k - 1, k, budget).shift(1).truncate(budget)
            if not lhs.is_zero:
                ok = False
        out.append((ok, f"k={k} denominator recursion S_j - S_(j-1) + z S_(j-k-1) = 0"))
    return out


def old_check_amplitude(budget):
    out = []
    top = min(budget, 10)
    ok = True
    for n in range(top + 1):
        horiz = Counter()
        nohoriz = Counter()
        for p in gen_motzkin(n):
            stats = path_stats(p)
            h = stats["height"]
            lv = levels(p)
            top_flat = any(tok.startswith("H") and lv[i] == h
                           for i, tok in enumerate(p))
            if stats["amplitude"] != 2 * h + (1 if top_flat else 0):
                ok = False
            (horiz if top_flat else nohoriz)[h] += 1
        for h in range(n + 1):
            if cli.amplitude_coeff(n, h, "horiz") != horiz.get(h, 0) \
                    or cli.amplitude_coeff(n, h, "no-horiz") != nohoriz.get(h, 0):
                ok = False
    out.append((ok, f"amplitude distribution = brute classification, n <= {top}"))
    ok = True
    for h in range(min(budget, 6) + 1):
        ser = cli.amplitude_series(h, "horiz", budget) \
            + cli.amplitude_series(h, "no-horiz", budget)
        for n in range(budget + 1):
            if cli._coeff_value(ser.coeff(n)) != cli.amplitude_coeff(n, h, "horiz") \
                    + cli.amplitude_coeff(n, h, "no-horiz"):
                ok = False
    out.append((ok, f"amplitude layer series = coefficient extraction, order {budget}"))
    return out


def old_check_motzkin_bounded(budget):
    out = []
    top = min(budget, 10)
    ok = True
    for h in range(4):
        ser = cli.motzkin_bounded(h, top)
        for n in range(top + 1):
            brute = len(gen_motzkin(n, max_height=h))
            if cli._coeff_value(ser.coeff(n)) != brute \
                    or cli.motzkin_bounded_coeff(n, h) != brute:
                ok = False
    out.append((ok, f"height-bounded counts: determinant = extraction = brute, n <= {top}"))
    return out


def old_check_deutsch(budget, m=5):
    if m < 1:
        raise ValueError("strip width --m must be >= 1")
    out = []
    order = min(budget, 12)
    ok = True
    for t in range(m):
        solved = latticepaths.deutsch_strip_solve(t, m, order)
        for j in range(m):
            closed = cli.deutsch_phi(t, j, order, bound=m)
            if not (closed - solved[j]).is_zero:
                ok = False
    out.append((ok, f"strip m={m}: kernel closed forms = band solve, order {order}"))
    top = min(budget, 9)
    ok = True
    for t in range(min(m, 3)):
        for j in range(min(m, 3)):
            closed = cli.deutsch_phi(t, j, top, bound=m)
            for n in range(top + 1):
                brute = sum(1 for p in gen_deutsch(n, start=t, ceiling=m - 1,
                                                   end_level=j))
                if cli._coeff_value(closed.coeff(n)) != brute:
                    ok = False
    out.append((ok, f"strip m={m}: closed forms = brute force, n <= {top}"))
    return out


def old_check_retakh(budget):
    out = []
    top = min(budget, 8)
    mo = cli.motzkin_numbers(top + 1)
    ok = True
    for m in range(1, top + 1):
        paths_m = gen_retakh(m)
        if len(paths_m) != mo[m]:
            ok = False
        stats = [path_stats(p) for p in paths_m]
        if sum(len(s["peak_heights"]) for s in stats) != cli.retakh_leaf_total(m + 1):
            ok = False
        if sum(s["height"] for s in stats) != cli.retakh_height_total(m + 1):
            ok = False
        dist = Counter(s["height"] for s in stats)
        for h in range(m + 2):
            if cli.retakh_bounded_count(m + 1, h) != sum(c for hh, c in dist.items()
                                                     if hh <= h):
                ok = False
    out.append((ok, f"restricted-path counts, leaves, heights, bounds = brute, "
                    f"pairs <= {top}"))
    return out


OLD_BODIES = {
    "skew": lambda budget: old_check_end_levels("skew", cli.skew_sj_series,
                                                skew_sj_coeff, gen_skew, budget),
    "dual": lambda budget: old_check_end_levels("dual", cli.dual_skew_Gj_series,
                                                dual_skew_coeff, gen_dual_skew, budget),
    "hoppy": old_check_hoppy,
    "amplitude": old_check_amplitude,
    "motzkin-bounded": old_check_motzkin_bounded,
    "deutsch-strip": old_check_deutsch,
    "retakh": old_check_retakh,
}


@pytest.fixture
def computed_once(monkeypatch):
    """Within one test, each closed form, generator call and path statistic
    is computed once, for the check and the per-path body alike."""
    for name, value in list(vars(cli).items()):
        if getattr(value, "__module__", "").endswith(("pathseries", "treeseries", "combinat")):
            monkeypatch.setattr(cli, name, lru_cache(maxsize=None)(value))
    this = sys.modules[__name__]
    for func in (gen_deutsch, gen_dual_skew, gen_kdyck, gen_motzkin, gen_retakh, gen_skew,
                 last_downrun_len, levels, path_stats):
        monkeypatch.setattr(this, func.__name__, lru_cache(maxsize=None)(func))


def run_both(family, argv, monkeypatch, capsys):
    assert cli.main(argv) == 0
    got = capsys.readouterr().out
    with monkeypatch.context() as patch:
        patch.setitem(cli.CHECKS, family, as_lines(OLD_BODIES[family]))
        assert cli.main(argv) == 0
    return got, capsys.readouterr().out


def without_vacuous_end_levels(out, budget):
    # the old end-level lines for j > n <= budget compared no value
    top = min(budget, 12)
    return "".join(line for line in out.splitlines(keepends=True)
                   if not any(f"end-level {j}:" in line for j in range(top + 1, 4)))


def run_list_tallies(argv, monkeypatch, capsys):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "tally_paths", old_paths_tally)
        patch.setattr(cli, "tally_trees", old_trees_tally)
        assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("family", sorted(OLD_BODIES) + ["horton", "ternary"])
def test_check_stdout_matches_per_path_body(family, computed_once, monkeypatch, capsys):
    # and the list tallies, the tree one for horton and ternary
    for budget in range(1, 13):
        argv = ["check", "--family", family, "--max", str(budget)]
        if family in OLD_BODIES:
            got, old = run_both(family, argv, monkeypatch, capsys)
            assert got == without_vacuous_end_levels(old, budget), budget
        else:
            assert cli.main(argv) == 0
            got = capsys.readouterr().out
        assert got == run_list_tallies(argv, monkeypatch, capsys), budget


def test_every_tally_a_check_reads_equals_the_list_tally(monkeypatch, capsys):
    read = {"tally_paths": set(), "tally_trees": set()}
    for name, calls in read.items():
        def recorded(*args, calls=calls, tally=getattr(cli, name), **params):
            calls.add((args, tuple(sorted(params.items()))))
            return tally(*args, **params)
        monkeypatch.setattr(cli, name, recorded)
    argvs = [["check", "--family", family, "--max", str(budget)]
             for family in cli.CHECKS for budget in range(1, 13)]
    argvs += [["check", "--family", "deutsch-strip", "--m", str(m)] for m in range(1, 7)]
    for argv in argvs:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert {args[0] for args, _ in read["tally_paths"]} == {"kdyck", "motzkin", "deutsch",
                                                            "retakh"}
    assert {args[:3] for args, _ in read["tally_trees"]} == {
        *(("unary_binary", top, "reg") for top in range(1, 10)),
        *(("ternary", top, "middle_edges") for top in range(1, 8)),
        *(("marked", top, stat) for top in range(1, 8) for stat in ("leaves", "height_nodes"))}
    for args, params in read["tally_paths"]:
        assert tally(*args, **dict(params)) == old_paths_tally(*args, **dict(params)), args
    for args, _ in read["tally_trees"]:
        assert trees_tally(*args) == old_trees_tally(*args), args


def test_check_deutsch_stdout_matches_per_path_body_at_every_width(computed_once, monkeypatch,
                                                                   capsys):
    for m in range(1, 7):
        argv = ["check", "--family", "deutsch-strip", "--m", str(m)]
        got, old = run_both("deutsch-strip", argv, monkeypatch, capsys)
        assert got == old, m
