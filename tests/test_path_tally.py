"""Path statistics tallied over the walker's shared suffixes.

`paths.tally` evaluates a family's move rule in a statistic's value algebra:
a path's value is a step rule's value on its first step, that step's level
and the value of its suffix, and the suffix values of each walk state are
listed once per call.  Here it is compared with per-path classification of
the `gen_*` output on a grid that exercises every walk bound, and the
per-path bodies of the `check` families that now read it stay below as
oracles for their output.
"""

import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticepaths
from latticepaths import cli, paths
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
    tally,
)

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
    assert tally("motzkin", -1, "height") == []
    assert tally("kdyck", 2, "height", k=2, end_level=9) == [Counter()] * 3


# ----------------------------------------------------------------------
# enumeration, not a DP: one value per suffix of an enumerated path
# ----------------------------------------------------------------------

KEYED = {"skew", "dual_skew", "retakh"}


def suffix_states(family, top, params):
    """Each distinct suffix of the paths of sizes 0..top with the state it
    starts from: (level, previous token where the moves read it, suffix)."""
    found = set()
    for size in range(top + 1):
        for path in gen(family, size, params):
            lv = levels(path, up=params.get("k", 1), start=params.get("start", 0))
            for i in range(len(path)):
                prev = path[i - 1] if i and family in KEYED else None
                found.add((lv[i], prev, path[i:]))
    return found


def count_rule_calls(monkeypatch, stat):
    """Record the level of each call of stat's step rule, and each value counted."""
    calls, counted = [], []
    rule, empty, finish = paths._STEP_RULES[stat]
    monkeypatch.setitem(paths._STEP_RULES, stat, (
        lambda tok, level, rest: calls.append(level) or rule(tok, level, rest), empty,
        lambda value: counted.append(value) or finish(value)))
    return calls, counted


@pytest.mark.parametrize("family,top,params", [
    ("skew", 10, {"end_level": 1}),
    ("dual_skew", 9, {}),
    ("motzkin", 8, {"horiz_colors": 2, "max_height": 3}),
    ("deutsch", 7, {"start": 2, "ceiling": 4, "end_level": 1}),
    ("retakh", 7, {}),
])
def test_the_rule_forms_one_value_per_suffix_and_the_tally_one_per_path(
        family, top, params, monkeypatch):
    calls, counted = count_rule_calls(monkeypatch, "peak_count")
    dists = tally(family, top, "peak_count", **params)
    n_paths = sum(len(gen(family, size, params)) for size in range(top + 1))
    # every suffix of every path is one rule call: equal values are never merged
    assert len(calls) == len(suffix_states(family, top, params))
    # and every path is counted once, at its size's start
    assert len(counted) == n_paths == sum(d.total() for d in dists)


def test_check_hoppy_forms_one_value_per_suffix_and_counts_each_path_once(monkeypatch,
                                                                         capsys):
    calls, counted = count_rule_calls(monkeypatch, "last_downrun_len")
    assert cli.main(["check", "--family", "hoppy"]) == 0
    capsys.readouterr()
    assert len(calls) == sum(len(suffix_states("kdyck", 6, {"k": k})) for k in (2, 3))
    assert len(counted) == sum(len(gen_kdyck(k, n_up)) for k in (2, 3) for n_up in range(7))


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
        solved = cli.deutsch_strip_solve(t, m, order)
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
                                                cli.skew_sj_coeff, gen_skew, budget),
    "dual": lambda budget: old_check_end_levels("dual", cli.dual_skew_Gj_series,
                                                cli.dual_skew_coeff, gen_dual_skew, budget),
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
        patch.setitem(cli.CHECKS, family, OLD_BODIES[family])
        assert cli.main(argv) == 0
    return got, capsys.readouterr().out


def without_vacuous_end_levels(out, budget):
    # the old end-level lines for j > n <= budget compared no value
    top = min(budget, 12)
    return "".join(line for line in out.splitlines(keepends=True)
                   if not any(f"end-level {j}:" in line for j in range(top + 1, 4)))


@pytest.mark.parametrize("family", sorted(OLD_BODIES))
def test_check_stdout_matches_per_path_body(family, computed_once, monkeypatch, capsys):
    for budget in range(1, 13):
        argv = ["check", "--family", family, "--max", str(budget)]
        got, old = run_both(family, argv, monkeypatch, capsys)
        assert got == without_vacuous_end_levels(old, budget), budget


def test_check_deutsch_stdout_matches_per_path_body_at_every_width(computed_once, monkeypatch,
                                                                   capsys):
    for m in range(1, 7):
        argv = ["check", "--family", "deutsch-strip", "--m", str(m)]
        got, old = run_both("deutsch-strip", argv, monkeypatch, capsys)
        assert got == old, m
