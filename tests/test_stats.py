"""Per-object statistics against the plain recursive definitions.

`reg`, `tree_stats` and `path_stats` dispatch on the family once per call and
walk each object once.  The oracles below are the straightforward recursive
definitions, which dispatch at every node and build one dict per subtree;
both must agree on every object the generators produce.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticepaths import cli, pathseries, trees
from latticepaths.combinat import binomial
from latticepaths.paths import (
    gen_deutsch,
    gen_dual_skew,
    gen_kdyck,
    gen_motzkin,
    gen_retakh,
    gen_skew,
    levels,
    path_stats,
    step_delta,
)
from latticepaths.treeseries import unary_binary_count
from latticepaths.trees import (
    gen_binary,
    gen_hex,
    gen_marked,
    gen_multiedge,
    gen_ordered,
    gen_ternary,
    gen_unary_binary,
    reg,
    tree_stats,
)
from old_extractions import old_lambda_prime_x8


# ----------------------------------------------------------------------
# reference oracles: the recursive definitions
# ----------------------------------------------------------------------

def ref_reg(t, family="binary"):
    if family == "binary":
        if t is None:
            return 0
        a, b = ref_reg(t[0], family), ref_reg(t[1], family)
        return max(a, b) if a != b else a + 1
    if family == "unary_binary":
        if t is None:
            return 0
        if t[0] == "u":
            return ref_reg(t[2], family)
        a, b = ref_reg(t[1], family), ref_reg(t[2], family)
        return max(a, b) if a != b else a + 1
    if family == "hex":
        if t is None:
            return 0
        if t[0] == ".":
            return 1
        if t[0] == "2":
            a, b = ref_reg(t[1], family), ref_reg(t[2], family)
            return max(a, b) if a != b else a + 1
        return ref_reg(t[1], family)
    raise ValueError(family)


def _ref_children(t, family):
    if family == "binary":
        return [c for c in t if c is not None]
    if family == "unary_binary":
        return [c for c in (t[1:] if t[0] == "2" else t[2:]) if c is not None]
    if family == "hex":
        if t[0] == ".":
            return []
        return [c for c in t[1:] if c is not None]
    if family == "ordered":
        return list(t)
    if family in ("marked", "multiedge"):
        return [c for _, c in t]
    if family == "ternary":
        return [c for c in t if c is not None]
    raise ValueError(family)


def ref_tree_stats(t, family):
    if t is None:
        return {"leaves": 0, "height_nodes": 0, "height_edges": -1,
                "middle_edges": 0, "mark_count": 0}
    kids = _ref_children(t, family)
    sub = [ref_tree_stats(c, family) for c in kids]
    height_nodes = 1 + max((s["height_nodes"] for s in sub), default=0)
    middles = sum(s["middle_edges"] for s in sub)
    if family == "hex" and t[0] == "M":
        middles += 1
    if family == "ternary" and t[1] is not None:
        middles += 1
    marks = sum(s["mark_count"] for s in sub)
    if family == "marked":
        marks += sum(1 for m, _ in t if m)
    return {
        "leaves": 1 if not kids else sum(s["leaves"] for s in sub),
        "height_nodes": height_nodes,
        "height_edges": height_nodes - 1,
        "middle_edges": middles,
        "mark_count": marks,
    }


def ref_path_stats(path, up=1, start=0):
    lv = levels(path, up, start)
    top, bottom = max(lv), min(lv)
    flat_on_top = any(tok.startswith("H") and lv[i] == top for i, tok in enumerate(path))
    rising = {"U", "b"}
    peaks, valleys = [], []
    for i in range(len(path) - 1):
        a, b = path[i], path[i + 1]
        a_up, a_down = a in rising, step_delta(a, up) < 0
        b_up, b_down = b in rising, step_delta(b, up) < 0
        if a_up and b_down:
            peaks.append(lv[i + 1])
        elif a_down and b_up:
            valleys.append(lv[i + 1])
    run = 0
    for tok in reversed(path):
        if tok != "d":
            break
        run += 1
    return {
        "height": top,
        "amplitude": 2 * (top - bottom) + (1 if flat_on_top else 0),
        "red_count": sum(1 for t in path if t in ("r", "H0")),
        "blue_count": sum(1 for t in path if t in ("b", "H2")),
        "last_downrun_len": run,
        "peak_heights": peaks,
        "valley_heights": valleys,
    }


def ref_lambda_prime(j, i):
    return Fraction(2 ** i, 8) * (3 * binomial(-j, i) + 5 * binomial(1 - j, i)
                                  + binomial(2 - j, i) - binomial(3 - j, i))


# ----------------------------------------------------------------------
# every object of every generator family at small sizes
# ----------------------------------------------------------------------

TREE_TOP = 7
TREE_FAMILIES = {
    "binary": [gen_binary],
    "unary_binary": [lambda n, a=a: gen_unary_binary(n, a) for a in range(3)],
    "hex": [gen_hex],
    "ordered": [gen_ordered],
    "marked": [gen_marked],
    "multiedge": [gen_multiedge],
    "ternary": [gen_ternary],
}
REG_FAMILIES = ("binary", "unary_binary", "hex")


def _trees(family, top=TREE_TOP):
    return [t for gen in TREE_FAMILIES[family] for n in range(top + 1) for t in gen(n)]


@pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
def test_tree_stats_match_recursive_definition(family):
    trees = _trees(family)
    assert trees
    for t in trees:
        assert tree_stats(t, family) == ref_tree_stats(t, family)


@pytest.mark.parametrize("family", REG_FAMILIES)
def test_reg_matches_recursive_definition(family):
    for t in _trees(family):
        assert reg(t, family) == ref_reg(t, family)


def test_unknown_family_is_rejected_for_empty_trees_too():
    with pytest.raises(ValueError):
        tree_stats(None, "nonsense")
    with pytest.raises(ValueError):
        tree_stats(((), ()), "nonsense")
    with pytest.raises(ValueError):
        reg(None, "ordered")


PATH_CASES = {
    # label: (up-step height, start level, enumeration); lengths <= 10
    "motzkin": (1, 0, lambda: [p for n in range(11) for p in gen_motzkin(n)]),
    "motzkin-2": (1, 0, lambda: [p for n in range(9) for p in gen_motzkin(n, 2)]),
    "motzkin-3-capped": (1, 0, lambda: [
        p for n in range(8) for c in range(3)
        for p in gen_motzkin(n, 3, max_height=c, end_level=min(c, 1))]),
    "skew": (1, 0, lambda: [p for n in range(11) for j in range(4) for p in gen_skew(n, j)]),
    "dual": (1, 0, lambda: [p for n in range(11) for j in range(4)
                            for p in gen_dual_skew(n, j)]),
    **{f"kdyck-{k}": (k, 0, lambda k=k: [p for u in range(10 // (k + 1) + 1)
                                         for floor in (0, -1) for end in (0, 1)
                                         for p in gen_kdyck(k, u, end, floor)])
       for k in (1, 2, 3)},
    "deutsch": (1, 0, lambda: [p for n in range(11) for p in gen_deutsch(n)]),
    "deutsch-strip": (1, 1, lambda: [p for n in range(11) for p in
                                     gen_deutsch(n, start=1, ceiling=4, end_level=2)]),
    "retakh": (1, 0, lambda: [p for n in range(11) for p in gen_retakh(n)]),
}


@pytest.mark.parametrize("label", PATH_CASES)
def test_path_stats_match_recursive_definition(label):
    up, start, enumerate_paths = PATH_CASES[label]
    paths = enumerate_paths()
    assert paths
    for p in paths:
        assert path_stats(p, up, start) == ref_path_stats(p, up, start)


TOKENS = ("U", "d", "r", "b", "H0", "H1", "H2", "D1", "D2", "D3")


@settings(max_examples=200, deadline=None)
@given(path=st.lists(st.sampled_from(TOKENS), max_size=16).map(tuple),
       up=st.integers(1, 3), start=st.integers(-2, 3))
def test_path_stats_property(path, up, start):
    assert path_stats(path, up, start) == ref_path_stats(path, up, start)


@st.composite
def _generated_tree(draw):
    family = draw(st.sampled_from(sorted(TREE_FAMILIES)))
    gen = draw(st.sampled_from(TREE_FAMILIES[family]))
    trees = gen(draw(st.integers(0, 6)))
    t = draw(st.sampled_from(trees)) if trees else None
    return family, t


@settings(max_examples=200, deadline=None)
@given(case=_generated_tree())
def test_tree_statistics_property(case):
    family, t = case
    assert tree_stats(t, family) == ref_tree_stats(t, family)
    if family in REG_FAMILIES:
        assert reg(t, family) == ref_reg(t, family)


# ----------------------------------------------------------------------
# the brute route classifies each production's distinct child values once
# ----------------------------------------------------------------------

def test_check_horton_calls_reg_once_per_production_and_distinct_child_values(monkeypatch,
                                                                             capsys):
    # the tally applies the register rule once per production of a size and
    # choice of distinct child values, never recursing into a child
    calls = Counter()
    rule = trees._REG["unary_binary"]

    def counting_rule(head, kids):
        calls[head[0]] += 1
        return rule(head, kids)

    totals = []

    def totalled(*args):
        dists = trees.tally(*args)
        totals.append([d.total() for d in dists])
        return dists

    monkeypatch.setitem(trees._REG, "unary_binary", counting_rule)
    monkeypatch.setattr(cli, "tally_trees", totalled)
    assert cli.main(["check", "--family", "horton"]) == 0
    capsys.readouterr()
    want = Counter()
    for a in range(3):
        # the distinct register numbers of each size, from the trees themselves
        regs = [len({ref_reg(t, "unary_binary") for t in gen_unary_binary(n, a)})
                for n in range(9)]
        for n in range(1, 10):
            want["2"] += sum(regs[i] * regs[n - 1 - i] for i in range(n))
            want["u"] += a * regs[n - 1] if n > 1 else 0
    assert calls == want
    # the counts still total the trees
    assert totals == [[unary_binary_count(n, a) for n in range(10)] for a in range(3)]


def test_check_deutsch_eliminates_the_band_system_once_per_width(monkeypatch, capsys):
    solved = Counter()

    def counting_solutions(m, order):
        solved[m, order] += 1
        return pathseries._deutsch_strip_solutions(m, order)

    monkeypatch.setattr(cli, "_deutsch_strip_solutions", counting_solutions)
    assert cli.main(["check", "--family", "deutsch-strip"]) == 0
    assert cli.main(["check", "--family", "deutsch-strip", "--m", "3", "--max", "6"]) == 0
    capsys.readouterr()
    assert solved == {(5, 10): 1, (3, 6): 1}


def test_lambda_prime_is_eight_times_the_rational_formula():
    for j in range(6):
        for i in range(41):
            assert old_lambda_prime_x8(j, i) == 8 * ref_lambda_prime(j, i)
