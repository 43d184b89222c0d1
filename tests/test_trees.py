"""Tree generators: counts against reference sequences, register numbers,
and statistics on small exhaustive sets.

All seven tree families are declared once as productions.  One cached
evaluator builds their trees (`gen_*`); `tally` counts one statistic's
values per size, value -> number of trees, without building them, and
`reg` / `tree_stats` / `tree_size` fold the same rules over one tree.  The
list builders (node families and the hand-written ordered, marked and
multi-edge generators), the per-family streamed generators, the
build-and-fold tally, the list tally (`old_tallies`) and the recursive
statistics they replaced stay below as oracles, and so do the per-object
bodies of `check --family horton`, `ternary` and `marked`.
"""

import math
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import product, repeat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticepaths
from latticepaths import cli, trees
from latticepaths.combinat import a002212_terms, catalan, motzkin_numbers
from latticepaths.treeseries import (
    horton_Rp,
    marked_count,
    marked_height_total,
    marked_leaf_total,
    ternary_row,
    ternary_row_sum,
    ternary_T,
    unary_binary_count,
)
from latticepaths.trees import (
    STAT_FIELDS,
    gen_binary,
    gen_hex,
    gen_marked,
    gen_multiedge,
    gen_ordered,
    gen_ternary,
    gen_unary_binary,
    reg,
    tally,
    tree_size,
    tree_stats,
    values,
)
from old_checks import as_lines
from old_tallies import old_trees_tally

SRC = Path(latticepaths.__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# counts
# ----------------------------------------------------------------------

def test_binary_counts_are_catalan():
    assert [len(gen_binary(n)) for n in range(8)] == [catalan(n) for n in range(8)]


def test_unary_binary_counts_by_color():
    # zero unary colors degenerates to binary trees
    assert [len(gen_unary_binary(n, a=0)) for n in range(7)] == [catalan(n) for n in range(7)]
    seq = a002212_terms(6)
    assert [len(gen_unary_binary(n, a=1)) for n in range(7)] == seq
    # two colors; values agree with the trinomial closed form of weight a+2=4
    counts = [len(gen_unary_binary(n, a=2)) for n in range(5)]
    assert counts == [1, 1, 4, 17, 76]


def test_hex_counts_match_one_color_unary_binary():
    for n in range(7):
        assert len(gen_hex(n)) == len(gen_unary_binary(n, a=1))


def test_ordered_counts():
    assert gen_ordered(0) == []
    assert [len(gen_ordered(n)) for n in range(1, 7)] == [catalan(n - 1) for n in range(1, 7)]


def test_marked_counts():
    assert [len(gen_marked(n)) for n in range(1, 7)] == [1, 1, 3, 10, 36, 137]


def test_multiedge_counts():
    m3 = motzkin_numbers(5, colors=3)
    assert [len(gen_multiedge(w)) for w in range(1, 7)] == m3


def test_multiedge_small_enumeration():
    assert gen_multiedge(2) == [
        ((1, ()), (1, ())),
        ((1, ((1, ()),)),),
        ((2, ()),),
    ]


def test_ternary_counts():
    want = [math.comb(3 * n, n) // (2 * n + 1) for n in range(6)]
    assert [len(gen_ternary(n)) for n in range(6)] == want


@pytest.mark.parametrize("gen", [gen_binary, lambda n: gen_unary_binary(n, 1),
                                 lambda n: gen_unary_binary(n, 2), gen_hex, gen_ternary,
                                 gen_ordered, gen_marked, gen_multiedge],
                         ids=["binary", "unary_binary-a1", "unary_binary-a2", "hex", "ternary",
                              "ordered", "marked", "multiedge"])
@pytest.mark.parametrize("n", [-1, -2, -5])
def test_negative_sizes_have_no_trees(gen, n):
    assert gen(n) == []


def test_size_zero():
    # sizes count nodes (ordered, marked), internal nodes (binary ...) or edge weight
    assert gen_ordered(0) == gen_marked(0) == []
    assert gen_multiedge(0) == [()]
    assert gen_binary(0) == gen_hex(0) == gen_ternary(0) == [None]
    assert gen_unary_binary(0, 0) == gen_unary_binary(0, 2) == [None]


def test_negative_colour_count_is_rejected():
    # size 0 reads no production, so the count is checked before it
    message = "number of extra unary colours a must be >= 0"
    for n, a in product((0, 1, 3), (-1, -2)):
        with pytest.raises(ValueError, match=message):
            gen_unary_binary(n, a)
        with pytest.raises(ValueError, match=message):
            tally("unary_binary", n, "reg", a)
        with pytest.raises(ValueError, match=message):
            tally("unary_binary", n + 1, "leaves", a)
        with pytest.raises(ValueError, match=message):
            unary_binary_count(n, a)


# ----------------------------------------------------------------------
# sizes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family,gen,sizes", [
    ("binary", gen_binary, range(5)),
    ("unary_binary", lambda n: gen_unary_binary(n, 1), range(5)),
    ("hex", gen_hex, range(5)),
    ("ordered", gen_ordered, range(1, 6)),
    ("marked", gen_marked, range(1, 6)),
    ("multiedge", gen_multiedge, range(1, 6)),
    ("ternary", gen_ternary, range(4)),
])
def test_tree_size_matches_generator_argument(family, gen, sizes):
    for n in sizes:
        for t in gen(n):
            assert tree_size(t, family) == n


def test_tree_size_unknown_family():
    with pytest.raises(ValueError):
        tree_size(None, "nosuch")


# ----------------------------------------------------------------------
# register numbers
# ----------------------------------------------------------------------

def test_reg_base_cases():
    assert reg(None) == 0
    assert reg((None, None)) == 1
    assert reg(((None, None), (None, None))) == 2
    # a comb never needs more than one register
    comb = (None, None)
    for _ in range(5):
        comb = (comb, None)
    assert reg(comb) == 1


def test_reg_complete_binary_tree():
    t = None
    for depth in range(5):
        t = (t, t) if t is not None else (None, None)
        assert reg(t) == depth + 1


def test_reg_unary_edges_pass_through():
    child = ("2", None, None)
    assert reg(("u", 0, child), "unary_binary") == reg(child, "unary_binary") == 1


def test_reg_hex_bare_node():
    assert reg((".",), "hex") == 1
    assert reg(("M", (".",)), "hex") == 1
    assert reg(("2", (".",), (".",)), "hex") == 2


def test_reg_level_one_binary_counts():
    # exactly one register: zigzag chains, 2^(n-1) of them
    for n in range(1, 7):
        got = sum(1 for t in gen_binary(n) if reg(t) == 1)
        assert got == 2 ** (n - 1)


def test_reg_rejects_unscored_family():
    with pytest.raises(ValueError):
        reg((), "ordered")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def test_tree_stats_empty_tree():
    st = tree_stats(None, "binary")
    assert st["height_nodes"] == 0 and st["height_edges"] == -1
    assert st["leaves"] == 0


def test_tree_stats_hand_examples():
    st = tree_stats(((), ()), "ordered")
    assert st["leaves"] == 2
    assert st["height_nodes"] == 2 and st["height_edges"] == 1

    st = tree_stats(("M", (".",)), "hex")
    assert st["middle_edges"] == 1

    st = tree_stats((None, (None, None, None), None), "ternary")
    assert st["middle_edges"] == 1
    st = tree_stats(((None, None, None), None, None), "ternary")
    assert st["middle_edges"] == 0


def test_tree_stats_marks():
    counts = Counter(tree_stats(t, "marked")["mark_count"] for t in gen_marked(3))
    assert counts == {0: 2, 1: 1}


def test_ternary_middle_edge_distribution():
    rows = {
        1: [1],
        2: [2, 1],
        3: [5, 6, 1],
        4: [14, 28, 12, 1],
    }
    for n, row in rows.items():
        got = Counter(tree_stats(t, "ternary")["middle_edges"] for t in gen_ternary(n))
        assert [got.get(k, 0) for k in range(n)] == row


def test_marked_tree_leaves_ignore_marks():
    # a marked edge does not change which nodes are leaves
    for t in gen_marked(4):
        plain = tree_stats(t, "marked")
        assert plain["leaves"] >= 1
        assert plain["height_nodes"] <= 4


def _deep(make, depth):
    t = None
    for _ in range(depth):
        t = make(t)
    return t


@pytest.mark.parametrize("family,make,depth", [
    ("unary_binary", lambda t: ("u", 0, t) if t else ("2", None, None), 10_000),
    ("unary_binary", lambda t: ("2", t, None), 5_000),
    ("binary", lambda t: (t, None), 5_000),
], ids=["unary_binary-chain", "unary_binary-comb", "binary-comb"])
def test_folds_have_no_depth_limit(family, make, depth):
    t = _deep(make, depth)
    assert tree_size(t, family) == depth
    assert reg(t, family) == 1
    assert tree_stats(t, family) == {"leaves": 1, "height_nodes": depth,
                                     "height_edges": depth - 1, "middle_edges": 0,
                                     "mark_count": 0}


# ----------------------------------------------------------------------
# oracles: the list builders and the recursive statistics that the streamed
# levels and the node rules replaced
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def old_binary(n):
    if n == 0:
        return (None,)
    out = []
    for i in range(n):
        for left in old_binary(i):
            for right in old_binary(n - 1 - i):
                out.append((left, right))
    return tuple(out)


@lru_cache(maxsize=None)
def old_unary_binary(n, a):
    if n == 0:
        return (None,)
    out = []
    for i in range(n):
        for left in old_unary_binary(i, a):
            for right in old_unary_binary(n - 1 - i, a):
                out.append(("2", left, right))
    for color in range(a):
        for child in old_unary_binary(n - 1, a):
            if child is not None:
                out.append(("u", color, child))
    return tuple(out)


@lru_cache(maxsize=None)
def old_hex(n):
    if n == 0:
        return (None,)
    if n == 1:
        return ((".",),)
    out = []
    for slot in ("L", "M", "R"):
        for child in old_hex(n - 1):
            if child is not None:
                out.append((slot, child))
    for i in range(1, n - 1):
        for left in old_hex(i):
            if left is None:
                continue
            for right in old_hex(n - 1 - i):
                if right is not None:
                    out.append(("2", left, right))
    return tuple(out)


@lru_cache(maxsize=None)
def old_ternary(n):
    if n == 0:
        return (None,)
    out = []
    for i in range(n):
        for j in range(n - i):
            for left in old_ternary(i):
                for middle in old_ternary(j):
                    for right in old_ternary(n - 1 - i - j):
                        out.append((left, middle, right))
    return tuple(out)


OLD_BUILDERS = {
    "binary": lambda n, a: old_binary(n),
    "unary_binary": old_unary_binary,
    "hex": lambda n, a: old_hex(n),
    "ternary": lambda n, a: old_ternary(n),
}
CACHED = {family: lambda n, a, family=family: trees._level(family, n, a)
          for family in OLD_BUILDERS}


def streamed(family, n, a):
    """One level evaluated afresh in the tree algebra, from the cached levels
    below it."""
    if n == 0:
        return (None,)
    return tuple(trees._construct(trees._PRODUCTIONS[family](n, a),
                                  lambda child: trees._level(*child, a), trees._MAKE[family]))


STREAMED = {family: lambda n, a, family=family: streamed(family, n, a) for family in CACHED}


# The hand-written generators of the cons families, verbatim but for the
# old_ prefix

@lru_cache(maxsize=None)
def old_ordered(n: int) -> tuple:
    return tuple(old_forests(n - 1, old_ordered))


def old_forests(total: int, gen_one) -> list:
    """All tuples of trees whose sizes (>= 1 each) sum to total."""
    if total == 0:
        return [()]
    out = []
    for first_size in range(1, total + 1):
        for first in gen_one(first_size):
            for rest in old_forests(total - first_size, gen_one):
                out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def old_marked(n: int) -> tuple:
    # n nodes; the last edge of a node may be marked if its child is internal
    if n < 1:
        return ()
    if n == 1:
        return ((),)
    out = []
    for plain in old_marked_forests(n - 1):
        out.append(plain)
        last_child = plain[-1][1]
        if last_child != ():
            out.append(plain[:-1] + ((True, last_child),))
    return tuple(out)


def old_marked_forests(total: int) -> list:
    return [tuple((False, child) for child in forest) for forest in old_forests(total, old_marked)]


@lru_cache(maxsize=None)
def old_multiedge(w: int) -> tuple:
    if w == 0:
        return ((),)
    out = []
    for first_mult in range(1, w + 1):
        for first_weight in range(0, w - first_mult + 1):
            for child in old_multiedge(first_weight):
                for rest in old_multiedge(w - first_mult - first_weight):
                    out.append(((first_mult, child),) + rest)
    return tuple(out)


OLD_CONS_BUILDERS = {
    # the old public wrappers: gen_ordered(n) was list(_ordered(n)) if n >= 1 else []
    "ordered": (gen_ordered, lambda n: list(old_ordered(n)) if n >= 1 else [], 10),
    "marked": (gen_marked, lambda n: list(old_marked(n)), 9),
    "multiedge": (gen_multiedge, lambda n: list(old_multiedge(n)), 8),
}


@pytest.mark.parametrize("family", sorted(OLD_CONS_BUILDERS))
def test_cons_families_equal_the_old_generators(family):
    gen, old, top = OLD_CONS_BUILDERS[family]
    for n in range(-2, top + 1):
        assert gen(n) == old(n), n


def old_reg_binary(t):
    left, right = t
    a = 0 if left is None else old_reg_binary(left)
    b = 0 if right is None else old_reg_binary(right)
    return a + 1 if a == b else (a if a > b else b)


def old_reg_unary_binary(t):
    while t[0] == "u":
        t = t[2]
        if t is None:
            return 0
    _, left, right = t
    a = 0 if left is None else old_reg_unary_binary(left)
    b = 0 if right is None else old_reg_unary_binary(right)
    return a + 1 if a == b else (a if a > b else b)


def old_reg_hex(t):
    while t[0] not in ("2", "."):
        t = t[1]
        if t is None:
            return 0
    if t[0] == ".":
        return 1
    _, left, right = t
    a = 0 if left is None else old_reg_hex(left)
    b = 0 if right is None else old_reg_hex(right)
    return a + 1 if a == b else (a if a > b else b)


OLD_REG = {"binary": old_reg_binary, "unary_binary": old_reg_unary_binary, "hex": old_reg_hex}


def old_reg(t, family):
    return 0 if t is None else OLD_REG[family](t)


def old_stats(t, split):
    """(leaves, height_nodes, middle_edges, mark_count) of a non-empty tree."""
    kids, middles, marks = split(t)
    if not kids:
        return 1, 1, middles, marks
    leaves = height = 0
    for kid in kids:
        kid_leaves, kid_height, kid_middles, kid_marks = old_stats(kid, split)
        leaves += kid_leaves
        middles += kid_middles
        marks += kid_marks
        if kid_height > height:
            height = kid_height
    return leaves, height + 1, middles, marks


def old_stat(t, family, stat):
    if stat == "reg":
        return old_reg(t, family)
    values = (0, 0, 0, 0) if t is None else old_stats(t, OLD_SPLIT[family])
    return values[STAT_FIELDS.index(stat)]


# ----------------------------------------------------------------------
# oracles: the per-family streamed generators and the build-and-fold tally
# (cached levels, children's values in an id memo, streamed largest size)
# that the productions and their value algebra replaced
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def level_binary(n):
    return tuple(iter_binary(n))


def iter_binary(n):
    if n == 0:
        yield None
        return
    for i in range(n):
        rights = level_binary(n - 1 - i)
        for left in level_binary(i):
            for right in rights:
                yield (left, right)


@lru_cache(maxsize=None)
def level_unary_binary(n, a):
    return tuple(iter_unary_binary(n, a))


def iter_unary_binary(n, a):
    if n < 0:
        return
    if n == 0:
        yield None
        return
    for i in range(n):
        rights = level_unary_binary(n - 1 - i, a)
        for left in level_unary_binary(i, a):
            for right in rights:
                yield ("2", left, right)
    for color in range(a):
        for child in level_unary_binary(n - 1, a):
            if child is not None:
                yield ("u", color, child)


@lru_cache(maxsize=None)
def level_hex(n):
    return tuple(iter_hex(n))


def iter_hex(n):
    if n < 0:
        return
    if n == 0:
        yield None
        return
    if n == 1:
        yield (".",)
        return
    for slot in ("L", "M", "R"):
        for child in level_hex(n - 1):
            yield (slot, child)
    for i in range(1, n - 1):
        rights = level_hex(n - 1 - i)
        for left in level_hex(i):
            for right in rights:
                yield ("2", left, right)


@lru_cache(maxsize=None)
def level_ternary(n):
    return tuple(iter_ternary(n))


def iter_ternary(n):
    if n == 0:
        yield None
        return
    for i in range(n):
        for j in range(n - i):
            middles = level_ternary(j)
            rights = level_ternary(n - 1 - i - j)
            for left in level_ternary(i):
                for middle in middles:
                    for right in rights:
                        yield (left, middle, right)


# (cached level, streamed level), both called with (n, a)
OLD_BUILT = {
    "binary": (lambda n, a: level_binary(n), lambda n, a: iter_binary(n)),
    "unary_binary": (level_unary_binary, iter_unary_binary),
    "hex": (lambda n, a: level_hex(n), lambda n, a: iter_hex(n)),
    "ternary": (lambda n, a: level_ternary(n), lambda n, a: iter_ternary(n)),
}


def old_branch(a, b):
    return a + 1 if a == b else (a if a > b else b)


def old_rule_reg_binary(t, val):
    return old_branch(val(t[0]), val(t[1]))


def old_rule_reg_unary_binary(t, val):
    return val(t[2]) if t[0] == "u" else old_branch(val(t[1]), val(t[2]))


def old_rule_reg_hex(t, val):
    if t[0] == ".":
        return 1
    return val(t[1]) if t[0] != "2" else old_branch(val(t[1]), val(t[2]))


OLD_RULE_REG = {"binary": old_rule_reg_binary, "unary_binary": old_rule_reg_unary_binary,
                "hex": old_rule_reg_hex}


def _nonempty(kids):
    return [c for c in kids if c is not None]


# a node's (non-empty children, middle edges leaving it, marked edges leaving it)
OLD_SPLIT = {
    "binary": lambda t: (_nonempty(t), 0, 0),
    "unary_binary": lambda t: (_nonempty(t[1:] if t[0] == "2" else t[2:]), 0, 0),
    "hex": lambda t: ([] if t[0] == "." else _nonempty(t[1:]), int(t[0] == "M"), 0),
    "ordered": lambda t: (t, 0, 0),
    "marked": lambda t: ([c for _, c in t], 0, sum(1 for m, _ in t if m)),
    "multiedge": lambda t: ([c for _, c in t], 0, 0),
    "ternary": lambda t: (_nonempty(t), int(t[1] is not None), 0),
}


def old_rule_stats(split):
    def rule(t, val):
        kids, middles, marks = split(t)
        leaves = height = 0
        for kid in kids:
            kid_leaves, kid_height, kid_middles, kid_marks = val(kid)
            leaves += kid_leaves
            middles += kid_middles
            marks += kid_marks
            if kid_height > height:
                height = kid_height
        return leaves or 1, height + 1, middles, marks
    return rule


OLD_RULE_STATS = {family: old_rule_stats(split) for family, split in OLD_SPLIT.items()}


def old_tally(family, top, stat, a=1):
    """Build every tree and classify it by one node rule, reading its
    children's values by id from the levels below (kept alive by their
    caches).  stat is "reg" or "stats"; the Counters are of whole values."""
    rule, empty = (OLD_RULE_REG[family], 0) if stat == "reg" else (OLD_RULE_STATS[family],
                                                                    (0, 0, 0, 0))
    cached, stream = OLD_BUILT[family]
    values = {id(None): empty}

    def val(child):
        return values[id(child)]

    dists = [Counter([empty])]
    for size in range(1, top + 1):
        if size < top:
            level = cached(size, a)
            level_values = list(map(rule, level, repeat(val)))
            values.update(zip(map(id, level), level_values))
        else:
            level_values = map(rule, stream(size, a), repeat(val))
        dists.append(Counter(level_values))
    return dists


def marginal(dist, field):
    out = Counter()
    for value, count in dist.items():
        out[value[STAT_FIELDS.index(field)]] += count
    return out


def clear_old_levels():
    for level in (level_binary, level_unary_binary, level_hex, level_ternary):
        level.cache_clear()


# ----------------------------------------------------------------------
# streamed levels and the tally against the oracles
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family,top,colors", [
    ("binary", 8, (0,)),
    ("unary_binary", 7, range(4)),
    ("hex", 8, (0,)),
    ("ternary", 7, (0,)),
])
def test_streamed_levels_equal_the_old_builders(family, top, colors):
    for a in colors:
        for n in range(top + 1):
            streamed = STREAMED[family](n, a)
            assert streamed == CACHED[family](n, a) == OLD_BUILDERS[family](n, a), (n, a)
            assert streamed == tuple(OLD_BUILT[family][1](n, a)), (n, a)
    assert gen_unary_binary(5, 2) == list(old_unary_binary(5, 2))
    assert gen_ternary(5) == list(old_ternary(5))


@pytest.mark.parametrize("family", sorted(OLD_REG))
def test_reg_rule_matches_old_recursive_helper(family):
    for n in range(8):
        for t in OLD_BUILDERS[family](n, 2):
            assert reg(t, family) == old_reg(t, family)


@pytest.mark.parametrize("a", range(4))
def test_register_tally_matches_old_helper_on_unary_binary_trees(a):
    top = 9
    dists = tally("unary_binary", top, "reg", a)
    assert len(dists) == top + 1
    for n in range(top):
        assert dists[n] == Counter(old_reg(t, "unary_binary") for t in old_unary_binary(n, a))
    # the largest size is streamed here, to keep it out of memory
    try:
        assert dists[top] == Counter(old_reg_unary_binary(t)
                                     for t in iter_unary_binary(top, a))
    finally:
        clear_old_levels()
    assert [sum(d.values()) for d in dists] == [unary_binary_count(n, a)
                                                for n in range(top + 1)]


@pytest.mark.parametrize("family,top,a", [
    ("binary", 10, 0),
    ("hex", 10, 0),
    ("ternary", 7, 0),
    *(("unary_binary", 9, a) for a in range(3)),
    ("unary_binary", 8, 3),
])
def test_tally_matches_the_build_and_fold_tally(family, top, a):
    # and the list tally, statistic by statistic
    try:
        if family != "ternary":
            got = tally(family, top, "reg", a)
            assert got == old_tally(family, top, "reg", a)
            assert got == old_trees_tally(family, top, "reg", a)
        want = old_tally(family, top, "stats", a)
    finally:
        clear_old_levels()
    for field in STAT_FIELDS:
        got = tally(family, top, field, a)
        assert got == [marginal(d, field) for d in want], field
        assert got == old_trees_tally(family, top, field, a), field


def test_middle_edge_tally_matches_tree_stats_on_ternary_trees():
    dists = tally("ternary", 7, "middle_edges")
    for n in range(8):
        assert dists[n] == Counter(old_stat(t, "ternary", "middle_edges")
                                   for t in old_ternary(n))
        assert dists[n] == Counter(tree_stats(t, "ternary")["middle_edges"]
                                   for t in gen_ternary(n))


def test_middle_edge_rule_runs_once_per_production_and_distinct_child_counts(monkeypatch):
    # the rule reads the children's middle-edge counts alone, so trees that
    # differ only in other statistics merge before it runs
    rule = trees._RULES["middle_edges"]["ternary"]
    calls, kinds = Counter(), set()

    def counting_rule(node, kids):
        calls[node] += 1
        kinds.update(map(type, kids))
        return rule(node, kids)

    monkeypatch.setitem(trees._RULES["middle_edges"], "ternary", counting_rule)
    top = 10
    dists = tally("ternary", top, "middle_edges")
    assert kinds == {int}
    # the distinct middle-edge counts of each size, from the closed form
    distinct = [sum(1 for c in ternary_row(n) if c) for n in range(top)]
    want = Counter()
    for n in range(1, top + 1):
        for head, children in trees._PRODUCTIONS["ternary"](n, 0):
            sizes = tuple(size for _, size in children)
            # a production's stand-in node is its head then its children's sizes
            want[head + sizes] += math.prod(distinct[size] for size in sizes)
    assert calls == want
    assert [sorted(d.items()) for d in dists] == [list(enumerate(ternary_row(n)))
                                                 for n in range(top + 1)]


def test_middle_edge_tally_reaches_size_24():
    top = 24
    dists = tally("ternary", top, "middle_edges")
    assert dists[0] == Counter({0: 1})
    for n in range(1, top + 1):
        assert sorted(dists[n]) == list(range(n)), n
        assert [dists[n][k] for k in range(n)] == [ternary_T(n, k) for k in range(n)], n
        assert dists[n].total() == ternary_row_sum(n), n


def test_statistics_keep_their_keys_and_their_refusals():
    samples = {"binary": gen_binary, "unary_binary": gen_unary_binary, "hex": gen_hex,
               "ordered": gen_ordered, "marked": gen_marked, "multiedge": gen_multiedge,
               "ternary": gen_ternary}
    keys = ["leaves", "height_nodes", "height_edges", "middle_edges", "mark_count"]
    for family, gen in samples.items():
        for t in (None, *gen(3)):
            assert list(tree_stats(t, family)) == keys, (family, t)
    for args in (("ternary", 3, "reg"), ("marked", 3, "reg"), ("multiedge", 3, "reg"),
                 ("binary", 3, "nosuch")):
        with pytest.raises(ValueError):
            tally(*args)


GENERATORS = {"binary": lambda n, a: gen_binary(n), "unary_binary": gen_unary_binary,
              "hex": lambda n, a: gen_hex(n), "ternary": lambda n, a: gen_ternary(n),
              "ordered": lambda n, a: gen_ordered(n), "marked": lambda n, a: gen_marked(n),
              "multiedge": lambda n, a: gen_multiedge(n)}


@pytest.mark.parametrize("family, stat", [(family, stat) for stat, rules in trees._RULES.items()
                                          for family in rules])
def test_values_equal_the_fold_over_every_tree_in_order(family, stat):
    # the unmerged twin of the tally: one value per tree, in the order of gen_*
    assert set(GENERATORS) == set(trees._CHILDREN)
    for a in ((0, 1, 2) if family == "unary_binary" else (1,)):
        listed = values(family, 7, stat, a)
        assert listed == [tuple(trees._stat(t, family, stat) for t in GENERATORS[family](n, a))
                          for n in range(8)], a
        assert [Counter(level) for level in listed] == tally(family, 7, stat, a), a


def test_values_refuse_what_the_tally_refuses():
    for args in (("ternary", 3, "reg"), ("binary", 3, "edges"), ("marked_last", 3, "edges"),
                 ("nosuch", 3, "leaves")):
        with pytest.raises(ValueError):
            values(*args)
    with pytest.raises(ValueError):
        values("unary_binary", 0, "reg", -1)
    assert values("binary", -1, "reg") == []
    assert values("multiedge", 0, "edges") == [(0,)]


# every family's old builder, called with (n, a)
OLD_TREES = {**OLD_BUILDERS, **{family: lambda n, a, old=old: old(n)
                                for family, (_, old, _) in OLD_CONS_BUILDERS.items()}}


@settings(max_examples=120, deadline=None)
@given(family=st.sampled_from(sorted(OLD_TREES)), top=st.integers(0, 6),
       a=st.integers(0, 3), stat=st.sampled_from(("reg",) + STAT_FIELDS))
def test_tally_property(family, top, a, stat):
    if stat == "reg" and family not in OLD_REG:
        with pytest.raises(ValueError):
            tally(family, top, stat, a)
        return
    dists = tally(family, top, stat, a)
    assert dists == old_trees_tally(family, top, stat, a)
    for n in range(top + 1):
        assert dists[n] == Counter(old_stat(t, family, stat)
                                   for t in OLD_TREES[family](n, a)), n


@pytest.mark.parametrize("a", range(3))
def test_register_tally_reaches_size_60(a):
    top = 60
    dists = tally("unary_binary", top, "reg", a)
    assert [d.total() for d in dists] == [unary_binary_count(n, a) for n in range(top + 1)]
    for p in range(1, 4):
        layer = horton_Rp(p, a, top)
        assert [d[p] for d in dists] == [cli._coeff_value(layer.coeff(n))
                                         for n in range(top + 1)], p


def test_tally_default_colour_count_is_that_of_the_generator():
    default = tally("unary_binary", 6, "reg")
    assert default == tally("unary_binary", 6, "reg", 1) != tally("unary_binary", 6, "reg", 2)
    assert [d.total() for d in default] == [len(gen_unary_binary(n)) for n in range(7)]
    listed = values("unary_binary", 6, "reg")
    assert listed == values("unary_binary", 6, "reg", 1) != values("unary_binary", 6, "reg", 2)
    assert [len(level) for level in listed] == [len(gen_unary_binary(n)) for n in range(7)]


def test_tally_rejects_families_and_statistics_it_cannot_build():
    # the helper classes of the marked declaration are not families, and
    # the cons families have no register number
    for family in ("marked_last", "mark", "nosuch"):
        for stat in ("reg",) + STAT_FIELDS:
            with pytest.raises(ValueError):
                tally(family, 3, stat)
    for family in OLD_CONS_BUILDERS:
        with pytest.raises(ValueError):
            tally(family, 3, "reg")
    with pytest.raises(ValueError):
        tally("binary", 3, "height_edges")
    assert tally("binary", -1, "reg") == []


@pytest.mark.parametrize("family", sorted(OLD_CONS_BUILDERS))
def test_cons_tally_equals_the_fold_over_every_tree(family):
    gen = OLD_CONS_BUILDERS[family][0]
    stats = [stat for stat, rules in trees._RULES.items() if family in rules]
    assert stats == list(STAT_FIELDS) + ["edges"]
    for stat in stats:
        assert tally(family, 9, stat) == [Counter(trees._stat(t, family, stat) for t in gen(n))
                                          for n in range(10)], stat


def test_marked_tallies_reach_size_60():
    top = 60
    ns = range(1, top + 1)
    leaves, heights = (tally("marked", top, stat) for stat in ("leaves", "height_nodes"))
    assert leaves[0] == heights[0] == Counter()
    assert [leaves[n].total() for n in ns] == [heights[n].total() for n in ns] \
        == [marked_count(n) for n in ns]
    assert [cli._total(leaves[n]) for n in ns] == [marked_leaf_total(n) for n in ns]
    assert [cli._total(heights[n]) for n in ns] == [marked_height_total(n) for n in ns]


def test_ordered_and_multiedge_tallies_reach_size_60():
    # the counts, under a statistic whose distributions have one value
    top = 60
    assert [d.total() for d in tally("ordered", top, "middle_edges")] \
        == [0] + [catalan(n - 1) for n in range(1, top + 1)]
    assert [d.total() for d in tally("multiedge", top, "mark_count")] \
        == [1] + motzkin_numbers(top - 1, colors=3)


# ----------------------------------------------------------------------
# check --family horton|ternary|marked against the per-object bodies they replaced
# ----------------------------------------------------------------------

def old_check_horton(budget):
    top = min(budget, 9)
    counts_ok = regs_ok = True
    for a in (0, 1, 2):
        layers = {p: horton_Rp(p, a, top) for p in range(1, 4)}
        for n in range(top + 1):
            trees_n = old_unary_binary(n, a)
            if unary_binary_count(n, a) != len(trees_n):
                counts_ok = False
            dist = Counter(old_reg(t, "unary_binary") for t in trees_n)
            if any(cli._coeff_value(ser.coeff(n)) != dist.get(p, 0)
                   for p, ser in layers.items()):
                regs_ok = False
    return [(counts_ok, f"unary-binary counts = brute force, a in 0..2, n <= {top}"),
            (regs_ok, f"register-classified counts match R_p, p <= 3, n <= {top}")]


def old_check_ternary(budget):
    out = []
    top = min(budget, 7)
    ok = True
    for n in range(1, top + 1):
        dist = Counter(old_stat(t, "ternary", "middle_edges") for t in old_ternary(n))
        for kk in range(n):
            if ternary_T(n, kk) != dist.get(kk, 0):
                ok = False
        if sum(dist.values()) != ternary_row_sum(n):
            ok = False
    out.append((ok, f"ternary middle-edge table = brute classification, n <= {top}"))
    ok = all(sum(ternary_row(n)) == ternary_row_sum(n) for n in range(1, budget + 1))
    out.append((ok, f"ternary row sums equal (1/n) C(3n, n-1), n <= {budget}"))
    return out


def old_check_marked(budget):
    top = min(budget, 7)
    ok = True
    for n in range(1, top + 1):
        trees_n = old_marked(n)
        if marked_count(n) != len(trees_n):
            ok = False
        if marked_leaf_total(n) != sum(old_stat(t, "marked", "leaves") for t in trees_n):
            ok = False
        if marked_height_total(n) != sum(old_stat(t, "marked", "height_nodes") for t in trees_n):
            ok = False
    return [(ok, f"marked-tree counts, leaf and height totals = brute, n <= {top}")]


@pytest.mark.parametrize("family,old_body", [("horton", old_check_horton),
                                             ("ternary", old_check_ternary),
                                             ("marked", old_check_marked)])
def test_check_stdout_matches_per_object_body(family, old_body, monkeypatch, capsys):
    try:
        for budget in range(1, 13):
            argv = ["check", "--family", family, "--max", str(budget)]
            assert cli.main(argv) == 0
            got = capsys.readouterr().out
            with monkeypatch.context() as patch:
                patch.setitem(cli.CHECKS, family, as_lines(old_body))
                assert cli.main(argv) == 0
            assert got == capsys.readouterr().out, budget
    finally:
        old_unary_binary.cache_clear()  # size 9 is a few hundred thousand trees


def test_check_horton_never_caches_its_largest_size():
    script = ("import io, contextlib\n"
              "from latticepaths import cli, trees\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.main(['check', '--family', 'horton']) == 0\n"
              "    assert cli.main(['check', '--family', 'ternary']) == 0\n"
              "print(trees._level.cache_info().currsize)\n"
              "trees.gen_unary_binary(2, 1)\n"
              "print(trees._level.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the tallies build no tree, so the one tree cache holds no level at all,
    # and it is the cache that a generator fills (sizes 0, 1 and 2)
    assert proc.stdout.split() == ["0", "3"]
