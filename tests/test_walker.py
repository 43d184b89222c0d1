"""The shared path evaluator against the generators it replaced.

Every brute-force path generator is a move rule read by `paths._evaluate`
in the path algebra, and `trees.tree_size` reads a node's children from the
per-family split.  The hand-written recursions they replaced are kept here
as oracles: each generator must give the same paths in the same order on a
grid that covers every constraint it takes.
"""

import sys

import pytest

from latticepaths import paths
from latticepaths.paths import (
    gen_deutsch,
    gen_dual_skew,
    gen_kdyck,
    gen_motzkin,
    gen_retakh,
    gen_skew,
)
from latticepaths.trees import (
    gen_binary,
    gen_hex,
    gen_marked,
    gen_multiedge,
    gen_ordered,
    gen_ternary,
    gen_unary_binary,
    tree_size,
)


# ----------------------------------------------------------------------
# oracles: the recursions the shared move rules replaced
# ----------------------------------------------------------------------

def old_kdyck(k, n_up, end_level=0, floor=0, require_last_up=False):
    n_down = k * n_up - end_level
    if n_down < 0:
        return []
    out = []
    prefix = []

    def rec(ups, downs, level):
        if ups == 0 and downs == 0:
            if not require_last_up or (prefix and prefix[-1] == "U"):
                out.append(tuple(prefix))
            return
        if ups:
            prefix.append("U")
            rec(ups - 1, downs, level + k)
            prefix.pop()
        if downs and level - 1 >= floor:
            prefix.append("d")
            rec(ups, downs - 1, level - 1)
            prefix.pop()

    rec(n_up, n_down, 0)
    return out


def old_walk(n_steps, end_level, floor, ceiling, moves):
    out = []
    prefix = []

    def rec(left, level, prev):
        if left == 0:
            if level == end_level:
                out.append(tuple(prefix))
            return
        if level + left < end_level:
            return
        for tok, delta in moves(prev):
            nl = level + delta
            if nl < floor or (ceiling is not None and nl > ceiling):
                continue
            prefix.append(tok)
            rec(left - 1, nl, tok)
            prefix.pop()

    rec(n_steps, 0, None)
    return out


def old_skew(n_steps, end_level=0):
    def moves(prev):
        if prev != "r":
            yield "U", 1
        yield "d", -1
        if prev != "U":
            yield "r", -1

    return old_walk(n_steps, end_level, 0, None, moves)


def old_dual_skew(n_steps, end_level=0):
    def moves(prev):
        yield "U", 1
        if prev != "d":
            yield "b", 1
        if prev != "b":
            yield "d", -1

    return old_walk(n_steps, end_level, 0, None, moves)


def old_motzkin(n_steps, horiz_colors=1, max_height=None, end_level=0):
    flats = [(f"H{c}", 0) for c in range(horiz_colors)]

    def moves(prev):
        yield "U", 1
        yield from flats
        yield "d", -1

    return old_walk(n_steps, end_level, 0, max_height, moves)


def old_deutsch(n_steps, start=0, floor=0, ceiling=None, end_level=0):
    out = []
    prefix = []

    def rec(left, level):
        if left == 0:
            if level == end_level:
                out.append(tuple(prefix))
            return
        if level + left < end_level:
            return
        if ceiling is None or level + 1 <= ceiling:
            prefix.append("U")
            rec(left - 1, level + 1)
            prefix.pop()
        for drop in range(1, level - floor + 1):
            prefix.append(f"D{drop}")
            rec(left - 1, level - drop)
            prefix.pop()

    rec(n_steps, start)
    return out


def old_retakh(n_pairs):
    out = []
    prefix = []

    def rec(ups, level):
        if ups == 0 and level == 0:
            out.append(tuple(prefix))
            return
        if ups:
            prefix.append("U")
            rec(ups - 1, level + 1)
            prefix.pop()
        if level >= 1:
            if prefix[-1] != "U" or level == 1 or level % 2 == 0:
                prefix.append("d")
                rec(ups, level - 1)
                prefix.pop()

    rec(n_pairs, 0)
    return out


def old_tree_size(t, family):
    if family == "binary":
        return 0 if t is None else 1 + old_tree_size(t[0], family) + old_tree_size(t[1], family)
    if family == "unary_binary":
        if t is None:
            return 0
        if t[0] == "2":
            return 1 + old_tree_size(t[1], family) + old_tree_size(t[2], family)
        return 1 + old_tree_size(t[2], family)
    if family == "hex":
        if t is None:
            return 0
        if t[0] == ".":
            return 1
        if t[0] == "2":
            return 1 + old_tree_size(t[1], family) + old_tree_size(t[2], family)
        return 1 + old_tree_size(t[1], family)
    if family == "ordered":
        return 1 + sum(old_tree_size(c, family) for c in t)
    if family == "marked":
        return 1 + sum(old_tree_size(c, family) for _, c in t)
    if family == "multiedge":
        return sum(m + old_tree_size(c, family) for m, c in t)
    if family == "ternary":
        return 0 if t is None else 1 + sum(old_tree_size(c, family) for c in t)
    raise ValueError(f"unknown family {family!r}")


def old_marked_forests(total):
    if total == 0:
        return [()]
    out = []
    for first_size in range(1, total + 1):
        for first in gen_marked(first_size):
            for rest in old_marked_forests(total - first_size):
                out.append(((False, first),) + rest)
    return out


# ----------------------------------------------------------------------
# path generators: identical ordered lists
# ----------------------------------------------------------------------

def test_kdyck_matches_the_recursion():
    for k in (1, 2, 3):
        for n_up in range(7 if k == 1 else 5):
            for end in range(k * n_up + 3):  # ends past k*n_up have no path
                for floor in (-2, -1, 0):
                    for last_up in (False, True):
                        args = (k, n_up, end, floor, last_up)
                        assert gen_kdyck(*args) == old_kdyck(*args), args


def test_deutsch_matches_the_recursion():
    for n in range(8):
        for floor in (-1, 0, 1):
            for start in range(floor - 2, floor + 4):  # includes starts below the floor
                for ceiling in (None, 3, 4, 5):
                    for end in range(floor - 1, 5):
                        args = (n, start, floor, ceiling, end)
                        assert gen_deutsch(*args) == old_deutsch(*args), args


def test_zero_steps_only_stay_put():
    assert gen_deutsch(0, start=2, end_level=2) == [()]
    assert gen_deutsch(0, start=2, end_level=1) == []
    assert gen_deutsch(0, start=0, floor=1) == [()]  # the start is not held to the floor
    assert gen_motzkin(0, end_level=1) == []
    assert gen_kdyck(2, 0, end_level=0) == [()]


def test_motzkin_matches_the_walk():
    for colors in (1, 2, 3):
        for n in range(10 - colors):
            for cap in (None, 0, 1, 2, 3):
                for end in range(3):
                    args = (n, colors, cap, end)
                    assert gen_motzkin(*args) == old_motzkin(*args), args


def test_skew_and_dual_skew_match_the_walk():
    for n in range(11):
        for end in range(4):
            assert gen_skew(n, end) == old_skew(n, end), (n, end)
            assert gen_dual_skew(n, end) == old_dual_skew(n, end), (n, end)


def test_retakh_matches_the_recursion():
    for m in range(10):
        assert gen_retakh(m) == old_retakh(m), m


def test_walker_reaches_only_live_levels(monkeypatch):
    # A dead state is never entered: the evaluator calls the move rule only
    # at live states (steps left, level), in both the path and a value algebra,
    # and once per state.
    calls = []

    def moves(prev, level):
        calls.append(level)
        return (("U", 1), ("d", -1))

    monkeypatch.setitem(paths._FAMILIES, "counting", lambda n_steps: (n_steps, moves, False, {}))
    assert len(paths._paths("counting", 6)) == 5
    assert max(calls) <= 3  # from level 4 the path cannot return in time
    assert len(calls) == 9  # (6, 0), (5, 1), (4, 0|2), (3, 1|3), (2, 0|2), (1, 1)
    calls.clear()
    assert paths.tally("counting", 6, "height")[6] == {1: 1, 2: 3, 3: 1}
    assert max(calls) <= 3
    # sizes 0..6 enter every level from 0 to min(left, 6 - left) with left steps left
    assert len(calls) == 15


def test_paths_longer_than_the_recursion_limit():
    assert 1200 > sys.getrecursionlimit()
    assert gen_motzkin(1200, max_height=0) == [("H0",) * 1200]


# ----------------------------------------------------------------------
# tree sizes and marked forests
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family, gen, sizes", [
    ("binary", gen_binary, range(7)),
    ("unary_binary", lambda n: gen_unary_binary(n, 2), range(6)),
    ("hex", gen_hex, range(7)),
    ("ordered", gen_ordered, range(1, 8)),
    ("marked", gen_marked, range(1, 7)),
    ("multiedge", gen_multiedge, range(6)),
    ("ternary", gen_ternary, range(5)),
])
def test_tree_size_matches_the_chain(family, gen, sizes):
    for n in sizes:
        for t in gen(n):
            assert tree_size(t, family) == old_tree_size(t, family) == n


def test_marked_forests_match_the_copy():
    # the forests of total nodes are the trees of total + 1 nodes whose last
    # edge is unmarked, in the same order
    for total in range(7):
        assert [t for t in gen_marked(total + 1) if not t or not t[-1][0]] == \
            old_marked_forests(total), total
