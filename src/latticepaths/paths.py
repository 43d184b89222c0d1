"""Brute-force generators for the path families, plus per-path statistics.

Paths are tuples of step tokens:

    U   up-step (+1, or +k for the k-ary families)
    d   down-step (-1)
    r   red down-step (-1), skew model
    b   blue up-step (+1), dual skew model
    Hc  horizontal step with color c (H0, H1, H2, ...)
    Dr  down-jump by r (D1, D2, ...), bounded-jump model

Each family is declared once, as a move rule and the bounds of its walk, and
one evaluator, `_evaluate`, reads the declaration in any value algebra: a
path's value is rule(step, level, value of its suffix), and a walk state
holds value -> number of suffixes, so equal values merge.  In a statistic's
algebra (`tally`) no path is built.  In the path algebra (`gen_*`) a path's
value is the path itself, so each count is 1 and the paths come out in move
order: the i-th path of a family is reproducible.  `path_stats` reads one
built path, as the oracle of the step rules.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate


def step_delta(token: str, up: int = 1) -> int:
    if token == "U":
        return up
    if token == "b":
        return 1
    if token in ("d", "r"):
        return -1
    if token.startswith("H"):
        return 0
    if token.startswith("D"):
        return -int(token[1:])
    raise ValueError(f"unknown step token {token!r}")


def levels(path, up: int = 1, start: int = 0) -> list:
    """Level profile including the start level; length len(path)+1."""
    out = [start]
    for tok in path:
        out.append(out[-1] + step_delta(tok, up))
    return out


def _windows(n_steps, start=0, end_level=0, floor=0, ceiling=None, rise=1, fall=1):
    """Per number of steps left after a step (0..n_steps-1), the levels that
    step may enter: inside [floor, ceiling] with end_level still in reach.
    None when end_level is not within n_steps steps of start."""
    if not end_level - rise * n_steps <= start <= end_level + fall * n_steps:
        return None
    return [(max(floor, end_level - rise * left),
             end_level + fall * left if ceiling is None
             else min(ceiling, end_level + fall * left))
            for left in range(n_steps)]


# Per family, the walk of one size: (steps, moves(prev, level), whether the
# moves read prev, the bounds of `_windows`).

def _kdyck(n_up, k, end_level=0, floor=0):
    if k < 1:
        raise ValueError("rise height k must be >= 1")
    steps = (("U", k), ("d", -1))
    return ((k + 1) * n_up - end_level, lambda prev, level: steps, False,
            {"end_level": end_level, "floor": floor, "rise": k})


def _skew(n_steps, end_level=0):
    after = {"U": (("U", 1), ("d", -1)), "r": (("d", -1), ("r", -1))}
    steps = (("U", 1), ("d", -1), ("r", -1))
    return n_steps, lambda prev, level: after.get(prev, steps), True, {"end_level": end_level}


def _dual_skew(n_steps, end_level=0):
    after = {"d": (("U", 1), ("d", -1)), "b": (("U", 1), ("b", 1))}
    steps = (("U", 1), ("b", 1), ("d", -1))
    return n_steps, lambda prev, level: after.get(prev, steps), True, {"end_level": end_level}


def _motzkin(n_steps, horiz_colors=1, max_height=None, end_level=0):
    if horiz_colors < 0:
        raise ValueError("horiz_colors must be >= 0")
    steps = (("U", 1), *((f"H{c}", 0) for c in range(horiz_colors)), ("d", -1))
    return (n_steps, lambda prev, level: steps, False,
            {"end_level": end_level, "ceiling": max_height})


def _deutsch(n_steps, start=0, floor=0, ceiling=None, end_level=0):
    top = start + n_steps  # no drop exceeds top - floor; below the floor only U
    steps = [("U", 1)] + [(f"D{drop}", -drop) for drop in range(1, top - floor + 1)]
    return (n_steps, lambda prev, level: steps[:max(level - floor, 0) + 1], False,
            {"start": start, "end_level": end_level, "floor": min(floor, start),
             "ceiling": ceiling, "fall": max(top - floor, 0)})


def _retakh(n_pairs):
    steps = (("U", 1), ("d", -1))  # no fall right after a rise to an odd level above 1
    return (2 * n_pairs, lambda prev, level:
            steps[:1] if prev == "U" and level > 1 and level % 2 else steps, True, {})


_FAMILIES = {"kdyck": _kdyck, "skew": _skew, "dual_skew": _dual_skew,
             "motzkin": _motzkin, "deutsch": _deutsch, "retakh": _retakh}


def _evaluate(family, sizes, params, rule, empty) -> list:
    """Per size of sizes (ascending), value -> number of paths of that size.

    A path's value is rule(step, level, value of its suffix) and empty(e)
    that of the empty suffix at end level e.  Each walk state (steps left,
    level, and the previous token where the moves read it) holds value ->
    number of suffixes, each move mapping the entered state's values through
    the rule once, so equal values merge.  The states are filled from a
    stack, not by recursion, so a walk may outrun the recursion limit.
    """
    walks = [_FAMILIES[family](size, **params) for size in sizes]
    if not walks:
        return []
    # the walk of the largest size serves every size: no smaller one takes a step it lacks
    most, moves, keyed, bounds = walks[-1]
    windows = _windows(most, **bounds) or []
    start, end, memo = bounds.get("start", 0), bounds.get("end_level", 0), {}
    base = {empty(end): 1}
    firsts = [(n_steps, start, None) for n_steps, *_ in walks]
    # an end out of reach leaves no first step inside a window (and no windows at
    # all when even the largest size cannot reach it); an empty walk must start at the end
    stack = [(first, None) for first in firsts
             if 0 < first[0] <= len(windows) or first == (0, end, None)]
    while stack:
        key, entered = stack.pop()
        left, level, prev = key
        if entered is None:
            if key in memo or not left:
                memo.setdefault(key, base)
                continue
            low, high = windows[left - 1]
            entered = [(tok, (left - 1, level + delta, tok if keyed else None))
                       for tok, delta in moves(prev, level) if low <= level + delta <= high]
            below = [(after, None) for _, after in entered if after not in memo]
            if below:  # wait under them, keeping the moves made
                stack += [(key, entered), *below]
                continue
        dist = memo[key] = {}
        for tok, after in entered:
            for value, count in memo[after].items():
                value = rule(tok, level, value)
                dist[value] = dist.get(value, 0) + count
    return [memo.get(first, {}) for first in firsts]


def _paths(family, size, **params) -> list:
    """The paths of one size, in move order: each path is its own value."""
    [dist] = _evaluate(family, [size], params, lambda tok, level, rest: (tok,) + rest,
                       lambda end: ())
    return list(dist)


def gen_kdyck(k: int, n_up: int, end_level: int = 0, floor: int = 0,
              require_last_up: bool = False) -> list:
    """Paths with n_up rises of +k and unit falls, from 0 to end_level, level >= floor."""
    paths = _paths("kdyck", n_up, k=k, end_level=end_level, floor=floor)
    return [p for p in paths if p and p[-1] == "U"] if require_last_up else paths


def gen_skew(n_steps: int, end_level: int = 0) -> list:
    """Skew paths: steps U/d/r, never r right after U or U right after r."""
    return _paths("skew", n_steps, end_level=end_level)


def gen_dual_skew(n_steps: int, end_level: int = 0) -> list:
    """Dual model: steps U/b/d where blue rises and falls are never adjacent."""
    return _paths("dual_skew", n_steps, end_level=end_level)


def gen_motzkin(n_steps: int, horiz_colors: int = 1, max_height: int | None = None,
                end_level: int = 0) -> list:
    """Motzkin paths with colored level steps, optional height cap."""
    return _paths("motzkin", n_steps, horiz_colors=horiz_colors, max_height=max_height,
                  end_level=end_level)


def gen_deutsch(n_steps: int, start: int = 0, floor: int = 0,
                ceiling: int | None = None, end_level: int = 0) -> list:
    """Unit rises and down-jumps of any size, levels kept inside [floor, ceiling]."""
    return _paths("deutsch", n_steps, start=start, floor=floor, ceiling=ceiling,
                  end_level=end_level)


def gen_retakh(n_pairs: int) -> list:
    """Dyck paths of n_pairs rises whose peaks sit at level 1 or at even levels."""
    return _paths("retakh", n_pairs)


# Step rules: a path's value from its first step, the level that step starts
# from and the value of the rest of the path.  Per statistic: (rule, the
# value of an empty rest at end level e, the statistic of a value or None
# when the value is the statistic).

def _height(tok, level, rest):
    return level if level > rest else rest


def _amplitude(tok, level, rest):
    top, bottom, flat = rest  # flat: a horizontal step runs at level top
    if level > top or level == top and not flat and tok[0] == "H":  # a new top or flat
        return level, bottom, tok[0] == "H"
    return rest if level >= bottom else (top, level, flat)


def _downrun(tok, level, rest):
    # rest is 2 * its last down-run, plus one if it is unit down-steps only
    if rest & 1:
        return rest + 2 if tok == "d" else rest - 1
    return rest


def _peaks(tok, level, rest):
    # rest is 2 * its peaks, plus one if it starts with a fall
    peaks = rest >> 1
    if rest & 1 and tok in ("U", "b"):
        peaks += 1
    return 2 * peaks + (tok[0] in "drD")


def _halve(value):
    return value >> 1


_STEP_RULES = {
    "height": (_height, lambda e: e, None),
    "amplitude": (_amplitude, lambda e: (e, e, False), lambda v: 2 * (v[0] - v[1]) + v[2]),
    "last_downrun_len": (_downrun, lambda e: 1, _halve),
    "peak_count": (_peaks, lambda e: 0, _halve),
}


def tally(family: str, top: int, stat: str, **params) -> list:
    """Distribution of one statistic over the paths of each size 0..top.

    Sizes and params are those of `gen_<family>`, bar `require_last_up`.  stat
    is "height", "amplitude", "last_downrun_len" (as in `path_stats`) or
    "peak_count".  `_evaluate` reads the family's walk in the statistic's
    value algebra, so equal values merge and no path is built.
    """
    if family not in _FAMILIES or stat not in _STEP_RULES:
        raise ValueError(f"no tally of {stat!r} over {family!r} paths")
    rule, empty, finish = _STEP_RULES[stat]
    dists = [Counter() for _ in range(top + 1)]
    sizes = range(max(top, 0) + 1)  # a negative top still declares size 0, checking the params
    for dist, values in zip(dists, _evaluate(family, sizes, params, rule, empty)):
        for value, count in values.items():
            dist[value if finish is None else finish(value)] += count
    return dists


def last_downrun_len(path) -> int:
    """Length of the run of unit down-steps `d` that ends the path."""
    run = 0
    for tok in reversed(path):
        if tok != "d":
            break
        run += 1
    return run


def path_stats(path, up: int = 1, start: int = 0) -> dict:
    """Statistics shared by the cross-checks.

    amplitude is 2*(max - min) plus one if a horizontal step occurs at the
    maximum level; peaks (rise then fall) and valleys (fall then rise) are
    reported as the level where the two steps meet, in left-to-right order.
    """
    deltas = [step_delta(tok, up) for tok in path]
    lv = list(accumulate(deltas, initial=start))
    top = max(lv)
    bottom = min(lv)
    flat_on_top = any(level == top and tok.startswith("H") for tok, level in zip(path, lv))
    rising = {"U", "b"}
    peaks = []
    valleys = []
    for i in range(len(path) - 1):
        if path[i] in rising and deltas[i + 1] < 0:
            peaks.append(lv[i + 1])
        elif deltas[i] < 0 and path[i + 1] in rising:
            valleys.append(lv[i + 1])
    return {
        "height": top,
        "amplitude": 2 * (top - bottom) + (1 if flat_on_top else 0),
        "red_count": sum(1 for t in path if t in ("r", "H0")),
        "blue_count": sum(1 for t in path if t in ("b", "H2")),
        "last_downrun_len": last_downrun_len(path),
        "peak_heights": peaks,
        "valley_heights": valleys,
    }
