"""Brute-force generators for the path families, plus per-path statistics.

Paths are tuples of step tokens:

    U   up-step (+1, or +k for the k-ary families)
    d   down-step (-1)
    r   red down-step (-1), skew model
    b   blue up-step (+1), dual skew model
    Hc  horizontal step with color c (H0, H1, H2, ...)
    Dr  down-jump by r (D1, D2, ...), bounded-jump model

Every generator is a move rule on one depth-first walker, `_walk`, so the
i-th path of a family is reproducible.  These exist to cross-check the
generating function catalogs, not to be fast.
"""

from __future__ import annotations

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


def _walk(n_steps, moves, start=0, end_level=0, floor=0, ceiling=None, rise=1, fall=1):
    """Every path of n_steps steps from start to end_level, depth first.

    moves(prev, level) gives the (token, delta) pairs allowed after token prev
    (None first) at level.  rise and fall bound one step's climb and drop, so a
    step enters a level only if end_level stays reachable inside [floor, ceiling].
    """
    if not end_level - rise * n_steps <= start <= end_level + fall * n_steps:
        return []
    if n_steps == 0:
        return [()]
    windows = [(max(floor, end_level - rise * left),
                end_level + fall * left if ceiling is None
                else min(ceiling, end_level + fall * left))
               for left in range(n_steps)]
    out = []
    prefix = []

    def rec(left, level, prev):
        left -= 1
        low, high = windows[left]
        for tok, delta in moves(prev, level):
            nl = level + delta
            if low <= nl <= high:
                prefix.append(tok)
                if left:
                    rec(left, nl, tok)
                else:
                    out.append(tuple(prefix))
                prefix.pop()

    rec(n_steps, start, None)
    return out


def gen_kdyck(k: int, n_up: int, end_level: int = 0, floor: int = 0,
              require_last_up: bool = False) -> list:
    """Paths with n_up rises of +k and unit falls, from 0 to end_level, level >= floor."""
    n_down = k * n_up - end_level
    if n_down < 0:
        return []
    steps = (("U", k), ("d", -1))
    paths = _walk(n_up + n_down, lambda prev, level: steps, end_level=end_level,
                  floor=floor, rise=k)
    return [p for p in paths if p and p[-1] == "U"] if require_last_up else paths


def gen_skew(n_steps: int, end_level: int = 0) -> list:
    """Skew paths: steps U/d/r, never r right after U or U right after r."""

    def moves(prev, level):
        if prev != "r":
            yield "U", 1
        yield "d", -1
        if prev != "U":
            yield "r", -1

    return _walk(n_steps, moves, end_level=end_level)


def gen_dual_skew(n_steps: int, end_level: int = 0) -> list:
    """Dual model: steps U/b/d where blue rises and falls are never adjacent."""

    def moves(prev, level):
        yield "U", 1
        if prev != "d":
            yield "b", 1
        if prev != "b":
            yield "d", -1

    return _walk(n_steps, moves, end_level=end_level)


def gen_motzkin(n_steps: int, horiz_colors: int = 1, max_height: int | None = None,
                end_level: int = 0) -> list:
    """Motzkin paths with colored level steps, optional height cap."""
    steps = (("U", 1), *((f"H{c}", 0) for c in range(horiz_colors)), ("d", -1))
    return _walk(n_steps, lambda prev, level: steps, end_level=end_level,
                 ceiling=max_height)


def gen_deutsch(n_steps: int, start: int = 0, floor: int = 0,
                ceiling: int | None = None, end_level: int = 0) -> list:
    """Unit rises and down-jumps of any size, levels kept inside [floor, ceiling]."""
    top = start + n_steps  # no drop exceeds top - floor; below the floor only U
    steps = [("U", 1)] + [(f"D{drop}", -drop) for drop in range(1, top - floor + 1)]
    return _walk(n_steps, lambda prev, level: steps[:max(level - floor, 0) + 1],
                 start=start, end_level=end_level, floor=min(floor, start),
                 ceiling=ceiling, fall=max(top - floor, 0))


def gen_retakh(n_pairs: int) -> list:
    """Dyck paths of n_pairs rises whose peaks sit at level 1 or at even levels."""
    up, down = ("U", 1), ("d", -1)

    def moves(prev, level):
        if prev == "U" and level > 1 and level % 2:
            return (up,)
        return up, down

    return _walk(2 * n_pairs, moves)


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
