"""Brute-force generators for the path families, plus per-path statistics.

Paths are tuples of step tokens:

    U   up-step (+1, or +k for the k-ary families)
    d   down-step (-1)
    r   red down-step (-1), skew model
    b   blue up-step (+1), dual skew model
    Hc  horizontal step with color c (H0, H1, H2, ...)
    Dr  down-jump by r (D1, D2, ...), bounded-jump model

Every generator enumerates exhaustively in a fixed recursive order, so the
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


def gen_kdyck(k: int, n_up: int, end_level: int = 0, floor: int = 0,
              require_last_up: bool = False) -> list:
    """Paths with n_up rises of +k and unit falls, from 0 to end_level, level >= floor."""
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


def _walk(n_steps, end_level, floor, ceiling, moves):
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


def gen_skew(n_steps: int, end_level: int = 0) -> list:
    """Skew paths: steps U/d/r, never r right after U or U right after r."""

    def moves(prev):
        if prev != "r":
            yield "U", 1
        yield "d", -1
        if prev != "U":
            yield "r", -1

    return _walk(n_steps, end_level, 0, None, moves)


def gen_dual_skew(n_steps: int, end_level: int = 0) -> list:
    """Dual model: steps U/b/d where blue rises and falls are never adjacent."""

    def moves(prev):
        yield "U", 1
        if prev != "d":
            yield "b", 1
        if prev != "b":
            yield "d", -1

    return _walk(n_steps, end_level, 0, None, moves)


def gen_motzkin(n_steps: int, horiz_colors: int = 1, max_height: int | None = None,
                end_level: int = 0) -> list:
    """Motzkin paths with colored level steps, optional height cap."""
    flats = [(f"H{c}", 0) for c in range(horiz_colors)]

    def moves(prev):
        yield "U", 1
        yield from flats
        yield "d", -1

    return _walk(n_steps, end_level, 0, max_height, moves)


def gen_deutsch(n_steps: int, start: int = 0, floor: int = 0,
                ceiling: int | None = None, end_level: int = 0) -> list:
    """Unit rises and down-jumps of any size, levels kept inside [floor, ceiling]."""
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


def gen_retakh(n_pairs: int) -> list:
    """Dyck paths of n_pairs rises whose peaks sit at level 1 or at even levels."""
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
