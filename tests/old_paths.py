"""The path-algebra lister that the live-move walk replaced, kept as an oracle.

`_evaluate` fills every walk state with value -> number of suffixes, and
`_paths` runs it in the path algebra, where a path's value is the path
itself: each state keeps every suffix from it, and the paths of the first
state come out in move order.  `paths._paths` now lists them by a
depth-first walk over the moves its evaluator records, so this copy checks
that walk: the same paths in the same order.  Both read the family
declarations of the package (`_FAMILIES`, `_windows`), so they check the
listing, not the declarations.
"""

from latticepaths.paths import _FAMILIES, _windows


def _evaluate(family, sizes, params, rule, empty) -> list:
    """Per size of sizes (ascending), value -> number of paths of that size.

    A path's value is rule(step, level, value of its suffix) and empty(e)
    that of the empty suffix at end level e.  Each walk state (steps left,
    level, and the previous token where the moves read it) holds value ->
    number of suffixes, each move mapping the entered state's values through
    the rule once, so equal values merge.  The states are filled from a
    stack, not by recursion, so a walk may outrun the recursion limit.
    """
    # the walk of the largest size serves every size: no smaller one takes a step it lacks
    steps, moves, keyed, bounds = _FAMILIES[family](sizes[-1], **params)
    windows = _windows(steps(sizes[-1]), **bounds) or []
    start, end, memo = bounds.get("start", 0), bounds.get("end_level", 0), {}
    base = {empty(end): 1}
    firsts = [(steps(size), start, None) for size in sizes]
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
