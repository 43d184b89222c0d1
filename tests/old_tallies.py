"""The list-based tallies that the merged-count tallies replaced, kept as
oracles.

Both evaluate a family's declaration in a statistic's value algebra, as
`trees.tally` and `paths.tally` do, but list one value per object: per tree
size (`old_trees_tally`) or per walk state (`old_paths_tally`) every tree or
suffix has its own value, and equal values are only counted at the end.
They read the declarations of the package, so they check the merging, not
the declarations.  `old_trees_tally` reads the register rule of the package
but its own copy of the statistics rule that the per-statistic rules
replaced, a whole (leaves, height_nodes, middle_edges, mark_count) tuple per
tree projected to the asked field at the end, so it checks those rules too.
The cons families (ordered, marked, multi-edge) had no list tally, so for
them `old_trees_tally` folds that copied rule over every built tree.
"""

from collections import Counter
from functools import partial
from itertools import chain
from operator import itemgetter

from latticepaths import paths, trees


def _stats_rule(own):
    """The statistics rule of one family: a non-empty node's
    (leaves, height_nodes, middle_edges, mark_count) from its children's.
    own(head, kids), if given, counts the node's own middle edges and marks;
    an empty child has the value (0, 0, 0, 0) and adds nothing."""
    def rule(head, kids) -> tuple:
        middles, marks = own(head, kids) if own else (0, 0)
        leaves = height = 0
        for kid_leaves, kid_height, kid_middles, kid_marks in kids:
            leaves += kid_leaves
            middles += kid_middles
            marks += kid_marks
            if kid_height > height:
                height = kid_height
        return leaves or 1, height + 1, middles, marks
    return rule


_OWN = {
    "hex": lambda head, kids: (int(head[0] == "M"), 0),
    # a child's height is 0 exactly when it is empty
    "ternary": lambda head, kids: (int(kids[1][1] > 0), 0),
    "marked": lambda node, kids: (0, sum(1 for mark, _ in node if mark)),
}
_STATS = {family: _stats_rule(_OWN.get(family)) for family in trees._CHILDREN}


def old_trees_tally(family: str, top: int, stat: str, a: int = 1) -> list:
    """Distribution of one statistic over the trees of each size 0..top.

    stat is "reg" or one of STAT_FIELDS.  The family's productions are
    evaluated in the statistic's value algebra: every tree is visited once, as
    one call of the same node rule as `reg` / `tree_stats` on its children's
    values, drawn from the lists kept for the smaller sizes.  No tree is
    built, and the values of size top are counted as they are made.  The
    cons families (ordered, marked, multi-edge) had no list tally before
    their value algebra, so for them the same rule is folded over every tree.
    """
    if family not in trees._CHILDREN:
        raise ValueError(f"unknown family {family!r}")
    if stat == "reg" and family in trees._REG:
        rule, empty, field = trees._REG[family], 0, None
    elif stat in trees.STAT_FIELDS:
        rule, empty, field = _STATS[family], (0, 0, 0, 0), trees.STAT_FIELDS.index(stat)
    else:
        raise ValueError(f"statistic {stat!r} not defined for family {family!r}")
    if top < 0:
        return []

    if family in trees._NODE_CLASSES:
        levels = [[empty]]  # the values of each size, those of size top as they are made
        for size in range(1, top + 1):
            values = trees._construct(trees._PRODUCTIONS[family](size, a),
                                      lambda child: levels[child[1]], rule)
            levels.append(list(values) if size < top else values)
    else:
        levels = [[trees._fold(trees._CHILDREN[family], rule, empty, t)
                   for t in trees._level(family, size, a)] for size in range(top + 1)]
    return [Counter(values if field is None else map(itemgetter(field), values))
            for values in levels]


def old_paths_tally(family: str, top: int, stat: str, **params) -> list:
    """Distribution of one statistic over the paths of each size 0..top.

    Sizes and params are those of `gen_<family>`, bar `require_last_up`.  stat
    is "height", "amplitude", "last_downrun_len" (as in `path_stats`) or
    "peak_count".  The family's move rule is evaluated in the statistic's
    value algebra: a path's value is rule(step, level, value of its suffix),
    the suffix values from each state (steps left, level, and the previous
    token where the moves read it) listed once per call, so no path is built.
    Each path still gets its own value, counted only at its size's start
    (those of size top as they are made).
    """
    if family not in paths._FAMILIES or stat not in paths._STEP_RULES:
        raise ValueError(f"no tally of {stat!r} over {family!r} paths")
    rule, empty, finish = paths._STEP_RULES[stat]
    walks = [paths._FAMILIES[family](size, **params) for size in range(top + 1)]
    if not walks:
        return []
    # the walk of size top serves every size: no smaller one takes a step it lacks
    most, moves, keyed, bounds = walks[-1]
    windows = paths._windows(most, **bounds) or []
    start, base = bounds.get("start", 0), [empty(bounds.get("end_level", 0))]
    memo = {}

    def values(left, level, prev):
        """The values of the paths from a state, one iterable per move."""
        low, high = windows[left - 1]
        for tok, delta in moves(prev, level):
            nl = level + delta
            if low <= nl <= high:
                yield map(partial(rule, tok, level), listed(left - 1, nl, tok if keyed else None))

    def listed(left, level, prev):
        if not left:
            return base
        key = (left, level, prev)
        if key not in memo:
            memo[key] = list(chain.from_iterable(values(*key)))
        return memo[key]

    dists = []
    for size, (n_steps, *_) in enumerate(walks):
        if paths._windows(n_steps, **bounds) is None:
            found = ()
        elif size < top or not n_steps:
            found = listed(n_steps, start, None)
        else:
            found = chain.from_iterable(values(n_steps, start, None))
        dists.append(Counter(found if finish is None else map(finish, found)))
    return dists
