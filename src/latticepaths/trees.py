"""Exhaustive generators for the tree families, register numbers, statistics.

Representations (all nested tuples, hashable, comparable):

    binary        None | (left, right)
    unary_binary  None | ('2', left, right) | ('u', color, child)   child nonempty
    hex           None | ('.',) | ('L'|'M'|'R', child) | ('2', left, right)
                  single children and both '2' children nonempty
    ordered       (child, child, ...), a leaf is ()
    marked        ((mark, child), ...): ordered tree whose last edge at a node
                  may carry a mark, but only if that child is internal
    multiedge     ((mult, child), ...): ordered tree with edge multiplicities
                  >= 1; the size is the total multiplicity, not the node count
    ternary       None | (left, middle, right)

Sizes count internal nodes (binary, unary_binary, ternary), all nodes (hex,
ordered, marked), or total edge weight (multiedge).

Binary, unary-binary, hex and ternary trees of size n are streamed by one
generator each (`_iter_*`) from the cached levels below n.  Each statistic is
one node rule, rule(node, val), that reads its children's values through val:
`reg` and `tree_stats` evaluate it by recursion on any tree, and `tally` over a
whole level with the children's values looked up in a memo.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import repeat


def gen_binary(n: int) -> list:
    return list(_binary(n))


@lru_cache(maxsize=None)
def _binary(n: int) -> tuple:
    return tuple(_iter_binary(n))


def _iter_binary(n: int):
    if n == 0:
        yield None
        return
    for i in range(n):
        rights = _binary(n - 1 - i)
        for left in _binary(i):
            for right in rights:
                yield (left, right)


def gen_unary_binary(n: int, a: int = 1) -> list:
    return list(_unary_binary(n, a))


@lru_cache(maxsize=None)
def _unary_binary(n: int, a: int) -> tuple:
    return tuple(_iter_unary_binary(n, a))


def _iter_unary_binary(n: int, a: int):
    if n < 0:  # no trees; the unary step below would recurse without end
        return
    if n == 0:
        yield None
        return
    for i in range(n):
        rights = _unary_binary(n - 1 - i, a)
        for left in _unary_binary(i, a):
            for right in rights:
                yield ("2", left, right)
    for color in range(a):
        for child in _unary_binary(n - 1, a):
            if child is not None:
                yield ("u", color, child)


def gen_hex(n: int) -> list:
    return list(_hex(n))


@lru_cache(maxsize=None)
def _hex(n: int) -> tuple:
    return tuple(_iter_hex(n))


def _iter_hex(n: int):
    if n < 0:  # no trees; the unary step below would recurse without end
        return
    if n == 0:
        yield None
        return
    if n == 1:
        yield (".",)
        return
    # every child has size >= 1 here, so none is empty
    for slot in ("L", "M", "R"):
        for child in _hex(n - 1):
            yield (slot, child)
    for i in range(1, n - 1):
        rights = _hex(n - 1 - i)
        for left in _hex(i):
            for right in rights:
                yield ("2", left, right)


def gen_ordered(n: int) -> list:
    return list(_ordered(n)) if n >= 1 else []


@lru_cache(maxsize=None)
def _ordered(n: int) -> tuple:
    return tuple(_forests(n - 1, _ordered))


def _forests(total: int, gen_one) -> list:
    """All tuples of trees whose sizes (>= 1 each) sum to total."""
    if total == 0:
        return [()]
    out = []
    for first_size in range(1, total + 1):
        for first in gen_one(first_size):
            for rest in _forests(total - first_size, gen_one):
                out.append((first,) + rest)
    return out


def gen_marked(n: int) -> list:
    return list(_marked(n))


@lru_cache(maxsize=None)
def _marked(n: int) -> tuple:
    # n nodes; the last edge of a node may be marked if its child is internal
    if n < 1:
        return ()
    if n == 1:
        return ((),)
    out = []
    for plain in _marked_forests(n - 1):
        out.append(plain)
        last_child = plain[-1][1]
        if last_child != ():
            out.append(plain[:-1] + ((True, last_child),))
    return tuple(out)


def _marked_forests(total: int) -> list:
    return [tuple((False, child) for child in forest) for forest in _forests(total, _marked)]


def gen_multiedge(total_weight: int) -> list:
    return list(_multiedge(total_weight))


@lru_cache(maxsize=None)
def _multiedge(w: int) -> tuple:
    if w == 0:
        return ((),)
    out = []
    for first_mult in range(1, w + 1):
        for first_weight in range(0, w - first_mult + 1):
            for child in _multiedge(first_weight):
                for rest in _multiedge(w - first_mult - first_weight):
                    out.append(((first_mult, child),) + rest)
    return tuple(out)


def gen_ternary(n: int) -> list:
    return list(_ternary(n))


@lru_cache(maxsize=None)
def _ternary(n: int) -> tuple:
    return tuple(_iter_ternary(n))


def _iter_ternary(n: int):
    if n == 0:
        yield None
        return
    for i in range(n):
        for j in range(n - i):
            middles = _ternary(j)
            rights = _ternary(n - 1 - i - j)
            for left in _ternary(i):
                for middle in middles:
                    for right in rights:
                        yield (left, middle, right)


def tree_size(t, family: str) -> int:
    if family == "multiedge":
        return sum(m + tree_size(c, family) for m, c in t)
    split = _SPLIT.get(family)
    if split is None:
        raise ValueError(f"unknown family {family!r}")
    return 0 if t is None else 1 + sum(tree_size(kid, family) for kid in split(t)[0])


def _fold(rule, empty, t):
    """Evaluate a node rule on t by recursion: rule(node, val) reads each
    child's value through val; the empty tree has value empty."""
    def val(child):
        return empty if child is None else rule(child, val)
    return val(t)


def reg(t, family: str = "binary") -> int:
    """Register number: leaves get 0 (bare hex node 1), unary edges pass through,
    a branch node takes the larger child value, plus one on a tie."""
    rule = _REG.get(family)
    if rule is None:
        raise ValueError(f"register number not defined for family {family!r}")
    return _fold(rule, 0, t)


# Register rules: a non-empty node's value from its children's values.

def _reg_binary(t, val) -> int:
    a = val(t[0])
    b = val(t[1])
    return a + 1 if a == b else (a if a > b else b)


def _reg_unary_binary(t, val) -> int:
    if t[0] == "u":
        return val(t[2])
    a = val(t[1])
    b = val(t[2])
    return a + 1 if a == b else (a if a > b else b)


def _reg_hex(t, val) -> int:
    tag = t[0]
    if tag == ".":
        return 1
    if tag != "2":
        return val(t[1])
    a = val(t[1])
    b = val(t[2])
    return a + 1 if a == b else (a if a > b else b)


_REG = {"binary": _reg_binary, "unary_binary": _reg_unary_binary, "hex": _reg_hex}


def _nonempty(kids) -> list:
    return [c for c in kids if c is not None]


# Per family, a node's split: (non-empty children, middle edges leaving the
# node, marked edges leaving the node).
_SPLIT = {
    "binary": lambda t: (_nonempty(t), 0, 0),
    "unary_binary": lambda t: (_nonempty(t[1:] if t[0] == "2" else t[2:]), 0, 0),
    "hex": lambda t: ([] if t[0] == "." else _nonempty(t[1:]), int(t[0] == "M"), 0),
    "ordered": lambda t: (t, 0, 0),
    "marked": lambda t: ([c for _, c in t], 0, sum(1 for m, _ in t if m)),
    "multiedge": lambda t: ([c for _, c in t], 0, 0),
    "ternary": lambda t: (_nonempty(t), int(t[1] is not None), 0),
}


def _stats_rule(split):
    """The statistics rule of one family: a non-empty node's
    (leaves, height_nodes, middle_edges, mark_count) from its children's."""
    def rule(t, val) -> tuple:
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


_STATS = {family: _stats_rule(split) for family, split in _SPLIT.items()}
STAT_FIELDS = ("leaves", "height_nodes", "middle_edges", "mark_count")


def tree_stats(t, family: str) -> dict:
    """leaves, height in nodes and edges, middle-edge and mark counts.

    The empty tree has height_nodes 0 and height_edges -1.
    """
    rule = _STATS.get(family)
    if rule is None:
        raise ValueError(f"unknown family {family!r}")
    leaves, height_nodes, middles, marks = _fold(rule, (0, 0, 0, 0), t)
    return {
        "leaves": leaves,
        "height_nodes": height_nodes,
        "height_edges": height_nodes - 1,
        "middle_edges": middles,
        "mark_count": marks,
    }


# Families whose size-n trees are assembled from the cached smaller levels:
# (cached level, streamed level), both called with (n, a) for unary-binary.
_BUILT = {
    "binary": (_binary, _iter_binary),
    "unary_binary": (_unary_binary, _iter_unary_binary),
    "hex": (_hex, _iter_hex),
    "ternary": (_ternary, _iter_ternary),
}


def tally(family: str, top: int, stat: str, a: int = 1) -> list:
    """Distribution of one statistic over the trees of each size 0..top.

    stat is "reg" or one of STAT_FIELDS.  Every tree is built and classified
    by the same node rule as `reg` / `tree_stats`, but a child's value is
    looked up instead of recomputed.  Sizes below top come from the cached
    levels, and their values are kept by id for the next sizes: the ids stay
    valid because the unbounded caches keep those trees alive.  Size top is
    streamed, and no id of a streamed tree is kept.
    """
    built = _BUILT.get(family)
    if built is None:
        raise ValueError(f"no level-by-level construction for family {family!r}")
    if stat == "reg" and family in _REG:
        rule, empty, field = _REG[family], 0, None
    elif stat in STAT_FIELDS:
        rule, empty, field = _STATS[family], (0, 0, 0, 0), STAT_FIELDS.index(stat)
    else:
        raise ValueError(f"statistic {stat!r} not defined for family {family!r}")
    if top < 0:
        return []
    cached, stream = built
    args = (a,) if family == "unary_binary" else ()
    values = {id(None): empty}

    def val(child):
        return values[id(child)]

    dists = [Counter([empty if field is None else empty[field]])]  # size 0: the empty tree
    for size in range(1, top + 1):
        if size < top:
            level = cached(size, *args)
            level_values = list(map(rule, level, repeat(val)))
            values.update(zip(map(id, level), level_values))
        else:
            level_values = map(rule, stream(size, *args), repeat(val))
        dists.append(Counter(level_values if field is None
                             else [v[field] for v in level_values]))
    return dists
