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

Binary, unary-binary, hex and ternary trees are declared once, as productions:
a tree of size n >= 1 is a head (the tuple entries before its children)
followed by children whose sizes sum to n - 1, and the empty tree is the only
one of size 0.  The declaration is evaluated in two algebras.  In the tree
algebra (`gen_*`) an object is its head plus its children, built from the
cached smaller levels.  In a value algebra (`tally`) an object is a node
rule's value, rule(head, child values), and each size keeps only its list of
values, so no tree is built.  `reg`, `tree_stats` and `tree_size` fold the
same rules over one tree, each node standing in for its own head.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, product, repeat
from operator import itemgetter

# Per declared family, the productions of size n >= 1 in generation order:
# (head, child sizes).  A child of size 0 is the empty tree.
_PRODUCTIONS = {
    "binary": lambda n, a: [((), (i, n - 1 - i)) for i in range(n)],
    "unary_binary": lambda n, a: ([(("2",), (i, n - 1 - i)) for i in range(n)]
                                  + [(("u", color), (n - 1,)) for color in range(a) if n > 1]),
    "hex": lambda n, a: ([((".",), ())] if n == 1 else
                         [((slot,), (n - 1,)) for slot in "LMR" if n > 1]
                         + [(("2",), (i, n - 1 - i)) for i in range(1, n - 1)]),
    "ternary": lambda n, a: [((), (i, j, n - 1 - i - j)) for i in range(n) for j in range(n - i)],
}


def _construct(family: str, n: int, a: int, level, make):
    """The size-n objects of a declared family in one algebra, in production
    order: level(m) lists the objects of size m < n, and make(head, children)
    assembles one object from each choice of children."""
    return chain.from_iterable(map(make, repeat(head), product(*map(level, sizes)))
                               for head, sizes in _PRODUCTIONS[family](n, a))


def _trees(family: str, n: int, a: int, level) -> tuple:
    """The trees of size n, each its head followed by its children."""
    if n == 0:
        return (None,)
    return tuple(_construct(family, n, a, level, tuple.__add__))


def gen_binary(n: int) -> list:
    return list(_binary(n))


@lru_cache(maxsize=None)
def _binary(n: int) -> tuple:
    return _trees("binary", n, 0, _binary)


def gen_unary_binary(n: int, a: int = 1) -> list:
    return list(_unary_binary(n, a))


@lru_cache(maxsize=None)
def _unary_binary(n: int, a: int) -> tuple:
    return _trees("unary_binary", n, a, lambda m: _unary_binary(m, a))


def gen_hex(n: int) -> list:
    return list(_hex(n))


@lru_cache(maxsize=None)
def _hex(n: int) -> tuple:
    return _trees("hex", n, 0, _hex)


def gen_ternary(n: int) -> list:
    return list(_ternary(n))


@lru_cache(maxsize=None)
def _ternary(n: int) -> tuple:
    return _trees("ternary", n, 0, _ternary)


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


# Per family, a non-empty node's children, empty ones included.  For the
# declared families a node is its head followed by these children.
_CHILDREN = {
    "binary": lambda t: t,
    "unary_binary": lambda t: t[1:] if t[0] == "2" else t[2:],
    "hex": lambda t: t[1:],
    "ternary": lambda t: t,
    "ordered": lambda t: t,
    "marked": lambda t: [child for _, child in t],
    "multiedge": lambda t: [child for _, child in t],
}


def _fold(children, rule, empty, t):
    """Evaluate a node rule bottom-up over t, with an explicit stack of the
    unfinished ancestors instead of recursion, so the depth is not limited.

    Each non-empty node gets rule(node, its children's values).  The rules of
    the declared families read only the node's head entries, so `tally` can
    pass a production's head in its place.  The empty tree (None) has value
    empty.
    """
    if t is None:
        return empty
    stack = []  # (node, its remaining children, their values so far) per ancestor
    node, kids, vals = t, iter(children(t)), []
    while True:
        for kid in kids:
            if kid is None:
                vals.append(empty)
            else:
                stack.append((node, kids, vals))
                node, kids, vals = kid, iter(children(kid)), []
                break
        else:
            value = rule(node, vals)
            if not stack:
                return value
            node, kids, vals = stack.pop()
            vals.append(value)


def tree_size(t, family: str) -> int:
    children = _CHILDREN.get(family)
    if children is None:
        raise ValueError(f"unknown family {family!r}")
    if family == "multiedge":
        return _fold(children, lambda node, kids: sum(m for m, _ in node) + sum(kids), 0, t)
    return _fold(children, lambda node, kids: 1 + sum(kids), 0, t)


def _register(head, kids) -> int:
    """Register rule: a node's value from its children's values (a node
    without children is a bare hex node)."""
    if len(kids) == 2:
        a, b = kids
        return a + 1 if a == b else (a if a > b else b)
    return kids[0] if kids else 1


_REG = dict.fromkeys(("binary", "unary_binary", "hex"), _register)


def reg(t, family: str = "binary") -> int:
    """Register number: leaves get 0 (bare hex node 1), unary edges pass through,
    a branch node takes the larger child value, plus one on a tie."""
    rule = _REG.get(family)
    if rule is None:
        raise ValueError(f"register number not defined for family {family!r}")
    return _fold(_CHILDREN[family], rule, 0, t)


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
_STATS = {family: _stats_rule(_OWN.get(family)) for family in _CHILDREN}
STAT_FIELDS = ("leaves", "height_nodes", "middle_edges", "mark_count")


def tree_stats(t, family: str) -> dict:
    """leaves, height in nodes and edges, middle-edge and mark counts.

    The empty tree has height_nodes 0 and height_edges -1.
    """
    rule = _STATS.get(family)
    if rule is None:
        raise ValueError(f"unknown family {family!r}")
    leaves, height_nodes, middles, marks = _fold(_CHILDREN[family], rule, (0, 0, 0, 0), t)
    return {
        "leaves": leaves,
        "height_nodes": height_nodes,
        "height_edges": height_nodes - 1,
        "middle_edges": middles,
        "mark_count": marks,
    }


def tally(family: str, top: int, stat: str, a: int = 1) -> list:
    """Distribution of one statistic over the trees of each size 0..top.

    stat is "reg" or one of STAT_FIELDS.  The family's productions are
    evaluated in the statistic's value algebra: every tree is visited once, as
    one call of the same node rule as `reg` / `tree_stats` on its children's
    values, drawn from the lists kept for the smaller sizes.  No tree is
    built, and the values of size top are counted as they are made.
    """
    if family not in _PRODUCTIONS:
        raise ValueError(f"no level-by-level construction for family {family!r}")
    if stat == "reg" and family in _REG:
        rule, empty, field = _REG[family], 0, None
    elif stat in STAT_FIELDS:
        rule, empty, field = _STATS[family], (0, 0, 0, 0), STAT_FIELDS.index(stat)
    else:
        raise ValueError(f"statistic {stat!r} not defined for family {family!r}")
    if top < 0:
        return []

    def count(values) -> Counter:
        return Counter(values if field is None else map(itemgetter(field), values))

    levels = [[empty]]  # the values of each size below top
    for size in range(1, top):
        levels.append(list(_construct(family, size, a, levels.__getitem__, rule)))
    dists = [count(values) for values in levels]
    if top:
        dists.append(count(_construct(family, top, a, levels.__getitem__, rule)))
    return dists
