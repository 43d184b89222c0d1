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

All seven families are declared once, as productions: a head (the entries an
object adds) and children, each a class at a size.  A node (binary,
unary-binary, hex, ternary) is its head then its children, and None is the
empty one.  An ordered, marked or multi-edge tree is a cons, its first edge
then the edges of the rest tree, if it has more than one edge, so a sequence
of subtrees is "first plus the rest".  `gen_*` read one cached evaluator.

Each statistic (register number, leaves, height, middle edges, marks, edges
of an edge-list tree) is one node rule per family, which reads the node and
its children's values of that statistic alone, and one cons step, which
joins the value of a cons tree's first edge alone to its rest tree's.  `reg`
and `tree_stats` fold the rules over one tree, and `tree_size` folds its
own.  `tally` evaluates every family in one statistic's value algebra, a
class and size as value -> number of objects, so equal values merge and no
tree is built.  `values` is the same evaluation unmerged, a tuple of values
per size in the order of `gen_*`, for a check that pairs each tree with its
own value.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import chain, product, repeat
from math import prod
from operator import add, itemgetter


def _colours(a: int) -> range:
    if a < 0:
        raise ValueError("number of extra unary colours a must be >= 0")
    return range(a)


# Per class, its productions of size n in generation order: (head, children),
# each child a (class, size).  A cons class's leaf has no children, and a cons
# tree whose first edge is its only one has no rest tree.  The last edge of a
# marked tree, over a child of size n, comes from `marked_last`: unmarked, then
# marked if the child is internal, so the mark varies fastest.
_PRODUCTIONS = {
    "binary": lambda n, a: [((), (("binary", i), ("binary", n - 1 - i))) for i in range(n)],
    "unary_binary": lambda n, a: (
        [(("2",), (("unary_binary", i), ("unary_binary", n - 1 - i))) for i in range(n)]
        + [(("u", color), (("unary_binary", n - 1),)) for color in _colours(a) if n > 1]),
    "hex": lambda n, a: ([((".",), ())] if n == 1 else
                         [((slot,), (("hex", n - 1),)) for slot in "LMR"]
                         + [(("2",), (("hex", i), ("hex", n - 1 - i))) for i in range(1, n - 1)]),
    "ternary": lambda n, a: [((), (("ternary", i), ("ternary", j), ("ternary", n - 1 - i - j)))
                             for i in range(n) for j in range(n - i)],
    "ordered": lambda n, a: ([((), ())] if n == 1 else
                             [((), (("ordered", s),) + (("ordered", n - s),) * (s < n - 1))
                              for s in range(1, n)]),
    "marked": lambda n, a: ([((), ())] if n == 1 else
                            [((False,), (("marked", s), ("marked", n - s))) for s in range(1, n - 1)]
                            + [((), (("marked_last", n - 1),))]),
    "marked_last": lambda n, a: [((), (("marked", n), ("mark", n)))],
    "mark": lambda n, a: [((False,), ()), ((True,), ())][:1 + (n > 1)],
    "multiedge": lambda n, a: ([((), ())] if n == 0 else
                               [((m,), (("multiedge", c),)
                                 + (("multiedge", n - m - c),) * (c < n - m))
                                for m in range(1, n + 1) for c in range(n - m + 1)]),
}
_NODE_CLASSES = ("binary", "unary_binary", "hex", "ternary")


def _cons(head, kids):
    """First edge (head entries then the first child, or under an empty head
    the bare child), then the rest tree's edges if there is a rest tree; no
    children make a leaf."""
    if not kids:
        return head
    edge = (head + kids[:1] if head else kids[0],)
    return edge + kids[1] if len(kids) > 1 else edge


# Per class, make(head, children); the classes not named here are cons classes
_MAKE = {**dict.fromkeys(_NODE_CLASSES + ("mark",), tuple.__add__),
         "marked_last": lambda head, kids: kids[1] + kids[:1]}


def _construct(productions, level, make):
    """The objects of one size in one algebra, in production order:
    level(child) lists the objects of a child (class, size), and
    make(head, children) assembles one object from each choice of children."""
    return chain.from_iterable(map(make, repeat(head), product(*map(level, children)))
                               for head, children in productions)


@lru_cache(maxsize=None)
def _level(cls: str, n: int, a: int) -> tuple:
    """The objects of class cls and size n in the tree algebra."""
    if n < 0:
        return ()
    if n == 0 and cls in _NODE_CLASSES:
        return (None,)
    return tuple(_construct(_PRODUCTIONS[cls](n, a), lambda child: _level(*child, a),
                            _MAKE.get(cls, _cons)))


def gen_binary(n: int) -> list:
    return list(_level("binary", n, 0))


def gen_unary_binary(n: int, a: int = 1) -> list:
    _colours(a)  # size 0 reads no production
    return list(_level("unary_binary", n, a))


def gen_hex(n: int) -> list:
    return list(_level("hex", n, 0))


def gen_ternary(n: int) -> list:
    return list(_level("ternary", n, 0))


def gen_ordered(n: int) -> list:
    return list(_level("ordered", n, 0))


def gen_marked(n: int) -> list:
    return list(_level("marked", n, 0))


def gen_multiedge(total_weight: int) -> list:
    return list(_level("multiedge", total_weight, 0))


# Per family, a non-empty tree's children, empty ones included.  A node is
# its head followed by these children.
_CHILDREN = {
    **dict.fromkeys(("binary", "ternary", "ordered"), lambda t: t),
    "unary_binary": lambda t: t[1:] if t[0] == "2" else t[2:],
    "hex": lambda t: t[1:],
    **dict.fromkeys(("marked", "multiedge"), partial(map, itemgetter(1))),
}


def _fold(children, rule, empty, t):
    """Evaluate a node rule bottom-up over t, with an explicit stack of the
    unfinished ancestors instead of recursion, so the depth is not limited.

    Each non-empty node gets rule(node, its children's values).  The rules of
    the node classes read only the node's head entries and whether a child is
    empty (None, so falsy), so `tally` can pass a stand-in in its place: the
    production's head followed by its children's sizes, where an empty child
    is size 0.  The empty tree (None) has value empty.
    """
    if t is None:
        return empty
    stack = []  # (node, its remaining children, their values so far) per ancestor
    node, kids, vals = t, iter(children(t)), []
    while True:
        for kid in kids:
            if kid is None:
                vals.append(empty)
            elif not kid:  # a leaf of an edge-list tree, without children
                vals.append(rule(kid, []))
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


def _register(node, kids) -> int:
    """Register rule: a node's value from its children's values (a node
    without children is a bare hex node)."""
    if len(kids) == 2:
        a, b = kids
        return a + 1 if a == b else (a if a > b else b)
    return kids[0] if kids else 1


def _added(node, kids) -> int:
    """A count the node adds nothing to: its children's counts summed."""
    return sum(kids)


_REG = dict.fromkeys(("binary", "unary_binary", "hex"), _register)
STAT_FIELDS = ("leaves", "height_nodes", "middle_edges", "mark_count")
# Per statistic, its node rule per family.  A rule reads the node and its
# children's values of the same statistic, and the empty tree has value 0;
# `edges` counts the edges of an edge-list tree.  Under `tally` and `values`
# a node is a stand-in, the production's head followed by its
# children's sizes, so either way a child is empty exactly when its entry is
# falsy; a cons tree there has one edge, over its child's value.
_RULES = {
    "reg": _REG,
    "leaves": dict.fromkeys(_CHILDREN, lambda node, kids: sum(kids) or 1),
    "height_nodes": dict.fromkeys(_CHILDREN, lambda node, kids: 1 + max(kids, default=0)),
    "middle_edges": {**dict.fromkeys(_CHILDREN, _added),
                     "hex": lambda node, kids: (node[0] == "M") + sum(kids),
                     "ternary": lambda node, kids: (1 if node[1] else 0) + sum(kids)},
    "mark_count": {**dict.fromkeys(_CHILDREN, _added),
                   "marked": lambda node, kids: sum(mark for mark, _ in node) + sum(kids)},
    "edges": dict.fromkeys(("ordered", "marked", "multiedge"),
                           lambda node, kids: len(node) + sum(kids)),
}
# Per statistic, its cons step: a cons tree's value from the value of its
# first edge alone, a one-edge tree valued by the rule above, and the value of
# its rest tree, which has an edge.
_CONS_STEPS = {"leaves": add, "height_nodes": max, "middle_edges": add, "mark_count": add,
               "edges": add}


def _rule(family: str, stat: str):
    rule = _RULES.get(stat, {}).get(family)
    if rule is None:
        raise ValueError(f"statistic {stat!r} not defined for family {family!r}")
    return rule


def _stat(t, family: str, stat: str) -> int:
    """One statistic of t: its family's rule folded bottom-up."""
    rule = _rule(family, stat)
    return _fold(_CHILDREN[family], rule, 0, t)


def reg(t, family: str = "binary") -> int:
    """Register number: leaves get 0 (bare hex node 1), unary edges pass through,
    a branch node takes the larger child value, plus one on a tie."""
    return _stat(t, family, "reg")


def tree_stats(t, family: str) -> dict:
    """leaves, height in nodes and edges, middle-edge and mark counts.

    The empty tree has height_nodes 0 and height_edges -1.
    """
    leaves, height_nodes, middles, marks = (_stat(t, family, stat) for stat in STAT_FIELDS)
    return {
        "leaves": leaves,
        "height_nodes": height_nodes,
        "height_edges": height_nodes - 1,
        "middle_edges": middles,
        "mark_count": marks,
    }


def _evaluate(family: str, top: int, stat: str, a: int, merged: bool) -> list:
    """The family's productions evaluated in one statistic's value algebra, per
    size 0..top the values of its trees: value -> number of trees if merged,
    else a tuple in generation order.  No tree is built.

    A production's children each take one value (merged, a (value, count)
    pair, the counts multiplied), and a node's value is the family's rule, as
    in `reg` / `tree_stats`, with the production's head followed by its
    children's sizes in the place of the node.  A cons tree's is the rule on
    its first edge alone (the head entries over the first child's value),
    joined to the rest tree's value by the cons step; the helper classes of
    the marked trees build their edges as `gen_marked` does, with values in
    the place of the children.
    """
    rule = _rule(family, stat)
    if family == "unary_binary":
        _colours(a)  # size 0 reads no production
    step, children = _CONS_STEPS.get(stat), _CHILDREN[family]

    def cons_value(head, vals):
        first = _cons(head, vals[:1])  # the first edge alone, or a leaf
        value = rule(first, list(children(first)))
        return step(value, vals[1]) if len(vals) > 1 else value

    @lru_cache(maxsize=None)
    def level(cls, n):
        node = cls in _NODE_CLASSES
        if n < 0 or n == 0 and node:  # nothing, or the empty tree of value 0
            return (Counter if merged else tuple)([0] * (n == 0))
        make = rule if node else _MAKE.get(cls, cons_value)
        stand_ins = [(head + tuple(size for _, size in kids) if node else head, kids)
                     for head, kids in _PRODUCTIONS[cls](n, a)]
        if not merged:
            return tuple(_construct(stand_ins, lambda child: level(*child), make))
        out = Counter()
        for value, count in _construct(
                stand_ins, lambda child: level(*child).items(),
                lambda head, kids: (make(head, tuple([v for v, _ in kids])),
                                    prod(c for _, c in kids))):
            out[value] += count
        return out

    return [level(family, n) for n in range(top + 1)]


def tally(family: str, top: int, stat: str, a: int = 1) -> list:
    """Distribution of one statistic over the trees of each size 0..top, as
    value -> number of trees; stat is "reg", "edges" or one of STAT_FIELDS."""
    return _evaluate(family, top, stat, a, merged=True)


def values(family: str, top: int, stat: str, a: int = 1) -> list:
    """One statistic of every tree of each size 0..top, a tuple per size in
    the order of `gen_*`: `tally` with no value merged."""
    return _evaluate(family, top, stat, a, merged=False)
