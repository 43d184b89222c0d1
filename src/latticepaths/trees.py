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
then the edges of the rest tree, so a sequence of subtrees is "first plus
the rest".  `gen_*` read one cached evaluator.  `tally` evaluates the node
classes in a value algebra, a size as value -> number of trees, so equal
values merge and no tree is built.  `reg`, `tree_stats` and `tree_size` fold
the same rules over one tree, each node standing in for its own head.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, product, repeat
from math import prod


def _colours(a: int) -> range:
    if a < 0:
        raise ValueError("number of extra unary colours a must be >= 0")
    return range(a)


# Per class, its productions of size n in generation order: (head, children),
# each child a (class, size).  A cons class's leaf has no children.  The last
# edge of a marked tree, over a child of size n, comes from `marked_last`:
# unmarked, then marked if the child is internal, so the mark varies fastest.
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
                             [((), (("ordered", s), ("ordered", n - s))) for s in range(1, n)]),
    "marked": lambda n, a: ([((), ())] if n == 1 else
                            [((False,), (("marked", s), ("marked", n - s))) for s in range(1, n - 1)]
                            + [((), (("marked_last", n - 1), ("marked", 1)))]),
    "marked_last": lambda n, a: [((), (("marked", n), ("mark", n)))],
    "mark": lambda n, a: [((False,), ()), ((True,), ())][:1 + (n > 1)],
    "multiedge": lambda n, a: ([((), ())] if n == 0 else
                               [((m,), (("multiedge", c), ("multiedge", n - m - c)))
                                for m in range(1, n + 1) for c in range(n - m + 1)]),
}
_NODE_CLASSES = ("binary", "unary_binary", "hex", "ternary")


def _cons(head, kids):
    """First edge (head entries then the first child, or under an empty head
    the bare child), then the rest tree's edges; no children make a leaf."""
    return (head + kids[:1] if head else kids[0],) + kids[1] if kids else head


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
    **dict.fromkeys(("marked", "multiedge"), lambda t: [child for _, child in t]),
}


def _fold(children, rule, empty, t):
    """Evaluate a node rule bottom-up over t, with an explicit stack of the
    unfinished ancestors instead of recursion, so the depth is not limited.

    Each non-empty node gets rule(node, its children's values).  The rules of
    the node classes read only the node's head entries, so `tally` can pass a
    production's head in its place.  The empty tree (None) has value
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


def _merged(pairs) -> Counter:
    """value -> the sum of its counts, over (value, count) pairs."""
    out = Counter()
    for value, count in pairs:
        out[value] += count
    return out


def tally(family: str, top: int, stat: str, a: int = 1) -> list:
    """Distribution of one statistic over the trees of each size 0..top.

    stat is "reg" or one of STAT_FIELDS.  The family's productions are
    evaluated in the statistic's value algebra, each size held as value ->
    number of trees.  Each choice of (value, count) pairs for a production's
    children is one call of the same node rule as `reg` / `tree_stats`,
    weighed by the product of the counts, so equal values merge and no tree
    is built.
    """
    if family not in _NODE_CLASSES:
        raise ValueError(f"no value algebra for family {family!r}: its trees are not nodes")
    if stat == "reg" and family in _REG:
        rule, empty, field = _REG[family], 0, None
    elif stat in STAT_FIELDS:
        rule, empty, field = _STATS[family], (0, 0, 0, 0), STAT_FIELDS.index(stat)
    else:
        raise ValueError(f"statistic {stat!r} not defined for family {family!r}")
    if family == "unary_binary":
        _colours(a)  # size 0 reads no production
    if top < 0:
        return []

    levels = [Counter([empty])]  # per size, value -> number of trees
    for size in range(1, top + 1):
        levels.append(_merged(_construct(
            _PRODUCTIONS[family](size, a), lambda child: levels[child[1]].items(),
            lambda head, kids: (rule(head, [v for v, _ in kids]), prod(c for _, c in kids)))))
    return levels if field is None else [_merged((v[field], c) for v, c in level.items())
                                         for level in levels]
