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
"""

from __future__ import annotations

from functools import lru_cache


def gen_binary(n: int) -> list:
    return list(_binary(n))


@lru_cache(maxsize=None)
def _binary(n: int) -> tuple:
    if n == 0:
        return (None,)
    out = []
    for i in range(n):
        for left in _binary(i):
            for right in _binary(n - 1 - i):
                out.append((left, right))
    return tuple(out)


def gen_unary_binary(n: int, a: int = 1) -> list:
    return list(_unary_binary(n, a))


@lru_cache(maxsize=None)
def _unary_binary(n: int, a: int) -> tuple:
    if n == 0:
        return (None,)
    out = []
    for i in range(n):
        for left in _unary_binary(i, a):
            for right in _unary_binary(n - 1 - i, a):
                out.append(("2", left, right))
    for color in range(a):
        for child in _unary_binary(n - 1, a):
            if child is not None:
                out.append(("u", color, child))
    return tuple(out)


def gen_hex(n: int) -> list:
    return list(_hex(n))


@lru_cache(maxsize=None)
def _hex(n: int) -> tuple:
    if n == 0:
        return (None,)
    if n == 1:
        return ((".",),)
    out = []
    for slot in ("L", "M", "R"):
        for child in _hex(n - 1):
            if child is not None:
                out.append((slot, child))
    for i in range(1, n - 1):
        for left in _hex(i):
            if left is None:
                continue
            for right in _hex(n - 1 - i):
                if right is not None:
                    out.append(("2", left, right))
    return tuple(out)


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
    if total == 0:
        return [()]
    out = []
    for first_size in range(1, total + 1):
        for first in _marked(first_size):
            for rest in _marked_forests(total - first_size):
                out.append(((False, first),) + rest)
    return out


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
    if n == 0:
        return (None,)
    out = []
    for i in range(n):
        for j in range(n - i):
            for left in _ternary(i):
                for middle in _ternary(j):
                    for right in _ternary(n - 1 - i - j):
                        out.append((left, middle, right))
    return tuple(out)


def tree_size(t, family: str) -> int:
    if family == "binary":
        return 0 if t is None else 1 + tree_size(t[0], family) + tree_size(t[1], family)
    if family == "unary_binary":
        if t is None:
            return 0
        if t[0] == "2":
            return 1 + tree_size(t[1], family) + tree_size(t[2], family)
        return 1 + tree_size(t[2], family)
    if family == "hex":
        if t is None:
            return 0
        if t[0] == ".":
            return 1
        if t[0] == "2":
            return 1 + tree_size(t[1], family) + tree_size(t[2], family)
        return 1 + tree_size(t[1], family)
    if family in ("ordered",):
        return 1 + sum(tree_size(c, family) for c in t)
    if family == "marked":
        return 1 + sum(tree_size(c, family) for _, c in t)
    if family == "multiedge":
        return sum(m + tree_size(c, family) for m, c in t)
    if family == "ternary":
        return 0 if t is None else 1 + sum(tree_size(c, family) for c in t)
    raise ValueError(f"unknown family {family!r}")


def reg(t, family: str = "binary") -> int:
    """Register number: leaves get 0 (bare hex node 1), unary edges pass through,
    a branch node takes the larger child value, plus one on a tie."""
    helper = _REG.get(family)
    if helper is None:
        raise ValueError(f"register number not defined for family {family!r}")
    return 0 if t is None else helper(t)


# The helpers take a non-empty tree and skip empty children without a call:
# half of all subtrees are empty.

def _reg_binary(t) -> int:
    left, right = t
    a = 0 if left is None else _reg_binary(left)
    b = 0 if right is None else _reg_binary(right)
    return a + 1 if a == b else (a if a > b else b)


def _reg_unary_binary(t) -> int:
    while t[0] == "u":
        t = t[2]
        if t is None:
            return 0
    _, left, right = t
    a = 0 if left is None else _reg_unary_binary(left)
    b = 0 if right is None else _reg_unary_binary(right)
    return a + 1 if a == b else (a if a > b else b)


def _reg_hex(t) -> int:
    while t[0] not in ("2", "."):
        t = t[1]
        if t is None:
            return 0
    if t[0] == ".":
        return 1
    _, left, right = t
    a = 0 if left is None else _reg_hex(left)
    b = 0 if right is None else _reg_hex(right)
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


def tree_stats(t, family: str) -> dict:
    """leaves, height in nodes and edges, middle-edge and mark counts.

    The empty tree has height_nodes 0 and height_edges -1.
    """
    split = _SPLIT.get(family)
    if split is None:
        raise ValueError(f"unknown family {family!r}")
    leaves, height_nodes, middles, marks = (0, 0, 0, 0) if t is None else _stats(t, split)
    return {
        "leaves": leaves,
        "height_nodes": height_nodes,
        "height_edges": height_nodes - 1,
        "middle_edges": middles,
        "mark_count": marks,
    }


def _stats(t, split) -> tuple:
    """(leaves, height_nodes, middle_edges, mark_count) of a non-empty tree."""
    kids, middles, marks = split(t)
    if not kids:
        return 1, 1, middles, marks
    leaves = height = 0
    for kid in kids:
        kid_leaves, kid_height, kid_middles, kid_marks = _stats(kid, split)
        leaves += kid_leaves
        middles += kid_middles
        marks += kid_marks
        if kid_height > height:
            height = kid_height
    return leaves, height + 1, middles, marks
