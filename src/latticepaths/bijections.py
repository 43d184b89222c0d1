"""Invertible maps between tree families and decorated lattice paths.

Three correspondences, each with an explicit inverse so round trips can be
tested mechanically:

* multiedge trees of weight N <-> 3-colored Motzkin paths of length N - 1,
* marked ordered trees on n nodes <-> skew paths of length 2n - 2 ending
  at level 0,
* multiedge trees of weight w <-> unary-binary trees (one flat color) on
  w nodes, by rotation.

Tree encodings follow the generator modules: a multiedge tree is a tuple of
``(multiplicity, child)`` pairs, a marked tree a tuple of ``(mark, child)``
pairs, and a unary-binary tree is ``None`` or ``('2', left, right)`` or
``('u', color, child)``.

Each path encoder walks around its tree once.  Each decoder is
one pass that builds the tree's edges on a stack as it reads: the skew path
forwards, noting a mark over a leaf or before a sibling as it goes; the
3-Motzkin path backwards, as a Dyck word whose edges close only once the H2
steps that give their multiplicities are read; the unary-binary tree down
its left branches, with the right branches on the stack.  The rotation and
`tree_to_str` are node rules folded bottom-up by `trees._fold`.  All of them
keep an explicit stack, so no tree is too deep for them.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .paths import levels
from .trees import _CHILDREN, _fold

MultiedgeTree = Tuple  # nested tuples of (multiplicity, child)
MarkedTree = Tuple  # nested tuples of (mark, child)

_PAIR_CODE = {("U", "U"): "U", ("d", "d"): "d", ("U", "d"): "H0", ("d", "U"): "H1"}
_STEPS = frozenset(_PAIR_CODE.values()) | {"H2"}  # the steps of a 3-Motzkin path


def multiedge_to_3motzkin(tree: MultiedgeTree) -> Tuple[str, ...]:
    """Map a multiedge tree of weight N >= 1 to a 3-colored Motzkin path.

    The edge skeleton gives a Dyck word (one U/d pair per edge, pre-order).
    Dropping the forced first and last steps and reading the remaining word
    two letters at a time gives a 2-colored Motzkin path: UU -> rise,
    dd -> fall, Ud -> H0, dU -> H1.  Each edge then deposits its excess
    multiplicity as H2 steps: edge i (pre-order) contributes mult - 1 copies
    of H2 in gap i, where gap i sits before symbol i and the last gap is at
    the end of the path.  The result has length N - 1.
    """
    word, mults, above, edges = [], [], [], iter(tree)  # mults: in pre-order
    while True:
        for mult, child in edges:
            word.append("U")
            mults.append(mult)
            if child:
                above.append(edges)
                edges = iter(child)
                break
            word.append("d")
        else:
            if not above:
                break
            edges = above.pop()
            word.append("d")
    if not mults:
        raise ValueError("the weight-0 tree has no path image")
    out: List[str] = []  # symbol i is the letter pair word[2i + 1], word[2i + 2]
    for mult, pair in zip(mults, zip(word[1::2], word[2::2])):
        out += ["H2"] * (mult - 1)
        out.append(_PAIR_CODE[pair])
    out += ["H2"] * (mults[-1] - 1)
    return tuple(out)


def motzkin3_to_multiedge(path: Sequence[str]) -> MultiedgeTree:
    """Inverse of :func:`multiedge_to_3motzkin`.

    One parse of the Dyck word read backwards, each symbol its letter pair
    reversed: a fall opens an edge, a rise closes it.  The edge closed e-th
    is the e-th from the last opened, and by then the H2 steps of the gap
    e-th from the end, which give its multiplicity, are read.  Raises
    ValueError if the input is not a legal 3-colored Motzkin path (unknown
    token, level dipping below 0, or nonzero final level).
    """
    path = tuple(path)  # any iterable of tokens, read backwards
    mults, mult, closed = [], 1, 0  # 1 + the H2 steps of each gap read, the last first
    above, edges = [[]], []  # the final fall opens the root's last edge
    try:
        for tok in reversed(path):
            if tok == "H2":
                mult += 1
                continue
            mults.append(mult)
            mult = 1
            if tok == "H0":  # a fall then a rise: a leaf edge
                edges.append((mults[closed], ()))
                closed += 1
            elif tok == "H1":  # a rise then a fall
                kids, edges = edges, above.pop()
                edges.append((mults[closed], tuple(kids[::-1])))
                above.append(edges)
                edges, closed = [], closed + 1
            elif tok == "U":  # two rises
                kids, edges = edges, above.pop()
                edges.append((mults[closed], tuple(kids[::-1])))
                kids, edges = edges, above.pop()
                edges.append((mults[closed + 1], tuple(kids[::-1])))
                closed += 2
            elif tok == "d":  # two falls
                above += (edges, [])
                edges = []
            else:
                raise ValueError(_motzkin_fault(path))
        mults.append(mult)
        kids, edges = edges, above.pop()  # the first rise closes the root's first edge
        edges.append((mults[closed], tuple(kids[::-1])))
    except IndexError:
        above = None
    if above != []:
        raise ValueError(_motzkin_fault(path))
    return tuple(edges[::-1])


def _motzkin_fault(path: Sequence[str]) -> str:
    """Why a word is not a 3-colored Motzkin path: its first unknown token,
    else a dip below level 0, else its final level."""
    unknown = [tok for tok in path if tok not in _STEPS]
    if unknown:
        return f"unknown token {unknown[0]!r}"
    return "path dips below level 0" if min(levels(path)) < 0 else "path does not end at level 0"


def marked_to_skew(tree: MarkedTree) -> Tuple[str, ...]:
    """Map a marked ordered tree on n nodes to a skew path of length 2n - 2.

    Walk around the tree: descending an edge is a rise, ascending it is a
    fall, red if the edge is marked.  A mark sits only on a last edge whose
    child is internal, so the red fall is never adjacent to a rise and the
    image is a legal skew path ending at level 0.
    """
    out, above, edges = [], [], iter(tree)
    while True:
        for mark, child in edges:
            out.append("U")
            if child:
                above.append((edges, "r" if mark else "d"))
                edges = iter(child)
                break
            out.append("r" if mark else "d")
        else:
            if not above:
                return tuple(out)
            edges, close = above.pop()
            out.append(close)


def skew_to_marked(path: Sequence[str]) -> MarkedTree:
    """Inverse of :func:`marked_to_skew`; rejects ill-formed inputs.

    One parse of the path into edges, a "d" fall closing an unmarked edge
    and an "r" fall a marked one.  A mark sits only on a node's last edge,
    and only over an internal child: the parse notes a red fall that closes
    an edge without children, and a rise that opens an edge after a marked
    sibling.  That fault is raised only once the word is known to be
    balanced."""
    above, edges, misplaced = [], [], False
    for tok in path:
        if tok == "U":
            if edges and edges[-1][0]:
                misplaced = True
            above.append(edges)
            edges = []
        elif tok == "d" and above:
            kids, edges = edges, above.pop()
            edges.append((0, tuple(kids)))
        elif tok == "r" and above:
            if not edges:
                misplaced = True
            kids, edges = edges, above.pop()
            edges.append((1, tuple(kids)))
        else:
            raise ValueError("unbalanced path")
    if above:
        raise ValueError("unbalanced path")
    if misplaced:
        raise ValueError("mark not on a last edge with internal child")
    return tuple(edges)


def _rotate_node(node, kids):
    """Node rule of the rotation: the edges of a multiedge node, given the
    rotations of their children (a list the rule may use up), become a right
    chain of binary nodes, the edge of multiplicity m under m - 1 unary nodes."""
    out = None
    for mult, _ in reversed(node):
        out = ("2", kids.pop(), out)
        for _ in range(mult - 1):
            out = ("u", 0, out)
    return out


def rotation_multiedge_to_unarybinary(tree: MultiedgeTree):
    """Rotate a multiedge tree of weight w into a unary-binary tree on w nodes.

    First child becomes the left branch, next sibling the right branch; an
    edge of multiplicity m hangs m - 1 unary nodes above the node it leads
    to.  The single color 0 is used for every unary node.
    """
    if not tree:
        raise ValueError("the weight-0 tree has no rotation image")
    return _fold(_CHILDREN["multiedge"], _rotate_node, None, tree)


def rotation_unarybinary_to_multiedge(tree) -> MultiedgeTree:
    """Inverse rotation; accepts any unary-binary tree with color-0 flats.

    One walk down the left branches, which are first children, with the
    right branches, the next siblings, kept on an explicit stack: each run of
    unary nodes above a binary node gives the multiplicity of its edge."""
    if tree is None:
        raise ValueError("the empty tree has no rotation preimage")
    above, edges, node = [], [], tree
    while True:
        if node is not None:
            mult = 1
            while node[0] == "u":
                if node[1] != 0:
                    raise ValueError("rotation images use flat color 0 only")
                node, mult = node[2], mult + 1
                if node is None:
                    raise ValueError("a unary node needs a child")
            above.append((edges, mult, node[2]))
            edges, node = [], node[1]
        elif above:
            kids = tuple(edges)
            edges, mult, node = above.pop()
            edges.append((mult, kids))
        else:
            return tuple(edges)


# Per family, the node rule of its rendering and the rendering of the empty
# tree.  An ordered tree renders as its edges, so a leaf is "", and a tree
# that is one leaf "()".
_RENDER = {
    "multiedge": (lambda node, kids: "".join(
        f"({mult}:{kid})" if kid else f"({mult})" for (mult, _), kid in zip(node, kids)), None),
    "marked": (lambda node, kids: "".join(
        ("*" if mark else "") + f"({kid})" for (mark, _), kid in zip(node, kids)), None),
    "unary_binary": (lambda node, kids: f"u{node[1]}[{kids[0]}]" if node[0] == "u"
                     else f"({kids[0]},{kids[1]})", "."),
}


def tree_to_str(tree, family: str) -> str:
    """Compact one-line rendering used by the pairing tables."""
    if family not in _RENDER:
        raise ValueError(f"unknown family {family!r}")
    rule, empty = _RENDER[family]
    return _fold(_CHILDREN[family], rule, empty, tree) or "()"


def path_to_str(path: Iterable[str]) -> str:
    toks = list(path)
    return " ".join(toks) if toks else "(empty)"
