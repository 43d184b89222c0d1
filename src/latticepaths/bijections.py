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

Both path encoders read one walk around the tree, `_walk`, and both path
decoders one parse of a Dyck word into labelled edges, `_parse`.  The
rotation both ways, the mark rule of a decoded marked tree and
`tree_to_str` are node rules folded bottom-up by `trees._fold`.  All of
them keep an explicit stack, so no tree is too deep for them.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .trees import _CHILDREN, _fold

MultiedgeTree = Tuple  # nested tuples of (multiplicity, child)
MarkedTree = Tuple  # nested tuples of (mark, child)

_PAIR_CODE = {("U", "U"): "U", ("d", "d"): "d", ("U", "d"): "H0", ("d", "U"): "H1"}
_CODE_PAIR = {v: k for k, v in _PAIR_CODE.items()}


def _walk(tree, opening, closing) -> list:
    """The tokens of a walk around the tree, edges in pre-order:
    opening(label) down each edge and closing(label) back up it.  The
    edges above are kept on an explicit stack instead of recursion."""
    out, above, edges = [], [], iter(tree)
    while True:
        for label, child in edges:
            out.append(opening(label))
            if child:
                above.append((edges, closing(label)))
                edges = iter(child)
                break
            out.append(closing(label))
        else:
            if not above:
                return out
            edges, close = above.pop()
            out.append(close)


def _parse(word: Sequence[str], closings: Tuple[str, ...], label) -> tuple:
    """The tree of a Dyck word whose rises are "U" and whose falls are the
    tokens in closings, the inverse of `_walk`: the edge opened i-th and
    closed by token c gets label(i, c).  The open edges are kept on an
    explicit stack, each with its index and the siblings before it."""
    above, edges, opened = [], [], 0
    for tok in word:
        if tok == "U":
            above.append((opened, edges))
            edges, opened = [], opened + 1
        elif tok in closings and above:
            index, siblings = above.pop()
            siblings.append((label(index, tok), tuple(edges)))
            edges = siblings
        else:
            raise ValueError("unbalanced path")
    if above:
        raise ValueError("unbalanced path")
    return tuple(edges)


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
    mults: List[int] = []  # edge multiplicities in pre-order

    def opening(mult):
        mults.append(mult)
        return "U"

    word = _walk(tree, opening, lambda mult: "d")
    if not mults:
        raise ValueError("the weight-0 tree has no path image")
    pairs = iter(word)
    next(pairs)  # symbol i is the letter pair word[2i + 1], word[2i + 2]
    out: List[str] = []
    for mult, pair in zip(mults, zip(pairs, pairs)):
        if mult > 1:
            out += ["H2"] * (mult - 1)
        out.append(_PAIR_CODE[pair])
    out += ["H2"] * (mults[-1] - 1)
    return tuple(out)


def motzkin3_to_multiedge(path: Sequence[str]) -> MultiedgeTree:
    """Inverse of :func:`multiedge_to_3motzkin`.

    Raises ValueError if the input is not a legal 3-colored Motzkin path
    (unknown token, level dipping below 0, or nonzero final level).
    """
    blues: List[int] = [0]
    symbols: List[str] = []
    for tok in path:
        if tok == "H2":
            blues[-1] += 1
        elif tok in _CODE_PAIR:
            symbols.append(tok)
            blues.append(0)
        else:
            raise ValueError(f"unknown token {tok!r}")
    level = 0
    for tok in symbols:
        level += {"U": 1, "d": -1}.get(tok, 0)
        if level < 0:
            raise ValueError("path dips below level 0")
    if level != 0:
        raise ValueError("path does not end at level 0")
    word = ["U"]
    for tok in symbols:
        word.extend(_CODE_PAIR[tok])
    word.append("d")
    # the edge opened i-th carries the i-th multiplicity, pre-order
    return _parse(word, ("d",), lambda index, tok: blues[index] + 1)


def marked_to_skew(tree: MarkedTree) -> Tuple[str, ...]:
    """Map a marked ordered tree on n nodes to a skew path of length 2n - 2.

    Walk around the tree: descending an edge is a rise, ascending it is a
    fall, red if the edge is marked.  A mark sits only on a last edge whose
    child is internal, so the red fall is never adjacent to a rise and the
    image is a legal skew path ending at level 0.
    """
    return tuple(_walk(tree, lambda mark: "U", lambda mark: "r" if mark else "d"))


def _check_marks(node, kids) -> None:
    """Node rule of a decoded marked tree: a mark only on its last edge,
    and only over an internal child."""
    if node and (node[-1][0] and not node[-1][1] or any([mark for mark, _ in node[:-1]])):
        raise ValueError("mark not on a last edge with internal child")


def skew_to_marked(path: Sequence[str]) -> MarkedTree:
    """Inverse of :func:`marked_to_skew`; rejects ill-formed inputs."""
    tree = _parse(path, ("d", "r"), lambda index, tok: int(tok == "r"))
    _fold(_CHILDREN["marked"], _check_marks, None, tree)
    return tree


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


def _unrotate_node(node, kids) -> list:
    """Node rule of the inverse rotation: a node's value is the multiedge
    forest of its first edge and that edge's next siblings, as a list in
    reverse order, so that both steps take constant time.  A binary node
    opens an edge of multiplicity 1, a unary node adds 1 to it."""
    if node[0] == "2":
        left, right = kids
        forest = right or []  # the empty tree's value () is shared
        forest.append((1, tuple(reversed(left))))
        return forest
    if node[1] != 0:
        raise ValueError("rotation images use flat color 0 only")
    forest = kids[0]
    if not forest:
        raise ValueError("a unary node needs a child")
    mult, child = forest[-1]
    forest[-1] = (mult + 1, child)
    return forest


def rotation_unarybinary_to_multiedge(tree) -> MultiedgeTree:
    """Inverse rotation; accepts any unary-binary tree with color-0 flats."""
    if tree is None:
        raise ValueError("the empty tree has no rotation preimage")
    return tuple(reversed(_fold(_CHILDREN["unary_binary"], _unrotate_node, (), tree)))


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
