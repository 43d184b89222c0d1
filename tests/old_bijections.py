"""The marked-tree, 3-Motzkin and rotation decoders that the one-pass
decoders of `bijections` replaced, kept as oracles.

`skew_to_marked` parses the word into a marked tree and then folds the node
rule `_check_marks` over it: a mark only on a node's last edge, and only over
an internal child.  `one_parse_skew_to_marked` notes a red fall next to a
rise while it parses, through `_parse`, a parse of any Dyck word into edges
labelled by a callback.  `motzkin3_to_multiedge` checks the tokens, then the
levels, then builds the Dyck word of the path for `_parse`.
`rotation_unarybinary_to_multiedge` folds the node rule `_unrotate_node`
bottom-up over the tree.  `bijections` decodes in one pass each, and these
copies check that the two accept the same words and trees, give the same
results and raise the same messages.
"""

from typing import List, Sequence, Tuple

from latticepaths.trees import _CHILDREN, _fold

MarkedTree = Tuple  # nested tuples of (mark, child)
MultiedgeTree = Tuple  # nested tuples of (multiplicity, child)

_PAIR_CODE = {("U", "U"): "U", ("d", "d"): "d", ("U", "d"): "H0", ("d", "U"): "H1"}
_CODE_PAIR = {v: k for k, v in _PAIR_CODE.items()}
_CODE_STEP = {"U": 1, "d": -1}


def _parse(word: Sequence[str], closings: Tuple[str, ...], label, apart=()) -> tuple:
    """The tree of a Dyck word whose rises are "U" and whose falls are the
    tokens in closings, the inverse of `_walk`: the edge opened i-th and
    closed by token c gets label(i, c).  The open edges are kept on an
    explicit stack, each with its index and the siblings before it.  Returns
    the tree and whether a fall in `apart` sits next to a rise; an
    unbalanced word raises ValueError instead."""
    above, edges, opened, prev, touching = [], [], 0, None, False
    for tok in word:
        if tok == "U":
            touching = touching or prev in apart
            above.append((opened, edges))
            edges, opened = [], opened + 1
        elif tok in closings and above:
            touching = touching or prev == "U" and tok in apart
            index, siblings = above.pop()
            siblings.append((label(index, tok), tuple(edges)))
            edges = siblings
        else:
            raise ValueError("unbalanced path")
        prev = tok
    if above:
        raise ValueError("unbalanced path")
    return tuple(edges), touching


def _check_marks(node, kids) -> None:
    """Node rule of a decoded marked tree: a mark only on its last edge,
    and only over an internal child."""
    if node and (node[-1][0] and not node[-1][1] or any([mark for mark, _ in node[:-1]])):
        raise ValueError("mark not on a last edge with internal child")


def skew_to_marked(path: Sequence[str]) -> MarkedTree:
    """Inverse of :func:`marked_to_skew`; rejects ill-formed inputs."""
    tree = _parse(path, ("d", "r"), lambda index, tok: int(tok == "r"))[0]
    _fold(_CHILDREN["marked"], _check_marks, None, tree)
    return tree


def one_parse_skew_to_marked(path: Sequence[str]) -> MarkedTree:
    """Inverse of :func:`marked_to_skew`; rejects ill-formed inputs.

    A mark sits only on a node's last edge, and only over an internal child:
    a red fall right after a rise would mark an edge over a leaf, and one
    right before a rise an edge with a next sibling.  The parse notes a red
    fall next to a rise, and the fault is raised only once the word is known
    to be balanced."""
    tree, touching = _parse(path, ("d", "r"), lambda index, tok: int(tok == "r"), ("r",))
    if touching:
        raise ValueError("mark not on a last edge with internal child")
    return tree


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
        level += _CODE_STEP.get(tok, 0)
        if level < 0:
            raise ValueError("path dips below level 0")
    if level != 0:
        raise ValueError("path does not end at level 0")
    word = ["U"]
    for tok in symbols:
        word.extend(_CODE_PAIR[tok])
    word.append("d")
    # the edge opened i-th carries the i-th multiplicity, pre-order
    return _parse(word, ("d",), lambda index, tok: blues[index] + 1)[0]


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
