"""The two-pass marked-tree decoder that the one-pass decoder replaced,
kept as an oracle.

`skew_to_marked` parses the word into a marked tree and then folds the node
rule `_check_marks` over it: a mark only on a node's last edge, and only over
an internal child.  `bijections.skew_to_marked` checks the same rule while
it parses, so this copy checks that the two accept the same words, give the
same trees and raise the same messages, an unbalanced word first.
"""

from typing import Sequence, Tuple

from latticepaths.trees import _CHILDREN, _fold

MarkedTree = Tuple  # nested tuples of (mark, child)


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

