"""Bijection round trips, image-set equalities, and statistic transport.

The encoders read one walk around the tree, the three decoders each make
one pass with an explicit stack, and the rotation and `tree_to_str` are node
rules folded with an explicit stack.  The recursive maps they replaced are
kept here as oracles (`old_*`), and the multi-pass decoders in
`old_bijections`: the new maps must give the same images, trees, renderings
and error messages.
"""

import sys
from itertools import product

import pytest

import old_bijections
from latticepaths.bijections import (
    marked_to_skew,
    motzkin3_to_multiedge,
    multiedge_to_3motzkin,
    path_to_str,
    rotation_multiedge_to_unarybinary,
    rotation_unarybinary_to_multiedge,
    skew_to_marked,
    tree_to_str,
)
from latticepaths.paths import gen_motzkin, gen_skew, levels, path_stats
from latticepaths.trees import _stat, gen_marked, gen_multiedge, gen_unary_binary, tree_stats, values


# ----------------------------------------------------------------------
# oracles: the recursive maps the walk, the parse and the folds replaced
# ----------------------------------------------------------------------

def old_edge_count(tree):
    return sum(1 + old_edge_count(sub) for _, sub in tree)


OLD_PAIR_CODE = {("U", "U"): "U", ("d", "d"): "d", ("U", "d"): "H0", ("d", "U"): "H1"}
OLD_CODE_PAIR = {v: k for k, v in OLD_PAIR_CODE.items()}


def old_multiedge_walk(tree, word, mults):
    for mult, child in tree:
        mults.append(mult)
        word.append("U")
        old_multiedge_walk(child, word, mults)
        word.append("d")


def old_multiedge_to_3motzkin(tree):
    word = []
    mults = []
    old_multiedge_walk(tree, word, mults)
    if not mults:
        raise ValueError("the weight-0 tree has no path image")
    inner = word[1:-1]
    symbols = [OLD_PAIR_CODE[(inner[2 * i], inner[2 * i + 1])]
               for i in range(len(inner) // 2)]
    out = []
    for i, mult in enumerate(mults):
        out.extend(["H2"] * (mult - 1))
        if i < len(symbols):
            out.append(symbols[i])
    return tuple(out)


def old_motzkin3_to_multiedge(path):
    blues = [0]
    symbols = []
    for tok in path:
        if tok == "H2":
            blues[-1] += 1
        elif tok in OLD_CODE_PAIR:
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
        word.extend(OLD_CODE_PAIR[tok])
    word.append("d")
    mults = [b + 1 for b in blues]
    pos = 0
    edge = 0

    def parse_forest():
        nonlocal pos, edge
        children = []
        while pos < len(word) and word[pos] == "U":
            mult = mults[edge]
            edge += 1
            pos += 1
            sub = parse_forest()
            if pos >= len(word) or word[pos] != "d":
                raise ValueError("unbalanced skeleton")
            pos += 1
            children.append((mult, sub))
        return tuple(children)

    tree = parse_forest()
    if pos != len(word):
        raise ValueError("unbalanced skeleton")
    return tree


def old_marked_walk(tree, out):
    for mark, child in tree:
        out.append("U")
        old_marked_walk(child, out)
        out.append("r" if mark else "d")


def old_marked_to_skew(tree):
    out = []
    old_marked_walk(tree, out)
    return tuple(out)


def old_skew_to_marked(path):
    pos = 0

    def parse_forest():
        nonlocal pos
        children = []
        while pos < len(path) and path[pos] == "U":
            pos += 1
            sub = parse_forest()
            if pos >= len(path) or path[pos] not in ("d", "r"):
                raise ValueError("unbalanced path")
            mark = 1 if path[pos] == "r" else 0
            pos += 1
            children.append((mark, sub))
        return tuple(children)

    tree = parse_forest()
    if pos != len(path):
        raise ValueError("unbalanced path")

    def check(t):
        for i, (mark, child) in enumerate(t):
            if mark and (i != len(t) - 1 or child == ()):
                raise ValueError("mark not on a last edge with internal child")
            check(child)

    check(tree)
    return tree


def old_rotation_multiedge_to_unarybinary(tree):
    if not tree:
        raise ValueError("the weight-0 tree has no rotation image")
    return old_rotate(tree)


def old_rotate(pairs):
    if not pairs:
        return None
    mult, child = pairs[0]
    node = ("2", old_rotate(child), old_rotate(pairs[1:]))
    for _ in range(mult - 1):
        node = ("u", 0, node)
    return node


def old_rotation_unarybinary_to_multiedge(tree):
    if tree is None:
        raise ValueError("the empty tree has no rotation preimage")
    return old_unrotate(tree)


def old_unrotate(node):
    if node is None:
        return ()
    mult = 1
    while node[0] == "u":
        if node[1] != 0:
            raise ValueError("rotation images use flat color 0 only")
        mult += 1
        node = node[2]
    _, left, right = node
    return ((mult, old_unrotate(left)),) + old_unrotate(right)


def old_tree_to_str(tree, family):
    if family == "multiedge":
        if not tree:
            return "()"
        return "".join(f"({m}:{old_tree_to_str(c, family)})" if c else f"({m})"
                       for m, c in tree)
    if family == "marked":
        if not tree:
            return "()"
        return "".join(
            ("*" if mark else "") + (f"({old_tree_to_str(c, family)})" if c else "()")
            for mark, c in tree)
    if family == "unary_binary":
        if tree is None:
            return "."
        if tree[0] == "u":
            return f"u{tree[1]}[{old_tree_to_str(tree[2], family)}]"
        return f"({old_tree_to_str(tree[1], family)},{old_tree_to_str(tree[2], family)})"
    raise ValueError(f"unknown family {family!r}")


def outcome(f, *args):
    """What f(*args) gives: its value, or the type and message it raised."""
    try:
        return f(*args)
    except ValueError as err:
        return type(err), str(err)


def edge_count(tree) -> int:
    return sum(1 + edge_count(child) for _, child in tree)


# ----------------------------------------------------------------------
# multiedge trees <-> 3-colored Motzkin paths
# ----------------------------------------------------------------------

def test_multiedge_motzkin_round_trip():
    for w in range(1, 7):
        for t in gen_multiedge(w):
            p = multiedge_to_3motzkin(t)
            assert len(p) == w - 1
            assert motzkin3_to_multiedge(p) == t


def test_multiedge_motzkin_image_sets():
    for w in range(1, 7):
        image = {multiedge_to_3motzkin(t) for t in gen_multiedge(w)}
        codomain = set(gen_motzkin(w - 1, horiz_colors=3))
        assert image == codomain


def test_multiedge_motzkin_blue_steps_count_excess_multiplicity():
    for w in range(1, 7):
        for t in gen_multiedge(w):
            p = multiedge_to_3motzkin(t)
            assert p.count("H2") == w - edge_count(t)


def test_decoders_read_any_iterable_of_tokens():
    # the 3-Motzkin decoder reads its path backwards, from a copy
    for w in range(1, 5):
        for t in gen_multiedge(w):
            assert motzkin3_to_multiedge(iter(multiedge_to_3motzkin(t))) == t
    for t in gen_marked(5):
        assert skew_to_marked(iter(marked_to_skew(t))) == t
    assert outcome(motzkin3_to_multiedge, iter(("H0", "x"))) == (ValueError, "unknown token 'x'")


def test_multiedge_motzkin_pinned_pairs():
    assert multiedge_to_3motzkin(((1, ()), (1, ()), (1, ()))) == ("H1", "H1")
    assert multiedge_to_3motzkin(((3, ()),)) == ("H2", "H2")
    assert multiedge_to_3motzkin(((1, ((1, ()),)),)) == ("H0",)


def test_multiedge_motzkin_rejects_bad_paths():
    with pytest.raises(ValueError):
        multiedge_to_3motzkin(())
    with pytest.raises(ValueError):
        motzkin3_to_multiedge(("x",))
    with pytest.raises(ValueError):
        motzkin3_to_multiedge(("d", "U"))  # dips below 0
    with pytest.raises(ValueError):
        motzkin3_to_multiedge(("U",))  # ends above 0


# ----------------------------------------------------------------------
# marked trees <-> skew paths
# ----------------------------------------------------------------------

def test_marked_skew_round_trip():
    for n in range(1, 7):
        for t in gen_marked(n):
            p = marked_to_skew(t)
            assert len(p) == 2 * n - 2
            assert skew_to_marked(p) == t


def test_marked_skew_image_sets():
    for n in range(1, 7):
        image = {marked_to_skew(t) for t in gen_marked(n)}
        codomain = set(gen_skew(2 * n - 2))
        assert image == codomain


def test_marked_skew_image_is_legal():
    for t in gen_marked(5):
        p = marked_to_skew(t)
        joined = "".join(p)
        assert "Ur" not in joined and "rU" not in joined
        lv = levels(p)
        assert min(lv) >= 0 and lv[-1] == 0


def test_marked_skew_marks_become_red_steps():
    for n in range(1, 7):
        for t in gen_marked(n):
            p = marked_to_skew(t)
            assert tree_stats(t, "marked")["mark_count"] == path_stats(p)["red_count"]


def test_marked_skew_pinned_pairs():
    assert marked_to_skew(((False, ()), (False, ()), (False, ()))) == \
        ("U", "d", "U", "d", "U", "d")
    assert marked_to_skew(((False, ()), (True, ((False, ()),)))) == \
        ("U", "d", "U", "U", "d", "r")


def test_skew_to_marked_rejects_bad_paths():
    with pytest.raises(ValueError):
        skew_to_marked(("U", "d", "r"))  # unbalanced
    with pytest.raises(ValueError):
        skew_to_marked(("U", "r"))  # mark on a leaf edge
    with pytest.raises(ValueError):
        skew_to_marked(("U", "U", "r", "d"))  # mark not on a last edge


# ----------------------------------------------------------------------
# rotation: multiedge trees <-> unary-binary trees
# ----------------------------------------------------------------------

def test_rotation_round_trip():
    for w in range(1, 7):
        for t in gen_multiedge(w):
            u = rotation_multiedge_to_unarybinary(t)
            assert rotation_unarybinary_to_multiedge(u) == t


def test_rotation_image_sets():
    for w in range(1, 7):
        image = {rotation_multiedge_to_unarybinary(t) for t in gen_multiedge(w)}
        codomain = set(gen_unary_binary(w, a=1))
        codomain.discard(None)
        assert image == codomain


def test_rotation_unary_nodes_count_excess_multiplicity():
    def unary_nodes(node) -> int:
        if node is None:
            return 0
        if node[0] == "u":
            return 1 + unary_nodes(node[2])
        return unary_nodes(node[1]) + unary_nodes(node[2])

    for w in range(1, 7):
        for t in gen_multiedge(w):
            u = rotation_multiedge_to_unarybinary(t)
            assert unary_nodes(u) == w - edge_count(t)


def test_rotation_pinned_pairs():
    assert rotation_multiedge_to_unarybinary(((1, ()), (1, ()), (1, ()))) == \
        ("2", None, ("2", None, ("2", None, None)))
    assert rotation_multiedge_to_unarybinary(((3, ()),)) == \
        ("u", 0, ("u", 0, ("2", None, None)))


def test_rotation_rejects_empty():
    with pytest.raises(ValueError):
        rotation_multiedge_to_unarybinary(())
    with pytest.raises(ValueError):
        rotation_unarybinary_to_multiedge(None)
    with pytest.raises(ValueError):
        rotation_unarybinary_to_multiedge(("u", 1, ("2", None, None)))


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------

def test_tree_to_str():
    assert tree_to_str(((1, ()), (2, ((1, ()),))), "multiedge") == "(1)(2:(1))"
    assert tree_to_str(((False, ()), (True, ((False, ()),))), "marked") == "()*(())"
    assert tree_to_str(("u", 0, ("2", None, None)), "unary_binary") == "u0[(.,.)]"
    with pytest.raises(ValueError):
        tree_to_str(None, "nosuch")


# ----------------------------------------------------------------------
# the walk, the parse and the folds against the recursive oracles
# ----------------------------------------------------------------------

def test_multiedge_maps_match_the_recursion():
    for w in range(1, 8):
        for t in gen_multiedge(w):
            p = multiedge_to_3motzkin(t)
            assert p == old_multiedge_to_3motzkin(t)
            assert motzkin3_to_multiedge(p) == old_motzkin3_to_multiedge(p)
            u = rotation_multiedge_to_unarybinary(t)
            assert u == old_rotation_multiedge_to_unarybinary(t)
            assert rotation_unarybinary_to_multiedge(u) == old_rotation_unarybinary_to_multiedge(u)
            assert tree_to_str(t, "multiedge") == old_tree_to_str(t, "multiedge")
            assert tree_to_str(u, "unary_binary") == old_tree_to_str(u, "unary_binary")


def test_marked_maps_match_the_recursion():
    for n in range(1, 9):
        for t in gen_marked(n):
            p = marked_to_skew(t)
            assert p == old_marked_to_skew(t)
            assert skew_to_marked(p) == old_skew_to_marked(p)
            assert tree_to_str(t, "marked") == old_tree_to_str(t, "marked")


def test_decoders_match_the_recursion_on_every_short_word():
    # legal or not: the same tree or the same error
    for length in range(6):
        for word in product(("U", "d", "H0", "H1", "H2", "x"), repeat=length):
            assert outcome(motzkin3_to_multiedge, word) == \
                outcome(old_motzkin3_to_multiedge, word), word
    for length in range(8):
        for word in product(("U", "d", "r", "x"), repeat=length):
            assert outcome(skew_to_marked, word) == outcome(old_skew_to_marked, word), word


def test_unrotation_matches_the_recursion_on_two_colours():
    for w in range(1, 6):
        for u in gen_unary_binary(w, a=2):
            assert outcome(rotation_unarybinary_to_multiedge, u) == \
                outcome(old_rotation_unarybinary_to_multiedge, u), u


@pytest.mark.parametrize("new, old, args", [
    (multiedge_to_3motzkin, old_multiedge_to_3motzkin, ((),)),
    (motzkin3_to_multiedge, old_motzkin3_to_multiedge, (("x",),)),
    (motzkin3_to_multiedge, old_motzkin3_to_multiedge, (("d", "U"),)),
    (motzkin3_to_multiedge, old_motzkin3_to_multiedge, (("U",),)),
    (skew_to_marked, old_skew_to_marked, (("U", "d", "r"),)),
    (skew_to_marked, old_skew_to_marked, (("U", "r"),)),
    (skew_to_marked, old_skew_to_marked, (("U", "U", "r", "d"),)),
    (rotation_multiedge_to_unarybinary, old_rotation_multiedge_to_unarybinary, ((),)),
    (rotation_unarybinary_to_multiedge, old_rotation_unarybinary_to_multiedge, (None,)),
    (rotation_unarybinary_to_multiedge, old_rotation_unarybinary_to_multiedge,
     (("u", 1, ("2", None, None)),)),
    (tree_to_str, old_tree_to_str, (None, "nosuch")),
])
def test_rejects_with_the_messages_of_the_recursion(new, old, args):
    with pytest.raises(ValueError) as err:
        new(*args)
    assert outcome(old, *args) == (ValueError, str(err.value))


# ----------------------------------------------------------------------
# the one-pass decoders against the decoders they replaced
# ----------------------------------------------------------------------

def test_one_pass_decoders_match_the_replaced_ones_on_every_short_word():
    # two unknown tokens, so the first one must be the one named
    for length in range(7):
        for word in product(("U", "d", "H0", "H1", "H2", "x", "y"), repeat=length):
            assert outcome(motzkin3_to_multiedge, word) == \
                outcome(old_bijections.motzkin3_to_multiedge, word), word
    for length in range(9):
        for word in product(("U", "d", "r", "x"), repeat=length):
            assert outcome(skew_to_marked, word) == \
                outcome(old_bijections.one_parse_skew_to_marked, word), word


def test_one_pass_unrotation_matches_the_fold():
    for w in range(1, 7):
        for u in gen_unary_binary(w, a=2):
            assert outcome(rotation_unarybinary_to_multiedge, u) == \
                outcome(old_bijections.rotation_unarybinary_to_multiedge, u), u


BAD_INPUTS = {
    "motzkin": (motzkin3_to_multiedge, old_bijections.motzkin3_to_multiedge, [
        ("unknown token", ("x",)),
        ("first unknown token", ("U", "y", "d", "x")),
        ("unknown token after a dip", ("d", "x")),
        ("dips", ("d", "U")),
        ("dips after a return", ("H0", "U", "d", "d", "U", "H2")),
        ("dips and ends high", ("d", "U", "U")),
        ("ends high", ("U",)),
        ("ends high after blues", ("H2", "U", "H2", "U", "d")),
    ]),
    "skew": (skew_to_marked, old_bijections.one_parse_skew_to_marked, [
        ("unbalanced: a fall too many", ("U", "d", "r")),
        ("unbalanced: a fall first", ("d",)),
        ("unbalanced: ends high", ("U", "U", "d")),
        ("unknown token", ("U", "x")),
        ("mark on a leaf", ("U", "r")),
        ("mark on a deep leaf", ("U", "U", "r", "d")),
        ("mark before a sibling", ("U", "U", "d", "r", "U", "d")),
        ("unbalanced outranks a misplaced mark", ("U", "r", "U")),
    ]),
    "rotation": (rotation_unarybinary_to_multiedge,
                 old_bijections.rotation_unarybinary_to_multiedge, [
        ("empty tree", None),
        ("colour 1", ("u", 1, ("2", None, None))),
        ("colour 1 under a left branch", ("2", ("u", 2, ("2", None, None)), None)),
        ("unary over nothing", ("u", 0, None)),
        ("unary over nothing in a right branch", ("2", None, ("u", 0, ("u", 0, None)))),
    ]),
}


@pytest.mark.parametrize("decoder, old, word", [
    pytest.param(new, old, word, id=f"{name}: {why}")
    for name, (new, old, cases) in BAD_INPUTS.items() for why, word in cases])
def test_bad_inputs_raise_the_messages_of_the_replaced_decoders(decoder, old, word):
    with pytest.raises(ValueError) as err:
        decoder(word)
    assert outcome(old, word) == (ValueError, str(err.value))


# ----------------------------------------------------------------------
# trees deeper than the recursion limit; tuple == on them would itself
# recurse, so the encodings are compared
# ----------------------------------------------------------------------

DEPTH = 1200


def chain(label, bottom=None):
    """DEPTH edges, each the only child of the one above; the lowest edge
    is labelled bottom if given."""
    tree = ((label if bottom is None else bottom, ()),)
    for _ in range(DEPTH - 1):
        tree = ((label, tree),)
    return tree


@pytest.mark.parametrize("tree, path, text, image", [
    (chain(1), ("U",) * 599 + ("H0",) + ("d",) * 599, "(1:" * 1199 + "(1)" + ")" * 1199,
     "(" * DEPTH + "." + ",.)" * DEPTH),
    (((1, ()),) * DEPTH, ("H1",) * (DEPTH - 1), "(1)" * DEPTH,
     "(.," * DEPTH + "." + ")" * DEPTH),
    (((DEPTH, ()),), ("H2",) * (DEPTH - 1), f"({DEPTH})",
     "u0[" * (DEPTH - 1) + "(.,.)" + "]" * (DEPTH - 1)),
], ids=["chain", "star", "heavy edge"])
def test_deep_multiedge_trees(tree, path, text, image):
    assert DEPTH > sys.getrecursionlimit()
    assert tree_to_str(tree, "multiedge") == text
    assert multiedge_to_3motzkin(tree) == path
    back = motzkin3_to_multiedge(path)
    assert tree_to_str(back, "multiedge") == text
    assert multiedge_to_3motzkin(back) == path
    u = rotation_multiedge_to_unarybinary(tree)
    assert tree_to_str(u, "unary_binary") == image
    assert tree_to_str(rotation_unarybinary_to_multiedge(u), "multiedge") == text


def test_edge_count_of_the_bijection_check():
    # the check compares each 3-Motzkin image's H2 steps with weight - edges,
    # the edges read from the declarations in the order of gen_multiedge
    edges = values("multiedge", 7, "edges")
    for w in range(8):
        assert list(edges[w]) == [old_edge_count(t) for t in gen_multiedge(w)]
    assert _stat((), "multiedge", "edges") == 0
    assert _stat(chain(1), "multiedge", "edges") == DEPTH
    assert _stat(((1, ()),) * DEPTH, "multiedge", "edges") == DEPTH


def test_rotation_round_trip_of_a_wide_star():
    # copying the sibling forest at every edge would be quadratic in the leaves
    star = ((1, ()),) * 8000
    assert rotation_unarybinary_to_multiedge(rotation_multiedge_to_unarybinary(star)) == star


@pytest.mark.parametrize("mark", [0, 1])
def test_deep_marked_trees(mark):
    tree = chain(mark, bottom=0)  # a mark only over an internal child
    path = ("U",) * DEPTH + ("d",) + ("r" if mark else "d",) * (DEPTH - 1)
    text = ("*(" if mark else "(") * (DEPTH - 1) + "()" + ")" * (DEPTH - 1)
    assert marked_to_skew(tree) == path
    assert tree_to_str(tree, "marked") == text
    back = skew_to_marked(path)
    assert marked_to_skew(back) == path
    assert tree_to_str(back, "marked") == text


def test_path_to_str():
    assert path_to_str(("U", "d")) == "U d"
    assert path_to_str(()) == "(empty)"
