"""The one-pass listers against the copies they replaced.

`paths._paths` lists a family's paths by a depth-first walk over the moves
that `paths._evaluate` records, where the path algebra of `old_paths` kept
every suffix of every walk state; `bijections.skew_to_marked` checks the mark
rule while it parses, where `old_bijections` folded a node rule over the
decoded tree.  Each must agree with its copy: the same paths in the same
order, and the same tree or the same error on every short word.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import old_bijections
import old_paths
from latticepaths import paths
from latticepaths.bijections import skew_to_marked
from latticepaths.paths import (
    gen_deutsch,
    gen_dual_skew,
    gen_kdyck,
    gen_motzkin,
    gen_retakh,
    gen_skew,
)

LIMIT = 10 ** 5  # no list of the grid is longer


def same_paths(listed, family, size, **params):
    old = old_paths._paths(family, size, **params)
    assert len(old) < LIMIT, (family, size, params)
    assert listed == old, (family, size, params)
    return len(old)


def test_kdyck_lists_as_the_path_algebra():
    listed = 0
    for k in (1, 2, 3):
        for n_up in range(9 if k == 1 else 6 if k == 2 else 5):
            for floor in (-1, 0):
                for end in range(k * n_up + 2):  # the last end is out of reach
                    listed += same_paths(gen_kdyck(k, n_up, end, floor), "kdyck", n_up,
                                         k=k, end_level=end, floor=floor)
    assert listed > 10 ** 4


def test_skew_and_dual_skew_list_as_the_path_algebra():
    for n in range(13):
        for end in range(4):
            same_paths(gen_skew(n, end), "skew", n, end_level=end)
            same_paths(gen_dual_skew(n, end), "dual_skew", n, end_level=end)


def test_motzkin_lists_as_the_path_algebra():
    for colors in range(4):
        for n in range(9 - colors):
            for cap in (None, 0, 1, 2):
                for end in range(3):
                    same_paths(gen_motzkin(n, colors, cap, end), "motzkin", n,
                               horiz_colors=colors, max_height=cap, end_level=end)


def test_deutsch_lists_as_the_path_algebra():
    for n in range(7):
        for floor in (-1, 0, 1):
            for start in range(floor - 1, floor + 3):  # includes a start below the floor
                for ceiling in (None, 2, 4):
                    for end in range(floor, 4):
                        same_paths(gen_deutsch(n, start, floor, ceiling, end), "deutsch", n,
                                   start=start, floor=floor, ceiling=ceiling, end_level=end)


def test_retakh_lists_as_the_path_algebra():
    for m in range(11):
        same_paths(gen_retakh(m), "retakh", m)


def test_motzkin_walks_enter_only_states_on_a_path():
    # with a flat step every level in a window still reaches the end, so the
    # windows, at their default unit rise and fall, are exact: no state the
    # walk enters is dead, and the listing skips none
    for cap in (None, 4):
        for end in range(4):
            [first], counts, made = paths._evaluate(
                "motzkin", [9], {"max_height": cap, "end_level": end},
                lambda tok, level, rest: rest, lambda end: None)
            assert counts[first], (cap, end)
            assert all(counts[after] for moves in made.values() for _, after in moves), (cap, end)


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(
    st.tuples(st.just("kdyck"), st.integers(0, 5),
              st.fixed_dictionaries({"k": st.integers(1, 3), "end_level": st.integers(-1, 6),
                                     "floor": st.integers(-2, 1)})),
    st.tuples(st.sampled_from(["skew", "dual_skew"]), st.integers(0, 11),
              st.fixed_dictionaries({"end_level": st.integers(-1, 5)})),
    st.tuples(st.just("motzkin"), st.integers(0, 7),
              st.fixed_dictionaries({"horiz_colors": st.integers(0, 3),
                                     "max_height": st.none() | st.integers(0, 3),
                                     "end_level": st.integers(0, 3)})),
    st.tuples(st.just("deutsch"), st.integers(0, 6),
              st.fixed_dictionaries({"start": st.integers(-1, 3), "floor": st.integers(-1, 1),
                                     "ceiling": st.none() | st.integers(1, 4),
                                     "end_level": st.integers(-1, 3)})),
    st.tuples(st.just("retakh"), st.integers(0, 9), st.just({}))))
def test_any_walk_lists_as_the_path_algebra(case):
    family, size, params = case
    same_paths(paths._paths(family, size, **params), family, size, **params)


def outcome(decode, word):
    """The tree decode(word) gives, or the message of the error it raises."""
    try:
        return decode(word)
    except ValueError as err:
        return str(err)


def test_marked_decoder_agrees_on_every_short_word():
    # legal or not: the same tree, or the same error with the same message
    seen = set()
    for length in range(9):
        for word in product(("U", "d", "r", "H0"), repeat=length):
            got = outcome(skew_to_marked, word)
            assert got == outcome(old_bijections.skew_to_marked, word), word
            seen.add(got if isinstance(got, str) else "tree")
    assert seen == {"tree", "unbalanced path", "mark not on a last edge with internal child"}


def test_an_unbalanced_word_outranks_a_misplaced_mark():
    # each word has a red fall next to a rise before it fails to balance
    for word in (("U", "r", "U"), ("U", "U", "r", "d", "U"), ("U", "r", "d"),
                 ("U", "U", "d", "r", "U", "d", "H0")):
        assert outcome(skew_to_marked, word) == "unbalanced path", word
