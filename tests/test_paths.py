"""Exhaustive path generators: counts against known sequences and structural
constraints on every emitted path."""

import math

import pytest

from latticepaths.combinat import catalan, motzkin_numbers
from latticepaths.paths import (
    gen_deutsch,
    gen_dual_skew,
    gen_kdyck,
    gen_motzkin,
    gen_retakh,
    gen_skew,
    levels,
    path_stats,
    step_delta,
    tally,
)


def fuss_catalan(k: int, n: int) -> int:
    return math.comb((k + 1) * n, n) // (k * n + 1)


# ----------------------------------------------------------------------
# step primitives
# ----------------------------------------------------------------------

def test_step_delta():
    assert step_delta("U") == 1
    assert step_delta("U", up=3) == 3
    assert step_delta("d") == -1
    assert step_delta("r") == -1
    assert step_delta("b") == 1
    assert step_delta("H2") == 0
    assert step_delta("D3") == -3
    with pytest.raises(ValueError):
        step_delta("x")


def test_levels_profile():
    assert levels(("U", "U", "d")) == [0, 1, 2, 1]
    assert levels(("U", "d", "d"), up=2, start=0) == [0, 2, 1, 0]
    assert levels((), start=5) == [5]


# ----------------------------------------------------------------------
# k-ary rise paths
# ----------------------------------------------------------------------

def test_kdyck_counts_are_fuss_catalan():
    for k in (1, 2, 3):
        for n in range(6):
            assert len(gen_kdyck(k, n)) == fuss_catalan(k, n)


def test_kdyck_structure():
    for path in gen_kdyck(2, 4):
        assert path.count("U") == 4
        assert path.count("d") == 8
        lv = levels(path, up=2)
        assert min(lv) >= 0
        assert lv[-1] == 0


def test_kdyck_end_level_and_floor():
    for path in gen_kdyck(2, 3, end_level=2, floor=0):
        lv = levels(path, up=2)
        assert lv[-1] == 2 and min(lv) >= 0
    # lowered floor admits excursions below zero
    dipped = gen_kdyck(2, 2, end_level=0, floor=-1)
    assert any(min(levels(p, up=2)) == -1 for p in dipped)
    assert all(min(levels(p, up=2)) >= -1 for p in dipped)
    assert len(dipped) > len(gen_kdyck(2, 2))


def test_kdyck_require_last_up():
    got = gen_kdyck(1, 3, end_level=1, require_last_up=True)
    assert got and all(p[-1] == "U" for p in got)
    everything = gen_kdyck(1, 3, end_level=1)
    assert len(got) == sum(1 for p in everything if p[-1] == "U")


def test_bad_declaration_parameters_are_refused():
    for k in (-1, 0):
        with pytest.raises(ValueError, match="k must be >= 1"):
            gen_kdyck(k, 2)
        with pytest.raises(ValueError, match="k must be >= 1"):
            tally("kdyck", 3, "height", k=k)
    with pytest.raises(ValueError, match="horiz_colors"):
        gen_motzkin(2, horiz_colors=-1)
    with pytest.raises(ValueError, match="horiz_colors"):
        tally("motzkin", 3, "height", horiz_colors=-1)
    assert gen_motzkin(2, horiz_colors=0) == [("U", "d")]


def test_kdyck_enumeration_order_is_stable():
    assert gen_kdyck(1, 3)[0] == ("U", "U", "U", "d", "d", "d")
    assert gen_kdyck(1, 3)[-1] == ("U", "d", "U", "d", "U", "d")


# ----------------------------------------------------------------------
# skew and dual-skew paths
# ----------------------------------------------------------------------

def test_skew_counts():
    assert [len(gen_skew(2 * m)) for m in range(6)] == [1, 1, 3, 10, 36, 137]
    assert [len(gen_skew(2 * m + 1, end_level=1)) for m in range(5)] == [1, 2, 6, 21, 79]


def test_skew_forbidden_adjacencies():
    for n in range(1, 9):
        for path in gen_skew(n, end_level=n % 2):
            joined = "".join(path)
            assert "Ur" not in joined and "rU" not in joined
            lv = levels(path)
            assert min(lv) >= 0 and lv[-1] == n % 2


def test_dual_skew_counts():
    assert [len(gen_dual_skew(2 * m)) for m in range(7)] == [1, 1, 3, 10, 36, 137, 543]
    assert [len(gen_dual_skew(2 * m + 1, end_level=1)) for m in range(4)] == [2, 3, 10, 36]


def test_dual_skew_forbidden_adjacencies():
    for n in range(1, 9):
        for path in gen_dual_skew(n, end_level=n % 2):
            joined = "".join(path)
            assert "bd" not in joined and "db" not in joined
            lv = levels(path)
            assert min(lv) >= 0 and lv[-1] == n % 2


# ----------------------------------------------------------------------
# Motzkin paths
# ----------------------------------------------------------------------

def test_motzkin_counts_by_color():
    mo = motzkin_numbers(8)
    assert [len(gen_motzkin(n)) for n in range(9)] == mo
    mo3 = motzkin_numbers(5, colors=3)
    assert [len(gen_motzkin(n, horiz_colors=3)) for n in range(6)] == mo3
    # 2-colored Motzkin paths are counted by shifted Catalan numbers
    assert [len(gen_motzkin(n, horiz_colors=2)) for n in range(7)] == [catalan(n + 1) for n in range(7)]


def test_motzkin_height_cap():
    assert [len(gen_motzkin(n, max_height=1)) for n in range(6)] == [1, 1, 2, 4, 8, 16]
    for path in gen_motzkin(6, max_height=2):
        assert max(levels(path)) <= 2


def test_motzkin_colors_and_end_level():
    for path in gen_motzkin(5, horiz_colors=3, end_level=1):
        for tok in path:
            if tok.startswith("H"):
                assert tok in ("H0", "H1", "H2")
        assert levels(path)[-1] == 1


# ----------------------------------------------------------------------
# down-jump paths
# ----------------------------------------------------------------------

def test_deutsch_counts():
    assert [len(gen_deutsch(n)) for n in range(9)] == [1, 0, 1, 1, 3, 6, 15, 36, 91]


def test_deutsch_structure():
    for path in gen_deutsch(6, start=1, floor=0, ceiling=3, end_level=2):
        lv = levels(path, start=1)
        assert lv[-1] == 2
        assert 0 <= min(lv) and max(lv) <= 3
        for tok in path:
            assert tok == "U" or tok.startswith("D")


def test_deutsch_ceiling_reduces_counts():
    free = len(gen_deutsch(8))
    capped = len(gen_deutsch(8, ceiling=2))
    assert 0 < capped < free


# ----------------------------------------------------------------------
# peak-restricted Dyck paths
# ----------------------------------------------------------------------

def test_retakh_counts_are_motzkin():
    mo = motzkin_numbers(7)
    assert [len(gen_retakh(m)) for m in range(8)] == mo


def test_retakh_peak_levels():
    for m in range(1, 8):
        for path in gen_retakh(m):
            st = path_stats(path)
            for h in st["peak_heights"]:
                assert h == 1 or h % 2 == 0
            lv = levels(path)
            assert min(lv) >= 0 and lv[-1] == 0
            assert path.count("U") == m == path.count("d")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def test_path_stats_hand_examples():
    st = path_stats(("U", "H1", "d"))
    assert st["height"] == 1
    assert st["amplitude"] == 3  # horizontal step at the top level
    assert st["last_downrun_len"] == 1
    assert st["peak_heights"] == [] and st["valley_heights"] == []

    st = path_stats(("U", "d", "U", "d"))
    assert st["amplitude"] == 2
    assert st["peak_heights"] == [1, 1]
    assert st["valley_heights"] == [0]

    st = path_stats(("U", "U", "d", "r"))
    assert st["red_count"] == 1
    assert st["last_downrun_len"] == 0  # trailing step is red, not plain
    assert st["peak_heights"] == [2]

    st = path_stats(("U", "d", "d", "d"), up=3)
    assert st["height"] == 3
    assert st["last_downrun_len"] == 3


def test_path_stats_color_aliases():
    # in the three-colored Motzkin image, H0 plays red and H2 plays blue
    st = path_stats(("H0", "H2", "H2", "U", "d"))
    assert st["red_count"] == 1
    assert st["blue_count"] == 2


def test_amplitude_definition_against_levels():
    # amplitude is 2h+1 with a flat step at the top level h, 2h without
    for colors, top in ((1, 10), (2, 7), (3, 6)):
        for n in range(top + 1):
            for path in gen_motzkin(n, horiz_colors=colors):
                lv = levels(path)
                height = max(lv)
                flat_top = any(tok.startswith("H") and lv[i] == height
                               for i, tok in enumerate(path))
                assert path_stats(path)["amplitude"] == 2 * height + (1 if flat_top else 0)
