"""Tree generating functions: closed forms vs recursions vs brute counts."""

from collections import Counter
from fractions import Fraction

import pytest

from latticepaths.paths import gen_retakh, levels, path_stats
from latticepaths.series import AlgebraicSubstitution, MarkerPoly, PowerSeries
from latticepaths.trees import (
    gen_marked,
    gen_ternary,
    gen_unary_binary,
    reg,
    tree_stats,
)
from latticepaths.treeseries import (
    horton_Rp,
    horton_Sp,
    horton_avg_reg,
    marked_count,
    marked_count_series,
    marked_height_ph,
    marked_height_tail,
    marked_height_total,
    marked_leaf_series,
    marked_leaf_total,
    node_count_series,
    retakh_Gk,
    retakh_bounded_count,
    retakh_full,
    retakh_height_total,
    retakh_leaf_series,
    retakh_leaf_total,
    ternary_T,
    ternary_factorization_check,
    ternary_root_series,
    ternary_row,
    ternary_row_sum,
    ternary_t_power,
    ternary_xi,
    unary_binary_count,
)


def ints(s: PowerSeries, upto: int) -> list:
    return [int(s.coeff(n).constant()) for n in range(upto + 1)]


# ----------------------------------------------------------------------
# register layers
# ----------------------------------------------------------------------

def test_horton_R0_is_one():
    for a in (0, 1, 2):
        assert (horton_Rp(0, a, 10) - 1).is_zero


def test_horton_R1_binary_values():
    assert ints(horton_Rp(1, 0, 6), 6) == [0, 1, 2, 4, 8, 16, 32]


@pytest.mark.parametrize("a", [0, 1, 2])
def test_horton_recursion(a):
    order = 12
    z = PowerSeries.identity("z", order)
    layers = [horton_Rp(p, a, order) for p in range(5)]
    for p in range(1, 5):
        below = PowerSeries.const("z", 0, order)
        for q in range(p):
            below = below + layers[q]
        rhs = z * (layers[p - 1] * layers[p - 1]
                   + 2 * layers[p] * below + a * layers[p])
        assert (layers[p] - rhs).is_zero


@pytest.mark.parametrize("a", [0, 1])
def test_horton_layers_against_brute(a):
    order = 7
    layers = [horton_Rp(p, a, order) for p in range(4)]
    for n in range(order + 1):
        dist = Counter(reg(t, "unary_binary") for t in gen_unary_binary(n, a))
        for p in range(4):
            assert layers[p].coeff(n).constant() == dist.get(p, 0)


def test_horton_Sp_telescopes():
    order = 10
    for a in (0, 1, 2):
        for p in range(4):
            diff = horton_Sp(p, a, order) - horton_Sp(p + 1, a, order)
            assert (diff - horton_Rp(p, a, order)).is_zero
        assert (horton_Sp(0, a, order) - node_count_series(a, order)).is_zero


def test_horton_S1_counts_nonempty_trees():
    s1 = horton_Sp(1, 0, 6)
    assert ints(s1, 5) == [0, 1, 2, 5, 14, 42]


def test_horton_layer_completeness():
    order = 8
    for a in (0, 1):
        total = PowerSeries.const("z", 0, order)
        p = 0
        while 2 ** p - 1 <= order:
            total = total + horton_Rp(p, a, order)
            p += 1
        assert (total - node_count_series(a, order)).is_zero


def test_unary_binary_count_routes():
    for a in (0, 1, 2):
        ser = node_count_series(a, 10)
        for n in range(11):
            assert unary_binary_count(n, a) == ser.coeff(n).constant()
        for n in range(6):
            assert unary_binary_count(n, a) == len(gen_unary_binary(n, a))


def test_node_count_closed_sqrt_form():
    order = 12
    for a in (0, 1, 2, 3):
        inner = PowerSeries("z", [1, -2 * (a + 2), a * (a + 4)]).pad(order + 1)
        closed = (PowerSeries("z", [1, -a]).pad(order + 1) - inner.sqrt()).shift(-1) / 2
        assert (node_count_series(a, order) - closed).is_zero


def test_horton_avg_reg_against_brute():
    for a in (0, 1):
        for n in range(1, 8):
            trees = gen_unary_binary(n, a)
            want = Fraction(sum(reg(t, "unary_binary") for t in trees), len(trees))
            assert horton_avg_reg(n, a) == want
    assert horton_avg_reg(1, 0) == 1
    with pytest.raises(ValueError):
        horton_avg_reg(0, 0)


# ----------------------------------------------------------------------
# marked ordered trees
# ----------------------------------------------------------------------

def test_marked_count_three_routes():
    ser = marked_count_series(9)
    assert ints(ser, 7) == [0, 1, 1, 3, 10, 36, 137, 543]
    for n in range(1, 10):
        assert marked_count(n) == ser.coeff(n).constant()
    for n in range(1, 7):
        assert marked_count(n) == len(gen_marked(n))


def test_marked_leaf_bivariate_against_brute():
    ser = marked_leaf_series(7)
    u = MarkerPoly.var("u")
    for n in range(1, 7):
        dist = Counter(tree_stats(t, "marked")["leaves"] for t in gen_marked(n))
        want = MarkerPoly()
        for leaves, cnt in dist.items():
            want = want + cnt * u ** leaves
        assert ser.coeff(n) == want


def test_marked_leaf_series_collapses_to_counts():
    collapsed = marked_leaf_series(9).subs_markers({"u": 1})
    assert (collapsed - marked_count_series(9)).is_zero


def test_marked_leaf_totals():
    assert [marked_leaf_total(n) for n in range(1, 9)] == \
        [1, 1, 4, 17, 75, 339, 1558, 7247]
    # derivative route: d/du at u=1 equals z/2 + (z - z^2)/(2 sqrt(1-6z+5z^2))
    order = 12
    deriv = marked_leaf_series(order).deriv_marker("u").subs_markers({"u": 1})
    W = PowerSeries("z", [1, -6, 5]).pad(order).sqrt()
    closed = PowerSeries("z", [0, Fraction(1, 2)]).pad(order) \
        + PowerSeries("z", [0, 1, -1]).pad(order) / (2 * W)
    assert (deriv - closed).is_zero
    for n in range(1, order + 1):
        assert marked_leaf_total(n) == deriv.coeff(n).constant()
    for n in range(1, 7):
        brute = sum(tree_stats(t, "marked")["leaves"] for t in gen_marked(n))
        assert marked_leaf_total(n) == brute


def test_marked_height_layer_recursion():
    # p_{h+1} = -z + (2z - z^2)/(1 - p_h), starting from p_1 = z
    order = 12
    z = PowerSeries.identity("z", order)
    cur = z
    assert (marked_height_ph(1, order) - cur).is_zero
    for h in range(1, 6):
        cur = -z + PowerSeries("z", [0, 2, -1]).pad(order) * (1 - cur).inverse()
        assert (marked_height_ph(h + 1, order) - cur).is_zero


def test_marked_height_against_brute():
    order = 6
    for h in range(1, 6):
        ser = marked_height_ph(h, order)
        for n in range(1, 7):
            brute = sum(1 for t in gen_marked(n)
                        if tree_stats(t, "marked")["height_nodes"] <= h)
            assert ser.coeff(n).constant() == brute


def test_marked_height_tail_complements():
    order = 10
    A = marked_count_series(order)
    for h in range(1, 5):
        total = marked_height_ph(h, order) + marked_height_tail(h, order)
        assert (total - A).is_zero


def test_marked_height_totals():
    assert [marked_height_total(n) for n in range(1, 8)] == \
        [1, 2, 8, 33, 139, 599, 2629]
    for n in range(1, 7):
        brute = sum(tree_stats(t, "marked")["height_nodes"] for t in gen_marked(n))
        assert marked_height_total(n) == brute


def test_marked_errors():
    with pytest.raises(ValueError):
        marked_count(0)
    with pytest.raises(ValueError):
        marked_leaf_total(0)
    with pytest.raises(ValueError):
        marked_height_ph(0, 5)
    with pytest.raises(ValueError):
        marked_height_total(0)


# ----------------------------------------------------------------------
# ternary trees by middle edges
# ----------------------------------------------------------------------

TERNARY_ROWS = {
    1: [1],
    2: [2, 1],
    3: [5, 6, 1],
    4: [14, 28, 12, 1],
    5: [42, 120, 90, 20, 1],
    6: [132, 495, 550, 220, 30, 1],
}


def test_ternary_table():
    for n, row in TERNARY_ROWS.items():
        assert ternary_row(n) == row
    assert ternary_row(0) == [1]


def test_ternary_row_sums():
    for n in range(13):
        want = ternary_row_sum(n)
        if n:
            assert want == sum(ternary_row(n))
    for n in range(6):
        assert ternary_row_sum(n) == len(gen_ternary(n))


def test_ternary_T_against_brute():
    for n in range(1, 6):
        dist = Counter(tree_stats(t, "ternary")["middle_edges"]
                       for t in gen_ternary(n))
        for k in range(n):
            assert ternary_T(n, k) == dist.get(k, 0)


def test_ternary_root_series_r1_gives_table():
    ser = ternary_root_series("r1", 8)
    u = MarkerPoly.var("u")
    for n in range(1, 9):
        want = MarkerPoly()
        for k in range(n):
            want = want + ternary_T(n, k) * u ** k
        assert ser.coeff(n) == want
    assert ser.coeff(0).constant() == 1


def test_ternary_t_powers_sum_to_table():
    for n in range(1, 9):
        for k in range(n):
            total = sum(ternary_t_power(n, k, l) for l in range(1, n + 1))
            assert total == ternary_T(n, k)


def _r1_by_reversion(order: int) -> PowerSeries:
    """r1 as it used to be built: invert t = x(1 - t + ut)/(1 - t)^2 by
    fixed point and compose 1/(1-t) with the result."""
    u = MarkerPoly.var("u")
    geom2 = PowerSeries("t", [i + 1 for i in range(order + 1)], order)
    phi = PowerSeries("t", [1, u - 1]).pad(order) * geom2
    t_of_x = AlgebraicSubstitution("x", "t", phi).invert(order)
    return PowerSeries("t", [1] * (order + 1), order).compose(t_of_x)


@pytest.mark.parametrize("order", range(17))
def test_ternary_r1_matches_the_reversion_route(order):
    got, want = ternary_root_series("r1", order), _r1_by_reversion(order)
    assert (got.var, got.order) == (want.var, want.order)
    assert got.dump() == want.dump()


def test_ternary_xi_golden_coefficients():
    xi = ternary_xi(4)
    U = MarkerPoly.var("U")
    assert xi.coeff(0).constant() == 1
    assert xi.coeff(1) == Fraction(1, 8) * (5 + 4 * U)
    assert xi.coeff(2) == Fraction(1, 128) * (71 + 136 * U + 64 * U * U)
    assert xi.coeff(3) == Fraction(1, 1024) * (541 + 1596 * U + 1568 * U * U
                                               + 512 * U ** 3)


def test_ternary_factorization():
    assert ternary_factorization_check(10)


def test_ternary_errors():
    with pytest.raises(ValueError):
        ternary_T(0, 0)
    with pytest.raises(ValueError):
        ternary_T(3, 3)
    with pytest.raises(ValueError):
        ternary_t_power(0, 0, 1)
    with pytest.raises(ValueError):
        ternary_root_series("r4", 5)


# ----------------------------------------------------------------------
# peak-restricted paths as trees
# ----------------------------------------------------------------------

def test_retakh_G1_is_z():
    g1 = retakh_Gk(1, 10)
    assert (g1 - PowerSeries.identity("z", 10)).is_zero


def test_retakh_continued_fraction_recursion():
    order = 12
    z = PowerSeries.identity("z", order)
    for k in range(1, 5):
        gk = retakh_Gk(k, order)
        nxt = z * (1 - z * gk * (1 - gk).inverse()).inverse()
        assert (retakh_Gk(k + 1, order) - nxt).is_zero


def test_retakh_convergents_count_even_peak_paths():
    # [z^(m+1)] G_k counts Dyck paths with m rises whose peaks all sit at
    # even levels, height capped at 2(k-1); the limit is full/(1 + full).
    from latticepaths.paths import gen_kdyck

    order = 12
    full = retakh_full(order)
    assert (retakh_Gk(7, order) * (1 + full) - full).is_zero
    for k in (2, 3, 7):
        ser = retakh_Gk(k, 8)
        for m in range(8):
            brute = sum(
                1
                for p in gen_kdyck(1, m)
                if all(h % 2 == 0 for h in path_stats(p)["peak_heights"])
                and max(levels(p)) <= 2 * (k - 1)
            )
            assert ser.coeff(m + 1).constant() == brute


def test_retakh_full_counts_generated_paths():
    full = retakh_full(9)
    for m in range(8):
        assert full.coeff(m + 1).constant() == len(gen_retakh(m))


def test_retakh_leaf_totals():
    assert [retakh_leaf_total(n) for n in range(1, 9)] == \
        [1, 1, 3, 9, 25, 70, 196, 552]
    ser = retakh_leaf_series(9)
    for n in range(1, 10):
        assert ser.coeff(n).constant() == retakh_leaf_total(n)
    # leaves are rise-fall corners of the path image
    for m in range(1, 8):
        brute = sum(sum(1 for i in range(len(p) - 1)
                        if p[i] == "U" and p[i + 1] == "d")
                    for p in gen_retakh(m))
        assert retakh_leaf_total(m + 1) == brute


def test_retakh_bounded_counts_against_brute():
    for m in range(1, 8):
        paths = gen_retakh(m)
        for h in range(2 * m + 2):
            brute = sum(1 for p in paths if max(levels(p)) <= h)
            assert retakh_bounded_count(m + 1, h) == brute
    assert retakh_bounded_count(1, 0) == 1
    assert retakh_bounded_count(3, 0) == 0
    assert retakh_bounded_count(5, 1) == 1


def test_retakh_height_totals():
    assert [retakh_height_total(n) for n in range(1, 9)] == \
        [0, 1, 3, 7, 19, 51, 141, 393]
    for m in range(1, 8):
        brute = sum(path_stats(p)["height"] for p in gen_retakh(m))
        assert retakh_height_total(m + 1) == brute


def test_retakh_errors():
    with pytest.raises(ValueError):
        retakh_Gk(0, 5)
    with pytest.raises(ValueError):
        retakh_leaf_total(0)
    with pytest.raises(ValueError):
        retakh_bounded_count(0, 1)
    with pytest.raises(ValueError):
        retakh_bounded_count(3, -1)
    with pytest.raises(ValueError):
        retakh_height_total(0)
