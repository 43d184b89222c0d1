"""Lagrange extraction in `Kernel` against series reversion and composition.

Every kernel family evaluates its closed v-form through `Kernel.eval`, which
reads trinomial rows.  The oracle here inverts the substitution and composes
instead, so "series = closed form" elsewhere in the suite is never one
computation checked against itself.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticepaths import pathseries, treeseries
from latticepaths.series import Kernel, MarkerPoly, PowerSeries, poly_substitution
from latticepaths.treeseries import marked_count, marked_height_tail, marked_height_total

KERNELS = [Kernel(1), Kernel(2), Kernel(3), Kernel(4), Kernel(3, "x")]
KERNEL_IDS = ["b1", "b2", "b3", "b4", "skew-x"]


def _composed(kern: Kernel, expr: PowerSeries, order: int) -> PowerSeries:
    v = poly_substitution(kern.var, "v", [1, kern.b, 1], order).invert(order)
    return expr.truncate(order).compose(v)


def _v(coeffs, order):
    return PowerSeries("v", coeffs).pad(order)


def _marker_free_forms(order):
    one_plus = _v([1, 1], order)
    yield one_plus / _v([1, -2], order)
    yield one_plus ** 3 * _v([2, 1], order) ** (-2)
    yield _v([0, 1, Fraction(-1, 3)], order) / _v([1, 0, 0, -1], order)
    yield _v([5], order)


@pytest.mark.parametrize("kern", KERNELS, ids=KERNEL_IDS)
def test_eval_equals_compose_marker_free(kern):
    order = 14
    for expr in _marker_free_forms(order):
        got = kern.eval(expr, order)
        assert got.var == kern.var and got.order == order
        assert got.dump() == _composed(kern, expr, order).dump()


@pytest.mark.parametrize("kern", KERNELS, ids=KERNEL_IDS)
def test_eval_equals_compose_with_marker(kern):
    order = 10
    w = MarkerPoly.var("w")
    expr = _v([1, w], order) / _v([1, -1, -w * w], order)
    got = kern.eval(expr, order)
    assert got.coeff(3).degree("w") > 0
    assert got.dump() == _composed(kern, expr, order).dump()


def test_eval_needs_the_expression_to_order():
    with pytest.raises(ValueError):
        Kernel(1).eval(PowerSeries("v", [1, 1]), 3)


_coeff = st.one_of(st.integers(-6, 6),
                   st.fractions(min_value=-4, max_value=4, max_denominator=5))


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 4), order=st.integers(0, 9),
       coeffs=st.lists(_coeff, min_size=1, max_size=8))
def test_eval_equals_compose_on_random_polynomials(b, order, coeffs):
    kern = Kernel(b)
    expr = _v(coeffs, max(order, len(coeffs) - 1))
    assert kern.eval(expr, order) == _composed(kern, expr, order)


@pytest.mark.parametrize("kern", KERNELS, ids=KERNEL_IDS)
def test_vpow_coeff_matches_inverted_series(kern):
    order = 12
    v = poly_substitution(kern.var, "v", [1, kern.b, 1], order).invert(order)
    power = PowerSeries.const(kern.var, 1, order)
    for k in range(order + 2):
        for m in range(order + 1):
            assert kern.vpow_coeff(m, k) == power.coeff(m).constant()
        power = power * v


# Every family evaluated through a kernel, against the same closed v-form
# evaluated by reversion and composition.
FAMILY_CALLS = [
    (treeseries.horton_Rp, (1, 0, 12)),
    (treeseries.horton_Rp, (2, 1, 12)),
    (treeseries.horton_Sp, (2, 2, 12)),
    (treeseries.node_count_series, (1, 12)),
    (treeseries.marked_height_ph, (3, 12)),
    (treeseries.marked_height_tail, (2, 12)),
    (treeseries.retakh_Gk, (2, 12)),
    (treeseries.retakh_leaf_series, (12,)),
    (pathseries.deutsch_phi, (0, 0, 12)),
    (pathseries.deutsch_phi, (3, 1, 12)),
    (pathseries.deutsch_phi, (1, 2, 12, 4)),
    (pathseries.deutsch_phi, (2, 0, 12, 3)),
    (pathseries.deutsch_Dm, (3, 12)),
    (pathseries.amplitude_series, (1, "horiz", 12)),
    (pathseries.amplitude_series, (2, "no-horiz", 12)),
    (pathseries.skew_sj_series, (2, 16)),
    (pathseries.dual_skew_Gj_series, (3, 17)),
]


@pytest.mark.parametrize("fn,args", FAMILY_CALLS,
                         ids=[f"{fn.__name__}{args}" for fn, args in FAMILY_CALLS])
def test_family_equals_compose_oracle(fn, args, monkeypatch):
    fast = fn(*args)
    monkeypatch.setattr(Kernel, "eval", _composed)
    assert fast.dump() == fn(*args).dump()


def _marked_height_total_by_layers(n: int) -> int:
    """The layer recursion p_(h+1) = -z + (2z - z^2)/(1 - p_h), one O(n^2)
    reciprocal per layer, in integer coefficient lists."""
    a_n = marked_count(n)

    def inv_unit(c):
        out = [1] + [0] * n
        for i in range(1, n + 1):
            out[i] = -sum(c[k] * out[i - k] for k in range(1, i + 1) if k <= len(c) - 1)
        return out

    ph = [0, 1] + [0] * (n - 1)  # p_1 = z
    total = a_n  # every nonempty tree has height >= 1
    for _ in range(1, n):
        total += a_n - ph[n]
        inv = inv_unit([1] + [-x for x in ph[1:]])
        nxt = [0] * (n + 1)
        for i in range(1, n + 1):
            nxt[i] = 2 * inv[i - 1] - (inv[i - 2] if i >= 2 else 0)
        nxt[1] -= 1  # the -z term
        ph = nxt
    return total


def test_marked_height_total_equals_layer_recursion():
    for n in list(range(1, 31)) + [41, 53, 60]:
        assert marked_height_total(n) == _marked_height_total_by_layers(n)


def test_marked_height_total_equals_tail_series():
    order = 22
    tails = [marked_height_tail(h, order) for h in range(1, order)]
    for n in range(1, order + 1):
        from_tails = sum(t.coeff(n).constant() for t in tails)
        assert marked_height_total(n) == marked_count(n) + from_tails
