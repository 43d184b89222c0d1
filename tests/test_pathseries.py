"""Path generating functions: closed forms vs series vs brute enumeration.

Layout mirrors the module: k-rise families first, then skew/dual-skew,
bounded Motzkin and amplitude, turn limits, and down-jump strips.
"""

import sys
from fractions import Fraction

import pytest

from latticepaths import cli, combinat, pathseries
from latticepaths.combinat import binomial, motzkin_numbers
from latticepaths.paths import (
    gen_deutsch,
    gen_dual_skew,
    gen_kdyck,
    gen_motzkin,
    gen_skew,
    last_downrun_len,
    levels,
    path_stats,
)
from latticepaths.pathseries import (
    amplitude_average,
    amplitude_coeff,
    amplitude_series,
    amplitude_total,
    deng_mansour_count,
    denom_Sj,
    deutsch_Dm,
    deutsch_phi,
    deutsch_strip_solve,
    dual_open_ended,
    dual_skew_Gj_series,
    dual_skew_coeff,
    hoppy_early_total,
    hoppy_negative_coeff,
    hoppy_negative_series,
    kemp_finite_oracle,
    kemp_peak_series,
    kemp_valley_series,
    last_downrun_total,
    motzkin_bounded,
    motzkin_bounded_coeff,
    motzkin_det,
    motzkin_height_total,
    skew_open_ended,
    skew_red_fixed_power,
    skew_red_series,
    skew_red_total,
    skew_red_total_series,
    skew_sj_coeff,
    skew_sj_series,
    ubar,
    ubar_power,
)
from latticepaths.series import PowerSeries, poly_substitution
from old_extractions import (
    old_amp_layer_coeff,
    old_amplitude_total,
    old_deng_mansour_count,
    old_dual_skew_coeff,
    old_hoppy_negative_coeff,
    old_lambda_prime_x8,
    old_last_downrun_total,
    old_mu,
    old_skew_sj_coeff,
    old_ubar_power,
)


def series_ints(s: PowerSeries, upto: int) -> list:
    return [int(s.coeff(n).constant()) for n in range(upto + 1)]


# ----------------------------------------------------------------------
# paths with +k rises: ubar, S_j, last-run statistics
# ----------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ubar_functional_equation(k):
    order = 12
    u = ubar(k, order)
    assert (u - 1 - PowerSeries.identity("z", order) * u ** (k + 1)).is_zero


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_ubar_power_closed_form(k, d):
    order = 10
    assert (ubar_power(d, k, order) - ubar(k, order) ** d).is_zero


def test_ubar_counts_paths_by_rises():
    for k in (1, 2, 3):
        u = ubar(k, 6)
        for l in range(6):
            assert u.coeff(l).constant() == len(gen_kdyck(k, l))


def test_denom_Sj_base_and_recursion():
    for k in (1, 2, 3):
        for j in range(k + 1):
            assert (denom_Sj(j, k) - 1).is_zero
        for j in range(1, 12):
            lhs = (denom_Sj(j, k, 6) - denom_Sj(j - 1, k, 6)
                   + PowerSeries.identity("z", 6) * denom_Sj(j - k - 1, k, 6))
            assert lhs.is_zero
        assert denom_Sj(-1, k).is_zero


def test_denom_Sj_small_polynomials():
    # k=2: S_3 = 1 - z and S_6 = S_5 - z S_3 = 1 - 4z + z^2
    s3 = denom_Sj(3, 2)
    assert series_ints(s3, s3.order) == [1, -1]
    s6 = denom_Sj(6, 2)
    assert series_ints(s6, s6.order) == [1, -4, 1]


def test_denom_Sj_degree_bound():
    for k in (1, 2, 3):
        for j in range(14):
            assert denom_Sj(j, k).order <= j // (k + 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_deng_mansour_against_brute(k):
    for n_up in range(1, 6 // k + 3):
        paths = gen_kdyck(k, n_up)
        by_run = {}
        for p in paths:
            run = path_stats(p, up=k)["last_downrun_len"]
            by_run[run] = by_run.get(run, 0) + 1
        for j in range(0, k * n_up + 2):
            assert deng_mansour_count(n_up, j, k) == by_run.get(j, 0)
        # same counts read as open paths ending at level j with a final rise
        for j in range(k, k * n_up + 1):
            open_paths = gen_kdyck(k, n_up, end_level=j, require_last_up=True)
            assert deng_mansour_count(n_up, j, k) == len(open_paths)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_deng_mansour_series_route(k):
    u = ubar(k, 9)
    for n_up in range(1, 10):
        for j in range(k, k * n_up + 1):
            ser = denom_Sj(j - k, k, 9) * u - denom_Sj(j - k - 1, k, 9)
            assert deng_mansour_count(n_up, j, k) == ser.coeff(n_up - 1).constant()


def test_deng_mansour_sums_to_path_count():
    for k in (1, 2, 3):
        for n_up in range(1, 6):
            total = sum(deng_mansour_count(n_up, j, k)
                        for j in range(k, k * n_up + 1))
            assert total == len(gen_kdyck(k, n_up))


def test_last_downrun_totals():
    assert [last_downrun_total(m, 2) for m in (1, 2, 3, 4)] == [2, 9, 43, 218]
    assert [last_downrun_total(m, 3) for m in (1, 2, 3, 4)] == [3, 18, 118, 829]
    for k in (1, 2, 3):
        for m in range(1, 5):
            brute = sum(path_stats(p, up=k)["last_downrun_len"]
                        for p in gen_kdyck(k, m))
            assert last_downrun_total(m, k) == brute
            weighted = sum(j * deng_mansour_count(m, j, k)
                           for j in range(k, k * m + 1))
            assert last_downrun_total(m, k) == weighted


def _first_run_after_first_rise(path) -> int:
    assert path[0] == "U"
    run = 0
    for tok in path[1:]:
        if tok == "d":
            run += 1
        else:
            break
    return run


def test_hoppy_early_totals():
    assert [hoppy_early_total(m, 1) for m in (1, 2, 3)] == [1, 2, 5]
    assert [hoppy_early_total(m, 2) for m in (1, 2, 3)] == [3, 10, 42]
    assert [hoppy_early_total(m, 3) for m in (1, 2, 3)] == [6, 28, 165]
    for k in (1, 2, 3):
        for m in range(0, 4):
            brute = sum(_first_run_after_first_rise(p)
                        for p in gen_kdyck(k, m + 1))
            assert hoppy_early_total(m, k) == brute


@pytest.mark.parametrize("k", range(1, 5))
def test_int_fuss_catalan_forms_equal_the_old_fraction_sums(k):
    for d in (1, 2, 3):
        assert ubar_power(d, k, 60) == old_ubar_power(d, k, 60)
    for l in range(61):
        assert last_downrun_total(l, k) == old_last_downrun_total(l, k)
        assert hoppy_negative_coeff(l, k) == old_hoppy_negative_coeff(l, k)
    for n_up in range(1, 61):
        for j in range(k * n_up + 2):
            assert deng_mansour_count(n_up, j, k) == old_deng_mansour_count(n_up, j, k)


def test_hoppy_negative_series_and_closed_form():
    for k in (2, 3, 4):
        ser = hoppy_negative_series(k, 14)
        for l in range(15):
            assert ser.coeff(l).constant() == hoppy_negative_coeff(l, k)
    assert [hoppy_negative_coeff(l, 2) for l in range(7)] == \
        [0, 3, 16, 83, 442, 2420, 13566]
    assert [hoppy_negative_coeff(l, 3) for l in range(6)] == \
        [0, 5, 34, 236, 1714, 12922]
    assert [hoppy_negative_coeff(l, 4) for l in range(6)] == \
        [0, 7, 58, 505, 4650, 44677]


def test_hoppy_negative_against_brute():
    # final-fall-run totals over paths allowed one level below ground
    for k in (2, 3):
        for l in range(1, 5):
            paths = gen_kdyck(k, l, end_level=0, floor=-1)
            brute = sum(path_stats(p, up=k)["last_downrun_len"] for p in paths)
            assert hoppy_negative_coeff(l, k) == brute


def test_hoppy_negative_series_against_enumeration():
    # `check hoppy` compares the series with the closed form, and both are
    # Fuss-Catalan; the paths allowed down to level -1 are a separate route
    for k in (2, 3):
        ser = hoppy_negative_series(k, 6)
        for l in range(7):
            brute = sum(last_downrun_len(p) for p in gen_kdyck(k, l, floor=-1))
            assert ser.coeff(l).constant() == brute == hoppy_negative_coeff(l, k)


# ----------------------------------------------------------------------
# skew paths
# ----------------------------------------------------------------------

SKEW_GOLD = {
    0: [1, 1, 3, 10, 36, 137, 543],
    1: [1, 2, 6, 21, 79, 311, 1265],
    2: [1, 3, 10, 37, 145, 589, 2455],
    3: [1, 4, 15, 59, 241, 1010, 4314],
}


def test_skew_sj_golden_values():
    for j, want in SKEW_GOLD.items():
        ser = skew_sj_series(j, j + 2 * len(want))
        got = [int(ser.coeff(j + 2 * m).constant()) for m in range(len(want))]
        assert got == want


def test_skew_sj_coeff_matches_series():
    for j in range(5):
        ser = skew_sj_series(j, 16)
        for n in range(17):
            assert skew_sj_coeff(n, j) == ser.coeff(n).constant()


def test_skew_sj_support():
    assert skew_sj_coeff(5, 0) == 0
    assert skew_sj_coeff(4, 1) == 0
    assert skew_sj_coeff(2, 3) == 0


def test_skew_sj_against_brute():
    for n in range(11):
        for j in range(5):
            assert skew_sj_coeff(n, j) == len(gen_skew(n, end_level=j))


def test_skew_open_ended_golden_and_routes():
    oe = skew_open_ended(12)
    assert series_ints(oe, 9) == [1, 1, 2, 3, 7, 11, 26, 43, 102, 175]
    summed = skew_sj_series(0, 12)
    for j in range(1, 13):
        summed = summed + skew_sj_series(j, 12)
    assert (oe - summed).is_zero
    for n in range(9):
        brute = sum(len(gen_skew(n, end_level=j)) for j in range(n + 1))
        assert oe.coeff(n).constant() == brute


def test_skew_open_ended_cross_multiplied():
    # rationalized form: multiplying by -2z(1 - 3z + z^2 + z^3) clears the
    # denominator, leaving a polynomial plus an explicit sqrt factor
    order = 20
    W = PowerSeries("z", [1, 0, -6, 0, 5]).pad(order).sqrt()
    lhs = skew_open_ended(order) * PowerSeries("z", [0, -2, 6, -2, -2]).pad(order)
    rhs = PowerSeries("z", [2, -3, -3, 3, 1]).pad(order) \
        - PowerSeries("z", [2, -1, -1]).pad(order) * W
    assert (lhs - rhs).is_zero


def test_kernel_root_products():
    order = 20
    W = PowerSeries("z", [1, 0, -6, 0, 5]).pad(order).sqrt()
    z2 = PowerSeries("z", [0, 0, 1]).pad(order)
    zr1 = (1 + z2 + W) / 2
    zr2 = (1 + z2 - W) / 2
    assert (zr1 * zr2 - PowerSeries("z", [0, 0, 2, 0, -1]).pad(order)).is_zero
    two_minus = PowerSeries("z", [2, 0, -1]).pad(order)
    zs1 = zr1 / two_minus
    zs2 = zr2 / two_minus
    assert (zs1 * zs2 * two_minus - z2).is_zero


def test_w_factorizations():
    order = 12
    lhs = PowerSeries("x", [1, -6, 5]).pad(order)
    rhs = PowerSeries("x", [1, -1]).pad(order) * PowerSeries("x", [1, -5]).pad(order)
    assert (lhs - rhs).is_zero
    from latticepaths.series import MarkerPoly
    w = MarkerPoly.var("w")
    lhs = PowerSeries("x", [1, -(4 + 2 * w), 4 * w + w * w]).pad(order)
    rhs = PowerSeries("x", [1, -w]).pad(order) * PowerSeries("x", [1, -(4 + w)]).pad(order)
    assert (lhs - rhs).is_zero


def test_skew_red_bivariate_golden():
    from latticepaths.series import MarkerPoly
    w = MarkerPoly.var("w")
    ser = skew_red_series(8)
    assert ser.coeff(0).constant() == 1
    assert ser.coeff(1).constant() == 1
    assert ser.coeff(2) == w + 2
    assert ser.coeff(3) == w * w + 4 * w + 5
    assert ser.coeff(4) == w ** 3 + 6 * w * w + 15 * w + 14


def test_skew_red_collapses_at_w_one():
    ser = skew_red_series(8).subs_markers({"w": 1})
    assert series_ints(ser, 6) == [1, 1, 3, 10, 36, 137, 543]


def test_skew_red_distribution_against_brute():
    from collections import Counter
    ser = skew_red_series(7)
    for n in range(8):
        dist = Counter(path_stats(p)["red_count"] for p in gen_skew(2 * n))
        coeff = ser.coeff(n)
        for k in range(n + 2):
            assert coeff.marker_coeff("w", k).constant() == dist.get(k, 0)


def test_skew_red_totals_three_routes():
    ser = skew_red_total_series(10)
    deriv = skew_red_series(10).deriv_marker("w").subs_markers({"w": 1})
    assert (ser - deriv).is_zero
    for n in range(11):
        assert skew_red_total(n) == ser.coeff(n).constant()
    for n in range(7):
        brute = sum(path_stats(p)["red_count"] for p in gen_skew(2 * n))
        assert skew_red_total(n) == brute


def test_skew_red_fixed_powers():
    ser = skew_red_series(12)
    for kred in range(5):
        fixed = skew_red_fixed_power(kred, 12)
        sliced = ser.marker_coeff("w", kred)
        assert (fixed - sliced).is_zero
    with pytest.raises(ValueError):
        skew_red_fixed_power(5, 8)


# ----------------------------------------------------------------------
# dual skew paths
# ----------------------------------------------------------------------

DUAL_GOLD = {
    0: [1, 1, 3, 10, 36, 137, 543, 2219],
    1: [2, 3, 10, 36, 137, 543, 2219, 9285],
    2: [4, 8, 29, 111, 442, 1813, 7609, 32521],
    3: [8, 20, 78, 315, 1306, 5527, 23779, 103699],
}


def test_dual_gj_golden_values():
    for j, want in DUAL_GOLD.items():
        ser = dual_skew_Gj_series(j, j + 2 * len(want))
        got = [int(ser.coeff(j + 2 * m).constant()) for m in range(len(want))]
        assert got == want


def test_dual_coeff_matches_series():
    for j in range(5):
        ser = dual_skew_Gj_series(j, 17)
        for n in range(18):
            assert dual_skew_coeff(n, j) == ser.coeff(n).constant()


def test_dual_against_brute():
    for n in range(11):
        for j in range(5):
            assert dual_skew_coeff(n, j) == len(gen_dual_skew(n, end_level=j))


def test_dual_lowest_coefficient_is_power_of_two():
    for j in range(8):
        assert dual_skew_coeff(j, j) == 2 ** j


def test_dual_open_ended_golden_and_brute():
    oe = dual_open_ended(12)
    assert series_ints(oe, 9) == [1, 2, 5, 11, 27, 62, 151, 354, 859, 2036]
    for n in range(9):
        brute = sum(len(gen_dual_skew(n, end_level=j)) for j in range(n + 1))
        assert oe.coeff(n).constant() == brute
    summed = dual_skew_Gj_series(0, 12)
    for j in range(1, 13):
        summed = summed + dual_skew_Gj_series(j, 12)
    assert (oe - summed).is_zero


# ----------------------------------------------------------------------
# end-level ladders against the per-count row extractions they replace
# ----------------------------------------------------------------------

def _weights(j: int, factor: list, depth: int) -> list:
    # [t^0..t^depth] of (1+t)^2 (1-t) * factor^j, by repeated products
    f = [1, 1, -1, -1] + [0] * depth
    for _ in range(j):
        f = [sum(a * f[k - i] for i, a in enumerate(factor) if k >= i)
             for k in range(len(f))]
    return f[:depth + 1]


def test_the_row_weights_are_the_shared_lagrange_form():
    # lambda'_{j;i} = [t^i] (1+t)^2 (1-t) (1+2t)^(-j), mu_k = [t^k] (1+t)^2 (1-t) (2+t)^j
    for j in range(10):
        inverse = [binomial(-1, i) * 2 ** i for i in range(41)]  # 1/(1+2t)
        assert [old_lambda_prime_x8(j, i) for i in range(41)] == \
            [8 * w for w in _weights(j, inverse, 40)]
        assert [old_mu(j, k) for k in range(j + 6)] == _weights(j, [2, 1], j + 5)


@pytest.mark.parametrize("j", range(9))
def test_end_level_ladders_match_the_row_extractions(j):
    for n in (400, 401):
        ns = range(j, n + 1, 2)
        assert pathseries._skew_sj_ladder(n, j) == [old_skew_sj_coeff(m, j) for m in ns]
        assert pathseries._dual_gj_ladder(n, j) == [old_dual_skew_coeff(m, j) for m in ns]
    # below the level and of the wrong parity alike
    for n in range(-2, 401):
        assert skew_sj_coeff(n, j) == old_skew_sj_coeff(n, j), n
        assert dual_skew_coeff(n, j) == old_dual_skew_coeff(n, j), n
    assert pathseries._skew_sj_ladder(j - 1, j) == pathseries._dual_gj_ladder(j - 1, j) == []


def test_end_level_ladders_reject_a_negative_level():
    for func in (pathseries._skew_sj_ladder, pathseries._dual_gj_ladder,
                 skew_sj_coeff, dual_skew_coeff):
        with pytest.raises(ValueError, match="level j must be >= 0"):
            func(4, -1)
        with pytest.raises(ValueError, match="level j must be >= 0"):
            func(3, -1)


@pytest.mark.parametrize("family", ("skew-sj", "dual-gj"))
def test_seq_end_levels_build_no_row_and_slide_one_band(family, monkeypatch, capsys):
    # a guard against quadratic work that needs no clock: no trinomial row is
    # built, and one band advances about one row per printed count
    def no_row(n, b):
        raise AssertionError(f"trinomial half row ({n}, {b}) built")

    for name, module in list(sys.modules.items()):
        if name.startswith("latticepaths") and hasattr(module, "_half_row"):
            monkeypatch.setattr(module, "_half_row", no_row)
    rows = []

    def counted_band(*args):
        rows.append(0)
        for band in combinat._kernel_band(*args):
            rows[-1] += 1
            yield band

    monkeypatch.setattr(pathseries, "_kernel_band", counted_band)
    n, j = 2000, 3
    assert cli.main(["seq", "--family", family, "--n", str(n), "--j", str(j)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == (n - j) // 2 + 1
    assert len(rows) == 1 and rows[0] <= (n - j) // 2 + j + 1


# ----------------------------------------------------------------------
# bounded Motzkin paths
# ----------------------------------------------------------------------

def test_motzkin_det_recursion_and_values():
    order = 10
    omz, zz = PowerSeries("z", [1, -1]).pad(order), PowerSeries("z", [0, 0, 1]).pad(order)
    for star in (False, True):
        for n in range(2, 7):
            dn = motzkin_det(n, order, star)
            rec = omz * motzkin_det(n - 1, order, star) - zz * motzkin_det(n - 2, order, star)
            assert (dn - rec).is_zero
    for n in range(2, 7):
        # D*_n trims the top row: D_{n-1} - z^2 D_{n-2}
        trimmed = motzkin_det(n - 1, order) - zz * motzkin_det(n - 2, order)
        assert (motzkin_det(n, order, star=True) - trimmed).is_zero
    assert (motzkin_det(0, 5) - 1).is_zero
    assert series_ints(motzkin_det(1, 5), 1) == [1, -1]
    assert (motzkin_det(0, 5, star=True) - 1).is_zero
    assert (motzkin_det(1, 5, star=True) - 1).is_zero


def test_motzkin_det_v_forms():
    # D_n = (sum v^{2i}, i <= n)/Q^n and D*_n = (sum v^i, i <= 2n)/Q^n
    order = 10
    v = poly_substitution("z", "v", [1, 1, 1], order).invert(order)
    Q = PowerSeries("v", [1, 1, 1]).pad(order)
    for n in range(5):
        even = PowerSeries("v", [1 if i % 2 == 0 and i <= 2 * n else 0
                                 for i in range(order + 1)], order)
        want = (even * Q.inverse() ** n).compose(v)
        assert (motzkin_det(n, order) - want).is_zero
        full = PowerSeries("v", [1 if i <= 2 * n else 0
                                 for i in range(order + 1)], order)
        want = (full * Q.inverse() ** n).compose(v)
        assert (motzkin_det(n, order, star=True) - want).is_zero


def test_motzkin_bounded_series_vs_coeff():
    for h in range(5):
        for variant in ("all", "no-top-horizontal"):
            ser = motzkin_bounded(h, 16, variant)
            for n in range(17):
                assert motzkin_bounded_coeff(n, h, variant) == ser.coeff(n).constant()


def test_motzkin_bounded_against_brute():
    for h in range(4):
        for n in range(10):
            paths = gen_motzkin(n, max_height=h)
            assert motzkin_bounded_coeff(n, h) == len(paths)
            clean = [p for p in paths
                     if not any(tok.startswith("H") and lv == h
                                for tok, lv in zip(p, levels(p)))]
            assert motzkin_bounded_coeff(n, h, "no-top-horizontal") == len(clean)


def test_motzkin_bounded_saturates_to_full_counts():
    mo = motzkin_numbers(10)
    for n in range(11):
        assert motzkin_bounded_coeff(n, n) == mo[n]


def test_motzkin_height_totals():
    assert [motzkin_height_total(n) for n in range(11)] == \
        [0, 0, 1, 3, 9, 25, 70, 196, 552, 1560, 4423]
    for n in range(10):
        brute = sum(path_stats(p)["height"] for p in gen_motzkin(n))
        assert motzkin_height_total(n) == brute


def test_motzkin_bounded_errors():
    with pytest.raises(ValueError):
        motzkin_bounded(-1, 5)
    with pytest.raises(ValueError):
        motzkin_bounded(2, 5, "nosuch")
    with pytest.raises(ValueError):
        motzkin_bounded_coeff(4, 2, "nosuch")


# ----------------------------------------------------------------------
# amplitude
# ----------------------------------------------------------------------

def test_amplitude_series_vs_coeff():
    for h in range(5):
        for kind in ("horiz", "no-horiz"):
            ser = amplitude_series(h, kind, 14)
            for n in range(15):
                assert amplitude_coeff(n, h, kind) == ser.coeff(n).constant()


def test_amplitude_against_brute_classification():
    for n in range(10):
        horiz = {}
        nohoriz = {}
        for p in gen_motzkin(n):
            lv = levels(p)
            top = max(lv)
            flat_top = any(tok.startswith("H") and lv[i] == top
                           for i, tok in enumerate(p))
            bucket = horiz if flat_top else nohoriz
            bucket[top] = bucket.get(top, 0) + 1
        for h in range(n + 1):
            assert amplitude_coeff(n, h, "horiz") == horiz.get(h, 0)
            assert amplitude_coeff(n, h, "no-horiz") == nohoriz.get(h, 0)


def test_amplitude_layers_sum_to_exact_height_counts():
    order = 14
    for h in range(5):
        layer = amplitude_series(h, "horiz", order) + amplitude_series(h, "no-horiz", order)
        exact = motzkin_bounded(h, order)
        if h:
            exact = exact - motzkin_bounded(h - 1, order)
        assert (layer - exact).is_zero


def test_amplitude_empty_path_convention():
    assert amplitude_coeff(0, 0, "no-horiz") == 1
    assert amplitude_coeff(0, 0, "horiz") == 0


def test_amplitude_spec_table_length_four():
    # the nine length-4 paths carry amplitudes {1,2,2,3,3,3,2,2,4}
    from collections import Counter
    want = Counter([1, 2, 2, 3, 3, 3, 2, 2, 4])
    got = Counter(path_stats(p)["amplitude"] for p in gen_motzkin(4))
    assert got == want
    assert amplitude_coeff(4, 0, "horiz") == 1
    assert amplitude_coeff(4, 1, "no-horiz") == 4
    assert amplitude_coeff(4, 1, "horiz") == 3
    assert amplitude_coeff(4, 2, "no-horiz") == 1


def test_amplitude_totals_and_average():
    assert [amplitude_total(n) for n in range(7)] == [0, 1, 3, 8, 22, 60, 165]
    for n in range(10):
        brute = sum(path_stats(p)["amplitude"] for p in gen_motzkin(n))
        assert amplitude_total(n) == brute
    assert amplitude_average(10) == Fraction(2488, 547)
    with pytest.raises(ValueError):
        amplitude_average(0)


def test_amplitude_total_consistent_with_layers():
    for n in range(1, 13):
        bylayer = sum((2 * h + 1) * amplitude_coeff(n, h, "horiz")
                      + 2 * h * amplitude_coeff(n, h, "no-horiz")
                      for h in range(n + 1))
        assert amplitude_total(n) == bylayer


def test_amplitude_extractions_match_the_row_differences():
    # one coeff call on each v-form = the second difference on row n and n vpow_coeff calls
    for n in range(301):
        assert amplitude_total(n) == old_amplitude_total(n), n
        for E in [*range(2, 14), *range(max(14, n), n + 4)]:  # periods >= 2: lo = 2 at h = 0
            assert pathseries._amp_layer_coeff(n, E) == old_amp_layer_coeff(n, E), (n, E)


def test_amplitude_ladder_rungs_are_the_totals():
    ladder = pathseries._amplitude_ladder(300)
    assert ladder == [old_amplitude_total(n) for n in range(301)]
    assert [pathseries._amplitude_ladder(n) for n in range(4)] == [ladder[:n + 1]
                                                                   for n in range(4)]
    with pytest.raises(ValueError):
        pathseries._amplitude_ladder(-1)


def test_amplitude_errors():
    with pytest.raises(ValueError):
        amplitude_series(-1, "horiz", 5)
    with pytest.raises(ValueError):
        amplitude_series(1, "nosuch", 5)
    with pytest.raises(ValueError):
        amplitude_coeff(3, 1, "nosuch")


# ----------------------------------------------------------------------
# limiting turn statistics
# ----------------------------------------------------------------------

def test_kemp_series_golden_values():
    valley = kemp_valley_series(7)
    assert valley.coeff(0).constant() == 0
    want_v = [Fraction(5, 3), Fraction(77, 27), Fraction(925, 243),
              Fraction(10117, 2187), Fraction(105397, 19683),
              Fraction(355327, 59049)]
    assert [valley.coeff(m).constant() for m in range(1, 7)] == want_v
    peak = kemp_peak_series(7)
    assert peak.coeff(0).constant() == 0
    want_p = [Fraction(3), Fraction(13, 3), Fraction(145, 27),
              Fraction(1517, 243), Fraction(15329, 2187),
              Fraction(151565, 19683)]
    assert [peak.coeff(m).constant() for m in range(1, 7)] == want_p


def _kemp_root_w(order: int) -> PowerSeries:
    # the w-route the Kemp series used to take: Fraction arithmetic with 9^n
    # denominators, sqrt((1-w)(9-w)) = 3 sqrt(1 - 10w/9 + w^2/9)
    inner = PowerSeries("w", [1, Fraction(-10, 9), Fraction(1, 9)]).pad(order)
    return 3 * inner.sqrt()


def _kemp_valley_w(order: int) -> PowerSeries:
    root = _kemp_root_w(order)
    num = PowerSeries("w", [-3, 2, 1]).pad(order) + PowerSeries("w", [1, 1]).pad(order) * root
    den = 2 * PowerSeries("w", [1, -2, 1]).pad(order)
    return num / den


def _kemp_peak_w(order: int) -> PowerSeries:
    root = _kemp_root_w(order)
    num = PowerSeries("w", [0, 1]).pad(order) * root
    den = PowerSeries("w", [1, -2, 1]).pad(order)
    return num / den


@pytest.mark.parametrize("series,oracle", [(kemp_valley_series, _kemp_valley_w),
                                           (kemp_peak_series, _kemp_peak_w)],
                         ids=["valley", "peak"])
def test_kemp_series_match_the_w_route(series, oracle):
    for order in range(0, 61):
        got = series(order)
        assert got.var == "w"
        assert got.dump() == oracle(order).dump()
        for c in got.coeffs:
            assert all(type(v) is int or v.denominator != 1 for v in c.terms.values())


def test_kemp_gap_takes_one_square_root(monkeypatch, capsys):
    roots = []
    real = PowerSeries.sqrt

    def counting(self):
        roots.append(self.order)
        return real(self)

    monkeypatch.setattr(PowerSeries, "sqrt", counting)
    pathseries._kemp_root_sigma.cache_clear()
    assert cli.main(["asym", "--family", "kemp_gap", "--n", "80"]) == 0
    capsys.readouterr()
    assert roots == [80]


def test_kemp_oracle_against_exhaustive():
    for n in range(1, 7):
        paths = gen_kdyck(1, n)
        for kind, key in (("valley", "valley_heights"), ("peak", "peak_heights")):
            for m in range(1, 4):
                turns = [path_stats(p)[key] for p in paths]
                eligible = [t[m - 1] for t in turns if len(t) >= m]
                if not eligible:
                    continue
                want = Fraction(sum(eligible), len(eligible))
                assert kemp_finite_oracle(m, n, kind, m_max=3) == want


def test_kemp_oracle_hand_values():
    # n=2: UUdd has no valley, UdUd one valley at level 0
    assert kemp_finite_oracle(1, 2, "valley") == 0
    assert kemp_finite_oracle(1, 1, "peak") == 1


def test_kemp_oracle_errors():
    with pytest.raises(ValueError):
        kemp_finite_oracle(1, 3, "nosuch")
    with pytest.raises(ValueError):
        kemp_finite_oracle(0, 3)
    with pytest.raises(ValueError):
        kemp_finite_oracle(1, 0)
    with pytest.raises(ValueError):
        kemp_finite_oracle(3, 5, m_max=2)


# ----------------------------------------------------------------------
# down-jump paths and strips
# ----------------------------------------------------------------------

def test_deutsch_unbounded_base_sequence():
    ser = deutsch_phi(0, 0, 10)
    assert series_ints(ser, 8) == [1, 0, 1, 1, 3, 6, 15, 36, 91]


def test_deutsch_unbounded_against_brute():
    for t in range(3):
        for j in range(3):
            ser = deutsch_phi(t, j, 9)
            for n in range(10):
                assert ser.coeff(n).constant() == len(
                    gen_deutsch(n, start=t, end_level=j))


def test_deutsch_bounded_against_brute():
    for m in (2, 3, 4):
        for t in range(m):
            for j in range(m):
                ser = deutsch_phi(t, j, 8, bound=m)
                for n in range(9):
                    assert ser.coeff(n).constant() == len(
                        gen_deutsch(n, start=t, ceiling=m - 1, end_level=j))


def test_deutsch_closed_forms_match_band_solve():
    order = 12
    for m in (1, 2, 3, 5, 8):
        for t in range(m):
            sol = deutsch_strip_solve(t, m, order)
            for j in range(m):
                closed = deutsch_phi(t, j, order, bound=m)
                assert (closed - sol[j]).is_zero


def test_deutsch_large_bound_matches_unbounded():
    order = 8
    for t in range(2):
        for j in range(2):
            wide = deutsch_phi(t, j, order, bound=order + 3)
            free = deutsch_phi(t, j, order)
            assert (wide - free).is_zero


def test_deutsch_Dm_base_and_determinant():
    assert (deutsch_Dm(0, 8) - 1).is_zero

    def naive_det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        total = None
        for col in range(n):
            minor = [row[:col] + row[col + 1:] for row in mat[1:]]
            term = mat[0][col] * naive_det(minor)
            if col % 2:
                term = -term
            total = term if total is None else total + term
        return total

    order = 8
    z = PowerSeries.identity("z", order)
    zero = PowerSeries.const("z", 0, order)
    one = PowerSeries.const("z", 1, order)
    for m in (1, 2, 3, 4, 5):
        A = [[zero] * m for _ in range(m)]
        for i in range(m):
            A[i][i] = one
            if i > 0:
                A[i][i - 1] = -z
            for k in range(i + 1, m):
                A[i][k] = -z
        assert (deutsch_Dm(m, order) - naive_det(A)).is_zero


def test_deutsch_errors():
    with pytest.raises(ValueError):
        deutsch_phi(1, 2, 5, bound=2)
    with pytest.raises(ValueError):
        deutsch_phi(-1, 0, 5)
    with pytest.raises(ValueError):
        deutsch_strip_solve(3, 3, 5)
