"""Growth laws against exact ladders at doubling sizes."""

import math
import random
import sys
from fractions import Fraction

import pytest

from latticepaths.asymptotics import (
    EULER_GAMMA,
    LAW_KINDS,
    TrendReport,
    _decimal,
    eval_law,
    trend_check,
)
from latticepaths.combinat import a002212_terms, motzkin_numbers
from latticepaths.pathseries import (
    amplitude_average,
    kemp_peak_series,
    kemp_valley_series,
    motzkin_height_total,
    skew_red_total,
)
from latticepaths.treeseries import (
    horton_avg_reg,
    marked_count,
    marked_height_total,
    marked_leaf_total,
    retakh_height_total,
    retakh_leaf_total,
    unary_binary_count,
)


def test_euler_gamma_constant():
    # H_n - log n - 1/(2n) + 1/(12 n^2) converges like n^-4
    n = 1000
    harmonic = sum(Fraction(1, k) for k in range(1, n + 1))
    approx = float(harmonic) - math.log(n) - 1 / (2 * n) + 1 / (12 * n * n)
    assert abs(EULER_GAMMA - approx) < 1e-12


def test_law_spot_values():
    assert eval_law("kemp_gap", 8) == 1.7179052082261217
    assert eval_law("amplitude_split", 3) == 0.5
    assert eval_law("amplitude_split", 1000) == 0.5
    assert eval_law("red_edges", 10) == 2.0
    assert eval_law("marked_leaves", 5) == 2.0
    assert eval_law("retakh_leaves", 9) == 4.0
    assert eval_law("node_count_growth", 1, a=0) == pytest.approx(
        4.0 / math.sqrt(math.pi))


def test_law_relations():
    # average amplitude is twice the average height, and the bicoloured
    # tree height shares the Motzkin constant
    for n in (7, 50, 300):
        assert eval_law("amplitude_avg", n) == 2 * eval_law("motzkin_height", n)
        assert eval_law("retakh_height", n) == eval_law("amplitude_avg", n)
    # the register average gains exactly 1/2 per doubling
    for a in (0, 1, 2):
        step = eval_law("horton_avg", 256, a=a) - eval_law("horton_avg", 128, a=a)
        assert step == pytest.approx(0.5)


def test_all_kinds_evaluate():
    for kind in LAW_KINDS:
        value = eval_law(kind, 8, a=1)
        assert math.isfinite(value) and value > 0


def test_eval_law_errors():
    with pytest.raises(ValueError):
        eval_law("red_edges", 0)
    with pytest.raises(ValueError):
        eval_law("kemp_gap", -5)
    with pytest.raises(ValueError):
        eval_law("no_such_law", 10)


def test_trend_check_logic():
    ok = trend_check("red_edges", [(50, Fraction(51, 5)),
                                   (100, Fraction(101, 5)),
                                   (200, Fraction(201, 5))])
    assert ok.ok
    assert [row[0] for row in ok.rows] == [50, 100, 200]
    # a 10% rise in deviation sits inside the default 20% allowance
    noisy = trend_check("red_edges", [(50, 10.2), (100, 20.44)])
    assert noisy.ok
    bad = trend_check("red_edges", [(50, 15.0), (100, 40.0)])
    assert not bad.ok
    with pytest.raises(ValueError):
        trend_check("red_edges", [])


def test_trend_report_csv():
    report = trend_check("red_edges", [(5, 1), (10, Fraction(5, 2))])
    assert report.to_csv() == (
        "n,exact,asymptotic,rel_dev\n"
        "5,1,1.0,0.0\n"
        "10,5/2,2.0,0.25\n"
    )


def _unlimited_str(v: int) -> str:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_decimal_digits_past_the_int_string_limit():
    rng = random.Random(7)
    values = [0, 7, -7, 2 ** 2048, 10 ** 617, 10 ** 5000 + 1, -(10 ** 9000) - 10 ** 30,
              3 ** 20000]
    values += [rng.getrandbits(bits) * rng.choice((1, -1))
               for bits in (100, 2047, 2049, 9000, 30000, 60000) for _ in range(5)]
    for v in values:
        assert _decimal(v) == _unlimited_str(v)
    big = Fraction(10 ** 5000 + 3, 7 * 10 ** 4400 + 1)
    report = TrendReport("red_edges", rows=[(1, big, 1.0, 0.5), (2, 10 ** 4500 + 9, 1.0, 0.5)])
    lines = report.to_csv().splitlines()
    assert lines[1] == (f"1,{_unlimited_str(big.numerator)}/{_unlimited_str(big.denominator)}"
                        ",1.0,0.5")
    assert lines[2] == f"2,{_unlimited_str(10 ** 4500 + 9)},1.0,0.5"
    whole = trend_check("red_edges", [(10, Fraction(2, 1))])
    assert whole.to_csv().splitlines()[1] == "10,2,2.0,0.0"


def _final_dev(report):
    return report.rows[-1][3]


def test_marked_leaf_average_trend():
    pairs = [(n, Fraction(marked_leaf_total(n), marked_count(n)))
             for n in (50, 100, 200)]
    report = trend_check("marked_leaves", pairs)
    assert report.ok
    assert _final_dev(report) < 0.001


def test_red_edge_average_trend():
    counts = a002212_terms(201)
    pairs = [(n, Fraction(skew_red_total(n), counts[n])) for n in (50, 100, 200)]
    report = trend_check("red_edges", pairs)
    assert report.ok
    assert _final_dev(report) < 0.003


def test_amplitude_average_trend():
    pairs = [(n, amplitude_average(n)) for n in (40, 80, 160)]
    report = trend_check("amplitude_avg", pairs)
    assert report.ok
    assert _final_dev(report) < 0.1


def test_motzkin_height_average_trend():
    motzkin = motzkin_numbers(201)
    pairs = [(n, Fraction(motzkin_height_total(n), motzkin[n]))
             for n in (50, 100, 200)]
    report = trend_check("motzkin_height", pairs)
    assert report.ok
    assert _final_dev(report) < 0.12


def test_retakh_leaf_average_trend():
    motzkin = motzkin_numbers(201)
    pairs = [(n, Fraction(retakh_leaf_total(n), motzkin[n - 1]))
             for n in (50, 100, 200)]
    report = trend_check("retakh_leaves", pairs)
    assert report.ok
    assert _final_dev(report) < 0.02


def test_retakh_height_average_trend():
    motzkin = motzkin_numbers(201)
    pairs = [(n, Fraction(retakh_height_total(n), motzkin[n - 1]))
             for n in (50, 100, 200)]
    report = trend_check("retakh_height", pairs)
    assert report.ok
    assert _final_dev(report) < 0.12


def test_marked_height_average_trend():
    pairs = [(n, Fraction(marked_height_total(n), marked_count(n)))
             for n in (40, 80, 160)]
    report = trend_check("marked_height", pairs)
    assert report.ok
    assert _final_dev(report) < 0.06


@pytest.mark.parametrize("a", [0, 1, 2])
def test_horton_register_trend(a):
    # the mean register carries a small periodic fluctuation in log2(n)
    # that never decays, so allow deviation ratios well above the default
    pairs = [(n, horton_avg_reg(n, a)) for n in (64, 128, 256, 512)]
    report = trend_check("horton_avg", pairs, tolerance=0.6, a=a)
    assert report.ok
    assert _final_dev(report) < 0.02


def test_kemp_valley_trend():
    series = kemp_valley_series(41)
    pairs = [(m, series.coeff(m).constant()) for m in (10, 20, 40)]
    report = trend_check("kemp_valley", pairs)
    assert report.ok
    assert _final_dev(report) < 1e-4


def test_kemp_gap_trend():
    valley = kemp_valley_series(41)
    peak = kemp_peak_series(41)
    pairs = [(m, peak.coeff(m).constant() - valley.coeff(m).constant())
             for m in (10, 20, 40)]
    report = trend_check("kemp_gap", pairs)
    assert report.ok
    assert _final_dev(report) < 5e-4


@pytest.mark.parametrize("a", [0, 1, 2])
def test_node_count_growth_trend(a):
    pairs = [(n, unary_binary_count(n, a)) for n in (50, 100, 200)]
    report = trend_check("node_count_growth", pairs, a=a)
    assert report.ok
    assert _final_dev(report) < 0.01
