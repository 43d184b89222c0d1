"""The public API: the names `latticepaths` exports, the signatures of the
tree generators and the type of a series coefficient, written out so that a
refactor cannot change them unseen."""

import inspect
from fractions import Fraction

import pytest

import latticepaths
from latticepaths import MarkerPoly, PowerSeries, trees

PUBLIC_NAMES = [
    'AlgebraicSubstitution', 'EULER_GAMMA', 'Kernel', 'MarkerPoly', 'PowerSeries', 'TrendReport',
    'a002212_terms', 'amplitude_average', 'amplitude_coeff', 'amplitude_series',
    'amplitude_total', 'asymptotics', 'bijections', 'binomial', 'catalan', 'combinat',
    'deng_mansour_count', 'denom_Sj', 'deutsch_Dm', 'deutsch_phi', 'deutsch_strip_solve',
    'divisor_count', 'dual_open_ended', 'dual_skew_Gj_series', 'dual_skew_coeff', 'eval_law',
    'gen_binary', 'gen_deutsch', 'gen_dual_skew', 'gen_hex', 'gen_kdyck', 'gen_marked',
    'gen_motzkin', 'gen_multiedge', 'gen_ordered', 'gen_retakh', 'gen_skew', 'gen_ternary',
    'gen_unary_binary', 'hoppy_early_total', 'hoppy_negative_coeff', 'hoppy_negative_series',
    'horton_Rp', 'horton_Sp', 'horton_avg_reg', 'kemp_finite_oracle', 'kemp_peak_series',
    'kemp_valley_series', 'last_downrun_len', 'last_downrun_total', 'levels', 'marked_count',
    'marked_count_series', 'marked_height_ph', 'marked_height_tail', 'marked_height_total',
    'marked_leaf_series', 'marked_leaf_total', 'marked_to_skew', 'motzkin3_to_multiedge',
    'motzkin_bounded', 'motzkin_bounded_coeff', 'motzkin_det', 'motzkin_height_total',
    'motzkin_numbers', 'multiedge_to_3motzkin', 'node_count_series', 'path_stats',
    'path_to_str', 'paths', 'pathseries', 'poly_substitution', 'reg', 'retakh_Gk',
    'retakh_bounded_count', 'retakh_full', 'retakh_height_total', 'retakh_leaf_series',
    'retakh_leaf_total', 'rotation_multiedge_to_unarybinary',
    'rotation_unarybinary_to_multiedge', 'series', 'skew_open_ended', 'skew_red_fixed_power',
    'skew_red_series', 'skew_red_total', 'skew_red_total_series', 'skew_sj_coeff',
    'skew_sj_series', 'skew_to_marked', 'step_delta', 'tally', 'ternary_T',
    'ternary_factorization_check', 'ternary_root_series', 'ternary_row', 'ternary_row_sum',
    'ternary_t_power', 'ternary_xi', 'tree_size', 'tree_stats', 'tree_to_str', 'trees',
    'treeseries', 'trend_check', 'trinomial', 'trinomial_row', 'ubar', 'ubar_power',
    'unary_binary_count',
]

GENERATOR_SIGNATURES = {
    "gen_binary": "(n: 'int') -> 'list'",
    "gen_unary_binary": "(n: 'int', a: 'int' = 1) -> 'list'",
    "gen_hex": "(n: 'int') -> 'list'",
    "gen_ternary": "(n: 'int') -> 'list'",
    "gen_ordered": "(n: 'int') -> 'list'",
    "gen_marked": "(n: 'int') -> 'list'",
    "gen_multiedge": "(total_weight: 'int') -> 'list'",
}


def test_public_api_is_unchanged():
    assert latticepaths.__all__ == PUBLIC_NAMES
    for name, signature in GENERATOR_SIGNATURES.items():
        assert str(inspect.signature(getattr(trees, name))) == signature, name
        assert getattr(latticepaths, name) is getattr(trees, name)


W = MarkerPoly.var("w")


@pytest.mark.parametrize("coeffs", [
    [1, 0, Fraction(1, 2), -3],
    [MarkerPoly.const(2), MarkerPoly(), MarkerPoly.const(Fraction(4, 2))],
    [1, W, 0, 2 * W * W - W, MarkerPoly.const(5)],
], ids=["marker-free", "constant-polys", "marker-bearing"])
def test_series_coefficients_are_marker_polys(coeffs):
    s = PowerSeries("z", coeffs).pad(6)
    for t in (s, s * s, s + 1, -s, s.inverse(), (1 + s.shift(1)).sqrt()):
        assert all(type(t.coeff(n)) is MarkerPoly for n in range(t.order + 1))
        assert all(type(c) is MarkerPoly for c in t.coeffs)
        assert t.coeffs == [t.coeff(n) for n in range(t.order + 1)]
    assert s.coeffs == list(map(MarkerPoly._coerce, coeffs)) + [MarkerPoly()] * (7 - len(coeffs))
