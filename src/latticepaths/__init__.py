"""Exact enumeration workbench for decorated lattice paths and tree families.

Everything is computed three ways where the mathematics allows it: closed
binomial/trinomial forms, truncated power series over exact rationals, and
exhaustive generation.  The subpackages re-exported here are grouped by
role: `combinat` and `series` are the arithmetic substrate, `paths` and
`trees` are brute-force generators, `pathseries` and `treeseries` hold the
closed forms, `bijections` the structure-preserving maps, and `asymptotics`
the growth-law evaluators.
"""

from .asymptotics import EULER_GAMMA, TrendReport, eval_law, trend_check
from .bijections import (
    marked_to_skew,
    motzkin3_to_multiedge,
    multiedge_to_3motzkin,
    path_to_str,
    rotation_multiedge_to_unarybinary,
    rotation_unarybinary_to_multiedge,
    skew_to_marked,
    tree_to_str,
)
from .combinat import (
    a002212_terms,
    binomial,
    catalan,
    divisor_count,
    motzkin_numbers,
    trinomial,
    trinomial_row,
)
from .paths import (
    gen_deutsch,
    gen_dual_skew,
    gen_kdyck,
    gen_motzkin,
    gen_retakh,
    gen_skew,
    last_downrun_len,
    levels,
    path_stats,
    step_delta,
)
from .pathseries import (
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
from .series import AlgebraicSubstitution, Kernel, MarkerPoly, PowerSeries, poly_substitution
from .trees import (
    gen_binary,
    gen_hex,
    gen_marked,
    gen_multiedge,
    gen_ordered,
    gen_ternary,
    gen_unary_binary,
    reg,
    tally,
    tree_size,
    tree_stats,
)
from .treeseries import (
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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
