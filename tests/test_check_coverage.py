"""Every public function of the closed-form modules is reached by a `check`
family, or is listed here as not yet.

Each `cli.CHECKS` family runs at its default budget under `sys.setprofile`,
which notes each call into a public function defined in `combinat`,
`pathseries` or `treeseries`.  The functions that no family reaches must be
exactly those in `UNCHECKED`: a new public function with no `check` route
fails, and so does a listed one that a check now reaches, so the list only
shrinks.  Reaching a function is not yet confirming it: a route may call it
without another route comparing its value.
"""

import contextlib
import inspect
import io
import sys

from latticepaths import cli, combinat, pathseries, treeseries

MODULES = (combinat, pathseries, treeseries)

UNCHECKED = {
    # reached by `seq` or `asym` alone, which print one route and compare nothing
    "combinat.a002212_terms", "combinat.divisor_count", "pathseries.amplitude_average",
    "pathseries.amplitude_total", "pathseries.kemp_peak_series",
    "pathseries.kemp_valley_series", "pathseries.motzkin_height_total",
    "pathseries.skew_red_total", "treeseries.horton_avg_reg", "treeseries.marked_height_ph",
    "treeseries.retakh_full",
    # reached by no command, only by the tests
    "combinat.catalan", "combinat.trinomial", "combinat.trinomial_row",
    "pathseries.deutsch_Dm", "pathseries.deutsch_strip_solve", "pathseries.dual_open_ended",
    "pathseries.dual_skew_coeff", "pathseries.hoppy_early_total",
    "pathseries.kemp_finite_oracle", "pathseries.skew_open_ended",
    "pathseries.skew_red_fixed_power", "pathseries.skew_red_series",
    "pathseries.skew_red_total_series", "pathseries.skew_sj_coeff", "pathseries.ubar",
    "treeseries.horton_Sp", "treeseries.marked_count_series",
    "treeseries.marked_height_tail", "treeseries.marked_leaf_series",
    "treeseries.node_count_series", "treeseries.retakh_Gk", "treeseries.retakh_leaf_series",
    "treeseries.ternary_factorization_check", "treeseries.ternary_root_series",
    "treeseries.ternary_t_power", "treeseries.ternary_xi",
}


def _public_functions() -> dict:
    """code object -> "module.name" of each public function a module defines."""
    out = {}
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name, value in vars(module).items():
            func = inspect.unwrap(value) if callable(value) else None
            if (not name.startswith("_") and inspect.isfunction(func)
                    and func.__module__ == module.__name__):
                out[func.__code__] = f"{short}.{name}"
    return out


def _clear_caches():
    """Empty the module-level caches, so that an earlier test's results do
    not hide the calls a check makes."""
    for module in sys.modules.copy().values():
        if module.__name__.startswith("latticepaths."):
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()


def test_every_public_function_is_checked_or_listed():
    public = _public_functions()
    reached = set()

    def note(frame, event, arg):
        if event == "call" and frame.f_code in public:
            reached.add(public[frame.f_code])

    _clear_caches()
    for family in cli.CHECKS:
        sys.setprofile(note)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["check", "--family", family]) == 0, family
        finally:
            sys.setprofile(None)
    unchecked = set(public.values()) - reached
    new = sorted(unchecked - UNCHECKED)
    assert not new, f"public functions that no check reaches: {new}"
    now_checked = sorted(UNCHECKED & reached)
    assert not now_checked, f"reached by a check now, take them off UNCHECKED: {now_checked}"
    assert UNCHECKED <= set(public.values()), sorted(UNCHECKED - set(public.values()))
