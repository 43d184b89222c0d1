"""Power-series engine: marker polynomials, truncated arithmetic over exact
rationals, and reversion of kernel substitutions."""

import inspect
import random
from fractions import Fraction

import pytest

from latticepaths import pathseries, treeseries
from latticepaths.combinat import catalan, motzkin_numbers
from latticepaths.series import (
    AlgebraicSubstitution,
    MarkerPoly,
    PowerSeries,
    _ring,
    poly_substitution,
)
from old_series import old_invert


# ----------------------------------------------------------------------
# MarkerPoly
# ----------------------------------------------------------------------

def test_marker_poly_ring_axioms():
    u = MarkerPoly.var("u")
    w = MarkerPoly.var("w")
    p = 2 * u + 3 * w - 1
    q = u * w + Fraction(1, 2)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * p == p * p + q * p
    assert p - p == MarkerPoly.const(0)
    assert (p * q).degree() == p.degree() + q.degree()


def test_marker_poly_zero_and_constant_flags():
    u = MarkerPoly.var("u")
    assert (u - u).is_zero
    assert (u - u).degree() == -1 and MarkerPoly().degree("u") == -1
    assert MarkerPoly.const(Fraction(3, 7)).is_constant
    assert not u.is_constant
    assert MarkerPoly.const(Fraction(3, 7)).constant() == Fraction(3, 7)


def test_marker_poly_marker_coeff_and_subs():
    u = MarkerPoly.var("u")
    w = MarkerPoly.var("w")
    p = (1 + u) ** 3 * w + 2 * w * w
    assert p.marker_coeff("u", 2) == 3 * w
    assert p.subs({"u": Fraction(1)}) == 8 * w + 2 * w * w
    assert p.subs({"u": 0, "w": 2}) == MarkerPoly.const(10)


def test_marker_poly_power_and_division():
    u = MarkerPoly.var("u")
    assert (u + 1) ** 0 == MarkerPoly.const(1)
    assert (2 * u) / 2 == u
    with pytest.raises(ValueError):
        (u + 1) ** -1


def test_marker_poly_deriv():
    u = MarkerPoly.var("u")
    p = (1 + u) ** 4
    assert p.deriv("u") == 4 * (1 + u) ** 3


def test_a_marker_to_the_zeroth_power_is_the_constant_one():
    one = MarkerPoly.var("x", 0)
    assert one.terms == {(): 1} and type(one.terms[()]) is int
    assert one == 1 and str(one) == "1"
    assert MarkerPoly({(("x", 0), ("y", 2)): 3}).terms == {(("y", 2),): 3}
    assert PowerSeries("z", [MarkerPoly.var("x", 0), 2])._c == [1, 2]


@pytest.mark.parametrize("build", [
    lambda: MarkerPoly.var("x", -1),
    lambda: MarkerPoly.var("x", Fraction(1, 2)),
    lambda: MarkerPoly.var("x", 1.0),
    lambda: MarkerPoly({(("x", -2),): 1}),
    lambda: MarkerPoly({(("x", 1), ("y", -1)): 1}),
    lambda: MarkerPoly({(("x", 2.5),): 1}),
], ids=["var-negative", "var-fraction", "var-float", "negative", "negative-second",
        "float"])
def test_marker_exponents_must_be_ints_at_least_zero(build):
    with pytest.raises(ValueError, match="marker exponents"):
        build()


# ----------------------------------------------------------------------
# PowerSeries arithmetic
# ----------------------------------------------------------------------

def test_geometric_series_inverse():
    g = PowerSeries.geometric("z", 12)
    one_minus = PowerSeries("z", [1, -1]).pad(12)
    assert (g * one_minus - 1).is_zero
    assert (one_minus.inverse() - g).is_zero


def test_sqrt_recovers_catalan():
    # (1 - sqrt(1-4z))/(2z) is the Catalan series
    inner = PowerSeries("z", [1, -4]).pad(17)
    cat = (1 - inner.sqrt()).shift(-1) / 2
    for n in range(16):
        assert cat.coeff(n).constant() == catalan(n)


def test_mixed_order_arithmetic_truncates_to_min():
    a = PowerSeries("z", [1, 1, 1, 1], 3)
    b = PowerSeries("z", [1, 2], 1)
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_pad_returns_exactly_the_order_asked():
    poly = PowerSeries("z", [1, -40, 144])
    assert (poly.pad(5).order, poly.pad(5).coeffs) == (5, [1, -40, 144, 0, 0, 0])
    assert (poly.pad(1).order, poly.pad(1).coeffs) == (1, [1, -40])
    assert (poly.pad(0).order, poly.pad(0).coeffs) == (0, [1])
    assert poly.pad(2) is poly


# One call per public builder with an `order` parameter, the others fixed.
SERIES_BUILDERS = {
    "amplitude_series": lambda o: pathseries.amplitude_series(1, "horiz", o),
    "denom_Sj": lambda o: pathseries.denom_Sj(7, 1, o),
    "deutsch_Dm": lambda o: pathseries.deutsch_Dm(3, o),
    "deutsch_phi": lambda o: pathseries.deutsch_phi(1, 0, o, 3),
    "deutsch_strip_solve": lambda o: pathseries.deutsch_strip_solve(1, 3, o)[0],
    "dual_open_ended": pathseries.dual_open_ended,
    "dual_skew_Gj_series": lambda o: pathseries.dual_skew_Gj_series(1, o),
    "hoppy_negative_series": lambda o: pathseries.hoppy_negative_series(2, o),
    "kemp_peak_series": pathseries.kemp_peak_series,
    "kemp_valley_series": pathseries.kemp_valley_series,
    "motzkin_bounded": lambda o: pathseries.motzkin_bounded(2, o, "no-top-horizontal"),
    "motzkin_det": lambda o: pathseries.motzkin_det(3, o),
    "skew_open_ended": pathseries.skew_open_ended,
    "skew_red_fixed_power": lambda o: pathseries.skew_red_fixed_power(2, o),
    "skew_red_series": pathseries.skew_red_series,
    "skew_red_total_series": pathseries.skew_red_total_series,
    "skew_sj_series": lambda o: pathseries.skew_sj_series(1, o),
    "ubar": lambda o: pathseries.ubar(2, o),
    "ubar_power": lambda o: pathseries.ubar_power(2, 2, o),
    "horton_Rp": lambda o: treeseries.horton_Rp(2, 1, o),
    "horton_Sp": lambda o: treeseries.horton_Sp(2, 1, o),
    "marked_count_series": treeseries.marked_count_series,
    "marked_height_ph": lambda o: treeseries.marked_height_ph(2, o),
    "marked_height_tail": lambda o: treeseries.marked_height_tail(2, o),
    "marked_leaf_series": treeseries.marked_leaf_series,
    "node_count_series": lambda o: treeseries.node_count_series(1, o),
    "retakh_Gk": lambda o: treeseries.retakh_Gk(2, o),
    "retakh_full": treeseries.retakh_full,
    "retakh_leaf_series": treeseries.retakh_leaf_series,
    "ternary_root_series": lambda o: treeseries.ternary_root_series("r2", o),
    "ternary_xi": treeseries.ternary_xi,
}


def test_series_builder_table_is_complete():
    public = {name for module in (pathseries, treeseries)
              for name, fn in inspect.getmembers(module, inspect.isfunction)
              if fn.__module__ == module.__name__ and not name.startswith("_")
              and "order" in inspect.signature(fn).parameters}
    assert public - {"ternary_factorization_check"} == set(SERIES_BUILDERS)


@pytest.mark.parametrize("name", sorted(SERIES_BUILDERS))
def test_series_builders_return_the_order_asked(name):
    for order in range(4):
        assert SERIES_BUILDERS[name](order).order == order


def test_compose_requires_vanishing_constant():
    outer = PowerSeries.geometric("z", 6)
    inner = PowerSeries("z", [1, 1]).pad(6)
    with pytest.raises(ValueError):
        outer.compose(inner)


def test_compose_geometric_with_2z():
    outer = PowerSeries.geometric("z", 8)
    inner = PowerSeries("z", [0, 2]).pad(8)
    got = outer.compose(inner)
    for n in range(9):
        assert got.coeff(n).constant() == 2 ** n


def test_inverse_requires_nonzero_marker_free_constant():
    with pytest.raises(ZeroDivisionError):
        PowerSeries("z", [0, 1]).pad(5).inverse()
    u = MarkerPoly.var("u")
    with pytest.raises(ZeroDivisionError):
        PowerSeries("z", [u, 1]).pad(5).inverse()


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        PowerSeries("z", [4, 1]).pad(5).sqrt()


def test_shift_down_requires_zero_low_coefficients():
    s = PowerSeries("z", [0, 0, 5, 7]).pad(6)
    shifted = s.shift(-2)
    assert shifted.coeff(0).constant() == 5
    with pytest.raises(ValueError, match="cannot divide"):
        PowerSeries("z", [1, 2]).pad(4).shift(-1)
    for k in (3, 4, 5):  # past the three stored coefficients
        with pytest.raises(ValueError, match="no coefficients"):
            PowerSeries("z", [0, 0, 0]).shift(-k)


def test_markerpoly_scalar_interop_is_symmetric():
    u = MarkerPoly.var("u")
    s = PowerSeries("z", [1, 2, 3]).pad(4)
    assert (u * s - s * u).is_zero
    assert (u + s - (s + u)).is_zero
    assert ((u - s) + (s - u)).is_zero


def test_pow_matches_repeated_multiplication():
    s = PowerSeries("z", [1, 1, 2]).pad(9)
    assert (s ** 4 - s * s * s * s).is_zero
    assert (s ** 0 - 1).is_zero


def test_truediv_by_series_and_scalar():
    num = PowerSeries("z", [0, 1]).pad(9)
    den = PowerSeries("z", [1, -1]).pad(9)
    q = num / den
    for n in range(1, 10):
        assert q.coeff(n).constant() == 1
    assert ((num / 2) * 2 - num).is_zero


# ----------------------------------------------------------------------
# Kernel substitutions (series reversion)
# ----------------------------------------------------------------------

def test_catalan_kernel_reversion():
    # v = z (1+v)^2 has [z^n] v equal to the n-th Catalan number for n >= 1
    sub = poly_substitution("z", "v", [1, 2, 1], 14)
    v = sub.invert(14)
    for n in range(1, 15):
        assert v.coeff(n).constant() == catalan(n)
    phi = PowerSeries("v", [1, 2, 1]).pad(14)
    assert (v - phi.compose(v).shift(1).truncate(14)).is_zero


def test_motzkin_kernel_reversion():
    sub = poly_substitution("z", "v", [1, 1, 1], 12)
    v = sub.invert(12)
    mo = motzkin_numbers(12)
    # [z^n] v = Motzkin paths of length n-1 returning to 0 under this kernel
    got = [v.coeff(n).constant() for n in range(1, 13)]
    want = [Fraction(m) for m in mo[:12]]
    assert got == want


def test_quadratic_reversion_equals_fixed_point_loop():
    rng = random.Random(20240817)
    for _ in range(6):
        c0 = Fraction(rng.randrange(1, 5))
        c1 = Fraction(rng.randrange(0, 4))
        c2 = Fraction(rng.randrange(0, 4))
        order = 10
        sub = poly_substitution("z", "v", [c0, c1, c2], order)
        fast = sub.invert(order)
        phi = PowerSeries("v", [c0, c1, c2]).pad(order)
        v = PowerSeries.const("z", 0, order)
        for _ in range(order):
            v = phi.compose(v).pad(order).shift(1).truncate(order)
        assert (fast - v).is_zero


def test_cubic_reversion_satisfies_its_equation():
    # v = z (1 + v^3) counts some planted ternary-ish objects; verify the
    # defining equation rather than any closed form
    order = 12
    sub = poly_substitution("z", "v", [1, 0, 0, 1], order)
    v = sub.invert(order)
    phi = PowerSeries("v", [1, 0, 0, 1]).pad(order)
    assert (v - phi.compose(v).shift(1).truncate(order)).is_zero


def test_substitution_with_marker_coefficients():
    u = MarkerPoly.var("u")
    order = 8
    sub = AlgebraicSubstitution("z", "v", PowerSeries("v", [1, u]).pad(order))
    v = sub.invert(order)
    phi = PowerSeries("v", [1, u]).pad(order)
    assert (v - phi.compose(v).shift(1).truncate(order)).is_zero
    # v = z/(1-uz) exactly, so the markers follow a plain geometric pattern
    assert v.coeff(1).constant() == 1
    assert v.coeff(2) == u
    assert v.coeff(3) == u * u


def _same_inversion(phi: PowerSeries, order: int):
    """`invert` equals the quadratic fast path or fixed-point loop it replaced
    (`old_series`): dumps, orders and stored coefficient types."""
    sub = AlgebraicSubstitution("z", phi.var, phi)
    new, old = sub.invert(order), old_invert(sub, order)
    assert (new.var, new.order, new.dump()) == (old.var, old.order, old.dump())
    assert [type(c) for c in new._c] == [type(c) for c in old._c]


def test_quadratic_inversion_is_the_old_fast_path():
    u, w = MarkerPoly.var("u"), MarkerPoly.var("w")
    values = (0, 1, -2, Fraction(1, 3), u, 1 - w, u * w + Fraction(1, 2))
    rng = random.Random(20261019)
    for order in range(13):
        for _ in range(6):
            c0, c1, c2 = (rng.choice(values) for _ in range(3))
            _same_inversion(PowerSeries("v", [c0 or 1, c1, c2]).pad(order + 2), order)


def test_cubic_and_series_inversions_are_the_old_fixed_point_loop():
    u = MarkerPoly.var("u")
    for order in range(13):
        _same_inversion(PowerSeries("v", [1, 0, 0, 1]).pad(order), order)
        # the Phi of the ternary r1 reversion route: (1 + (u - 1) t)/(1 - t)^2
        geom2 = PowerSeries("t", [i + 1 for i in range(order + 1)], order)
        _same_inversion(PowerSeries("t", [1, u - 1]).pad(order) * geom2, order)


def test_random_series_roundtrip_properties():
    rng = random.Random(99)
    for _ in range(8):
        order = rng.randrange(4, 9)
        coeffs = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(order + 1)]
        coeffs[0] = Fraction(rng.randrange(1, 5))
        s = PowerSeries("z", coeffs, order)
        assert ((s * s.inverse()) - 1).is_zero
        assert ((s + (-s))).is_zero


def test_power_series_text():
    # zero terms are left out; a negative or multi-term coefficient is bracketed
    s = PowerSeries("z", [0, -3, 1, 0, 5, Fraction(-1, 2)])
    assert str(s) == repr(s) == "(-3)*z + z^2 + 5*z^4 + (-1/2)*z^5"
    assert str(PowerSeries("z", [-2, 1])) == "-2 + z"
    assert str(PowerSeries("z", [0, 0])) == "0"
    u, w = MarkerPoly.var("u"), MarkerPoly.var("w")
    t = PowerSeries("x", [1 + u, u, -u, 0, 2 * u * u - 3 * w + 1, -1])
    assert str(t) == repr(t) == "1 + u + u*x + (-u)*x^2 + (1 - 3*w + 2*u^2)*x^4 + (-1)*x^5"


# ----------------------------------------------------------------------
# Refusals and edge values, one row per branch
# ----------------------------------------------------------------------

S = MarkerPoly.var("s")


@pytest.mark.parametrize("call, error, message", [
    (lambda: "x" - S, TypeError, "unsupported operand type(s) for -: 'str' and 'MarkerPoly'"),
    (lambda: PowerSeries("z", [1], -1), ValueError, "truncation order must be >= 0"),
    (lambda: PowerSeries("z", [1, 2, 3]).coeff(3), ValueError,
     "coefficient 3 beyond truncation order 2"),
    (lambda: PowerSeries("z", [1]) + PowerSeries("v", [1]), ValueError,
     "variable mismatch: z vs v"),
    (lambda: AlgebraicSubstitution("z", "v", PowerSeries("z", [1, 1])), ValueError,
     "phi must be a series in the inner variable"),
    (lambda: AlgebraicSubstitution("z", "v", PowerSeries("v", [0, 1])), ValueError,
     "phi must not vanish at 0"),
    (lambda: AlgebraicSubstitution("z", "v", PowerSeries("v", [1, 1, 1])).invert(3), ValueError,
     "phi is only known to order 2; cannot invert to 3"),
], ids=["MarkerPoly rsub foreign", "order < 0", "coeff beyond order", "variable mismatch",
        "phi in the outer variable", "phi vanishing at 0", "invert beyond phi"])
def test_refusals_raise(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("value, expected", [
    (lambda: S == 1.0, False),
    (lambda: S.__eq__(1.0), NotImplemented),
    (lambda: (6 * S) / MarkerPoly.const(4), Fraction(3, 2) * S),
    (lambda: (_ring(True), type(_ring(True))), (1, int)),
    (lambda: PowerSeries("z", [1, 2]).coeff(-1), MarkerPoly()),
    (lambda: PowerSeries("z", [3], 2) == 3, True),
    (lambda: PowerSeries("z", [3], 2) == MarkerPoly.const(2), False),
    (lambda: PowerSeries("z", [3]).__eq__("3"), NotImplemented),
], ids=["MarkerPoly == float", "MarkerPoly.__eq__ float", "MarkerPoly / constant MarkerPoly",
        "_ring(True)", "coeff(-1)", "series == int", "series == MarkerPoly",
        "series.__eq__ str"])
def test_edge_values(value, expected):
    assert value() == expected
