"""Series division by one long-division recurrence, against the routes it replaced.

`a / b` used to be `a.truncate(n) * b.truncate(n).inverse()`: an inverse
series, then a second product.  It is now one recurrence over the divisor's
nonzero terms, and `inverse()` is `1 / self`.  The oracles below are the
earlier inverse recurrence and that product; the new quotient must equal
them value for value and `dump()` for `dump()`.

The ternary kernel-root check now runs at tau = 16 sigma, where every
coefficient is an integer.  The earlier tau-route, with Fraction
coefficients, is kept here as its oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticepaths import pathseries, treeseries
from latticepaths.series import MarkerPoly, PowerSeries, _exact, _mac, _poly


# ----------------------------------------------------------------------
# oracles: the inverse recurrence and the division built on it
# ----------------------------------------------------------------------

def _old_inverse(self):
    coeffs = self.coeffs
    c0 = coeffs[0]
    if not c0.is_constant or c0.is_zero:
        raise ZeroDivisionError("constant term")
    inv0 = _exact(1 / c0.constant())
    g = [c.terms for c in coeffs]
    nz = [i for i in range(1, self.order + 1) if g[i]]
    out = [MarkerPoly.const(inv0)]
    for n in range(1, self.order + 1):
        acc = {}
        for i in nz:
            if i > n:
                break
            _mac(acc, g[i], out[n - i].terms)
        out.append(_poly({m: -c * inv0 for m, c in acc.items()}))
    return PowerSeries(self.var, out, self.order)


def _old_truediv(self, other):
    if isinstance(other, (int, Fraction)):
        return self * (Fraction(1) / Fraction(other))
    if isinstance(other, MarkerPoly):
        return self * (Fraction(1) / other.constant())
    other = self._coerce_mate(other)
    n = min(self.order, other.order)
    return self.truncate(n) * _old_inverse(other.truncate(n))


def _old_sqrt(self):
    half = Fraction(1, 2)
    p = self.coeffs
    out = [MarkerPoly.const(1)]
    for n in range(1, self.order + 1):
        pairs = {}
        for i in range(1, (n + 1) // 2):
            _mac(pairs, out[i].terms, out[n - i].terms)
        acc = dict(p[n].terms)
        for m, c in pairs.items():
            acc[m] = acc.get(m, 0) - 2 * c
        if not n % 2:
            _mac(acc, (-out[n // 2]).terms, out[n // 2].terms)
        out.append(_poly({m: c * half for m, c in acc.items()}))
    return PowerSeries(self.var, out, self.order)


def _assert_normal(s: PowerSeries):
    for p in s.coeffs:
        for c in p.terms.values():
            assert c
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def _assert_same(got: PowerSeries, want: PowerSeries):
    _assert_normal(got)
    assert got.var == want.var
    assert got.order == want.order
    assert got == want
    assert got.dump() == want.dump()


# ----------------------------------------------------------------------
# strategies: 0-2 markers, int and Fraction coefficients
# ----------------------------------------------------------------------

coeffs = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)),
)
nonzero = coeffs.filter(bool)


@st.composite
def polys(draw, names, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[tuple((nm, draw(st.integers(0, 2))) for nm in names)] = draw(coeffs)
    return MarkerPoly(terms)


@st.composite
def numerators(draw, names):
    order = draw(st.integers(0, 9))
    return PowerSeries("z", [draw(polys(names)) for _ in range(order + 1)], order)


@st.composite
def divisors(draw, names):
    """A unit constant term, then a dense tail or one with a few nonzero terms."""
    order = draw(st.integers(0, 9))
    tail = [MarkerPoly() for _ in range(order)]
    if draw(st.booleans()):
        tail = [draw(polys(names)) for _ in range(order)]
    elif order:
        for i in draw(st.lists(st.integers(0, order - 1), max_size=2)):
            tail[i] = draw(polys(names, max_terms=2))
    return PowerSeries("z", [MarkerPoly.const(draw(nonzero))] + tail, order)


marker_sets = st.sampled_from([(), ("w",), ("u", "w")])


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(data=st.data(), names=marker_sets)
def test_quotient_matches_truncate_times_inverse(data, names):
    a = data.draw(numerators(names))
    b = data.draw(divisors(names))
    q = a / b
    _assert_same(q, _old_truediv(a, b))
    assert q.order == min(a.order, b.order)
    # the quotient times the divisor gives back the numerator
    assert q * b == a


@settings(max_examples=200, deadline=None)
@given(data=st.data(), names=marker_sets, c=nonzero)
def test_inverse_and_reciprocals_match_the_old_recurrence(data, names, c):
    b = data.draw(divisors(names))
    _assert_same(b.inverse(), _old_inverse(b))
    _assert_same(1 / b, _old_inverse(b))
    _assert_same(c / b, _old_inverse(b) * c)
    _assert_same(b ** -2, _old_inverse(b) * _old_inverse(b))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), names=marker_sets, c=nonzero, p=polys(("w",), max_terms=1))
def test_scalar_division_is_unchanged(data, names, c, p):
    a = data.draw(numerators(names))
    _assert_same(a / c, _old_truediv(a, c))
    k = MarkerPoly.const(c)
    _assert_same(a / k, _old_truediv(a, k))
    if not p.is_constant:
        with pytest.raises(ValueError):
            a / p


def test_integral_quotients_stay_ints():
    num = PowerSeries("z", [3, -2, 7, 0, 1])
    q = num / PowerSeries("z", [1, -5, 0, 2]).pad(4)
    assert all(type(c) is int for p in q.coeffs for c in p.terms.values())
    q = num / PowerSeries("z", [-1, 4]).pad(4)
    assert all(type(c) is int for p in q.coeffs for c in p.terms.values())


@pytest.mark.parametrize("lead", [2, -3, 6])
def test_an_integral_quotient_is_stored_as_int_without_fraction_products(lead, monkeypatch):
    # 1/den_0 is not an int, so each integral quotient coefficient is an
    # exact int division, not an int times a Fraction
    quotient = [4, -7, 0, 12, 1, -30]
    den = PowerSeries("z", [lead, 6 * lead, 0, -lead * 5]).pad(5)
    num = PowerSeries("z", quotient) * den
    assert num.coeffs[0].constant() == 4 * lead

    def no_product(*args):
        raise AssertionError("an int times a Fraction")

    monkeypatch.setattr(Fraction, "__rmul__", no_product)
    monkeypatch.setattr(Fraction, "__mul__", no_product)
    q = num / den
    monkeypatch.undo()
    assert q._c == quotient
    assert all(type(c) is int for c in q._c)


@pytest.mark.parametrize("lead", [0, MarkerPoly.var("u"), 1 + MarkerPoly.var("u")])
def test_zero_or_marker_bearing_constant_term_raises(lead):
    b = PowerSeries("z", [lead, 1, 2]).pad(5)
    a = PowerSeries("z", [1, 1]).pad(5)
    with pytest.raises(ZeroDivisionError):
        a / b
    with pytest.raises(ZeroDivisionError):
        b.inverse()
    with pytest.raises(ZeroDivisionError):
        1 / b
    with pytest.raises(ZeroDivisionError):
        b ** -1


# ----------------------------------------------------------------------
# library results: long division = truncate times inverse, dump for dump
# ----------------------------------------------------------------------

LIBRARY = {
    "kemp_valley_series": lambda: pathseries.kemp_valley_series(20),
    "kemp_peak_series": lambda: pathseries.kemp_peak_series(20),
    "skew_sj_series": lambda: pathseries.skew_sj_series(3, 24),
    "deutsch_Dm": lambda: pathseries.deutsch_Dm(3, 14),
    "deutsch_phi_strip": lambda: pathseries.deutsch_phi(1, 2, 14, bound=4),
    "deutsch_strip_solve": lambda: pathseries.deutsch_strip_solve(1, 4, 10)[2],
    "motzkin_bounded": lambda: pathseries.motzkin_bounded(3, 16),
    "marked_height_ph": lambda: treeseries.marked_height_ph(3, 16),
    "marked_height_tail": lambda: treeseries.marked_height_tail(2, 16),
    "retakh_Gk": lambda: treeseries.retakh_Gk(2, 16),
    "retakh_leaf_series": lambda: treeseries.retakh_leaf_series(16),
    "ternary_xi": lambda: treeseries.ternary_xi(10),
}


@pytest.mark.parametrize("label", sorted(LIBRARY))
def test_library_dump_matches_truncate_times_inverse(label, monkeypatch):
    got = LIBRARY[label]()
    with monkeypatch.context() as m:
        m.setattr(PowerSeries, "__truediv__", _old_truediv)
        m.setattr(PowerSeries, "inverse", _old_inverse)
        want = LIBRARY[label]()
    _assert_same(got, want)


# ----------------------------------------------------------------------
# the ternary roots: the tau-route with Fraction coefficients as oracle
# ----------------------------------------------------------------------

def _tau_xi(order):
    U = MarkerPoly.var("U")
    C = PowerSeries("tau", [1, -(3 + 4 * U) * Fraction(1, 4),
                            U * (1 + U) * Fraction(1, 4)]).pad(order)
    return _old_truediv(_old_sqrt(C), PowerSeries("tau", [1, -(1 + U)]).pad(order))


def _tau_root(which, order, xi=None, half=Fraction(1, 2)):
    U = MarkerPoly.var("U")
    s = MarkerPoly.var("s")
    xi = _tau_xi(order) if xi is None else xi
    half_t = PowerSeries("tau", [0, (1 + U) * half]).pad(order)
    sign = -1 if which == "r2" else 1
    return half_t + sign * xi * PowerSeries.const("tau", s, order)


def _tau_series_check(order, xi=None, half=Fraction(1, 2)):
    """The series identities of the factorization check, in tau."""
    U = MarkerPoly.var("U")
    uu = 1 + U
    xi = _tau_xi(order) if xi is None else xi
    prod = _tau_root("r2", order, xi, half) * _tau_root("r3", order, xi, half)
    tau = PowerSeries.identity("tau", order)
    one_minus = PowerSeries("tau", [1, -uu]).pad(order)
    denom = PowerSeries("tau", [1, U * uu]).pad(order)
    ux = _old_truediv(tau * (uu * uu) * one_minus * one_minus, denom)
    s0 = prod.map_coeffs(lambda c: c.marker_coeff("s", 0))
    s2 = prod.map_coeffs(lambda c: c.marker_coeff("s", 2))
    r1 = PowerSeries("tau", [uu ** i for i in range(order + 1)], order)
    if s0 + s2 * ux != -(ux * r1):
        return False
    tt_over = _old_truediv((tau * Fraction(1, 4)) * denom, one_minus * one_minus)
    return xi * xi - tt_over == r1


@pytest.mark.parametrize("order", range(17))
def test_ternary_series_match_the_tau_route(order):
    assert treeseries.ternary_xi(order).dump() == _tau_xi(order).dump()
    for which in ("r2", "r3"):
        got = treeseries.ternary_root_series(which, order)
        want = _tau_root(which, order)
        assert got.var == want.var == "tau"
        assert got.dump() == want.dump()


@pytest.mark.parametrize("order", range(21))
def test_factorization_check_agrees_with_the_tau_route(order):
    assert treeseries.ternary_factorization_check(order) is True
    assert _tau_series_check(order) is True


@pytest.mark.parametrize("order", [1, 6, 20])
def test_sigma_scaled_xi_has_int_coefficients(order):
    xi = treeseries._xi_sigma(order)
    assert xi.var == "sigma"
    assert all(type(c) is int for p in xi.coeffs for c in p.terms.values())
    # coefficient n of Xi(tau) is coefficient n of Xi(16 sigma) over 16^n
    tau_xi = treeseries.ternary_xi(order)
    for n in range(order + 1):
        assert xi.coeff(n) * Fraction(1, 16 ** n) == tau_xi.coeff(n)


def test_the_check_builds_xi_once(monkeypatch):
    calls = []
    build = treeseries._xi_sigma

    def counted(order):
        calls.append(order)
        return build(order)

    monkeypatch.setattr(treeseries, "_xi_sigma", counted)
    assert treeseries.ternary_factorization_check(12)
    assert calls == [12]


@pytest.mark.parametrize("k", [1, 5, 12])
def test_a_perturbed_xi_fails_the_check(k, monkeypatch):
    build = treeseries._xi_sigma
    U = MarkerPoly.var("U")
    bump = PowerSeries("sigma", [0] * k + [U]).pad(12)
    monkeypatch.setattr(treeseries, "_xi_sigma", lambda order: build(order) + bump)
    assert treeseries.ternary_factorization_check(12) is False
    # the tau-route rejects the same perturbation, scaled back by 16^-k
    tau_bump = PowerSeries("tau", [0] * k + [U * Fraction(1, 16 ** k)]).pad(12)
    assert _tau_series_check(12, xi=_tau_xi(12) + tau_bump) is False


@pytest.mark.parametrize("bump", [1, -1, MarkerPoly.var("U")])
def test_a_perturbed_half_t_term_fails_the_check(bump, monkeypatch):
    recip = treeseries._root_recip_sigma
    extra = PowerSeries("sigma", [0, bump]).pad(12)
    monkeypatch.setattr(treeseries, "_root_recip_sigma",
                        lambda sign, xi, order: recip(sign, xi, order) + extra)
    assert treeseries.ternary_factorization_check(12) is False
    assert _tau_series_check(12, half=Fraction(9, 16)) is False
