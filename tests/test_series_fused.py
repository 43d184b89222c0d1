"""The series engine against the per-pair arithmetic it replaced.

`PowerSeries` keeps one coefficient ring: a stored coefficient is an int
when it is integral, a Fraction otherwise, and a `MarkerPoly` only when it
carries a marker.  Each operation and `Kernel.eval` is one loop over `+` and
`*`, and a product of two polynomials is one multiply-accumulate (`_mac`)
into a dict.  A series product in which either factor carries a marker
codes each monomial as an int instead, and is also checked against the slice
loop it replaced (`old_series.slice_mul`).  The oracles below are the earlier
per-pair routes, all-Fraction, which build one intermediate polynomial per
pair of terms; on every series, marker-free or not, the results must equal
them value for value and string for string, with the same coefficient types
and the same errors.  The oracles read `.coeffs`, a new list per read, once
per call.

`sqrt` is the P-recurrence of a square root.  The symmetric-pair
convolution it replaced is kept below as a second oracle, next to the
per-pair route.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticepaths import pathseries, series as series_module, treeseries
from latticepaths.series import (
    AlgebraicSubstitution,
    Kernel,
    MarkerPoly,
    PowerSeries,
    _mac,
    _mono,
    _poly,
    poly_substitution,
)
from old_series import slice_mul


# ----------------------------------------------------------------------
# reference oracles: the per-pair routes, with Fraction coefficients
# ----------------------------------------------------------------------

def _ref_add(p, q):
    out = {m: Fraction(c) for m, c in p.terms.items()}
    for mono, c in q.terms.items():
        acc = out.get(mono, 0) + Fraction(c)
        if acc:
            out[mono] = acc
        else:
            out.pop(mono, None)
    return MarkerPoly(out)


def _ref_poly_mul(self, other):
    if isinstance(other, (int, Fraction)):
        return MarkerPoly({m: Fraction(c) * other for m, c in self.terms.items()})
    if not isinstance(other, MarkerPoly):
        return NotImplemented
    out = {}
    for m1, c1 in self.terms.items():
        for m2, c2 in other.terms.items():
            key = _mono(m1 + m2) if (m1 and m2) else (m1 or m2)
            acc = out.get(key, 0) + Fraction(c1) * Fraction(c2)
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return MarkerPoly(out)


def _ref_pow(p, e):
    out = MarkerPoly.const(1)
    for _ in range(e):
        out = _ref_poly_mul(out, p)
    return out


def _ref_series_mul(self, other):
    if isinstance(other, (int, Fraction, MarkerPoly)):
        m = MarkerPoly._coerce(other)
        return PowerSeries(self.var, [_ref_poly_mul(c, m) for c in self.coeffs], self.order)
    other = self._coerce_mate(other)
    n = min(self.order, other.order)
    b = other.coeffs
    out = [MarkerPoly()] * (n + 1)
    for i, ci in enumerate(self.coeffs[: n + 1]):
        if not ci.terms:
            continue
        for j in range(0, n + 1 - i):
            cj = b[j]
            if cj.terms:
                out[i + j] = _ref_add(out[i + j], _ref_poly_mul(ci, cj))
    return PowerSeries(self.var, out, n)


def _ref_series_add(self, other):
    n = min(self.order, other.order)
    a, b = self.coeffs, other.coeffs
    return PowerSeries(self.var, [_ref_add(a[i], b[i]) for i in range(n + 1)], n)


def _ref_series_pow(self, e):
    base = _ref_inverse(self) if e < 0 else self
    out = PowerSeries.const(self.var, 1, self.order)
    for _ in range(abs(e)):
        out = _ref_series_mul(out, base)
    return out


def _ref_eval(expr, b, order):
    """expr(v) for the inverse series v of var = v/(1 + bv + v^2), composed
    by Horner's rule on the per-pair route."""
    v = poly_substitution("z", "v", [1, b, 1], order).invert(order)
    f = expr.coeffs
    out = PowerSeries.const("z", f[order], order)
    for k in range(order - 1, -1, -1):
        out = _ref_series_add(_ref_series_mul(out, v), PowerSeries.const("z", f[k], order))
    return out


def _ref_inverse(self):
    g = self.coeffs
    inv0 = Fraction(1) / g[0].constant()
    out = [MarkerPoly.const(inv0)]
    for n in range(1, self.order + 1):
        acc = MarkerPoly()
        for i in range(1, n + 1):
            gi = g[i]
            if gi.terms:
                acc = _ref_add(acc, _ref_poly_mul(gi, out[n - i]))
        out.append(_ref_poly_mul(acc, -inv0))
    return PowerSeries(self.var, out, self.order)


def _ref_sqrt(self):
    p = self.coeffs
    assert p[0] == 1
    out = [MarkerPoly.const(1)]
    for n in range(1, self.order + 1):
        acc = p[n]
        for i in range(1, n):
            acc = _ref_add(acc, _ref_poly_mul(_ref_poly_mul(out[i], out[n - i]), -1))
        out.append(_ref_poly_mul(acc, Fraction(1, 2)))
    return PowerSeries(self.var, out, self.order)


def _conv_sqrt(self):
    """The symmetric-pair convolution that `sqrt` was before its P-recurrence:
    out_n = (c_n - sum_{0<i<n} out_i out_(n-i)) / 2, O(order^2) products."""
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
        out.append(_poly({m: c >> 1 if type(c) is int and not c & 1 else c * half
                          for m, c in acc.items()}))
    return PowerSeries(self.var, out, self.order)


def _ref_subs(self, values):
    out = MarkerPoly()
    for mono, c in self.terms.items():
        term = MarkerPoly.const(c)
        for name, e in mono:
            if name in values:
                term = _ref_poly_mul(term, _ref_pow(MarkerPoly._coerce(values[name]), e))
            else:
                term = _ref_poly_mul(term, MarkerPoly.var(name, e))
        out = _ref_add(out, term)
    return out


def _ref_deriv(self, name):
    out = MarkerPoly()
    for mono, c in self.terms.items():
        for i, (nm, e) in enumerate(mono):
            if nm == name:
                rest = mono[:i] + ((nm, e - 1),) + mono[i + 1:]
                out = _ref_add(out, MarkerPoly({_mono(rest): Fraction(c) * e}))
    return out


def _ref_invert_quadratic(phi_coeffs, order):
    c0, c1, c2 = (list(phi_coeffs) + [MarkerPoly()] * 3)[:3]
    v = [MarkerPoly()] * (order + 1)
    if order >= 1:
        v[1] = c0
    for n in range(2, order + 1):
        acc = _ref_poly_mul(c1, v[n - 1])
        for i in range(1, n - 1):
            acc = _ref_add(acc, _ref_poly_mul(c2, _ref_poly_mul(v[i], v[n - 1 - i])))
        v[n] = acc
    return PowerSeries("z", v, order)


# ----------------------------------------------------------------------
# checks on stored coefficients
# ----------------------------------------------------------------------

def _assert_normal(p: MarkerPoly):
    for c in p.terms.values():
        assert c
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def _assert_series_normal(s: PowerSeries):
    # stored: an int, a Fraction that is not integral, or a MarkerPoly with a
    # marker; handed out: MarkerPolys
    for c in s._c:
        assert (type(c) is int or (type(c) is Fraction and c.denominator != 1)
                or (type(c) is MarkerPoly and not c.is_constant)), repr(c)
    for c in s.coeffs:
        _assert_normal(c)


def _assert_same_poly(got: MarkerPoly, want: MarkerPoly):
    _assert_normal(got)
    assert got == want
    assert str(got) == str(want)


def _assert_same_series(got: PowerSeries, want: PowerSeries):
    _assert_series_normal(got)
    assert got.order == want.order
    assert got == want
    assert got.dump() == want.dump()


# ----------------------------------------------------------------------
# strategies: 0-2 markers, int and Fraction coefficients
# ----------------------------------------------------------------------

MARKERS = ("u", "w")
coeffs = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)),
)


@st.composite
def polys(draw, markers=None, max_terms=4):
    names = markers if markers is not None else draw(
        st.sampled_from([(), ("w",), MARKERS]))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple((nm, draw(st.integers(0, 2))) for nm in names)
        terms[mono] = draw(coeffs)
    return MarkerPoly(terms)


@st.composite
def series(draw, lead=None, max_order=6):
    order = draw(st.integers(0, max_order))
    names = draw(st.sampled_from([(), ("w",), MARKERS]))
    cs = [draw(polys(markers=names, max_terms=3)) for _ in range(order + 1)]
    if lead is not None:
        cs[0] = MarkerPoly.const(lead)
    return PowerSeries("z", cs, order)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(p=polys(), q=polys(), s=coeffs)
def test_poly_products_and_sums_match_the_per_pair_route(p, q, s):
    _assert_normal(p)
    _assert_same_poly(p * q, _ref_poly_mul(p, q))
    _assert_same_poly(p + q, _ref_add(p, q))
    _assert_same_poly(p - q, _ref_add(p, _ref_poly_mul(q, -1)))
    _assert_same_poly(p * s, _ref_poly_mul(p, s))
    _assert_same_poly(s * p, _ref_poly_mul(p, s))
    _assert_same_poly(p ** 2, _ref_pow(p, 2))
    if s:
        _assert_same_poly(p / s, _ref_poly_mul(p, Fraction(1) / s))


@settings(max_examples=200, deadline=None)
@given(f=series(), g=series(), p=polys())
def test_series_product_matches_the_per_pair_route(f, g, p):
    _assert_same_series(f * g, _ref_series_mul(f, g))
    _assert_same_series(f * p, _ref_series_mul(f, p))


@settings(max_examples=200, deadline=None)
@given(f=series(), lead=st.sampled_from([1, -1, 2, Fraction(-1, 3), Fraction(5, 2)]))
def test_inverse_matches_the_per_pair_route(f, lead):
    f = PowerSeries(f.var, [MarkerPoly.const(lead)] + f.coeffs[1:], f.order)
    _assert_same_series(f.inverse(), _ref_inverse(f))


@settings(max_examples=200, deadline=None)
@given(f=series(lead=1, max_order=8))
def test_sqrt_matches_the_per_pair_route(f):
    root = f.sqrt()
    _assert_same_series(root, _ref_sqrt(f))
    _assert_same_series(root, _conv_sqrt(f))
    _assert_same_series(root * root, f)


@st.composite
def sparse_polys(draw):
    """1 plus one or two nonzero terms of degree 1..4, marker-free or in w,
    padded to an order up to 60: the shape of every root the library takes."""
    names = draw(st.sampled_from([(), ("w",)]))
    cs = [MarkerPoly.const(1)] + [MarkerPoly()] * 4
    for i in draw(st.sets(st.integers(1, 4), min_size=1, max_size=2)):
        cs[i] = draw(polys(markers=names, max_terms=2))
    return PowerSeries("z", cs).pad(draw(st.sampled_from(range(61))))  # uniform


@settings(max_examples=150, deadline=None)
@given(f=sparse_polys(), at=st.sampled_from([-2, 1, 3]))
def test_sqrt_of_sparse_polynomials_matches_both_old_routes(f, at):
    root = f.sqrt()
    # Both oracles are quadratic in the order and in the terms of a
    # coefficient, so a root in w is compared exactly up to order 16 and,
    # through the full order, at a value of w: the root commutes with it.
    low = f.truncate(min(f.order, 16))
    _assert_same_series(root.truncate(low.order), _ref_sqrt(low))
    _assert_same_series(root.truncate(low.order), _conv_sqrt(low))
    at_w = f.subs_markers({"w": at})
    root_at_w = root.subs_markers({"w": at})
    _assert_same_series(root_at_w, _ref_sqrt(at_w))
    _assert_same_series(root_at_w, _conv_sqrt(at_w))


@pytest.mark.parametrize("cs,order", [
    ([1, -4], 200),
    ([1, -40, 144], 200),
    ([1, -6, 5], 200),
    ([1, 0, -6, 0, 5], 200),
    ([1, -(4 + 2 * MarkerPoly.var("w")), 4 * MarkerPoly.var("w") + MarkerPoly.var("w") ** 2],
     40),
])
def test_roots_of_integral_polynomials_have_int_coefficients(cs, order):
    f = PowerSeries("z", cs).pad(order)
    root = f.sqrt()
    assert all(type(c) is int for p in root.coeffs for c in p.terms.values())
    assert root.dump() == _conv_sqrt(f).dump()


def test_sqrt_of_a_quadratic_makes_linearly_many_products(monkeypatch):
    # a return to the convolution, about order^2 / 4 products, fails here.
    # Only products of two polynomials reach `_mac`: f_n meets the marker
    # term 5w through f_(n-2), which carries w from n = 4 on, so a root that
    # runs on the polynomial coefficients makes one `_mac` per n in 4..order.
    order = 400
    calls = []
    real = series_module._mac

    def counting(acc, p, q):
        calls.append(None)
        real(acc, p, q)

    monkeypatch.setattr(series_module, "_mac", counting)
    PowerSeries("z", [1, -6, 5 * MarkerPoly.var("w")]).pad(order).sqrt()
    assert order - 3 <= len(calls) <= 2 * order


def series_lines(fn) -> int:
    """The number of lines of series.py that fn() runs."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename == series_module.__file__ else None

    outer = sys.gettrace()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(outer)
    return lines


def test_sqrt_of_a_marker_free_quadratic_runs_linearly_many_lines():
    # a marker-free root makes no `_mac` call; doubling the order doubles
    # its lines, where a convolution would quadruple them
    def lines(order):
        return series_lines(PowerSeries("z", [1, -6, 5]).pad(order).sqrt)

    small, large = lines(400), lines(800)
    assert 400 <= small and large <= 2.1 * small


@st.composite
def plain_series(draw, max_order=7):
    """A marker-free series: int and Fraction coefficients, zero or not."""
    order = draw(st.integers(0, max_order))
    return PowerSeries("z", [draw(st.one_of(st.just(0), coeffs)) for _ in range(order + 1)])


@settings(max_examples=300, deadline=None)
@given(f=st.one_of(plain_series(), series()), g=st.one_of(plain_series(), series()),
       e=st.integers(-3, 4), b=st.integers(-3, 4))
def test_series_arithmetic_matches_the_per_pair_route(f, g, e, b):
    _assert_same_series(f * g, _ref_series_mul(f, g))
    _assert_same_series(f * e, _ref_series_mul(f, e))
    _assert_same_series(f + g, _ref_series_add(f, g))
    _assert_same_series(f - g, _ref_series_add(f, _ref_series_mul(g, -1)))
    _assert_same_series(-f, _ref_series_mul(f, -1))
    _assert_same_series(Kernel(b).eval(f, f.order), _ref_eval(f, b, f.order))
    if e >= 0:
        _assert_same_series(f ** e, _ref_series_pow(f, e))
    g0 = g.coeff(0)
    if g0 and g0.is_constant:
        _assert_same_series(f / g, _ref_series_mul(f, _ref_inverse(g)))
        _assert_same_series(g.inverse(), _ref_inverse(g))
        _assert_same_series(g ** e, _ref_series_pow(g, e))
    else:
        for fn in (lambda: f / g, g.inverse, lambda: g ** -1):
            with pytest.raises(ZeroDivisionError, match="nonzero marker-free constant"):
                fn()
    if f.coeff(0) == 1:
        _assert_same_series(f.sqrt(), _ref_sqrt(f))
    else:
        with pytest.raises(ValueError, match="constant term exactly 1"):
            f.sqrt()


# marker-free values: ints (zero and negative among them), integral and
# non-integral Fractions, and constant polynomials, which substitute as numbers
numbers = st.one_of(st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3),
                                     Fraction(6, 3)]),
                    coeffs, st.builds(MarkerPoly.const, coeffs))


@st.composite
def marked_values(draw):
    """A value that surely carries a marker: a poly in u, or in u and w,
    plus a power of one of them."""
    p = draw(polys(markers=draw(st.sampled_from([("u",), MARKERS])), max_terms=2))
    return p + MarkerPoly.var(draw(st.sampled_from(MARKERS)), draw(st.integers(1, 2)))


@settings(max_examples=300, deadline=None)
@given(p=polys(), value=st.one_of(numbers, marked_values(), polys(max_terms=2)),
       beside=st.one_of(st.none(), numbers, marked_values()))
def test_subs_and_deriv_match_the_per_pair_route(p, value, beside):
    values = {"w": value} if beside is None else {"w": value, "u": beside}
    _assert_same_poly(p.subs(values), _ref_subs(p, values))
    for name in MARKERS:
        _assert_same_poly(p.deriv(name), _ref_deriv(p, name))


# Fractions whose denominators often divide the int coefficients of `coeffs`
scalars = st.one_of(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
                    st.integers(-6, 6))


@settings(max_examples=300, deadline=None)
@given(p=polys(), f=st.one_of(plain_series(), series()), x=scalars,
       d=st.integers(-6, 6).filter(bool))
def test_scaling_by_a_number_matches_the_per_pair_route(p, f, x, d):
    _assert_same_poly(p * x, _ref_poly_mul(p, x))
    _assert_same_poly(x * p, _ref_poly_mul(p, x))
    _assert_same_poly(p / d, _ref_poly_mul(p, Fraction(1, d)))
    _assert_same_series(f * x, _ref_series_mul(f, x))
    _assert_same_series(x * f, _ref_series_mul(f, x))
    _assert_same_series(f * MarkerPoly.const(x), _ref_series_mul(f, x))
    _assert_same_series(f / d, _ref_series_mul(f, Fraction(1, d)))
    if x:
        _assert_same_poly(p / x, _ref_poly_mul(p, Fraction(1) / x))
        _assert_same_series(f / x, _ref_series_mul(f, Fraction(1) / x))
        _assert_same_series(f / MarkerPoly.const(x), _ref_series_mul(f, Fraction(1) / x))
    else:
        for fn in (lambda: p / x, lambda: f / x):
            with pytest.raises(ZeroDivisionError):
                fn()


@pytest.mark.parametrize("bad", [0.5, 1.0, None])
def test_subs_coerces_a_value_only_where_its_marker_occurs(bad):
    p = 3 * MarkerPoly.var("w", 2) - MarkerPoly.var("w") * MarkerPoly.var("u") + 1
    for values in ({"w": bad}, {"u": bad}, {"w": 2, "u": bad}, {"w": bad, "u": 2}):
        with pytest.raises(TypeError, match="as a marker polynomial"):
            p.subs(values)
    assert p.subs({"w": 2, "s": bad}) == 13 - 2 * MarkerPoly.var("u")
    q = MarkerPoly.var("w", 3) + Fraction(1, 2)
    assert q.subs({"u": bad}) == q
    assert MarkerPoly.const(5).subs({"w": bad}) == 5


def test_subs_of_a_number_multiplies_no_polynomials(monkeypatch):
    # the mean of the red-step series sets w = 1 after differentiating: each
    # term's coefficient is scaled by a number, where a polynomial route makes
    # a `MarkerPoly` power per (marker, exponent) and a product per term
    f = pathseries.skew_red_series(12).deriv_marker("w")
    calls = []

    def counting(target, name):
        real = getattr(target, name)

        def fn(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(target, name, fn)

    for name in ("__mul__", "__rmul__", "__pow__"):
        counting(MarkerPoly, name)
    counting(series_module, "_mac")
    mean = f.subs_markers({"w": 1})
    assert calls == []
    _assert_same_series(mean, PowerSeries(f.var, [_ref_subs(c, {"w": 1}) for c in f.coeffs]))
    assert [mean.coeff(n) for n in range(13)] == [0] + [
        pathseries.skew_red_total(n) for n in range(1, 13)]


@settings(max_examples=100, deadline=None)
@given(c0=polys(markers=("w",), max_terms=2), c1=polys(markers=("w",), max_terms=2),
       c2=polys(markers=("w",), max_terms=2), order=st.integers(1, 8))
def test_quadratic_inversion_matches_the_per_pair_route(c0, c1, c2, order):
    if not c0:
        c0 = MarkerPoly.const(1)
    phi = PowerSeries("t", [c0, c1, c2]).pad(order)
    got = AlgebraicSubstitution("z", "t", phi).invert(order)
    _assert_same_series(got, _ref_invert_quadratic(phi.coeffs, order))


def test_coefficients_are_ints_when_integral():
    half = MarkerPoly.const(Fraction(1, 2))
    assert half.terms == {(): Fraction(1, 2)}
    assert type((half * 2).terms[()]) is int
    assert type((half + half).terms[()]) is int
    assert type((half / Fraction(1, 2)).terms[()]) is int
    assert type(MarkerPoly.const(Fraction(6, 3)).terms[()]) is int
    assert type(MarkerPoly({(("w", 1),): Fraction(4, 2)}).terms[(("w", 1),)]) is int
    assert type(MarkerPoly.var("w").terms[(("w", 1),)]) is int
    s = PowerSeries("z", [1, Fraction(1, 2)]).pad(6)
    _assert_series_normal(s * s)
    _assert_series_normal((s * s).sqrt())
    _assert_series_normal(s.inverse())


@pytest.mark.parametrize("value", [0, 3, -2, Fraction(6, 3), Fraction(1, 2)])
def test_constants_come_back_as_fractions(value):
    p = MarkerPoly.const(value)
    assert isinstance(p.constant(), Fraction) and p.constant() == value
    assert isinstance(p.constant_term(), Fraction) and p.constant_term() == value
    q = p + MarkerPoly.var("w")
    assert isinstance(q.constant_term(), Fraction) and q.constant_term() == value


# ----------------------------------------------------------------------
# products of marker-bearing series, on int-coded monomials
# ----------------------------------------------------------------------

# exponents past 2^20, so that a fixed 20-bit field per marker would carry
POWERS = [1, 2, 3, 2 ** 20 - 1, 2 ** 20, 2 ** 21, 2 ** 21 + 3]
EXPONENTS, POSITIVE = st.sampled_from([0] + POWERS), st.sampled_from(POWERS)


@st.composite
def marked_series(draw, names):
    """A series whose terms carry each of `names` to an exponent from
    EXPONENTS, with int and Fraction coefficients and zero coefficients; with
    names, one coefficient surely carries a marker."""
    order = draw(st.integers(0, 5))
    cs = []
    for _ in range(order + 1):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            terms[tuple((nm, draw(EXPONENTS)) for nm in names)] = draw(coeffs)
        cs.append(MarkerPoly(terms))
    if names:
        i = draw(st.integers(0, order))
        cs[i] = cs[i] + MarkerPoly.var(draw(st.sampled_from(names)), draw(POSITIVE))
    return PowerSeries("z", cs, order)


@st.composite
def product_pairs(draw):
    """Two series, at least one marker-bearing, of orders drawn apart: both
    in 1-3 markers, one marker-free, or f = 1 + p z + ... and g = 1 + (k - p) z
    + ..., whose product has the coefficient k at z^1: a constant or zero."""
    names = draw(st.sampled_from([("w",), ("s", "U"), ("u", "w"), ("U", "s", "w")]))
    f = draw(marked_series(names))
    kind = draw(st.sampled_from(["marked", "free", "cancel"]))
    if kind == "marked":
        g = draw(marked_series(draw(st.sampled_from([names, names[:1], names[::-1]]))))
    elif kind == "free":
        g = draw(marked_series(()))
    else:
        k = draw(st.one_of(st.just(0), coeffs))
        p = f.coeff(0) + MarkerPoly.var(names[-1], draw(POSITIVE))
        f = PowerSeries("z", [1, p] + f.coeffs[1:])
        g = PowerSeries("z", [1, k - p] + draw(marked_series(names)).coeffs,
                        draw(st.integers(1, 7)))
    return (f, g) if draw(st.booleans()) else (g, f)


@settings(max_examples=400, deadline=None)
@given(pair=product_pairs())
def test_coded_product_matches_the_slice_loop_and_the_per_pair_route(pair):
    f, g = pair
    got = f * g
    for want in (slice_mul(f, g), _ref_series_mul(f, g)):
        _assert_same_series(got, want)
        assert list(map(type, got._c)) == list(map(type, want._c))


def test_coded_product_widens_its_fields_past_any_fixed_width():
    # u^(2^21 + 3) squared carries out of any field narrower than 23 bits
    # into w's field, which would print as a spurious power of w
    big = MarkerPoly.var("u", 2 ** 21 + 3)
    f = PowerSeries("z", [big + MarkerPoly.var("w"), big * MarkerPoly.var("w", 5)])
    got = f * f
    assert got.dump() == slice_mul(f, f).dump() == _ref_series_mul(f, f).dump()
    assert got._c[0].terms == {(("u", 2 ** 22 + 6),): 1, (("u", 2 ** 21 + 3), ("w", 1)): 2,
                               (("w", 2),): 1}


def test_coded_product_builds_one_poly_per_coefficient(monkeypatch):
    # the slice loop builds a MarkerPoly and runs a `_mac` per pair of
    # marker-bearing coefficients, about order^2 / 2 of each; this fails there.
    # series.py builds every MarkerPoly through __init__, _poly or __add__.
    order = 20
    xi = treeseries._xi_sigma(order)
    f = treeseries._root_recip_sigma(-1, xi, order)
    g = treeseries._root_recip_sigma(1, xi, order)
    calls = []

    def counting(target, name):
        real = getattr(target, name)

        def fn(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(target, name, fn)

    for name in ("__init__", "__add__", "__radd__", "__mul__", "__rmul__"):
        counting(MarkerPoly, name)
    for name in ("_poly", "_mac"):
        counting(series_module, name)
    prod = f * g
    built = [c for c in calls if c in ("__init__", "_poly", "__add__", "__radd__")]
    assert len(built) <= order + 1
    assert "_mac" not in calls and "__mul__" not in calls and "__rmul__" not in calls
    assert sum(type(c) is MarkerPoly for c in prod._c) == order + 1


# ----------------------------------------------------------------------
# library results: fused engine = per-pair route, dump for dump
# ----------------------------------------------------------------------

LIBRARY = {
    "skew_red_series": lambda: pathseries.skew_red_series(12),
    "skew_red_series_mean": lambda: pathseries.skew_red_series(10)
    .deriv_marker("w").subs_markers({"w": 1}),
    "marked_leaf_series": lambda: treeseries.marked_leaf_series(12),
    "ternary_xi": lambda: treeseries.ternary_xi(8),
    # the two products of the bivariate benchmark's ternary_factorization_check(20)
    "xi_sigma_squared": lambda: treeseries._xi_sigma(20) * treeseries._xi_sigma(20),
    "root_recip_product": lambda: (
        treeseries._root_recip_sigma(-1, treeseries._xi_sigma(20), 20)
        * treeseries._root_recip_sigma(1, treeseries._xi_sigma(20), 20)),
    **{f"skew_red_fixed_power_{k}": (lambda k=k: pathseries.skew_red_fixed_power(k, 16))
       for k in range(5)},
}


def _per_pair_route(monkeypatch):
    for name, fn in (("__mul__", _ref_poly_mul), ("__rmul__", _ref_poly_mul),
                     ("subs", _ref_subs), ("deriv", _ref_deriv)):
        monkeypatch.setattr(MarkerPoly, name, fn)
    for name, fn in (("__mul__", _ref_series_mul), ("__rmul__", _ref_series_mul),
                     ("inverse", _ref_inverse), ("sqrt", _ref_sqrt)):
        monkeypatch.setattr(PowerSeries, name, fn)


@pytest.mark.parametrize("label", sorted(LIBRARY))
def test_library_dump_matches_the_per_pair_route(label, monkeypatch):
    fused = LIBRARY[label]()
    _assert_series_normal(fused)
    with monkeypatch.context() as m:
        _per_pair_route(m)
        reference = LIBRARY[label]()
    assert fused.dump() == reference.dump()

