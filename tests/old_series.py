"""The dict route of `PowerSeries` arithmetic and `Kernel.eval`, kept as an
oracle.

Before a series stored its marker-free coefficients as numbers, these bodies
served every series whose coefficients carry a marker: each coefficient is a
`MarkerPoly`, and every product of two coefficients is one multiply-accumulate
(`_mac`) into a plain dict per output coefficient.  They are kept as they
were, except that each reads `.coeffs`, a new list per read, once per call.
Patched into `PowerSeries` and `Kernel`, they send all series work back
through that route; `inverse`, `-` and `compose` follow, since they call
these, and `old_pow` takes `**` there too.

`slice_mul` is `PowerSeries.__mul__` as it was before products of
marker-bearing series coded their monomials as ints, kept verbatim: one slice
loop over `+` and `*` for every product, which builds a `MarkerPoly` and runs
one `_mac` per pair of marker-bearing coefficients.

`old_pow` is `PowerSeries.__pow__` as it was before the J.C.P. Miller
recurrence served every series with an invertible constant term: an
inverse for a negative exponent, then binary powering by series products,
O(order^2 log |n|).  Kept verbatim.

`old_invert` and `old_invert_quadratic` are `AlgebraicSubstitution.invert`
and its quadratic fast path as they were before one recurrence served every
Phi: a Phi of degree at most 2 takes the convolution recurrence, and any
other Phi gains one order per fixed-point pass of `compose`.  Kept verbatim.
"""

from fractions import Fraction
from itertools import repeat
from operator import add, mul

from latticepaths.series import (
    MarkerPoly, PowerSeries, _exact, _mac, _poly, _ring, _series)

_MP_ONE = MarkerPoly.const(1)


def old_add(self, other):
    other = self._coerce_mate(other)
    n = min(self.order, other.order)
    a, b = self.coeffs, other.coeffs
    return PowerSeries(self.var, [a[i] + b[i] for i in range(n + 1)], n)


def old_neg(self):
    return PowerSeries(self.var, [-c for c in self.coeffs], self.order)


def old_mul(self, other):
    if isinstance(other, (int, Fraction, MarkerPoly)):
        m = MarkerPoly._coerce(other)
        return PowerSeries(self.var, [c * m for c in self.coeffs], self.order)
    other = self._coerce_mate(other)
    n = min(self.order, other.order)
    a = [c.terms for c in self.coeffs[: n + 1]]
    b = [c.terms for c in other.coeffs[: n + 1]]
    nz = [i for i, t in enumerate(a) if t]
    out = []
    for k in range(n + 1):
        acc = {}
        for i in nz:
            if i > k:
                break
            if b[k - i]:
                _mac(acc, a[i], b[k - i])
        out.append(_poly(acc))
    return PowerSeries(self.var, out, n)


def old_truediv(self, other):
    if isinstance(other, (int, Fraction)):
        return self * (Fraction(1) / Fraction(other))
    if isinstance(other, MarkerPoly):
        return self * (Fraction(1) / other.constant())
    other = self._coerce_mate(other)
    n = min(self.order, other.order)
    num, den = self.coeffs, other.coeffs
    c0 = den[0]
    if not c0.is_constant or c0.is_zero:
        raise ZeroDivisionError(
            "series division needs a nonzero marker-free constant term, got "
            f"{c0}")
    inv0 = _exact(1 / c0.constant())
    # Long division: out_k = (num_k - sum_{1<=i<=k} den_i out_(k-i)) / den_0,
    # summed over the divisor's nonzero terms only.
    neg = {i: {m: -c for m, c in den[i].terms.items()}
           for i in range(1, n + 1) if den[i].terms}
    out = []
    for k in range(n + 1):
        acc = dict(num[k].terms)
        for i, g in neg.items():
            if i > k:
                break
            _mac(acc, g, out[k - i].terms)
        if inv0 != 1:
            acc = {m: c * inv0 for m, c in acc.items()}
        out.append(_poly(acc))
    return PowerSeries(self.var, out, n)


def old_sqrt(self):
    coeffs = self.coeffs
    if coeffs[0] != _MP_ONE:
        raise ValueError("series sqrt requires constant term exactly 1")
    nz = [(i, c.terms) for i, c in enumerate(coeffs) if i and c.terms]
    out = [_MP_ONE]
    for n in range(1, self.order + 1):
        acc = {}
        for i, p in nz:
            if i > n:
                break
            w = 3 * i - 2 * n
            _mac(acc, {m: c * w for m, c in p.items()}, out[n - i].terms)
        d = 2 * n
        out.append(_poly({m: c // d if type(c) is int and not c % d else Fraction(c, d)
                          for m, c in acc.items()}))
    return PowerSeries(self.var, out, self.order)


def old_eval(self, expr, order):
    expr = expr.truncate(order)
    f = [c.terms for c in expr.coeffs]
    nz = [k for k in range(1, order + 1) if f[k]]
    out = [_poly(f[0])]
    for m in range(1, order + 1):
        acc = {}
        for k in nz:
            if k > m:
                break
            _mac(acc, f[k], {(): self.vpow_coeff(m, k)})
        out.append(_poly(acc))
    return PowerSeries(self.var, out, order)


def slice_mul(self, other):
    if not isinstance(other, PowerSeries):
        x = _ring(other)
        return _series(self.var, [_ring(c * x) for c in self._c], self.order)
    other = self._coerce_mate(other)
    n = min(self.order, other.order)
    # out += a_i * b shifted by i, over the sparser factor's nonzero terms
    # and up to the other factor's last nonzero term
    a, b = self._c[: n + 1], other._c[: n + 1]
    if sum(map(bool, a)) > sum(map(bool, b)):
        a, b = b, a
    while b and not b[-1]:
        b.pop()
    out = [0] * (n + 1)
    for i, c in enumerate(a):
        if c:
            j = i + len(b)
            out[i:j] = map(add, out[i:j], map(mul, repeat(c), b))
    return _series(self.var, list(map(_ring, out)), n)


def old_pow(self, n: int):
    base = self
    if n < 0:
        base = self.inverse()
        n = -n
    result = PowerSeries.const(self.var, 1, base.order)
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


OLD_SERIES = {"__add__": old_add, "__radd__": old_add, "__neg__": old_neg,
              "__mul__": old_mul, "__rmul__": old_mul, "__truediv__": old_truediv,
              "__pow__": old_pow, "sqrt": old_sqrt}


def old_invert(self, order: int) -> PowerSeries:
    """The series v(z) with v = z*Phi(v), gained one order per fixed-point pass."""
    if self.phi.order < order:
        raise ValueError(
            f"phi is only known to order {self.phi.order}; cannot invert to {order}")
    phi = self.phi.truncate(order)
    if not any(phi._c[3:]):
        return old_invert_quadratic(self, order)
    v = PowerSeries.const(self.outer_var, 0, order)
    for _ in range(order):
        v = phi.compose(v).pad(order).shift(1).truncate(order)
    return v


def old_invert_quadratic(self, order: int) -> PowerSeries:
    # For Phi = c0 + c1 t + c2 t^2 the coefficients of v obey the direct
    # convolution recurrence v_n = c1 v_{n-1} + c2 (v^2)_{n-1}, one pass.
    c0, c1, c2 = (self.phi._c + [0, 0])[:3]
    v = [0] * (order + 1)
    if order >= 1:
        v[1] = c0
    for n in range(2, order + 1):
        sq = 0
        for i in range(1, n - 1):
            sq += v[i] * v[n - 1 - i]
        v[n] = _ring(c1 * v[n - 1] + c2 * sq)
    return _series(self.outer_var, v, order)
