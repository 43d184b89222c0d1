"""The dict route of `PowerSeries` arithmetic and `Kernel.eval`, kept as an
oracle.

Before a series stored its marker-free coefficients as numbers, these bodies
served every series whose coefficients carry a marker: each coefficient is a
`MarkerPoly`, and every product of two coefficients is one multiply-accumulate
(`_mac`) into a plain dict per output coefficient.  They are kept as they
were, except that each reads `.coeffs`, a new list per read, once per call.
Patched into `PowerSeries` and `Kernel`, they send all series work back
through that route; `inverse`, `**`, `-` and `compose` follow, since they
call these.
"""

from fractions import Fraction

from latticepaths.series import MarkerPoly, PowerSeries, _MP_ONE, _exact, _mac, _poly


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


OLD_SERIES = {"__add__": old_add, "__radd__": old_add, "__neg__": old_neg,
              "__mul__": old_mul, "__rmul__": old_mul, "__truediv__": old_truediv,
              "sqrt": old_sqrt}
