"""Truncated formal power series over exact rationals, with marker polynomials.

One series variable tracks the object size; auxiliary statistics (end level,
red edges, middle edges, ...) live in marker variables inside the
coefficients.  That way bivariate generating functions never need a second
series dimension.  Truncation order is explicit on every value and mixed-order
arithmetic truncates to the shorter operand instead of inventing zeros.

Every product of series or polynomials runs through one multiply-accumulate
(`_mac`) into a plain dict per output coefficient, so no intermediate
polynomial is built per pair of terms.
"""

from __future__ import annotations

from fractions import Fraction

from .combinat import trinomial


def _mono(pairs) -> tuple:
    out = {}
    for name, e in pairs:
        if e:
            out[name] = out.get(name, 0) + e
    return tuple(sorted(out.items()))


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# (m1, m2) -> canonical m1*m2 for nonempty monomials; bounded by the distinct
# monomial pairs that products meet, a few thousand at most.
_MONO_PRODUCTS: dict = {}


def _mac(acc: dict, p: dict, q: dict) -> None:
    """acc += p*q for term dicts p and q; acc may be left holding zeros."""
    get = acc.get
    for m1, c1 in p.items():
        if not m1:
            for m2, c2 in q.items():
                acc[m2] = get(m2, 0) + c1 * c2
            continue
        for m2, c2 in q.items():
            if m2:
                key = _MONO_PRODUCTS.get((m1, m2))
                if key is None:
                    key = _MONO_PRODUCTS[(m1, m2)] = _mono(m1 + m2)
            else:
                key = m1
            acc[key] = get(key, 0) + c1 * c2


def _poly(acc: dict) -> "MarkerPoly":
    """The MarkerPoly of an accumulator dict: zeros dropped, integral values as ints."""
    p = MarkerPoly.__new__(MarkerPoly)
    p.terms = {m: (c.numerator if type(c) is Fraction and c.denominator == 1 else c)
               for m, c in acc.items() if c}
    return p


class MarkerPoly:
    """Polynomial in marker variables with exact rational coefficients.

    Terms map canonical monomials (sorted tuples of (name, exponent>0)) to
    nonzero coefficients, stored as ints when integral and as Fractions
    otherwise; the zero polynomial has no terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        acc = {}
        if terms:
            for mono, c in terms.items():
                key = _mono(mono)
                acc[key] = acc.get(key, 0) + Fraction(c)
            acc = _poly(acc).terms
        self.terms = acc

    @staticmethod
    def const(c) -> "MarkerPoly":
        p = MarkerPoly()
        c = _exact(c)
        if c:
            p.terms[()] = c
        return p

    @staticmethod
    def var(name: str, exp: int = 1) -> "MarkerPoly":
        p = MarkerPoly()
        p.terms[((name, exp),)] = 1
        return p

    @staticmethod
    def _coerce(x) -> "MarkerPoly":
        if isinstance(x, MarkerPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return MarkerPoly.const(x)
        raise TypeError(f"cannot use {type(x).__name__} as a marker polynomial")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant(self) -> Fraction:
        """The value as a Fraction; only valid for marker-free polynomials."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"marker-bearing value where a constant is required: {self}")
        return Fraction(self.terms[()])

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get((), 0))

    def __add__(self, other):
        if not isinstance(other, (MarkerPoly, int, Fraction)):
            return NotImplemented
        acc = dict(self.terms)
        for mono, c in MarkerPoly._coerce(other).terms.items():
            acc[mono] = acc.get(mono, 0) + c
        return _poly(acc)

    __radd__ = __add__

    def __neg__(self):
        p = MarkerPoly()
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, (MarkerPoly, int, Fraction)):
            return NotImplemented
        return self + (-MarkerPoly._coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (MarkerPoly, int, Fraction)):
            return NotImplemented
        return MarkerPoly._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MarkerPoly()
            return _poly({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, MarkerPoly):
            return NotImplemented
        acc = {}
        _mac(acc, self.terms, other.terms)
        return _poly(acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, MarkerPoly):
            other = other.constant()
        return self * (Fraction(1) / Fraction(other))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of marker polynomials are not defined")
        result = MarkerPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        try:
            other = MarkerPoly._coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def subs(self, values: dict) -> "MarkerPoly":
        """Substitute Fractions/polys for the named markers; others stay symbolic."""
        powers = {}
        acc = {}
        for mono, c in self.terms.items():
            rest = []
            factor = _MP_ONE
            for name, e in mono:
                if name in values:
                    pw = powers.get((name, e))
                    if pw is None:
                        pw = powers[(name, e)] = MarkerPoly._coerce(values[name]) ** e
                    factor = factor * pw
                else:
                    rest.append((name, e))
            _mac(acc, {tuple(rest): c}, factor.terms)
        return _poly(acc)

    def deriv(self, name: str) -> "MarkerPoly":
        acc = {}
        for mono, c in self.terms.items():
            for i, (nm, e) in enumerate(mono):
                if nm == name:
                    key = _mono(mono[:i] + ((nm, e - 1),) + mono[i + 1:])
                    acc[key] = acc.get(key, 0) + c * e
        return _poly(acc)

    def marker_coeff(self, name: str, k: int) -> "MarkerPoly":
        """Coefficient of name^k, a polynomial in the remaining markers."""
        acc = {}
        for mono, c in self.terms.items():
            if dict(mono).get(name, 0) == k:
                rest = tuple((nm, ee) for nm, ee in mono if nm != name)
                acc[rest] = acc.get(rest, 0) + c
        return _poly(acc)

    def degree(self, name: str | None = None) -> int:
        """Total degree, or degree in one marker; zero polynomial has degree -1."""
        if not self.terms:
            return -1
        if name is None:
            return max(sum(e for _, e in m) for m in self.terms)
        return max((dict(m).get(name, 0) for m in self.terms), default=0)

    def __str__(self):
        if not self.terms:
            return "0"
        def order_key(mono):
            return (sum(e for _, e in mono), mono)
        parts = []
        for mono in sorted(self.terms, key=order_key):
            c = self.terms[mono]
            body = "*".join(f"{n}^{e}" if e > 1 else n for n, e in mono)
            mag = abs(c)
            if body:
                coeff = "" if mag == 1 else f"{mag}*"
                piece = coeff + body
            else:
                piece = str(mag)
            if not parts:
                parts.append(piece if c > 0 else "-" + piece)
            else:
                parts.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(parts)

    __repr__ = __str__


_MP_ZERO = MarkerPoly()
_MP_ONE = MarkerPoly.const(1)


class PowerSeries:
    """Series in one variable, truncated after the coefficient of var^order."""

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, coeffs, order: int | None = None):
        items = [MarkerPoly._coerce(c) for c in coeffs]
        if order is None:
            order = len(items) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(items) < order + 1:
            items.extend([_MP_ZERO] * (order + 1 - len(items)))
        else:
            items = items[: order + 1]
        self.var = var
        self.order = order
        self.coeffs = items

    @staticmethod
    def const(var: str, c, order: int) -> "PowerSeries":
        return PowerSeries(var, [MarkerPoly._coerce(c)], order)

    @staticmethod
    def identity(var: str, order: int) -> "PowerSeries":
        return PowerSeries(var, [0, 1], order)

    @staticmethod
    def geometric(var: str, order: int) -> "PowerSeries":
        return PowerSeries(var, [1] * (order + 1), order)

    def coeff(self, n: int) -> MarkerPoly:
        if n < 0:
            return _MP_ZERO
        if n > self.order:
            raise ValueError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError(f"cannot extend a series of order {self.order} to {order}")
        return PowerSeries(self.var, self.coeffs[: order + 1], order)

    def pad(self, order: int) -> "PowerSeries":
        """The series to exactly `order`: declare the coefficients beyond the
        stored ones to be exactly zero, or drop those past `order`.

        Only correct for polynomials; never extend a genuinely truncated value.
        """
        if order == self.order:
            return self
        return PowerSeries(self.var, self.coeffs, order)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by var^k; negative k requires the low coefficients to vanish."""
        if k >= 0:
            return PowerSeries(self.var, [_MP_ZERO] * k + self.coeffs, self.order + k)
        if any(self.coeffs[i].terms for i in range(-k)):
            raise ValueError(f"cannot divide by {self.var}^{-k}: low-order coefficients are nonzero")
        if self.order + k < 0:
            raise ValueError("shift would leave no coefficients")
        return PowerSeries(self.var, self.coeffs[-k:], self.order + k)

    def _coerce_mate(self, other):
        if isinstance(other, PowerSeries):
            if other.var != self.var:
                raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
            return other
        return PowerSeries.const(self.var, other, self.order)

    def __add__(self, other):
        other = self._coerce_mate(other)
        n = min(self.order, other.order)
        return PowerSeries(self.var, [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(self.var, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-self._coerce_mate(other))

    def __rsub__(self, other):
        return self._coerce_mate(other) - self

    def __mul__(self, other):
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

    __rmul__ = __mul__

    def inverse(self) -> "PowerSeries":
        return PowerSeries.const(self.var, 1, self.order) / self

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, MarkerPoly):
            return self * (Fraction(1) / other.constant())
        other = self._coerce_mate(other)
        c0 = other.coeffs[0]
        if not c0.is_constant or c0.is_zero:
            raise ZeroDivisionError(
                "series division needs a nonzero marker-free constant term, got "
                f"{c0}")
        inv0 = _exact(1 / c0.constant())
        # Long division: out_k = (num_k - sum_{1<=i<=k} den_i out_(k-i)) / den_0,
        # summed over the divisor's nonzero terms only.
        n = min(self.order, other.order)
        neg = {i: {m: -c for m, c in other.coeffs[i].terms.items()}
               for i in range(1, n + 1) if other.coeffs[i].terms}
        out = []
        for k in range(n + 1):
            acc = dict(self.coeffs[k].terms)
            for i, g in neg.items():
                if i > k:
                    break
                _mac(acc, g, out[k - i].terms)
            if inv0 != 1:
                acc = {m: c * inv0 for m, c in acc.items()}
            out.append(_poly(acc))
        return PowerSeries(self.var, out, n)

    def __rtruediv__(self, other):
        return self._coerce_mate(other) / self

    def __pow__(self, n: int):
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

    def sqrt(self) -> "PowerSeries":
        """The square root f with f_0 = 1, by the P-recurrence of f = sqrt(P).

        The truncated series is a polynomial P, and P f' = P' f / 2 gives, at
        var^(n-1) with p_0 = 1, 2n f_n = sum_{i>=1} p_i (3i - 2n) f_(n-i).
        The sum runs over P's nonzero terms only, so a root of a polynomial
        of fixed degree costs O(order) multiply-accumulates.  Quotients by 2n
        that are integral stay ints, so an integral root never meets a
        Fraction.
        """
        if self.coeffs[0] != _MP_ONE:
            raise ValueError("series sqrt requires constant term exactly 1")
        nz = [(i, c.terms) for i, c in enumerate(self.coeffs) if i and c.terms]
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

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Substitute inner (which must vanish at 0) for this series' variable."""
        if inner.coeffs[0].terms:
            raise ValueError("composition requires the inner series to vanish at 0")
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        result = PowerSeries.const(inner.var, self.coeffs[n], n)
        for k in range(n - 1, -1, -1):
            result = result * inner + self.coeffs[k]
        return result

    def unscale(self, var: str, base: int, divisor: int = 1) -> "PowerSeries":
        """F(var) from this series of divisor * F(base * sigma): coefficient n
        times 1/(divisor * base^n).  Lets a series with denominators base^n be
        built over ints and divided once at the end."""
        return PowerSeries(var, [c * Fraction(1, divisor * base ** n)
                                 for n, c in enumerate(self.coeffs)], self.order)

    def map_coeffs(self, fn) -> "PowerSeries":
        return PowerSeries(self.var, [fn(c) for c in self.coeffs], self.order)

    def subs_markers(self, values: dict) -> "PowerSeries":
        return self.map_coeffs(lambda c: c.subs(values))

    def deriv_marker(self, name: str) -> "PowerSeries":
        return self.map_coeffs(lambda c: c.deriv(name))

    def marker_coeff(self, name: str, k: int) -> "PowerSeries":
        return self.map_coeffs(lambda c: c.marker_coeff(name, k))

    def __eq__(self, other):
        """Coefficient-wise equality through the shorter truncation order."""
        if isinstance(other, (int, Fraction, MarkerPoly)):
            other = PowerSeries.const(self.var, other, self.order)
        if not isinstance(other, PowerSeries) or other.var != self.var:
            return NotImplemented
        n = min(self.order, other.order)
        return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))

    @property
    def is_zero(self) -> bool:
        return all(not c.terms for c in self.coeffs)

    def dump(self) -> str:
        """One line per coefficient: `n<TAB>polynomial`, monomials in deg-lex order."""
        return "\n".join(f"{n}\t{self.coeffs[n]}" for n in range(self.order + 1))

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c.terms:
                continue
            body = str(c)
            if n == 0:
                parts.append(body)
            else:
                xn = self.var if n == 1 else f"{self.var}^{n}"
                if body == "1":
                    parts.append(xn)
                elif len(c.terms) > 1 or body.startswith("-"):
                    parts.append(f"({body})*{xn}")
                else:
                    parts.append(f"{body}*{xn}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class AlgebraicSubstitution:
    """A change of variables z = v/Phi(v), i.e. v = z*Phi(v), with Phi(0) != 0.

    Phi is a series in the inner variable; its stored order bounds how far the
    inverse series can be computed.
    """

    def __init__(self, outer_var: str, inner_var: str, phi: PowerSeries):
        if phi.var != inner_var:
            raise ValueError("phi must be a series in the inner variable")
        if not phi.coeffs[0].terms:
            raise ValueError("phi must not vanish at 0")
        self.outer_var = outer_var
        self.inner_var = inner_var
        self.phi = phi

    def invert(self, order: int) -> PowerSeries:
        """The series v(z) with v = z*Phi(v), gained one order per fixed-point pass."""
        if self.phi.order < order:
            raise ValueError(
                f"phi is only known to order {self.phi.order}; cannot invert to {order}")
        phi = self.phi.truncate(order)
        if all(not c.terms for c in phi.coeffs[3:]):
            return self._invert_quadratic(order)
        v = PowerSeries.const(self.outer_var, 0, order)
        for _ in range(order):
            v = phi.compose(v).pad(order).shift(1).truncate(order)
        return v

    def _invert_quadratic(self, order: int) -> PowerSeries:
        # For Phi = c0 + c1 t + c2 t^2 the coefficients of v obey the direct
        # convolution recurrence v_n = c1 v_{n-1} + c2 (v^2)_{n-1}, one pass.
        c0 = self.phi.coeffs[0]
        c1 = self.phi.coeff(1) if self.phi.order >= 1 else _MP_ZERO
        c2 = self.phi.coeff(2) if self.phi.order >= 2 else _MP_ZERO
        v = [_MP_ZERO] * (order + 1)
        if order >= 1:
            v[1] = c0
        for n in range(2, order + 1):
            sq = {}
            for i in range(1, n - 1):
                _mac(sq, v[i].terms, v[n - 1 - i].terms)
            acc = {}
            _mac(acc, c1.terms, v[n - 1].terms)
            _mac(acc, c2.terms, sq)
            v[n] = _poly(acc)
        return PowerSeries(self.outer_var, v, order)


def poly_substitution(outer_var: str, inner_var: str, phi_coeffs, order: int) -> AlgebraicSubstitution:
    """Substitution with a polynomial Phi, padded so inversion works to `order`."""
    phi = PowerSeries(inner_var, phi_coeffs).pad(order)
    return AlgebraicSubstitution(outer_var, inner_var, phi)


class Kernel:
    """The kernel substitution var = v/(1 + b v + v^2), evaluated without reversion.

    Lagrange-Buermann gives [var^m] v^k = [t^(m-k)] (1 - t^2)(1 + bt + t^2)^(m-1)
    for m >= 1, so every coefficient of F(v(var)) is a dot product of F's
    coefficients with one trinomial row: O(order^2) instead of the O(order^3)
    of inverting the substitution and composing.  `eval` reads the rows in
    increasing m, so each is one linear pass over the cached row before it.
    """

    def __init__(self, b: int, var: str = "z"):
        self.b = b
        self.var = var

    def vpow_coeff(self, m: int, k: int) -> int:
        """[var^m] v^k for m >= 0."""
        if m == 0:
            return 1 if k == 0 else 0
        return trinomial(m - 1, self.b, m - k) - trinomial(m - 1, self.b, m - k - 2)

    def eval(self, expr: PowerSeries, order: int) -> PowerSeries:
        """F(v) as a series in var through var^order; F must be known to order.

        Equals expr.truncate(order).compose(v) for the inverse series v(var).
        """
        f = [c.terms for c in expr.truncate(order).coeffs]
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
