"""Truncated formal power series over exact rationals, with marker polynomials.

One series variable tracks the object size; auxiliary statistics (end level,
red edges, middle edges, ...) live in marker variables inside the
coefficients.  That way bivariate generating functions never need a second
series dimension.  Truncation order is explicit on every value and mixed-order
arithmetic truncates to the shorter operand instead of inventing zeros.

`PowerSeries` keeps one coefficient ring: a stored coefficient is an int
when it is integral, a Fraction otherwise, and a `MarkerPoly` only when it
carries a marker.  Every operation is one loop over `+` and `*`, which mix
numbers and polynomials through `MarkerPoly.__radd__`/`__rmul__`, so a chain
of marker-free operations never builds a polynomial.  `coeff(n)` and
`.coeffs` hand the coefficients out as `MarkerPoly`s.  A product of two
polynomials is one multiply-accumulate (`_mac`) into a plain dict.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add, mul

from .combinat import _half_row, trinomial


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


# m1 -> {m2: canonical m1*m2} for nonempty m1, one row per monomial so that
# a lookup hashes m2 alone; bounded by the distinct monomial pairs that
# products meet, a few thousand at most.
_MONO_PRODUCTS: dict = {}


def _mac(acc: dict, p: dict, q: dict) -> None:
    """acc += p*q for term dicts p and q; acc may be left holding zeros."""
    get = acc.get
    for m1, c1 in p.items():
        if not m1:
            for m2, c2 in q.items():
                acc[m2] = get(m2, 0) + c1 * c2
            continue
        row = _MONO_PRODUCTS.get(m1)
        if row is None:
            row = _MONO_PRODUCTS[m1] = {(): m1}
        for m2, c2 in q.items():
            key = row.get(m2)
            if key is None:
                key = row[m2] = _mono(m1 + m2)
            acc[key] = get(key, 0) + c1 * c2


def _div(c, d: int):
    """c / d for a coefficient c and a nonzero int d; an int stays an int
    when d divides it."""
    if type(c) is int:
        return c // d if not c % d else Fraction(c, d)
    return c / d


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
        if isinstance(other, MarkerPoly):
            terms = other.terms
        elif isinstance(other, (int, Fraction)):
            terms = {(): other}
        else:
            return NotImplemented
        # only the terms of other change, so only they are normalised again
        acc = dict(self.terms)
        for mono, c in terms.items():
            c += acc.get(mono, 0)
            if c:
                acc[mono] = c.numerator if type(c) is Fraction and c.denominator == 1 else c
            else:
                acc.pop(mono, None)
        p = MarkerPoly.__new__(MarkerPoly)
        p.terms = acc
        return p

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
        if isinstance(other, MarkerPoly):
            acc = {}
            _mac(acc, self.terms, other.terms)
            return _poly(acc)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return MarkerPoly()
        return _poly({m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, MarkerPoly):
            other = other.constant()
        if type(other) is int and other:
            return _poly({m: _div(c, other) for m, c in self.terms.items()})
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


_MP_ONE = MarkerPoly.const(1)


def _ring(c):
    """c as a stored series coefficient: an int when it is integral, a
    Fraction when it is not, and a MarkerPoly only when it carries a marker."""
    t = type(c)
    if t is int:
        return c
    if t is Fraction:
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, MarkerPoly):
        terms = c.terms
        if not terms:
            return 0
        if len(terms) == 1 and () in terms:
            return terms[()]
        return c
    if isinstance(c, (int, Fraction)):
        return _exact(c)
    raise TypeError(f"cannot use {type(c).__name__} as a marker polynomial")


def _series(var: str, coeffs: list, order: int) -> "PowerSeries":
    """The series of order + 1 coefficients that are already stored as `_ring`
    stores them."""
    s = PowerSeries.__new__(PowerSeries)
    s.var, s.order, s._c = var, order, coeffs
    return s


class PowerSeries:
    """Series in one variable, truncated after the coefficient of var^order."""

    __slots__ = ("var", "order", "_c")

    def __init__(self, var: str, coeffs, order: int | None = None):
        items = list(map(_ring, coeffs))
        if order is None:
            order = len(items) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(items) < order + 1:
            items.extend([0] * (order + 1 - len(items)))
        else:
            items = items[: order + 1]
        self.var = var
        self.order = order
        self._c = items

    @property
    def coeffs(self) -> list:
        """The coefficients as MarkerPolys, in a new list on every read."""
        return [MarkerPoly._coerce(c) for c in self._c]

    @staticmethod
    def const(var: str, c, order: int) -> "PowerSeries":
        return PowerSeries(var, [c], order)

    @staticmethod
    def identity(var: str, order: int) -> "PowerSeries":
        return PowerSeries(var, [0, 1], order)

    @staticmethod
    def geometric(var: str, order: int) -> "PowerSeries":
        return PowerSeries(var, [1] * (order + 1), order)

    def coeff(self, n: int) -> MarkerPoly:
        if n < 0:
            return MarkerPoly()
        if n > self.order:
            raise ValueError(f"coefficient {n} beyond truncation order {self.order}")
        return MarkerPoly._coerce(self._c[n])

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError(f"cannot extend a series of order {self.order} to {order}")
        return _series(self.var, self._c[: order + 1], order)

    def pad(self, order: int) -> "PowerSeries":
        """The series to exactly `order`: declare the coefficients beyond the
        stored ones to be exactly zero, or drop those past `order`.

        Only correct for polynomials; never extend a genuinely truncated value.
        """
        if order == self.order:
            return self
        return _series(self.var, (self._c + [0] * (order - self.order))[: order + 1], order)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by var^k; negative k requires the low coefficients to vanish."""
        if k >= 0:
            return _series(self.var, [0] * k + self._c, self.order + k)
        if any(self._c[i] for i in range(-k)):
            raise ValueError(f"cannot divide by {self.var}^{-k}: low-order coefficients are nonzero")
        if self.order + k < 0:
            raise ValueError("shift would leave no coefficients")
        return _series(self.var, self._c[-k:], self.order + k)

    def _coerce_mate(self, other):
        if isinstance(other, PowerSeries):
            if other.var != self.var:
                raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
            return other
        return PowerSeries.const(self.var, other, self.order)

    def __add__(self, other):
        other = self._coerce_mate(other)
        n = min(self.order, other.order)
        return _series(self.var, list(map(_ring, map(add, self._c, other._c))), n)

    __radd__ = __add__

    def __neg__(self):
        return _series(self.var, [-c for c in self._c], self.order)

    def __sub__(self, other):
        return self + (-self._coerce_mate(other))

    def __rsub__(self, other):
        return self._coerce_mate(other) - self

    def __mul__(self, other):
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

    __rmul__ = __mul__

    def inverse(self) -> "PowerSeries":
        return PowerSeries.const(self.var, 1, self.order) / self

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, MarkerPoly):
            return self * (Fraction(1) / other.constant())
        other = self._coerce_mate(other)
        n = min(self.order, other.order)
        c0 = other._c[0]
        if not c0 or isinstance(c0, MarkerPoly):
            raise ZeroDivisionError(
                "series division needs a nonzero marker-free constant term, got "
                f"{c0}")
        inv0 = _ring(Fraction(1, c0))
        # Long division: out_k = (num_k - sum_{1<=i<=k} den_i out_(k-i)) / den_0,
        # summed over the divisor's nonzero terms only.
        neg = [(i, -d) for i, d in enumerate(other._c[1: n + 1], 1) if d]
        num = self._c
        out = []
        for k in range(n + 1):
            acc = num[k]
            for i, d in neg:
                if i > k:
                    break
                acc += d * out[k - i]
            out.append(_ring(acc * inv0 if inv0 != 1 else acc))
        return _series(self.var, out, n)

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
        if self._c[0] != 1:
            raise ValueError("series sqrt requires constant term exactly 1")
        nz = [(i, c) for i, c in enumerate(self._c) if i and c]
        out = [1]
        for n in range(1, self.order + 1):
            acc = 0
            for i, c in nz:
                if i > n:
                    break
                acc += c * (3 * i - 2 * n) * out[n - i]
            out.append(_ring(_div(acc, 2 * n)))
        return _series(self.var, out, self.order)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Substitute inner (which must vanish at 0) for this series' variable."""
        if inner._c[0]:
            raise ValueError("composition requires the inner series to vanish at 0")
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        result = PowerSeries.const(inner.var, self._c[n], n)
        for k in range(n - 1, -1, -1):
            result = result * inner + self._c[k]
        return result

    def unscale(self, var: str, base: int, divisor: int = 1) -> "PowerSeries":
        """F(var) from this series of divisor * F(base * sigma): coefficient n
        times 1/(divisor * base^n).  Lets a series with denominators base^n be
        built over ints and divided once at the end."""
        return PowerSeries(var, [_div(c, divisor * base ** n)
                                 for n, c in enumerate(self._c)], self.order)

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
        return self._c[: n + 1] == other._c[: n + 1]

    @property
    def is_zero(self) -> bool:
        return not any(self._c)

    def dump(self) -> str:
        """One line per coefficient: `n<TAB>polynomial`, monomials in deg-lex order."""
        return "\n".join(f"{n}\t{c}" for n, c in enumerate(self.coeffs))

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
        if not phi._c[0]:
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
        if not any(phi._c[3:]):
            return self._invert_quadratic(order)
        v = PowerSeries.const(self.outer_var, 0, order)
        for _ in range(order):
            v = phi.compose(v).pad(order).shift(1).truncate(order)
        return v

    def _invert_quadratic(self, order: int) -> PowerSeries:
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
        f = expr.truncate(order)._c
        nz = [(k, c) for k, c in enumerate(f) if k and c]
        if nz and not isinstance(self.b, int):
            raise TypeError(f"trinomial needs an int middle weight, got {type(self.b).__name__}")
        # [var^m] v^k = T(m-1, m-k) - T(m-1, m-k-2), read from one half
        # row per m: m - k never passes its centre m - 1
        out = [f[0]]
        for m in range(1, order + 1):
            row = _half_row(m - 1, self.b)
            acc = 0
            for k, c in nz:
                if k > m:
                    break
                j = m - k
                acc += c * (row[j] - row[j - 2] if j > 1 else row[j])
            out.append(_ring(acc))
        return _series(self.var, out, order)
