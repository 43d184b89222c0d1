"""Truncated formal power series over exact rationals, with marker polynomials.

One series variable tracks the object size; auxiliary statistics (end level,
red edges, middle edges, ...) live in marker variables inside the
coefficients.  That way bivariate generating functions never need a second
series dimension.  Truncation order is explicit on every value and mixed-order
arithmetic truncates to the shorter operand instead of inventing zeros.
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


class MarkerPoly:
    """Polynomial in marker variables with Fraction coefficients.

    Terms map canonical monomials (sorted tuples of (name, exponent>0)) to
    nonzero Fractions; the zero polynomial has no terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    key = _mono(mono)
                    acc = clean.get(key, 0) + c
                    if acc:
                        clean[key] = acc
                    else:
                        clean.pop(key, None)
        self.terms = clean

    @staticmethod
    def const(c) -> "MarkerPoly":
        p = MarkerPoly()
        c = Fraction(c)
        if c:
            p.terms[()] = c
        return p

    @staticmethod
    def var(name: str, exp: int = 1) -> "MarkerPoly":
        p = MarkerPoly()
        p.terms[((name, exp),)] = Fraction(1)
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
        return self.terms[()]

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def __add__(self, other):
        if not isinstance(other, (MarkerPoly, int, Fraction)):
            return NotImplemented
        other = MarkerPoly._coerce(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            acc = out.get(mono, 0) + c
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        p = MarkerPoly()
        p.terms = out
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
        if isinstance(other, (int, Fraction)):
            if not other:
                return MarkerPoly()
            p = MarkerPoly()
            p.terms = {m: c * other for m, c in self.terms.items()}
            return p
        if not isinstance(other, MarkerPoly):
            return NotImplemented
        other = MarkerPoly._coerce(other)
        if not self.terms or not other.terms:
            return MarkerPoly()
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = _mono(m1 + m2) if (m1 and m2) else (m1 or m2)
                acc = out.get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        p = MarkerPoly()
        p.terms = out
        return p

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
        out = MarkerPoly()
        for mono, c in self.terms.items():
            term = MarkerPoly.const(c)
            for name, e in mono:
                if name in values:
                    term = term * (MarkerPoly._coerce(values[name]) ** e)
                else:
                    term = term * MarkerPoly.var(name, e)
            out = out + term
        return out

    def deriv(self, name: str) -> "MarkerPoly":
        out = MarkerPoly()
        for mono, c in self.terms.items():
            for i, (nm, e) in enumerate(mono):
                if nm == name:
                    rest = mono[:i] + ((nm, e - 1),) + mono[i + 1:]
                    out = out + MarkerPoly({_mono(rest): c * e})
        return out

    def marker_coeff(self, name: str, k: int) -> "MarkerPoly":
        """Coefficient of name^k, a polynomial in the remaining markers."""
        out = MarkerPoly()
        for mono, c in self.terms.items():
            e = dict(mono).get(name, 0)
            if e == k:
                rest = tuple((nm, ee) for nm, ee in mono if nm != name)
                acc = out.terms.get(rest, 0) + c
                if acc:
                    out.terms[rest] = acc
                else:
                    out.terms.pop(rest, None)
        return out

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
        """Declare the coefficients beyond the stored ones to be exactly zero.

        Only correct for polynomials; never apply to a genuinely truncated value.
        """
        if order <= self.order:
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
        out = [_MP_ZERO] * (n + 1)
        for i, ci in enumerate(self.coeffs[: n + 1]):
            if not ci.terms:
                continue
            for j in range(0, n + 1 - i):
                cj = other.coeffs[j]
                if cj.terms:
                    out[i + j] = out[i + j] + ci * cj
        return PowerSeries(self.var, out, n)

    __rmul__ = __mul__

    def inverse(self) -> "PowerSeries":
        c0 = self.coeffs[0]
        if not c0.is_constant or c0.is_zero:
            raise ZeroDivisionError(
                "series division needs a nonzero marker-free constant term, got "
                f"{c0}")
        inv0 = Fraction(1) / c0.constant()
        out = [MarkerPoly.const(inv0)]
        for n in range(1, self.order + 1):
            acc = _MP_ZERO
            for i in range(1, n + 1):
                gi = self.coeffs[i]
                if gi.terms:
                    acc = acc + gi * out[n - i]
            out.append(acc * (-inv0))
        return PowerSeries(self.var, out, self.order)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, MarkerPoly):
            return self * (Fraction(1) / other.constant())
        other = self._coerce_mate(other)
        n = min(self.order, other.order)
        return self.truncate(n) * other.truncate(n).inverse()

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
        if self.coeffs[0] != _MP_ONE:
            raise ValueError("series sqrt requires constant term exactly 1")
        half = Fraction(1, 2)
        out = [_MP_ONE]
        for n in range(1, self.order + 1):
            acc = self.coeffs[n]
            for i in range(1, n):
                acc = acc - out[i] * out[n - i]
            out.append(acc * half)
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
            acc = c1 * v[n - 1]
            for i in range(1, n - 1):
                acc = acc + c2 * (v[i] * v[n - 1 - i])
            v[n] = acc
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
    of inverting the substitution and composing.
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
        f = expr.truncate(order).coeffs
        out = [f[0]]
        for m in range(1, order + 1):
            acc = _MP_ZERO
            for k in range(1, m + 1):
                if f[k].terms:
                    acc = acc + f[k] * self.vpow_coeff(m, k)
            out.append(acc)
        return PowerSeries(self.var, out, order)
