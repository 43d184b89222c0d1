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
polynomials is one multiply-accumulate (`_mac`) into a plain dict.  A
series product in which either factor carries a marker codes every monomial
once as an int (`_coded_product`), so a term product is an int add into one
dict per output coefficient and builds no polynomial.  Scaling an int c by a
Fraction p/q is one exact division of c*p by q, and `subs` substitutes a
marker-free value as a number, not as a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import dropwhile, repeat
from operator import add, mul

from .combinat import _half_row


def _mono(pairs) -> tuple:
    out = {}
    for name, e in pairs:
        if type(e) is not int or e < 0:
            raise ValueError(f"marker exponents are ints >= 0, got {name}^{e!r}")
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
        return MarkerPoly({((name, exp),): 1})

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
        return _poly(dict(zip(self.terms, _scale(self.terms.values(), other))))

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
        """Substitute numbers or polys for the named markers; others stay symbolic."""
        powers, acc = {}, {}
        for mono, c in self.terms.items():
            rest, factor = [], None
            for name, e in mono:
                if name in values:
                    pw = powers.get((name, e))
                    if pw is None:
                        pw = powers[(name, e)] = _ring(values[name]) ** e
                    if type(pw) is MarkerPoly:
                        factor = pw if factor is None else factor * pw
                    else:
                        c *= pw
                else:
                    rest.append((name, e))
            if factor is None:
                key = tuple(rest)
                acc[key] = acc.get(key, 0) + c
            else:
                _mac(acc, {tuple(rest): c}, factor.terms)
        return _poly(acc)

    def deriv(self, name: str) -> "MarkerPoly":
        acc = {}
        for mono, c in self.terms.items():
            for i, (nm, e) in enumerate(mono):
                if nm == name:
                    key = mono[:i] + (((nm, e - 1),) if e > 1 else ()) + mono[i + 1:]
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


def _scale(cs, x) -> list:
    """c * x for each coefficient c in cs and a scalar x: an int c times a
    Fraction p/q is the exact division _div(c * p, q), an int when q divides."""
    if type(x) is not Fraction:
        return [c * x for c in cs]
    p, q = x.numerator, x.denominator
    return [_div(c * p, q) if type(c) is int else c * x for c in cs]


def _coded_product(a: list, b: list, n: int) -> list:
    """Coefficients 0..n of the product of the stored coefficient lists a
    and b, at least one of which carries a marker, as `_ring` stores them.

    Each monomial is coded once as the int sum of e << (w * i) over its
    markers, i being the marker's place among the sorted names of both
    operands.  A field of w bits holds twice the largest exponent, so the sum
    of two codes is the code of the product monomial, with no carry into the
    next field.  Each output coefficient accumulates its term products in one
    int-keyed dict, and each code is decoded once per product.
    """
    names, top = set(), 0
    for c in a + b:
        if type(c) is MarkerPoly:
            for m in c.terms:
                for name, e in m:
                    names.add(name)
                    top = max(top, e)
    w = (2 * top).bit_length()
    shift = {name: w * i for i, name in enumerate(sorted(names))}

    def coded(c) -> list:
        if type(c) is not MarkerPoly:
            return [(0, c)] if c else []
        out = []
        for m, v in c.terms.items():
            k = 0
            for name, e in m:
                k += e << shift[name]
            out.append((k, v))
        return out

    a = [(i, coded(c)) for i, c in enumerate(a) if c]
    b = list(map(coded, b))
    accs = []
    for k in range(n + 1):
        acc = {}
        get = acc.get
        for i, p in a:
            if i > k:
                break
            for k1, c1 in p:
                for k2, c2 in b[k - i]:
                    key = k1 + k2
                    acc[key] = get(key, 0) + c1 * c2
        accs.append(acc)
    mask = (1 << w) - 1
    mono = {k: tuple((name, k >> s & mask) for name, s in shift.items() if k >> s & mask)
            for k in set().union(*accs)}
    return [_ring(_poly({mono[k]: v for k, v in acc.items()})) for acc in accs]


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
        self.var, self.order = var, order
        self._c = (items + [0] * (order + 1 - len(items)))[: order + 1]

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
        if self.order + k < 0:
            raise ValueError("shift would leave no coefficients")
        if any(self._c[:-k]):
            raise ValueError(f"cannot divide by {self.var}^{-k}: low-order coefficients are nonzero")
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
            return _series(self.var, list(map(_ring, _scale(self._c, _ring(other)))), self.order)
        other = self._coerce_mate(other)
        n = min(self.order, other.order)
        a, b = self._c[: n + 1], other._c[: n + 1]
        if MarkerPoly in set(map(type, a + b)):
            return _series(self.var, _coded_product(a, b, n), n)
        # marker-free: out += a_i * b shifted by i, over the sparser factor's
        # nonzero terms and up to the other factor's last nonzero term
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
        if isinstance(other, (int, Fraction, MarkerPoly)):
            return self * (1 / MarkerPoly._coerce(other).constant())
        other = self._coerce_mate(other)
        n = min(self.order, other.order)
        c0 = other._c[0]
        if not c0 or isinstance(c0, MarkerPoly):
            raise ZeroDivisionError(
                "series division needs a nonzero marker-free constant term, got "
                f"{c0}")
        inv0 = _ring(Fraction(1, c0))
        p, q = inv0.numerator, inv0.denominator
        # Long division: out_k = (num_k - sum_{1<=i<=k} den_i out_(k-i)) / den_0,
        # summed over the divisor's nonzero terms only; an int times 1/den_0 =
        # p/q is the exact division _div(acc * p, q), as in `_scale`.
        neg = [(i, -d) for i, d in enumerate(other._c[1: n + 1], 1) if d]
        num = self._c
        out = []
        for k in range(n + 1):
            acc = num[k]
            for i, d in neg:
                if i > k:
                    break
                acc += d * out[k - i]
            if inv0 != 1:
                acc = _div(acc * p, q) if type(acc) is int else acc * inv0
            out.append(_ring(acc))
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
    inverse series can be computed.  `invert` reads v off the equation itself,
    one coefficient per pass.
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
        """The series v(z) with v = z*Phi(v), by v_n = sum_k phi_k [z^(n-1)] v^k.

        [z^(n-1)] v^k needs only v_1..v_(n-k), so each pass first extends the
        powers v^2..v^K by one coefficient, K being Phi's degree within
        `order`, and then reads v_n off them.
        """
        if self.phi.order < order:
            raise ValueError(
                f"phi is only known to order {self.phi.order}; cannot invert to {order}")
        phi = self.phi._c[: order + 1]
        top = max(k for k, c in enumerate(phi) if c)
        v = [0] * (order + 1)
        # pows[k][j] = [z^j] v^k
        pows = [[1] + [0] * order, v] + [[0] * (order + 1) for _ in range(2, top + 1)]
        for n in range(1, order + 1):
            m = n - 1
            for k in range(2, min(top, m) + 1):
                low = pows[k - 1]
                acc = 0
                for j in range(1, m - k + 2):
                    acc += v[j] * low[m - j]
                pows[k][m] = _ring(acc)
            acc = 0
            for k in range(min(top, m) + 1):
                acc += phi[k] * pows[k][m]
            v[n] = _ring(acc)
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
    of inverting the substitution and composing.  `coeff` is that dot
    product, and the only place that maps v-powers to row entries; `eval`
    reads the rows in increasing m, so each is one linear pass over the
    cached row before it.
    """

    def __init__(self, b: int, var: str = "z"):
        self.b = b
        self.var = var

    def coeff(self, m: int, terms) -> int:
        """[var^m] F(v) for m >= 0, F the sum of c v^k over the (k, c) pairs
        of the iterable `terms`, k >= 0 non-decreasing.

        [var^m] v^k = T(m-1, m-k) - T(m-1, m-k-2) for m >= 1 is read from the
        one half row T(m-1, b, .): m - k never passes its centre m - 1.  Terms
        with c = 0 still cost a pass of the loop; callers with many drop them.
        """
        if terms and not isinstance(self.b, int):
            raise TypeError(f"trinomial needs an int middle weight, got {type(self.b).__name__}")
        if m < 1:
            if m < 0:
                raise ValueError("trinomial needs n >= 0")
            return sum(c for k, c in terms if not k)
        row = _half_row(m - 1, self.b)
        acc = 0
        for k, c in dropwhile(lambda t: not t[0], terms):  # v^0 adds nothing for m >= 1
            if k > m:
                break
            j = m - k
            acc += c * (row[j] - row[j - 2] if j > 1 else row[j])
        return acc

    def vpow_coeff(self, m: int, k: int) -> int:
        """[var^m] v^k for m >= 0 and k >= 0."""
        if m == 0:
            return 1 if k == 0 else 0
        return self.coeff(m, ((k, 1),))

    def eval(self, expr: PowerSeries, order: int) -> PowerSeries:
        """F(v) as a series in var through var^order; F must be known to order.

        Equals expr.truncate(order).compose(v) for the inverse series v(var).
        """
        f = expr.truncate(order)._c
        nz = [(k, c) for k, c in enumerate(f) if k and c]
        return _series(self.var, [f[0]] + [_ring(self.coeff(m, nz)) for m in range(1, order + 1)],
                       order)
