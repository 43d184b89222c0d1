"""Leading-order growth laws and trend verification.

Each statistic computed exactly elsewhere in the package has a known
leading-order approximation for large size.  :func:`eval_law` evaluates
those approximations, and :func:`trend_check` confirms that the relative
deviation between an exact ladder of values and the law shrinks (or at
least does not grow) as the size doubles.  The laws are floating point
by nature; everything feeding them stays exact until the final division.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

Number = Union[int, Fraction, float]

# math.gamma has no companion constant in older stdlibs, so pin it.
EULER_GAMMA = 0.5772156649015329


def _horton_avg(n: int, a: int) -> float:
    log2 = math.log(2.0)
    return (
        math.log(n) / (2 * log2)
        - EULER_GAMMA / (2 * log2)
        - 1 / log2
        + 1.5
        + math.log(math.pi) / log2
        - math.log(a + 4.0) / (2 * log2)
    )


# kind -> law(n, a), in the order `asym --help` lists the kinds
_LAWS = {
    "horton_avg": _horton_avg,
    "node_count_growth": lambda n, a: (a + 4.0) ** (n + 0.5) / (2 * math.sqrt(math.pi) * n ** 1.5),
    # exact/law -> 1 requires 2n/5; see the singular expansion of
    # z/(1-v) against z(1+v): (1/sqrt5 n^{-1/2}/sqrt(pi)) over
    # (sqrt5 n^{-3/2}/(2 sqrt(pi))) is 2n/5.
    "marked_leaves": lambda n, a: 2.0 * n / 5.0,
    # the height layers decay like ((v+2)/(1+2v))^h v^h ~ e^{-2h(1-v)/3},
    # which scales the harmonic-sum log term by 3/2
    "marked_height": lambda n, a: 3.0 / math.sqrt(5.0) * math.sqrt(math.pi * n),
    "red_edges": lambda n, a: n / 5.0,
    "retakh_height": lambda n, a: 2.0 * math.sqrt(math.pi * n / 3.0),
    "retakh_leaves": lambda n, a: 4.0 * n / 9.0,
    "motzkin_height": lambda n, a: math.sqrt(math.pi * n / 3.0),
    "amplitude_avg": lambda n, a: 2.0 * math.sqrt(math.pi * n / 3.0),
    "amplitude_split": lambda n, a: 0.5,
    "kemp_valley": lambda n, a: (
        4.0 * math.sqrt(2.0) * math.sqrt(n / math.pi)
        - 2.0
        + 5.0 * math.sqrt(2.0) / (8.0 * math.sqrt(math.pi * n))
    ),
    "kemp_gap": lambda n, a: 2.0 - math.sqrt(2.0) / math.sqrt(math.pi * n),
}

LAW_KINDS = tuple(_LAWS)


def eval_law(kind: str, n: int, a: int = 0) -> float:
    """Evaluate the leading-order law `kind` at size `n`.

    The parameter `a` is the horizontal-step colour count and only
    participates in the two tree-family laws; other kinds ignore it.
    Sizes must be positive since every law involves log n or sqrt(n).
    """
    if n <= 0:
        raise ValueError("law evaluation needs n >= 1")
    law = _LAWS.get(kind)
    if law is None:
        raise ValueError(f"unknown law kind {kind!r}")
    return law(n, a)


def _decimal(v: int) -> str:
    """str(v) at any length: str() refuses ints past sys.get_int_max_str_digits()
    digits (4300 by default, 640 at least), so long values are split in two."""
    if v < 0:
        return "-" + _decimal(-v)
    if v.bit_length() <= 2048:  # at most 617 digits
        return str(v)
    k = v.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    hi, lo = divmod(v, 10 ** k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def _exact_str(value: Number) -> str:
    """An int as its digits, a Fraction as p/q (its digits when integral),
    at any length; anything else through str()."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _decimal(value.numerator)
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    if isinstance(value, int):
        return _decimal(value)
    return str(value)


_NEW_LIST: list = []  # the default `rows`: a fresh list per report, never this one


class TrendReport:
    """Outcome of comparing an exact ladder against a growth law.

    A plain class with the constructor, equality and repr of the dataclass
    it replaces: `dataclasses` would pull `inspect` into every start-up.
    """

    __match_args__ = ("kind", "rows", "ok")

    def __init__(self, kind: str, rows: List[Tuple[int, Number, float, float]] = _NEW_LIST,
                 ok: bool = True) -> None:
        self.kind = kind
        self.rows = [] if rows is _NEW_LIST else rows
        self.ok = ok

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(kind={self.kind!r}, rows={self.rows!r}, "
                f"ok={self.ok!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.rows, self.ok) == (other.kind, other.rows, other.ok)

    def to_csv(self) -> str:
        lines = ["n,exact,asymptotic,rel_dev"]
        for n, exact, asym, dev in self.rows:
            lines.append(f"{n},{_exact_str(exact)},{asym!r},{dev!r}")
        return "\n".join(lines) + "\n"


def trend_check(
    kind: str,
    exact_values: Sequence[Tuple[int, Number]],
    tolerance: float = 0.2,
    a: int = 0,
) -> TrendReport:
    """Compare exact values at increasing sizes against `eval_law`.

    `exact_values` is a sequence of (n, exact) pairs in increasing n.
    The report row for each pair carries the law value and the relative
    deviation |exact - law| / law; the check passes when each deviation
    is at most (1 + tolerance) times the previous one, so the ladder is
    allowed noise but not sustained divergence.
    """
    if not exact_values:
        raise ValueError("trend check needs at least one exact value")
    report = TrendReport(kind=kind)
    prev_dev = None
    for n, exact in exact_values:
        asym = eval_law(kind, n, a=a)
        dev = abs(float(exact) - asym) / abs(asym)
        report.rows.append((n, exact, asym, dev))
        if prev_dev is not None and dev > prev_dev * (1.0 + tolerance):
            report.ok = False
        prev_dev = dev
    return report
