"""Integer kernels: binomials with negative upper index, trinomial rows,
divisor counts, and the small named sequences everything else leans on."""

import math
import random
from fractions import Fraction

import pytest

from latticepaths.combinat import (
    a002212_terms,
    binomial,
    catalan,
    divisor_count,
    motzkin_numbers,
    trinomial,
    trinomial_row,
)


def test_binomial_matches_math_comb():
    for n in range(0, 12):
        for k in range(0, 14):
            assert binomial(n, k) == math.comb(n, k)


def test_binomial_negative_upper_index():
    # C(n, k) = (-1)^k C(k - n - 1, k) continues the polynomial in n
    for n in range(-8, 0):
        for k in range(0, 8):
            expected = (-1) ** k * math.comb(k - n - 1, k)
            assert binomial(n, k) == expected


def test_binomial_negative_k_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(-3, -2) == 0


def _expand_trinomial_row(n: int, b: int) -> list:
    coeffs = [1]
    for _ in range(n):
        nxt = [0] * (len(coeffs) + 2)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] += b * c
            nxt[i + 2] += c
        coeffs = nxt
    return coeffs


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_trinomial_against_direct_expansion(b):
    for n in range(0, 9):
        row = _expand_trinomial_row(n, b)
        for k in range(-2, 2 * n + 3):
            want = row[k] if 0 <= k <= 2 * n else 0
            assert trinomial(n, b, k) == want


def test_trinomial_row_symmetry():
    for n in range(0, 9):
        for b in (1, 3):
            for k in range(0, 2 * n + 1):
                assert trinomial(n, b, k) == trinomial(n, b, 2 * n - k)


def test_trinomial_row_accessor_consistent():
    for n in range(0, 8):
        row = trinomial_row(n, 3)
        for k, value in enumerate(row):
            assert trinomial(n, 3, k) == value


def test_trinomial_rejects_a_non_int_middle_weight():
    with pytest.raises(TypeError):
        trinomial(3, Fraction(1, 2), 2)
    with pytest.raises(TypeError):
        trinomial(2, 1.0, 1)


def test_divisor_count_brute():
    for h in range(1, 200):
        want = sum(1 for d in range(1, h + 1) if h % d == 0)
        assert divisor_count(h) == want


def test_catalan_values():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_motzkin_sequences():
    assert motzkin_numbers(8) == [1, 1, 2, 4, 9, 21, 51, 127, 323]
    # 2-coloured horizontal steps give shifted Catalan numbers
    two = motzkin_numbers(6, colors=2)
    assert two == [catalan(n + 1) for n in range(7)]
    three = motzkin_numbers(6, colors=3)
    assert three == [1, 3, 10, 36, 137, 543, 2219]


def test_a002212_prefix():
    assert a002212_terms(9) == [1, 1, 3, 10, 36, 137, 543, 2219, 9285, 39587]


def test_motzkin_recurrence_property():
    # (n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2} for the 1-coloured case
    m = motzkin_numbers(40)
    for n in range(2, 41):
        assert (n + 2) * m[n] == (2 * n + 1) * m[n - 1] + 3 * (n - 1) * m[n - 2]


def test_trinomial_prefix_sums_stay_integer():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(0, 30)
        b = rng.randrange(1, 6)
        k = rng.randrange(-1, 2 * n + 2)
        assert isinstance(trinomial(n, b, k), int)
