import math
import random
from fractions import Fraction

import pytest

from groupeq.errors import NonCoprimeModuli, NotAUnit, NotPrime, OutOfRange
from groupeq.intmath import (
    INFINITE,
    MR_LIMIT,
    crt_pair,
    inv_mod,
    is_prime,
)
from reference import PrimePower, factor_small, val_p


def val_p_oracle(n, p):
    # repeated exact division
    if n == 0:
        return INFINITE
    k = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        k += 1
    return k


def test_val_p_examples():
    assert val_p(24, 2) == 3
    assert val_p(0, 5) == INFINITE
    assert val_p(3**7 * 2, 3) == 7 == val_p_oracle(3**7 * 2, 3)


def test_val_p_rejects_composite():
    with pytest.raises(NotPrime):
        val_p(10, 6)


def test_inv_mod_examples():
    assert inv_mod(3, 8) == 3
    assert inv_mod(1, 17) == 1
    # brute-force scan oracle
    assert inv_mod(7, 27) == next(b for b in range(27) if 7 * b % 27 == 1) == 4
    with pytest.raises(ValueError, match="modulus must be >= 2, got 1"):
        inv_mod(3, 1)


def test_inv_mod_property():
    rng = random.Random("inv_mod")
    checked = 0
    while checked < 1000:
        m = rng.randint(2, 10**6)
        a = rng.randint(1, m - 1)
        try:
            b = inv_mod(a, m)
        except NotAUnit:
            continue
        assert 0 <= b < m and a * b % m == 1
        checked += 1


def test_inv_mod_not_a_unit():
    with pytest.raises(NotAUnit):
        inv_mod(6, 8)


def test_crt_examples():
    assert crt_pair(1, 2, 2, 3) == 5
    assert crt_pair(0, 7, 0, 11) == 0
    assert crt_pair(10, 7, 0, 1) == 3  # Z/1 adds no condition
    # brute-force scan oracle
    expected = next(x for x in range(72) if x % 8 == 3 and x % 9 == 5)
    assert crt_pair(3, 8, 5, 9) == expected == 59


def test_crt_property():
    rng = random.Random("crt")
    checked = 0
    while checked < 1000:
        m1 = rng.randint(1, 10**4)
        m2 = rng.randint(1, 10**4)
        from math import gcd

        if gcd(m1, m2) != 1:
            continue
        r1, r2 = rng.randrange(m1), rng.randrange(m2)
        x = crt_pair(r1, m1, r2, m2)
        assert 0 <= x < m1 * m2 and x % m1 == r1 and x % m2 == r2
        checked += 1


def test_crt_non_coprime():
    with pytest.raises(NonCoprimeModuli):
        crt_pair(1, 4, 3, 6)


def test_factor_examples():
    assert factor_small(72) == [PrimePower(2, 3), PrimePower(3, 2)]
    assert factor_small(1) == []
    n = 2**10 * 3 * 5**2
    factors = factor_small(n)
    prod = 1
    for pp in factors:
        prod *= pp.value
    assert prod == n
    assert factors == [PrimePower(2, 10), PrimePower(3, 1), PrimePower(5, 2)]


def test_factor_property_smooth_numbers():
    rng = random.Random("factor")
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(200):
        n = 1
        while True:
            p = rng.choice(small_primes)
            if n * p > 2**64:
                break
            n *= p
            if rng.random() < 0.25:
                break
        factors = factor_small(n)
        prod = 1
        for pp in factors:
            assert is_prime(pp.p)
            prod *= pp.value
        assert prod == n
        assert [pp.p for pp in factors] == sorted({pp.p for pp in factors})


def test_factor_out_of_range():
    with pytest.raises(OutOfRange):
        factor_small(2**64 + 1)
    with pytest.raises(OutOfRange):
        factor_small(0)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 20000) if is_prime(n)] == [n for n in range(-3, 20000) if trial(n)]


def test_is_prime_large_inputs():
    # strong pseudoprimes to the first 1, 4, 9 and 12 prime bases (the last
    # one, psi_12, is why 13 bases are used), a Carmichael number, and primes
    composites = [2047, 3215031751, 3825123056546413051, 318665857834031151167461, 561, 2**64 + 1]
    assert not any(is_prime(n) for n in composites)
    assert all(is_prime(n) for n in (2**31 - 1, 10**18 + 3, 2**61 - 1, 2**64 - 59))
    with pytest.raises(OutOfRange):
        is_prime(MR_LIMIT)


def test_prime_power_validation():
    with pytest.raises(NotPrime):
        PrimePower(4, 1)
    with pytest.raises(ValueError):
        PrimePower(3, 0)
    assert PrimePower(2, 5).value == 32


def test_fraction_arithmetic_is_exact():
    rng = random.Random("frac")
    for _ in range(500):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        c = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + c) - c == a
        assert a.denominator > 0
