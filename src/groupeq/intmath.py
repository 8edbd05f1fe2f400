"""Exact integer and modular arithmetic helpers.

Python ints are arbitrary precision and ``fractions.Fraction`` keeps
rationals normalized (lowest terms, positive denominator), so both are used
directly everywhere; this module adds the modular utilities on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonCoprimeModuli, NotAUnit, NotPrime, OutOfRange

# Exact values stay ints; INFINITE only ever marks "no finite answer"
# (valuation of 0, order of a torsion-free element, height in a divisible
# summand).  It compares correctly against any int.
INFINITE = math.inf

FACTOR_LIMIT = 2**64


# The first 13 primes as Miller-Rabin bases decide primality for every
# n < MR_LIMIT (Sorenson & Webster 2015, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < MR_LIMIT."""
    if n >= MR_LIMIT:
        raise OutOfRange(f"primality is decided only below {MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    if n < MR_BASES[-1] ** 2:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


@dataclass(frozen=True)
class PrimePower:
    """A prime power p**e with e >= 1."""

    p: int
    e: int

    def __post_init__(self):
        check_prime(self.p)
        if self.e < 1:
            raise ValueError(f"exponent must be >= 1, got {self.e}")

    @property
    def value(self) -> int:
        return self.p**self.e

    def __repr__(self) -> str:
        return f"{self.p}^{self.e}"


def val_p(n: int, p: int):
    """p-adic valuation of n: the largest k with p**k | n; INFINITE for n = 0."""
    check_prime(p)
    if n == 0:
        return INFINITE
    k = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        k += 1
    return k


def inv_mod(a: int, m: int) -> int:
    """Inverse of a modulo m, in [0, m). Raises NotAUnit if gcd(a, m) != 1."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotAUnit(f"{a} is not a unit modulo {m}") from None


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """The unique residue modulo m1*m2 congruent to r1 mod m1 and r2 mod m2."""
    if m1 < 1 or m2 < 1:
        raise ValueError("moduli must be positive")
    if math.gcd(m1, m2) != 1:
        raise NonCoprimeModuli(f"moduli {m1} and {m2} are not coprime")
    if m2 == 1:
        return r1 % m1
    t = ((r2 - r1) * inv_mod(m1 % m2, m2)) % m2
    return (r1 + m1 * t) % (m1 * m2)


def factor_small(n: int) -> list[PrimePower]:
    """Factor n <= 2**64 by trial division into a sorted list of prime powers.

    Group periods in this artifact are products of small prime powers, so no
    general-purpose factoring is needed; the bound is a guard, not a promise
    of performance for adversarial inputs.
    """
    if n < 1 or n > FACTOR_LIMIT:
        raise OutOfRange(f"factor_small requires 1 <= n <= 2**64, got {n}")
    out = []
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            out.append(PrimePower(d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        out.append(PrimePower(rest, 1))
    return out
