"""Exact integer and modular arithmetic helpers.

Python ints are arbitrary precision and ``fractions.Fraction`` keeps
rationals normalized (lowest terms, positive denominator), so both are used
directly everywhere; this module adds the modular utilities on top.
"""

from __future__ import annotations

import math

from .errors import NonCoprimeModuli, NotAUnit, NotPrime, OutOfRange

# Exact values stay ints; INFINITE only ever marks "no finite answer"
# (order of a torsion-free element, period or size of an unbounded group).
# It compares correctly against any int.
INFINITE = math.inf

# Cap on the bits of a modulus p**e, checked as e * (p - 1).bit_length()
# (that is, e * ceil(log2 p)) before p**e is built: a JSON exponent may have
# thousands of digits, and reducing modulo p**e would then hang or exhaust
# memory.  2**20 bits is far past any group this exact arithmetic handles.
MAX_MODULUS_BITS = 2**20


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
