"""Abelian groups as finite direct sums of cyclic p-power groups, Prüfer
groups, rational lines and integer lines, with exact element arithmetic.

Coordinates are positional: element i lives in summand i of the descriptor.
Canonical coordinate forms (residue reduced, Prüfer value in [0,1) with a
p-power denominator, rationals in lowest terms) make equality decidable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import (
    DescriptorMismatch,
    NotAPGroup,
    NotDivisible,
    NotPeriodic,
    ParseError,
)
from .intmath import INFINITE, check_prime, inv_mod, val_p

CYCLIC = "cyclic"
PRUFER = "prufer"
RATIONAL = "q"
INTEGER = "z"
# the parameters of each summand kind, which are its JSON keys besides "kind"
_SUMMAND_FIELDS = {CYCLIC: ("p", "e"), PRUFER: ("p",), RATIONAL: (), INTEGER: ()}


@dataclass(frozen=True)
class Summand:
    kind: str
    p: int | None = None
    e: int | None = None

    def __post_init__(self):
        if self.kind == CYCLIC:
            check_prime(self.p)
            if self.e is None or self.e < 1:
                raise ValueError(f"cyclic summand needs exponent >= 1, got {self.e}")
        elif self.kind == PRUFER:
            check_prime(self.p)
        elif self.kind in (RATIONAL, INTEGER):
            if self.p is not None or self.e is not None:
                raise ValueError(f"summand kind {self.kind!r} takes no parameters")
        else:
            raise ValueError(f"unknown summand kind {self.kind!r}")

    @classmethod
    def cyclic(cls, p: int, e: int) -> Summand:
        return cls(CYCLIC, p, e)

    @classmethod
    def prufer(cls, p: int) -> Summand:
        return cls(PRUFER, p)

    @classmethod
    def rational(cls) -> Summand:
        return cls(RATIONAL)

    @classmethod
    def integer(cls) -> Summand:
        return cls(INTEGER)

    @property
    def modulus(self) -> int | None:
        """p**e for cyclic summands, None otherwise."""
        return self.p**self.e if self.kind == CYCLIC else None

    @property
    def is_divisible(self) -> bool:
        return self.kind in (PRUFER, RATIONAL)

    @property
    def is_torsion(self) -> bool:
        return self.kind in (CYCLIC, PRUFER)

    def __repr__(self) -> str:
        if self.kind == CYCLIC:
            return f"Z/{self.modulus}"
        if self.kind == PRUFER:
            return f"Prufer({self.p})"
        return "Q" if self.kind == RATIONAL else "Z"


def _canon_coord(s: Summand, c):
    if s.kind == CYCLIC:
        return int(c) % s.modulus
    if s.kind == PRUFER:
        f = Fraction(c)
        f = Fraction(f.numerator % f.denominator, f.denominator)
        d = f.denominator
        while d % s.p == 0:
            d //= s.p
        if d != 1:
            raise ValueError(f"{c} is not a valid Prufer({s.p}) coordinate")
        return f
    if s.kind == RATIONAL:
        return Fraction(c)
    return int(c)


@dataclass(frozen=True)
class AbelianGroupDescriptor:
    summands: tuple[Summand, ...]

    def __init__(self, summands):
        object.__setattr__(self, "summands", tuple(summands))

    def __len__(self) -> int:
        return len(self.summands)

    def __repr__(self) -> str:
        return " + ".join(repr(s) for s in self.summands) or "0"

    # -- elements ---------------------------------------------------------

    def element(self, coords) -> GroupElement:
        coords = tuple(coords)
        if len(coords) != len(self.summands):
            raise DescriptorMismatch(
                f"expected {len(self.summands)} coordinates, got {len(coords)}"
            )
        return GroupElement(self, tuple(_canon_coord(s, c) for s, c in zip(self.summands, coords)))

    def zero(self) -> GroupElement:
        return self.element([0] * len(self.summands))

    def generator(self, i: int) -> GroupElement:
        """The element with coordinate 1 in summand i and 0 elsewhere."""
        coords = [0] * len(self.summands)
        s = self.summands[i]
        coords[i] = Fraction(1, s.p) if s.kind == PRUFER else 1
        return self.element(coords)

    # -- structure --------------------------------------------------------

    @property
    def is_periodic(self) -> bool:
        return all(s.is_torsion for s in self.summands)

    @property
    def is_divisible(self) -> bool:
        return all(s.is_divisible for s in self.summands)

    @property
    def is_bounded(self) -> bool:
        return all(s.kind == CYCLIC for s in self.summands)

    def period(self):
        """lcm of element orders: an int when all summands are cyclic, else INFINITE."""
        if not self.is_bounded:
            return INFINITE
        return math.lcm(*(s.modulus for s in self.summands)) if self.summands else 1

    def size(self):
        if not self.is_bounded:
            return INFINITE
        n = 1
        for s in self.summands:
            n *= s.modulus
        return n

    def elements(self) -> Iterator[GroupElement]:
        """Enumerate a finite group in coordinate-lattice order."""
        if not self.is_bounded:
            raise NotPeriodic("cannot enumerate an infinite group")
        import itertools

        for coords in itertools.product(*(range(s.modulus) for s in self.summands)):
            yield GroupElement(self, coords)

    def random_element(self, rng) -> GroupElement:
        coords = []
        for s in self.summands:
            if s.kind == CYCLIC:
                coords.append(rng.randrange(s.modulus))
            elif s.kind == PRUFER:
                m = rng.randint(0, 3)
                coords.append(Fraction(rng.randrange(s.p**m), s.p**m))
            elif s.kind == RATIONAL:
                coords.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            else:
                coords.append(rng.randint(-9, 9))
        return self.element(coords)

    # -- JSON wire format ---------------------------------------------------

    def to_json(self) -> dict:
        out = []
        for s in self.summands:
            if s.kind == CYCLIC:
                out.append({"kind": "cyclic", "p": s.p, "e": s.e})
            elif s.kind == PRUFER:
                out.append({"kind": "prufer", "p": s.p})
            else:
                out.append({"kind": s.kind})
        return {"summands": out}

    @classmethod
    def from_json(cls, obj: dict) -> AbelianGroupDescriptor:
        summands = []
        for item in obj["summands"]:
            kind = item["kind"]
            if kind not in _SUMMAND_FIELDS:
                raise ValueError(f"unknown summand kind {kind!r}")
            fields = _SUMMAND_FIELDS[kind]
            if set(item) != {"kind", *fields}:
                raise ParseError(f"a {kind} summand has exactly the fields {fields}, got {item!r}")
            summands.append(Summand(kind, *(int_from_json(item[f]) for f in fields)))
        return cls(summands)


@dataclass(frozen=True)
class GroupElement:
    """Coordinate vector over a descriptor; immutable and canonical."""

    descriptor: AbelianGroupDescriptor
    coords: tuple

    def _check_same(self, other: GroupElement):
        if self.descriptor != other.descriptor:
            raise DescriptorMismatch("elements live in different groups")

    def __add__(self, other: GroupElement) -> GroupElement:
        self._check_same(other)
        return self.descriptor.element(a + b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> GroupElement:
        return self.descriptor.element(-c for c in self.coords)

    def __sub__(self, other: GroupElement) -> GroupElement:
        return self + (-other)

    def scale(self, k: int) -> GroupElement:
        return self.descriptor.element(k * c for c in self.coords)

    def __rmul__(self, k: int) -> GroupElement:
        if not isinstance(k, int):
            return NotImplemented
        return self.scale(k)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def order(a: GroupElement):
    """Least n >= 1 with n*a = 0; INFINITE if a torsion-free coordinate is nonzero."""
    n = 1
    for s, c in zip(a.descriptor.summands, a.coords):
        if s.kind == CYCLIC:
            n = math.lcm(n, s.modulus // math.gcd(int(c), s.modulus))
        elif s.kind == PRUFER:
            n = math.lcm(n, c.denominator)
        elif c != 0:
            return INFINITE
    return n


def height_p(a: GroupElement, p: int):
    """Height of a in an abelian p-group: the maximal k such that p**k * x = a
    is solvable; INFINITE when every power works (0, or Prüfer coordinates)."""
    check_prime(p)
    for s in a.descriptor.summands:
        if not (s.is_torsion and s.p == p):
            raise NotAPGroup(f"descriptor contains non-{p}-group summand {s!r}")
    h = INFINITE
    for s, c in zip(a.descriptor.summands, a.coords):
        if s.kind == CYCLIC and c != 0:
            h = min(h, val_p(int(c), p))
    return h


def primary_part(A: AbelianGroupDescriptor, p: int):
    """Sub-descriptor of p-summands of a periodic descriptor, with their indices."""
    check_prime(p)
    if not A.is_periodic:
        raise NotPeriodic("primary decomposition needs a periodic group")
    indices = tuple(i for i, s in enumerate(A.summands) if s.p == p)
    return AbelianGroupDescriptor(A.summands[i] for i in indices), indices


def primary_component(a: GroupElement, p: int) -> GroupElement:
    """Projection of a onto the p-part of its (periodic) descriptor."""
    sub, indices = primary_part(a.descriptor, p)
    return sub.element(a.coords[i] for i in indices)


def embed_at(A: AbelianGroupDescriptor, indices, part: GroupElement) -> GroupElement:
    """Re-embed an element of a sub-descriptor at the given coordinate positions."""
    coords = [0] * len(A.summands)
    for i, c in zip(indices, part.coords):
        coords[i] = c
    return A.element(coords)


@dataclass(frozen=True)
class ModPQuotient:
    """A/pA as a direct sum of Z/p with projection and a canonical section."""

    group: AbelianGroupDescriptor
    indices: tuple[int, ...]
    source: AbelianGroupDescriptor
    p: int

    def project(self, a: GroupElement) -> GroupElement:
        if a.descriptor != self.source:
            raise DescriptorMismatch("element not in the source group")
        return self.group.element(int(a.coords[i]) % self.p for i in self.indices)

    def section(self, x: GroupElement) -> GroupElement:
        """Canonical preimage: each Z/p class lifts to its residue representative."""
        if x.descriptor != self.group:
            raise DescriptorMismatch("element not in the quotient group")
        coords = [0] * len(self.source.summands)
        for i, c in zip(self.indices, x.coords):
            coords[i] = int(c)
        return self.source.element(coords)


def mod_p_quotient(A: AbelianGroupDescriptor, p: int) -> ModPQuotient:
    """Build A/pA.  Divisible summands and q-summands with q != p vanish
    (multiplication by p is onto there); each surviving summand contributes Z/p."""
    check_prime(p)
    indices = []
    for i, s in enumerate(A.summands):
        if s.kind == CYCLIC and s.p == p:
            indices.append(i)
        elif s.kind == INTEGER:
            indices.append(i)
    quotient = AbelianGroupDescriptor([Summand.cyclic(p, 1)] * len(indices))
    return ModPQuotient(quotient, tuple(indices), A, p)


def divide_exact(n: int, a: GroupElement) -> GroupElement:
    """A canonical y with n*y = a in a divisible group.

    Roots are not unique; the pinned choice is coordinate-wise: a/n on a
    rational line, and for a Prüfer(p) coordinate k/p**m with n = p**v * u,
    gcd(u, p) = 1, the root (u^-1 mod p**(m+v)) * k / p**(m+v).
    """
    if n < 1:
        raise ValueError(f"divisor must be positive, got {n}")
    A = a.descriptor
    if not A.is_divisible:
        raise NotDivisible(f"group {A!r} has a non-divisible summand")
    coords = []
    for s, c in zip(A.summands, a.coords):
        if s.kind == RATIONAL:
            coords.append(Fraction(c, n))
        else:
            if c == 0:
                coords.append(Fraction(0))
                continue
            v, u = 0, n
            while u % s.p == 0:
                u //= s.p
                v += 1
            den = c.denominator * s.p**v
            num = (inv_mod(u % den, den) * c.numerator) % den if u > 1 else c.numerator
            coords.append(Fraction(num, den))
    return A.element(coords)


@dataclass(frozen=True)
class Classification:
    """Divisible/reduced split of a descriptor plus period data for the reduced part."""

    divisible: AbelianGroupDescriptor
    divisible_indices: tuple[int, ...]
    reduced: AbelianGroupDescriptor
    reduced_indices: tuple[int, ...]
    reduced_bounded: bool
    reduced_period: object  # int, or INFINITE when an integer line is present
    period_primes: tuple[int, ...]


def classify(A: AbelianGroupDescriptor) -> Classification:
    """Split A into divisible part (Prüfer, Q) and reduced part (cyclic, Z)."""
    div_idx = tuple(i for i, s in enumerate(A.summands) if s.is_divisible)
    red_idx = tuple(i for i, s in enumerate(A.summands) if not s.is_divisible)
    reduced = AbelianGroupDescriptor(A.summands[i] for i in red_idx)
    period = reduced.period()
    primes = ()
    if period is not INFINITE:
        primes = tuple(sorted({s.p for s in reduced.summands}))
    return Classification(
        divisible=AbelianGroupDescriptor(A.summands[i] for i in div_idx),
        divisible_indices=div_idx,
        reduced=reduced,
        reduced_indices=red_idx,
        reduced_bounded=reduced.is_bounded,
        reduced_period=period,
        period_primes=primes,
    )


# -- JSON element encoding ---------------------------------------------------


def element_to_json(a: GroupElement) -> list[str]:
    out = []
    for s, c in zip(a.descriptor.summands, a.coords):
        if s.kind in (PRUFER, RATIONAL):
            out.append(f"{c.numerator}/{c.denominator}")
        else:
            out.append(str(int(c)))
    return out


_INTEGER_TEXT = re.compile(r"[-+]?[0-9]+")
_RATIO_TEXT = re.compile(r"([-+]?[0-9]+)/([0-9]+)")


def int_from_json(value) -> int:
    """An exact integer from JSON: an int (not a bool) or a decimal string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INTEGER_TEXT.fullmatch(value):
        return int(value)
    raise ParseError(f"expected an integer, got {value!r}")


def ratio_from_json(value):
    """An exact rational from JSON: an integer as for int_from_json, or "a/b"."""
    match = _RATIO_TEXT.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        return int_from_json(value)
    if int(match[2]) == 0:
        raise ParseError(f"zero denominator in {value!r}")
    return Fraction(int(match[1]), int(match[2]))


def element_from_json(A: AbelianGroupDescriptor, coords: list) -> GroupElement:
    if not isinstance(coords, list) or len(coords) != len(A.summands):
        raise ParseError(f"expected a list of {len(A.summands)} coordinates, got {coords!r}")
    return A.element(
        ratio_from_json(c) if s.is_divisible else int_from_json(c)
        for s, c in zip(A.summands, coords)
    )
