"""Abelian groups as finite direct sums of cyclic p-power groups, Prüfer
groups, rational lines and integer lines, with exact element arithmetic.

Coordinates are positional: element i lives in summand i of the descriptor.
Canonical coordinate forms (residue reduced, Prüfer value in [0,1) with a
p-power denominator, rationals in lowest terms) make equality decidable.
They are enforced in one place, ``Summand.canon``, which
``AbelianGroupDescriptor.element`` applies to each coordinate and a Heisenberg
group in ``nilpotent`` to each of its scalars.  A coordinate already in
canonical form passes through unchanged: a reduced residue reduces to itself,
a ``Fraction`` on a rational line is kept, not copied, and so is a Prüfer
``Fraction`` in [0, 1) once its p-power denominator is checked.  Sums of
elements are formed by ``_sum``, one coordinate column at a time:
``AbelianGroupDescriptor.combine`` applies it to each summand and
canonicalises the whole linear combination once.  The check of an abelian
system sums coordinates without building elements, on integer columns, in
``systems.AbelianSystem.holds``.  Exact division is done
one coordinate at a time too, by ``_root``, on an integer numerator and
denominator: ``divide_exact`` applies it to each summand, and the abelian
solvers' column core to columns it keeps as integer numerators over one
denominator.  Canonical coordinates are written as JSON text in one place,
``_coords_to_json``: a Fraction as "num/den", an int in decimal.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .errors import (
    DescriptorMismatch,
    NotDivisible,
    NotPeriodic,
    ParseError,
)
from .intmath import INFINITE, MAX_MODULUS_BITS, check_prime, inv_mod

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
            if self.e * (self.p - 1).bit_length() > MAX_MODULUS_BITS:
                raise ValueError(f"cyclic summand {self.p}**e exceeds {MAX_MODULUS_BITS} bits")
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

    @cached_property
    def modulus(self) -> int | None:
        """p**e for cyclic summands, None otherwise."""
        return self.p**self.e if self.kind == CYCLIC else None

    @property
    def is_divisible(self) -> bool:
        return self.kind in (PRUFER, RATIONAL)

    @property
    def is_torsion(self) -> bool:
        return self.kind in (CYCLIC, PRUFER)

    def canon(self, c):
        """Coordinate c in its canonical form; a canonical c comes back unchanged.
        A cyclic or integer coordinate must be an int, a Prüfer or rational one
        an int or a Fraction; anything else, bools included, is a ValueError,
        not truncated or parsed.  A Prüfer Fraction already in [0, 1) is
        returned as it is once its denominator is checked to be a power of p;
        any other Prüfer coordinate is reduced mod 1 into one new Fraction."""
        kind = self.kind
        if kind == CYCLIC:
            if type(c) is int:
                return c % self.modulus
        elif kind == RATIONAL:
            if type(c) is Fraction:
                return c
            if type(c) is int:
                return Fraction(c)
        elif kind == INTEGER:
            if type(c) is int:
                return c
        elif type(c) is int or type(c) is Fraction:
            num, den = c.as_integer_ratio()
            d = den
            while d % self.p == 0:
                d //= self.p
            if d != 1:
                raise ValueError(f"{c} is not a valid Prufer({self.p}) coordinate")
            if 0 <= num < den and type(c) is Fraction:
                return c
            return Fraction(num % den, den)
        what = "an int" if kind == CYCLIC or kind == INTEGER else "an int or a Fraction"
        raise ValueError(f"a {self!r} coordinate must be {what}, got {c!r}")

    def __repr__(self) -> str:
        if self.kind == CYCLIC:
            return f"Z/{self.modulus}"
        if self.kind == PRUFER:
            return f"Prufer({self.p})"
        return "Q" if self.kind == RATIONAL else "Z"


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
        return GroupElement(self, tuple(s.canon(c) for s, c in zip(self.summands, coords)))

    def zero(self) -> GroupElement:
        return self.element([0] * len(self.summands))

    def combine(self, terms) -> GroupElement:
        """n1*g1 + ... + nm*gm for the (g, n) pairs in terms, summed by ``_sum``
        per summand and canonicalised once.  DescriptorMismatch if a g lies in
        another group."""
        terms = list(terms)
        for g, _ in terms:
            if g.descriptor is not self and g.descriptor != self:
                raise DescriptorMismatch("elements live in different groups")
        return self.element(
            _sum(s, [(n, g.coords[i]) for g, n in terms]) for i, s in enumerate(self.summands)
        )

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
        return GroupElement(self, tuple(coords))  # each sample is canonical as drawn

    # -- JSON wire format ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "summands": [
                {"kind": s.kind, **{f: getattr(s, f) for f in _SUMMAND_FIELDS[s.kind]}}
                for s in self.summands
            ]
        }

    def element_to_json(self, a: GroupElement) -> list[str]:
        return _coords_to_json(a.coords)

    @classmethod
    def from_json(cls, obj: dict) -> AbelianGroupDescriptor:
        obj = _expect_fields(obj, "a group", ("summands",))
        summands = []
        for item in expect_json(obj["summands"], list, "summands"):
            item = expect_json(item, dict, "a summand")
            kind = expect_json(item["kind"], str, "a summand kind")
            if kind not in _SUMMAND_FIELDS:
                raise ValueError(f"unknown summand kind {kind!r}")
            fields = _SUMMAND_FIELDS[kind]
            _expect_fields(item, f"a {kind} summand", ("kind", *fields))
            summands.append(Summand(kind, *(int_from_json(item[f]) for f in fields)))
        return cls(summands)


@dataclass(frozen=True)
class GroupElement:
    """Coordinate vector over a descriptor; immutable and canonical."""

    descriptor: AbelianGroupDescriptor
    coords: tuple

    def __add__(self, other: GroupElement) -> GroupElement:
        return self.descriptor.combine(((self, 1), (other, 1)))

    def __neg__(self) -> GroupElement:
        return self.descriptor.combine(((self, -1),))

    def __sub__(self, other: GroupElement) -> GroupElement:
        return self.descriptor.combine(((self, 1), (other, -1)))

    def scale(self, k: int) -> GroupElement:
        return self.descriptor.combine(((self, k),))

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


def _sum(s: Summand, column):
    """n1*c1 + ... + nm*cm for the (n, c) pairs of one coordinate column of
    summand s, not canonicalised.  Prüfer and Q coordinates are summed as
    integer numerators over the lcm of their denominators."""
    if s.is_divisible:
        d = math.lcm(*(c.denominator for _, c in column))
        return Fraction(sum(n * c.numerator * (d // c.denominator) for n, c in column), d)
    return sum(n * c for n, c in column)


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
    return A.element(
        Fraction(*_root(s, n, c.numerator, c.denominator)) for s, c in zip(A.summands, a.coords)
    )


def _root(s: Summand, n: int, num: int, den: int) -> tuple[int, int]:
    """divide_exact's pinned root y of n*y = num/den in one coordinate of a
    divisible summand s, as an integer numerator over den*n on a rational
    line and over den*p**v on Prüfer(p), p**v the p-part of n.  No Fraction
    is built, and num/den need not be in lowest terms: a Prüfer root depends
    only on the representative in [0, 1), which num % den gives."""
    if s.kind == RATIONAL:
        return num, den * n
    v, u = 0, n
    while u % s.p == 0:
        u //= s.p
        v += 1
    num %= den
    den *= s.p**v
    if u > 1 and num:
        num = (inv_mod(u % den, den) * num) % den
    return num, den


# -- JSON element encoding ---------------------------------------------------


def _coords_to_json(coords) -> list[str]:
    """Canonical coordinates as JSON text: a Fraction as "num/den", an int in
    decimal.  Shared by the abelian and Heisenberg encoders."""
    return [f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else str(c) for c in coords]


_INTEGER_TEXT = re.compile(r"[-+]?[0-9]+")
_RATIO_TEXT = re.compile(r"([-+]?[0-9]+)/([0-9]+)")


_JSON_NAMES = {dict: "object", list: "array", str: "string"}


def expect_json(value, kind: type, what: str):
    """value itself when it is a JSON value of the given kind (dict, list or
    str); anything else is a ParseError, not a TypeError deeper down."""
    if not isinstance(value, kind):
        raise ParseError(f"{what} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    return value


def _expect_fields(value, what: str, required: tuple, optional: tuple = ()) -> dict:
    """value itself when it is a JSON object with every required field and no
    field outside required and optional; anything else is a ParseError."""
    obj = expect_json(value, dict, what)
    if not set(required) <= obj.keys() <= {*required, *optional}:
        also = f" and optionally {list(optional)}" if optional else ""
        raise ParseError(f"{what} has the fields {list(required)}{also}, got {sorted(obj)}")
    return obj


def int_from_json(value) -> int:
    """An exact integer from JSON: an int (not a bool) or a decimal string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INTEGER_TEXT.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # over the interpreter's int-from-string digit limit
            digits = len(value.lstrip("+-"))
            raise ParseError(f"an integer of {digits} digits exceeds the digit limit") from None
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
