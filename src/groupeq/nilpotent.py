"""Nilpotent group arithmetic and the recursive central-series solvers.

Two concrete families carry the algorithms: Heisenberg groups (class 2)
over Z/p**e or over Q, and small multiplication-table groups used as
independent oracles.  Elements are canonical values, so two are equal
exactly when ``==`` says so.  Every handle evaluates a whole word, the
product of (g, n) terms g**n, with ``evaluate``: a Heisenberg group or an
abelian handle in collected form (over Q in one pass over int numerators),
a table group left to right.

A handle's central series runs G = G_0, G_1 = G_0/Z(G_0), ... down to the
first class-1 handle, whose ``quotient`` is None; each level's centre is an
abelian descriptor, ``center_group``, which ``center_embed`` and
``center_recognize`` carry into and out of the level.  The top handle reads
and writes every level as a block of its own coordinates (Mal'cev
coordinates): a Heisenberg triple (a, b, c) holds the block (a, b) of
G/Z(G) and the block (c,) of Z(G).  ``center_coords(g, depth)`` gives the
block of g's image ``depth`` quotients down, or None when that image is not
central there, and ``lift(g, z, depth)``, for a g whose blocks from that
level up are still zero, writes z as g's block at the level: the image one
level down times center_embed(z), with zero blocks above as the coset
representatives.  The solvers call only these members of a
handle: ``identity``, ``evaluate``, ``center_coords``, ``lift`` and, for a
failed centrality check's message, ``invert`` on the top handle; its
``period_bound`` (bounded solver); and each level's ``center_group`` and
``quotient``, read once by ``_centres``.

A Heisenberg group's scalar ring is a cyclic or rational ``Summand``: its
scalars are canonicalised by ``Summand.canon``, and its triples are
enumerated, sampled and read from JSON by the abelian group ring**3, so the
abelian canonical forms and codec are the only ones.  Every handle reads and
writes its own elements (``element_from_json``, ``element_to_json``), a table
group's as indices in range(order), so one word-system codec serves them all,
and a ``Solution`` over the handle writes its values with the same method.

The solver recursion: solve the induced system over G/Z(G), lift the
solution with ``lift``, substitute x -> c*x, check that every
coefficient product b_i landed in the center, and finish with one abelian
solve over the center.  Every variable's value is an element of G from the
start, the identity, and each level from the bottom up writes its centre
coordinates into it with ``lift``.  A level is data, not a system: the word
system's exponent rows, the same at every level, and the centre coordinates
of each b_i**-1, which go straight to the abelian column core
``solve_abelian._solve_columns`` as the right-hand side -b_i.  b_i**-1 is
the word read backwards with negated exponents, evaluated in G on the values
so far; ``center_coords`` reads its image at the level, projection being a
homomorphism.  At the bottom every variable is 1, so only the words'
constants are evaluated there.  The exponent matrix is computed once: the
bounded solver checks its unimodularity, and the divisible solver computes
its column Hermite pair with ``systems._column_hermite`` for every level,
which refuses a singular system with Singular before any centre is checked
for divisibility.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .abelian import (
    CYCLIC,
    RATIONAL,
    AbelianGroupDescriptor,
    GroupElement,
    Summand,
    _coords_to_json,
    _expect_fields,
    element_from_json,
    expect_json,
    int_from_json,
)
from .errors import (
    CentralityAssertionFailed,
    DescriptorMismatch,
    MissingVariable,
    NotUnimodular,
    ParseError,
    UnsupportedGroup,
    VerificationFailed,
)
from .intmath import INFINITE
from .solve_abelian import Solution, _checked, _first_solution, _solve_columns
from .systems import (
    Const,
    EquationSystem,
    GroupEquation,
    VarPow,
    _column_hermite,
    _exponent_matrix,
    classify_matrix,
    exponent_row,
    variables_from_json,
)


class WordSystem(EquationSystem):
    """A finite system of word equations w_i = 1 over one group handle."""


# -- Heisenberg groups and abelian handles ---------------------------------------


class HeisenbergGroup:
    """Triples (a, b, c) over a ring with (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').

    The ring is a ``Summand``, Z/p**e or Q, and a scalar is a coordinate of it.
    The center is {(0,0,c)}, isomorphic to the additive ring; the quotient
    by the center is the abelian group of pairs (a, b).
    """

    nilpotency_class = 2

    def __init__(self, ring: Summand):
        if ring.kind not in (CYCLIC, RATIONAL):
            raise UnsupportedGroup(f"a Heisenberg group needs a ring Z/p**e or Q, got {ring!r}")
        self.ring = ring
        self._zero = ring.canon(0)
        self._triples = AbelianGroupDescriptor([ring] * 3)
        self.center_group = AbelianGroupDescriptor([ring])
        self.quotient = AbelianHandle(AbelianGroupDescriptor([ring] * 2))
        # (a,b,c)**(p**e) has third coordinate binom(p**e, 2)*a*b, which
        # vanishes mod p**e only for odd p; for p = 2 the period doubles.
        self.period_bound = 2 * ring.modulus if ring.p == 2 else self._triples.period()

    def identity(self):
        z = self._zero
        return (z, z, z)

    def element(self, a, b, c):
        canon = self.ring.canon
        return (canon(a), canon(b), canon(c))

    def multiply(self, g, h):
        return self.element(g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def invert(self, g):
        return self.element(-g[0], -g[1], -g[2] + g[0] * g[1])

    def power(self, g, n: int):
        # the group law gives g**n = (n*a, n*b, n*c + binom(n, 2)*a*b) for every integer n
        a, b, c = g
        return self.element(n * a, n * b, n * c + n * (n - 1) // 2 * a * b)

    def evaluate(self, terms):
        """g1**n1 * ... * gm**nm for the (g, n) pairs in terms, collected in one pass.

        At class 2 the product is (X, Y, Z) with X = sum ni*ai, Y = sum ni*bi
        and Z = sum (ni*ci + binom(ni, 2)*ai*bi) + sum_{i<j} ni*ai * nj*bj;
        the last sum runs over a prefix of X.  Over Z/p**e the sums are plain
        ints, reduced once.  Over Q each coordinate column is summed as int
        numerators over a running lcm of its denominators, A, B and C, which
        widens (rescaling what is summed so far) only when a denominator does
        not divide it; a nonzero scalar is read once, by Fraction's
        ``as_integer_ratio``, which fails on an int or a float, and then the
        terms go through ``element``, which converts an int and refuses a float.
        The terms of Z in a*b lie over A*B, so the third coordinate is one
        Fraction over C*A*B, and the canonical triple is built once; a zero
        coordinate is the ring's own zero, so comparing with the identity
        finds it by identity.
        """
        if self.ring.kind == CYCLIC:
            x = y = z = 0
            for (a, b, c), n in terms:
                nb = n * b
                z += n * c + n * (n - 1) // 2 * a * b + x * nb
                x += n * a
                y += nb
            return self.element(x, y, z)
        zero = self._zero
        gcd = math.gcd
        ratio = Fraction.as_integer_ratio
        x = y = z_c = z_ab = 0
        A = B = C = 1
        try:
            for (a, b, c), n in terms:
                if a is zero:
                    a = 0
                else:
                    a, d = ratio(a)
                    if A % d:
                        k = d // gcd(A, d)
                        A *= k
                        x *= k
                        z_ab *= k
                    a *= A // d
                if b is zero:
                    b = 0
                else:
                    b, d = ratio(b)
                    if B % d:
                        k = d // gcd(B, d)
                        B *= k
                        y *= k
                        z_ab *= k
                    b *= B // d
                if c is not zero:
                    c, d = ratio(c)
                    if C % d:
                        k = d // gcd(C, d)
                        C *= k
                        z_c *= k
                    z_c += n * c * (C // d)
                nb = n * b
                z_ab += n * (n - 1) // 2 * a * b + x * nb
                x += n * a
                y += nb
        except AttributeError:  # an int or a float has no _numerator
            return self.evaluate([(self.element(*g), n) for g, n in terms])
        z = z_c * A * B + z_ab * C
        return (
            Fraction(x, A) if x else zero,
            Fraction(y, B) if y else zero,
            Fraction(z, C * A * B) if z else zero,
        )

    # -- center -----------------------------------------------------------

    def center_embed(self, z: GroupElement):
        return self.element(0, 0, z.coords[0])

    def center_recognize(self, g):
        """Center coordinates of g, or None when g is not central."""
        if g[0] != self._zero or g[1] != self._zero:
            return None
        return self.center_group.element([g[2]])

    def center_coords(self, g, depth: int):
        """The coordinates of g's image ``depth`` quotients down the central
        series in that quotient's centre, or None when it is not central:
        (c,) for a central g at depth 0, and at depth 1 the quotient's pair
        (a, b), the quotient being abelian.  Read off the triple; no element
        is built."""
        if depth:
            return g[:2]
        return None if g[0] or g[1] else g[2:]

    def lift(self, g, z, depth: int):
        """g with centre coordinates z written at ``depth`` (``center_coords``
        reads them): (z0, z1, 0) at depth 1, (a, b, z0) at 0 for g = (a, b, 0)."""
        canon = self.ring.canon
        if depth:
            return (canon(z[0]), canon(z[1]), self._zero)
        return (g[0], g[1], canon(z[0]))

    # -- enumeration and encoding: those of the abelian group ring**3 ---------

    def elements(self):
        return (g.coords for g in self._triples.elements())

    def random_element(self, rng):
        """Uniform over Z/p**e; over Q, coordinates a/b with |a| <= 9, 1 <= b <= 9."""
        return self._triples.random_element(rng).coords

    def element_to_json(self, g) -> list[str]:
        return _coords_to_json(g)

    def element_from_json(self, coords) -> tuple:
        return element_from_json(self._triples, coords).coords

    def to_json(self) -> dict:
        r = self.ring
        ring = {"kind": "mod", "p": r.p, "e": r.e} if r.kind == CYCLIC else {"kind": "q"}
        return {"kind": "heisenberg", "ring": ring}

    def __repr__(self) -> str:
        return f"Heisenberg({self.ring!r})"


class AbelianHandle:
    """A class-1 handle wrapping an abelian descriptor, so abelian groups can
    terminate the central-series recursion."""

    nilpotency_class = 1
    quotient = None

    def __init__(self, descriptor: AbelianGroupDescriptor):
        self.descriptor = descriptor
        self.center_group = descriptor
        self.period_bound = descriptor.period()

    def identity(self) -> GroupElement:
        return self.descriptor.zero()

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return g + h

    def invert(self, g: GroupElement) -> GroupElement:
        return -g

    def power(self, g: GroupElement, n: int) -> GroupElement:
        return g.scale(n)

    def evaluate(self, terms) -> GroupElement:
        """n1*g1 + ... + nm*gm for the (g, n) pairs in terms, by ``combine``."""
        return self.descriptor.combine(terms)

    def center_embed(self, z: GroupElement) -> GroupElement:
        return z

    def center_recognize(self, g: GroupElement) -> GroupElement:
        return g

    def center_coords(self, g: GroupElement, depth: int):
        """g's coordinates: a class-1 handle is its own centre, and the end
        of its central series."""
        return g.coords

    def lift(self, g: GroupElement, z, depth: int) -> GroupElement:
        """The element with coordinates z, g being the identity."""
        return self.descriptor.element(z)

    def elements(self):
        return self.descriptor.elements()

    def random_element(self, rng):
        return self.descriptor.random_element(rng)

    def element_to_json(self, g) -> list[str]:
        return self.descriptor.element_to_json(g)

    def element_from_json(self, coords):
        return element_from_json(self.descriptor, coords)

    def to_json(self) -> dict:
        return {"kind": "abelian", "group": self.descriptor.to_json()}

    def __repr__(self) -> str:
        return f"AbelianHandle({self.descriptor!r})"


def heisenberg_mod(p: int, e: int = 1) -> HeisenbergGroup:
    return HeisenbergGroup(Summand.cyclic(p, e))


def heisenberg_q() -> HeisenbergGroup:
    return HeisenbergGroup(Summand.rational())


# -- word evaluation and commutators ---------------------------------------------


def evaluate_word(group, equation: GroupEquation, assignment) -> object:
    """The product of a word's literals, in order, with variables substituted.

    The word becomes (value, exponent) terms, a constant with exponent 1, and
    the handle's ``evaluate`` multiplies them.
    """
    try:
        terms = [
            (lit.value, 1) if isinstance(lit, Const) else (assignment[lit.var], lit.exp)
            for lit in equation.word
        ]
    except KeyError as exc:
        raise MissingVariable(f"assignment lacks variable {exc.args[0]!r}") from None
    return group.evaluate(terms)


def _read(group, g):
    """An assigned value as the handle's canonical element, read as the handle
    reads its own: a Heisenberg triple by ``element``, an abelian handle's
    value by its descriptor's ``element`` once the descriptor is checked, a
    table index as an int in range(order).  Anything else, a bool included,
    is a ValueError; a handle of another kind keeps g as it is."""
    if isinstance(group, HeisenbergGroup):
        if type(g) is tuple and len(g) == 3:
            return group.element(*g)
    elif isinstance(group, AbelianHandle):
        if isinstance(g, GroupElement):
            if g.descriptor != group.descriptor:
                raise DescriptorMismatch("elements live in different groups")
            return group.descriptor.element(g.coords)
    elif not isinstance(group, TableGroup) or type(g) is int and 0 <= g < group.order:
        return g
    raise ValueError(f"{g!r} is not an element of the group")


def _verify_words(system: WordSystem, assignment) -> bool:
    """``verify_solution`` on a word system, equation by equation, in order:
    MissingVariable for a variable of the word that the assignment lacks,
    then each value that no earlier word used read once by ``_read``, and
    the word evaluated on the values read."""
    G = system.group
    values: dict = {}
    for eq in system.equations:
        fresh = dict.fromkeys(
            lit.var for lit in eq.word if isinstance(lit, VarPow) and lit.var not in values
        )
        for v in fresh:
            if v not in assignment:
                raise MissingVariable(f"assignment lacks variable {v!r}")
        for v in fresh:
            values[v] = _read(G, assignment[v])
        if evaluate_word(G, eq, values) != G.identity():
            return False
    return True


def commutator(group, g, h):
    """[g, h] = g^-1 h^-1 g h."""
    return group.multiply(
        group.multiply(group.invert(g), group.invert(h)), group.multiply(g, h)
    )


def nth_root_heisenberg_q(group: HeisenbergGroup, g, n: int):
    """A w with w**n = g in Heisenberg(Q), witnessing divisibility.

    Closed form from the multiplication law: the first two coordinates
    divide by n and the third absorbs the accumulated cross term
    binom(n, 2) * a'* b'.  Verified by powering before returning.
    """
    if group.ring.kind != RATIONAL:
        raise UnsupportedGroup("nth roots in closed form need the rational Heisenberg group")
    if n < 1:
        raise ValueError("root index must be >= 1")
    a = Fraction(g[0], n)
    b = Fraction(g[1], n)
    c = Fraction(g[2] - n * (n - 1) // 2 * a * b, n)
    w = group.element(a, b, c)
    if group.power(w, n) != g:
        raise VerificationFailed("closed-form root failed to verify")
    return w


# -- solvers ------------------------------------------------------------------------


def _centres(G) -> list[AbelianGroupDescriptor]:
    """The centre of each level of G's central series, from G down."""
    centres = []
    while G is not None:
        centres.append(G.center_group)
        G = G.quotient
    return centres


def _solve_recursive(system: WordSystem, rows, centres, hermite=None) -> dict:
    """The unverified answer, written level by level from the bottom of the
    series ``centres`` up into values in G (see the module docstring).  b_i,
    the word with x -> c_x * x at x = 1, has literals (c_x * 1)**e = c_x**e;
    b_i**-1 reads them in reverse order with negated exponents."""
    G, variables = system.group, system.variables
    inverses = [eq.word[::-1] for eq in system.equations]
    words = [[lit for lit in w if isinstance(lit, Const)] for w in inverses]  # values start at 1
    values = dict.fromkeys(variables, G.identity())
    for depth in range(len(centres) - 1, -1, -1):
        rhs = []
        for w in words:
            b_inv = G.evaluate(
                [
                    (lit.value, -1) if isinstance(lit, Const) else (values[lit.var], -lit.exp)
                    for lit in w
                ]
            )
            beta = G.center_coords(b_inv, depth)
            if beta is None:
                raise CentralityAssertionFailed(
                    f"coefficient product {G.invert(b_inv)!r} is not central at depth {depth}; "
                    "quotient solve is inconsistent"
                )
            rhs.append(beta)
        z = _solve_columns(centres[depth], rows, rhs, variables, hermite)
        values = {v: G.lift(values[v], z[v], depth) for v in variables}
        words = inverses
    return values


def solve_nilpotent_bounded(system: WordSystem) -> Solution:
    """Solve a unimodular word system over a bounded-period nilpotent handle."""
    if system.group.period_bound is INFINITE:
        raise UnsupportedGroup("group period is not bounded")
    rows = [exponent_row(eq) for eq in system.equations]
    divisors = classify_matrix(_exponent_matrix(rows, system.variables)).divisors
    if divisors != [1] * len(rows):
        raise NotUnimodular(divisors=divisors)
    return _checked(system, _solve_recursive(system, rows, _centres(system.group)))


def solve_nilpotent_divisible(system: WordSystem) -> Solution:
    """Solve a nonsingular word system over a divisible nilpotent handle; the
    exponent matrix is factored once, here, for every level's centre solve."""
    rows = [exponent_row(eq) for eq in system.equations]
    hermite = _column_hermite(_exponent_matrix(rows, system.variables))
    centres = _centres(system.group)
    if not all(A.is_divisible for A in centres):
        raise UnsupportedGroup("solve_divisible needs every summand divisible")
    return _checked(system, _solve_recursive(system, rows, centres, hermite))


# -- table groups ---------------------------------------------------------------------


class TableGroup:
    """A finite group given by its multiplication table; elements are indices.

    Used as an independent oracle: it knows nothing about centers or
    quotients beyond brute force.  Every table is validated exactly: an
    identity, unique inverses and associativity.
    """

    MAX_ORDER = 512

    def __init__(self, table, elements=None):
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        if self.order > self.MAX_ORDER:
            raise UnsupportedGroup(f"table groups are capped at order {self.MAX_ORDER}")
        if any(len(row) != self.order for row in self.table):
            raise ValueError("multiplication table must be square")
        for row in self.table:
            for x in row:
                if type(x) is not int:  # a float, string or bool is refused, not converted
                    raise ValueError(f"table entries must be ints, got {x!r}")
        if any(not 0 <= x < self.order for row in self.table for x in row):
            raise ValueError(f"table entries must lie in range({self.order})")
        self.source_elements = list(elements) if elements is not None else None
        self._identity = self._find_identity()
        self._inverse = self._find_inverses()
        self._check_associativity()

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.order)):
                return e
        raise ValueError("table has no identity element")

    def _find_inverses(self) -> list[int]:
        inv = [None] * self.order
        for g in range(self.order):
            matches = [h for h in range(self.order) if self.table[g][h] == self._identity]
            if len(matches) != 1:
                raise ValueError(f"element {g} lacks a unique inverse")
            inv[g] = matches[0]
        return inv

    def _check_associativity(self) -> None:
        """Light's associativity test (Clifford & Preston 1961, section 1.2).

        The elements s with (x*s)*y = x*(s*y) for all x and y are closed under
        multiplication, so once they include a generating set they are the
        whole table.  The set is built greedily: an element not yet reached
        from the identity by right multiplication by the generators so far
        joins it.  A group of order n needs at most log2(n) generators, each
        checked on n**2 pairs.
        """
        t = self.table
        reached = {self._identity}
        generators = []
        for g in range(self.order):
            if g in reached:
                continue
            generators.append(g)
            stack = [t[x][g] for x in reached]
            while stack:
                x = stack.pop()
                if x not in reached:
                    reached.add(x)
                    stack.extend(t[x][s] for s in generators)
        for s in generators:
            right = t[s]
            for x, row in enumerate(t):
                left = t[row[s]]
                if left != [row[z] for z in right]:
                    y = next(y for y in range(self.order) if left[y] != row[right[y]])
                    raise ValueError(f"table is not associative at ({x}, {s}, {y})")

    @classmethod
    def from_handle(cls, group) -> TableGroup:
        """Tabulate a finite handle; element i of the table is elements[i]."""
        elements = list(group.elements())
        index = {g: i for i, g in enumerate(elements)}
        table = [
            [index[group.multiply(g, h)] for h in elements] for g in elements
        ]
        return cls(table, elements=elements)

    def identity(self) -> int:
        return self._identity

    def multiply(self, g: int, h: int) -> int:
        return self.table[g][h]

    def invert(self, g: int) -> int:
        return self._inverse[g]

    def power(self, g: int, n: int) -> int:
        if n < 0:
            return self.power(self._inverse[g], -n)
        out = self._identity
        base = g
        while n:
            if n & 1:
                out = self.table[out][base]
            base = self.table[base][base]
            n >>= 1
        return out

    def evaluate(self, terms) -> int:
        """g1**n1 * ... * gm**nm for the (g, n) pairs in terms, left to right."""
        out, table = self._identity, self.table
        for g, n in terms:
            out = table[out][g if n == 1 else self.power(g, n)]
        return out

    def elements(self):
        return range(self.order)

    def index_of(self, element) -> int:
        """Index of a source element when the table was built from a handle."""
        if self.source_elements is None:
            raise ValueError("table was not built from a handle")
        return self.source_elements.index(element)

    def element_to_json(self, g: int) -> int:
        return g

    def element_from_json(self, value) -> int:
        index = int_from_json(value)
        if not 0 <= index < self.order:
            raise ParseError(f"a table constant must lie in range({self.order})")
        return index

    def to_json(self) -> dict:
        return {"kind": "table", "table": [row[:] for row in self.table]}


def brute_force_group_solve(system: WordSystem) -> Solution | None:
    """Exhaustive search for word systems over a table group.

    Deterministic order: variables sorted, elements by index, first hit
    wins.  Equations are evaluated once all their variables are assigned.
    """
    G = system.group
    if not isinstance(G, TableGroup):
        raise UnsupportedGroup("brute force runs over table groups")

    identity = G.identity()

    def holds(eq, assignment) -> bool:
        return evaluate_word(G, eq, assignment) == identity

    equations = [(eq.variables(), eq) for eq in system.equations]
    found = _first_solution(system.variables, G.order, range(G.order), equations, holds)
    return None if found is None else _checked(system, found)


# -- JSON wire format -------------------------------------------------------------------


def group_from_json(obj: dict):
    obj = expect_json(obj, dict, "a group")
    kind = obj.get("kind", "heisenberg")
    if kind == "heisenberg":
        _expect_fields(obj, "a heisenberg group", ("ring",), ("kind",))
        ring = expect_json(obj["ring"], dict, "a ring")
        ring_kind = ring["kind"]
        if ring_kind == "q":
            _expect_fields(ring, "a q ring", ("kind",))
            return heisenberg_q()
        if ring_kind != "mod":
            raise ValueError(f"unknown ring kind {ring_kind!r}")
        # a mod ring is {"kind", "p"} with an optional "e" (default 1)
        _expect_fields(ring, "a mod ring", ("kind", "p"), ("e",))
        return heisenberg_mod(int_from_json(ring["p"]), int_from_json(ring.get("e", 1)))
    if kind == "table":
        _expect_fields(obj, "a table group", ("kind", "table"))
        rows = expect_json(obj["table"], list, "a table")
        return TableGroup(
            [[int_from_json(x) for x in expect_json(row, list, "a table row")] for row in rows]
        )
    if kind == "abelian":
        _expect_fields(obj, "an abelian group", ("kind", "group"))
        return AbelianHandle(AbelianGroupDescriptor.from_json(obj["group"]))
    raise ValueError(f"unknown group kind {kind!r}")


def word_system_from_json(obj: dict, group) -> WordSystem:
    obj = _expect_fields(obj, "a system", ("equations",), ("vars",))
    equations = []
    for eq in expect_json(obj["equations"], list, "equations"):
        eq = _expect_fields(eq, "an equation", ("word",))
        word = []
        for lit in expect_json(eq["word"], list, "a word"):
            lit = expect_json(lit, dict, "a literal")
            if "const" in lit:  # a literal is {"const"} or {"var", "exp"}
                _expect_fields(lit, "a constant literal", ("const",))
                word.append(Const(group.element_from_json(lit["const"])))
            else:
                _expect_fields(lit, "a variable literal", ("var", "exp"))
                var = expect_json(lit["var"], str, "a variable")
                word.append(VarPow(var, int_from_json(lit["exp"])))
        equations.append(GroupEquation(word))
    return WordSystem(group, equations, variables=variables_from_json(obj))
