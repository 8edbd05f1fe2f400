"""Nilpotent group arithmetic and the recursive central-series solvers.

Two concrete families carry the algorithms: Heisenberg groups (class 2)
over Z/p**e or over Q, and small multiplication-table groups used as
independent oracles.  A group handle exposes exactly what the solvers
need: multiplication, inversion, the center as an abelian descriptor with
embed/recognize maps, and the quotient by the center with a section.  A
handle may also evaluate a whole word at once (``evaluate``); the Heisenberg
groups and the abelian handles do, in collected form, with one
canonicalisation per word.  Table groups fold the word left to right.

A Heisenberg group's scalar ring is a cyclic or rational ``Summand``: its
scalars are canonicalised by ``Summand.canon``, and its triples are
enumerated, sampled and read from JSON by the abelian group ring**3, so the
abelian canonical forms and codec are the only ones.  Every handle reads and
writes its own elements (``element_from_json``, ``element_to_json``), a table
group's as indices in range(order), so one word-system codec serves them all.

The solver recursion: solve the induced system over G/Z(G), lift the
solution through the section, substitute x -> c*x, check that every
coefficient product b_i landed in the center, and finish with one abelian
solve over the center.  Class-1 handles are the base case (their center is
the whole group).
"""

from __future__ import annotations

import itertools
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
    element_to_json,
    expect_json,
    int_from_json,
)
from .errors import (
    CentralityAssertionFailed,
    MissingVariable,
    NotUnimodular,
    ParseError,
    SearchSpaceTooLarge,
    Singular,
    UnsupportedGroup,
    VerificationFailed,
)
from .intmath import INFINITE
from .solve_abelian import BRUTE_FORCE_LIMIT, Solution, _checked, _solve
from .systems import (
    AbelianEquation,
    AbelianSystem,
    Const,
    EquationSystem,
    GroupEquation,
    VarPow,
    elementary_divisors,
    exponent_row,
    is_nonsingular,
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
        self._quotient_descriptor = AbelianGroupDescriptor([ring] * 2)
        self.quotient = AbelianHandle(self._quotient_descriptor)
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
        ints, reduced once.  Over Q each coordinate is first scaled by the lcm
        of its denominators, so the sums are ints and Fractions are built only
        at the end.
        """
        if self.ring.kind == CYCLIC:
            x = y = z = 0
            for (a, b, c), n in terms:
                nb = n * b
                z += n * c + n * (n - 1) // 2 * a * b + x * nb
                x += n * a
                y += nb
            return self.element(x, y, z)
        # a, b and c are Fractions (or ints) with denominators dividing A, B
        # and C; the terms of z in a*b have denominators dividing A*B
        A = math.lcm(*(g[0].denominator for g, _ in terms))
        B = math.lcm(*(g[1].denominator for g, _ in terms))
        C = math.lcm(*(g[2].denominator for g, _ in terms))
        x = y = z_c = z_ab = 0
        for (a, b, c), n in terms:
            a = a.numerator * (A // a.denominator)
            b = b.numerator * (B // b.denominator)
            nb = n * b
            z_c += n * c.numerator * (C // c.denominator)
            z_ab += n * (n - 1) // 2 * a * b + x * nb
            x += n * a
            y += nb
        z = Fraction(z_c, C) + Fraction(z_ab, A * B)
        return self.element(Fraction(x, A), Fraction(y, B), z)

    def equal(self, g, h) -> bool:
        return g == h

    # -- center -----------------------------------------------------------

    def center_embed(self, z: GroupElement):
        return self.element(0, 0, z.coords[0])

    def center_recognize(self, g):
        """Center coordinates of g, or None when g is not central."""
        if g[0] != self._zero or g[1] != self._zero:
            return None
        return self.center_group.element([g[2]])

    # -- quotient by the center --------------------------------------------

    def project(self, g) -> GroupElement:
        return self._quotient_descriptor.element([g[0], g[1]])

    def section(self, q: GroupElement):
        """Coset representative choice: (a, b) lifts to (a, b, 0)."""
        return self.element(q.coords[0], q.coords[1], 0)

    # -- enumeration and encoding: those of the abelian group ring**3 ---------

    def elements(self):
        return (g.coords for g in self._triples.elements())

    def size(self):
        return self._triples.size()

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

    def equal(self, g, h) -> bool:
        return g == h

    def center_embed(self, z: GroupElement) -> GroupElement:
        return z

    def center_recognize(self, g: GroupElement) -> GroupElement:
        return g

    def elements(self):
        return self.descriptor.elements()

    def size(self):
        return self.descriptor.size()

    def random_element(self, rng):
        return self.descriptor.random_element(rng)

    def element_to_json(self, g) -> list[str]:
        return element_to_json(g)

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


def evaluate_word(group, equation, assignment) -> object:
    """The product of a word's literals, in order, with variables substituted.

    The word becomes (value, exponent) terms, a constant with exponent 1.  A
    handle with an ``evaluate`` method takes the terms whole; any other
    handle multiplies them from left to right.
    """
    word = equation.word if isinstance(equation, GroupEquation) else equation
    terms = []
    for lit in word:
        if isinstance(lit, Const):
            terms.append((lit.value, 1))
        elif lit.var in assignment:
            terms.append((assignment[lit.var], lit.exp))
        else:
            raise MissingVariable(f"assignment lacks variable {lit.var!r}")
    evaluate = getattr(group, "evaluate", None)
    if evaluate is not None:
        return evaluate(terms)
    out = group.identity()
    for g, n in terms:
        out = group.multiply(out, g if n == 1 else group.power(g, n))
    return out


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


def _project_system(system: WordSystem) -> WordSystem:
    G = system.group
    projected = [
        GroupEquation(
            [Const(G.project(lit.value)) if isinstance(lit, Const) else lit for lit in eq.word]
        )
        for eq in system.equations
    ]
    return WordSystem(G.quotient, projected, variables=system.variables)


def _solve_recursive(system: WordSystem) -> dict:
    G = system.group
    if G.nilpotency_class >= 2:
        quotient_solution = _solve_recursive(_project_system(system))
        constants = {v: G.section(quotient_solution[v]) for v in system.variables}
    else:
        constants = {v: G.identity() for v in system.variables}

    central_eqs = []
    for eq in system.equations:
        # the word with x -> c_x * x, evaluated at x = 1: (c_x * 1)**e = c_x**e
        b = evaluate_word(G, eq, constants)
        beta = G.center_recognize(b)
        if beta is None:
            raise CentralityAssertionFailed(
                f"coefficient product {b!r} is not central; quotient solve is inconsistent"
            )
        central_eqs.append(AbelianEquation(exponent_row(eq), -beta))
    central = AbelianSystem(G.center_group, central_eqs, variables=system.variables)
    z = _solve(central)
    return {v: G.multiply(constants[v], G.center_embed(z[v])) for v in system.variables}


def solve_nilpotent_bounded(system: WordSystem) -> Solution:
    """Solve a unimodular word system over a bounded-period nilpotent handle."""
    if system.group.period_bound is INFINITE:
        raise UnsupportedGroup("group period is not bounded")
    divisors = elementary_divisors(system.matrix())
    if divisors != [1] * len(system.equations):
        raise NotUnimodular(divisors=divisors)
    return _checked(system, _solve_recursive(system))


def solve_nilpotent_divisible(system: WordSystem) -> Solution:
    """Solve a nonsingular word system over a divisible nilpotent handle."""
    ok, witness = is_nonsingular(system.matrix())
    if not ok:
        raise Singular(witness=witness)
    G = system.group
    while G is not None:  # every centre down the series
        if not G.center_group.is_divisible:
            raise UnsupportedGroup("solve_divisible needs every summand divisible")
        G = G.quotient
    return _checked(system, _solve_recursive(system))


# -- table groups ---------------------------------------------------------------------


class TableGroup:
    """A finite group given by its multiplication table; elements are indices.

    Used as an independent oracle: it knows nothing about centers or
    quotients beyond brute force.  Tables of order <= 64 are validated on
    all triples, larger ones on a deterministic sample.
    """

    MAX_ORDER = 512

    def __init__(self, table, elements=None):
        self.table = [list(map(int, row)) for row in table]
        self.order = len(self.table)
        if self.order > self.MAX_ORDER:
            raise UnsupportedGroup(f"table groups are capped at order {self.MAX_ORDER}")
        if any(len(row) != self.order for row in self.table):
            raise ValueError("multiplication table must be square")
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
        n = self.order
        if n <= 64:
            triples = itertools.product(range(n), repeat=3)
        else:
            triples = (
                ((7 * i) % n, (11 * i + 3) % n, (13 * i + 5) % n) for i in range(4096)
            )
        for a, b, c in triples:
            if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                raise ValueError(f"table is not associative at ({a}, {b}, {c})")

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

    def equal(self, g: int, h: int) -> bool:
        return g == h

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
    variables = system.variables
    if G.order ** max(len(variables), 1) > BRUTE_FORCE_LIMIT:
        raise SearchSpaceTooLarge(f"{G.order}**{len(variables)} exceeds {BRUTE_FORCE_LIMIT}")

    var_pos = {v: i for i, v in enumerate(variables)}
    staged: list[list[GroupEquation]] = [[] for _ in range(len(variables) + 1)]
    for eq in system.equations:
        last = max((var_pos[v] for v in eq.variables()), default=-1)
        staged[last + 1].append(eq)
    for eq in staged[0]:
        if evaluate_word(G, eq, {}) != G.identity():
            return None

    assignment: dict[str, int] = {}

    def search(depth: int):
        if depth == len(variables):
            return dict(assignment)
        for candidate in range(G.order):
            assignment[variables[depth]] = candidate
            if all(
                evaluate_word(G, eq, assignment) == G.identity() for eq in staged[depth + 1]
            ):
                found = search(depth + 1)
                if found is not None:
                    return found
        del assignment[variables[depth]]
        return None

    found = search(0)
    if found is None:
        return None
    return _checked(system, found)


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


def word_system_to_json(system: WordSystem) -> dict:
    G = system.group
    eqs = []
    for eq in system.equations:
        word = []
        for lit in eq.word:
            if isinstance(lit, Const):
                word.append({"const": G.element_to_json(lit.value)})
            else:
                word.append({"var": lit.var, "exp": lit.exp})
        eqs.append({"word": word})
    return {"vars": list(system.variables), "equations": eqs}
