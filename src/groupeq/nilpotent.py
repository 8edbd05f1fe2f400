"""Nilpotent group arithmetic and the recursive central-series solvers.

Two concrete families carry the algorithms: Heisenberg groups (class 2)
over Z/p**e or over Q, and small multiplication-table groups used as
independent oracles.  A group handle exposes exactly what the solvers
need: multiplication, inversion, the center as an abelian descriptor with
embed/recognize maps, and the quotient by the center with a section.

The solver recursion: solve the induced system over G/Z(G), lift the
solution through the section, substitute x -> c*x, check that every
coefficient product b_i landed in the center, and finish with one abelian
solve over the center.  Class-1 handles are the base case (their center is
the whole group).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .abelian import (
    AbelianGroupDescriptor,
    GroupElement,
    Summand,
    int_from_json,
    ratio_from_json,
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
from .intmath import INFINITE, check_prime
from .solve_abelian import BRUTE_FORCE_LIMIT, Solution, solve_bounded, solve_divisible
from .systems import (
    AbelianEquation,
    AbelianSystem,
    Const,
    ExponentMatrix,
    GroupEquation,
    VarPow,
    elementary_divisors,
    exponent_row,
    is_nonsingular,
    is_unimodular,
)


class WordSystem:
    """A finite system of word equations w_i = 1 over one group handle."""

    def __init__(self, group, equations, variables=None):
        self.group = group
        self.equations = list(equations)
        seen = set()
        for eq in self.equations:
            seen |= eq.variables()
        if variables is not None:
            seen |= set(variables)
        self.variables = tuple(sorted(seen))

    def __len__(self) -> int:
        return len(self.equations)

    def matrix(self) -> ExponentMatrix:
        return ExponentMatrix.from_equations(self.equations, self.variables)


# -- rings behind the Heisenberg family -----------------------------------------


@dataclass(frozen=True)
class ModRing:
    """Residues modulo p**e."""

    p: int
    e: int

    def __post_init__(self):
        check_prime(self.p)
        if self.e < 1:
            raise ValueError("exponent must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p**self.e

    def canon(self, x):
        return int(x) % self.modulus

    def descriptor_summand(self) -> Summand:
        return Summand.cyclic(self.p, self.e)

    def to_json(self) -> dict:
        return {"kind": "mod", "p": self.p, "e": self.e}


@dataclass(frozen=True)
class RationalRing:
    def canon(self, x):
        return Fraction(x)

    def descriptor_summand(self) -> Summand:
        return Summand.rational()

    def to_json(self) -> dict:
        return {"kind": "q"}


class HeisenbergGroup:
    """Triples (a, b, c) over a ring with (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').

    The center is {(0,0,c)}, isomorphic to the additive ring; the quotient
    by the center is the abelian group of pairs (a, b).
    """

    nilpotency_class = 2

    def __init__(self, ring):
        self.ring = ring
        self.center_group = AbelianGroupDescriptor([ring.descriptor_summand()])
        self._quotient_descriptor = AbelianGroupDescriptor([ring.descriptor_summand()] * 2)
        self.quotient = AbelianHandle(self._quotient_descriptor)
        if isinstance(ring, ModRing):
            # (a,b,c)**(p**e) has third coordinate binom(p**e, 2)*a*b, which
            # vanishes mod p**e only for odd p; for p = 2 the period doubles.
            self.period_bound = ring.modulus if ring.p != 2 else 2 * ring.modulus
        else:
            self.period_bound = INFINITE

    def identity(self):
        z = self.ring.canon(0)
        return (z, z, z)

    def element(self, a, b, c):
        return (self.ring.canon(a), self.ring.canon(b), self.ring.canon(c))

    def multiply(self, g, h):
        return self.element(g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def invert(self, g):
        return self.element(-g[0], -g[1], -g[2] + g[0] * g[1])

    def power(self, g, n: int):
        if n < 0:
            return self.power(self.invert(g), -n)
        out = self.identity()
        base = g
        while n:
            if n & 1:
                out = self.multiply(out, base)
            base = self.multiply(base, base)
            n >>= 1
        return out

    def equal(self, g, h) -> bool:
        return g == h

    # -- center -----------------------------------------------------------

    def center_embed(self, z: GroupElement):
        return self.element(0, 0, z.coords[0])

    def center_recognize(self, g):
        """Center coordinates of g, or None when g is not central."""
        if g[0] != self.ring.canon(0) or g[1] != self.ring.canon(0):
            return None
        return self.center_group.element([g[2]])

    # -- quotient by the center --------------------------------------------

    def project(self, g) -> GroupElement:
        return self._quotient_descriptor.element([g[0], g[1]])

    def section(self, q: GroupElement):
        """Coset representative choice: (a, b) lifts to (a, b, 0)."""
        return self.element(q.coords[0], q.coords[1], 0)

    # -- enumeration and encoding -------------------------------------------

    def elements(self):
        if not isinstance(self.ring, ModRing):
            raise UnsupportedGroup("cannot enumerate an infinite group")
        m = self.ring.modulus
        for a, b, c in itertools.product(range(m), repeat=3):
            yield (a, b, c)

    def size(self):
        return self.ring.modulus**3 if isinstance(self.ring, ModRing) else INFINITE

    def random_element(self, rng, height: int = 9):
        if isinstance(self.ring, ModRing):
            m = self.ring.modulus
            return (rng.randrange(m), rng.randrange(m), rng.randrange(m))
        return self.element(
            Fraction(rng.randint(-height, height), rng.randint(1, height)),
            Fraction(rng.randint(-height, height), rng.randint(1, height)),
            Fraction(rng.randint(-height, height), rng.randint(1, height)),
        )

    def element_to_json(self, g) -> list[str]:
        if isinstance(self.ring, ModRing):
            return [str(x) for x in g]
        return [f"{x.numerator}/{x.denominator}" for x in g]

    def element_from_json(self, coords) -> tuple:
        if not isinstance(coords, list) or len(coords) != 3:
            raise ParseError(f"expected a list of 3 coordinates, got {coords!r}")
        parse = ratio_from_json if isinstance(self.ring, RationalRing) else int_from_json
        return self.element(*map(parse, coords))

    def to_json(self) -> dict:
        return {"kind": "heisenberg", "ring": self.ring.to_json()}

    def __repr__(self) -> str:
        if isinstance(self.ring, ModRing):
            return f"Heisenberg(Z/{self.ring.modulus})"
        return "Heisenberg(Q)"


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
        from .abelian import element_to_json

        return element_to_json(g)

    def element_from_json(self, coords):
        from .abelian import element_from_json

        return element_from_json(self.descriptor, coords)

    def to_json(self) -> dict:
        return {"kind": "abelian", "group": self.descriptor.to_json()}

    def __repr__(self) -> str:
        return f"AbelianHandle({self.descriptor!r})"


def heisenberg_mod(p: int, e: int = 1) -> HeisenbergGroup:
    return HeisenbergGroup(ModRing(p, e))


def heisenberg_q() -> HeisenbergGroup:
    return HeisenbergGroup(RationalRing())


# -- word evaluation and commutators ---------------------------------------------


def evaluate_word(group, equation, assignment) -> object:
    """Left-to-right product of a word's literals with variables substituted."""
    word = equation.word if isinstance(equation, GroupEquation) else equation
    out = group.identity()
    for lit in word:
        if isinstance(lit, Const):
            out = group.multiply(out, lit.value)
        else:
            if lit.var not in assignment:
                raise MissingVariable(f"assignment lacks variable {lit.var!r}")
            out = group.multiply(out, group.power(assignment[lit.var], lit.exp))
    return out


def commutator(group, g, h):
    """[g, h] = g^-1 h^-1 g h."""
    return group.multiply(
        group.multiply(group.invert(g), group.invert(h)), group.multiply(g, h)
    )


def center_of(group):
    """Center structure of a handle, or the list of central element indices
    of a table group (computed by brute-force centralizer intersection)."""
    if isinstance(group, TableGroup):
        return [
            g
            for g in range(group.order)
            if all(group.multiply(g, h) == group.multiply(h, g) for h in range(group.order))
        ]
    return group.center_group


def nth_root_heisenberg_q(group: HeisenbergGroup, g, n: int):
    """A w with w**n = g in Heisenberg(Q), witnessing divisibility.

    Closed form from the multiplication law: the first two coordinates
    divide by n and the third absorbs the accumulated cross term
    binom(n, 2) * a'* b'.  Verified by powering before returning.
    """
    if not isinstance(group.ring, RationalRing):
        raise UnsupportedGroup("nth roots in closed form need the rational Heisenberg group")
    if n < 1:
        raise ValueError("root index must be >= 1")
    a = Fraction(g[0], n)
    b = Fraction(g[1], n)
    c = Fraction(g[2] - n * (n - 1) // 2 * a * b, n)
    w = group.element(a, b, c)
    assert group.power(w, n) == g, "closed-form root failed to verify"
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


def _solve_recursive(system: WordSystem, central_solve) -> dict:
    G = system.group
    if G.nilpotency_class >= 2:
        quotient_solution = _solve_recursive(_project_system(system), central_solve)
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
    z = central_solve(central)
    return {
        v: G.multiply(constants[v], G.center_embed(z.assignment[v])) for v in system.variables
    }


def _verified(system: WordSystem, assignment: dict) -> Solution:
    G = system.group
    for eq in system.equations:
        if not G.equal(evaluate_word(G, eq, assignment), G.identity()):
            raise VerificationFailed("nilpotent solver produced a non-solution")
    return Solution(assignment)


def solve_nilpotent_bounded(system: WordSystem) -> Solution:
    """Solve a unimodular word system over a bounded-period nilpotent handle."""
    if system.group.period_bound is INFINITE:
        raise UnsupportedGroup("group period is not bounded")
    matrix = system.matrix()
    if not is_unimodular(matrix):
        raise NotUnimodular(divisors=elementary_divisors(matrix))
    return _verified(system, _solve_recursive(system, solve_bounded))


def solve_nilpotent_divisible(system: WordSystem) -> Solution:
    """Solve a nonsingular word system over a divisible nilpotent handle."""
    matrix = system.matrix()
    ok, witness = is_nonsingular(matrix)
    if not ok:
        raise Singular(witness=witness)
    return _verified(system, _solve_recursive(system, solve_divisible))


# -- table groups ---------------------------------------------------------------------


class TableGroup:
    """A finite group given by its multiplication table; elements are indices.

    Used as an independent oracle: it knows nothing about centers or
    quotients beyond brute force.  Tables of order <= 64 are validated on
    all triples, larger ones on a deterministic sample.
    """

    MAX_ORDER = 512

    def __init__(self, table, labels=None, elements=None):
        self.table = [list(map(int, row)) for row in table]
        self.order = len(self.table)
        if self.order > self.MAX_ORDER:
            raise UnsupportedGroup(f"table groups are capped at order {self.MAX_ORDER}")
        if any(len(row) != self.order for row in self.table):
            raise ValueError("multiplication table must be square")
        self.labels = list(labels) if labels is not None else [str(i) for i in range(self.order)]
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
        return cls(table, labels=[repr(g) for g in elements], elements=elements)

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
    if any(evaluate_word(G, eq, found) != G.identity() for eq in system.equations):
        raise VerificationFailed("table group search returned a non-solution")
    return Solution(found)


# -- JSON wire format -------------------------------------------------------------------


def group_from_json(obj: dict):
    kind = obj.get("kind", "heisenberg")
    if kind == "heisenberg":
        ring = obj["ring"]
        if ring["kind"] == "mod":
            return heisenberg_mod(int_from_json(ring["p"]), int_from_json(ring.get("e", 1)))
        if ring["kind"] == "q":
            return heisenberg_q()
        raise ValueError(f"unknown ring kind {ring['kind']!r}")
    if kind == "table":
        return TableGroup(obj["table"])
    if kind == "abelian":
        return AbelianHandle(AbelianGroupDescriptor.from_json(obj["group"]))
    raise ValueError(f"unknown group kind {kind!r}")


def word_system_from_json(obj: dict, group) -> WordSystem:
    equations = []
    for eq in obj["equations"]:
        word = []
        for lit in eq["word"]:
            if "const" in lit:
                value = lit["const"]
                if isinstance(group, TableGroup):
                    word.append(Const(int_from_json(value)))
                else:
                    word.append(Const(group.element_from_json(value)))
            else:
                word.append(VarPow(lit["var"], int_from_json(lit["exp"])))
        equations.append(GroupEquation(word))
    return WordSystem(group, equations, variables=obj.get("vars"))


def word_system_to_json(system: WordSystem) -> dict:
    G = system.group
    eqs = []
    for eq in system.equations:
        word = []
        for lit in eq.word:
            if isinstance(lit, Const):
                if isinstance(G, TableGroup):
                    word.append({"const": lit.value})
                else:
                    word.append({"const": G.element_to_json(lit.value)})
            else:
                word.append({"var": lit.var, "exp": lit.exp})
        eqs.append({"word": word})
    return {"vars": list(system.variables), "equations": eqs}
