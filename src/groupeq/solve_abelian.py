"""Constructive solvers for abelian systems.

One private column core, ``_solve_columns``, answers every abelian system
over cyclic, Prüfer and Q summands.  It takes the group, each equation's
exponent row and right-hand-side coordinates, the variables and, when the
caller has it, the column Hermite pair of the exponent matrix, and returns a
list of coordinates per variable; it builds no equation and no element.
``_solve`` reads those inputs off an ``AbelianSystem`` and builds each
variable's element once, and the nilpotent recursion calls the core
directly with the central right-hand side of each level.  The cyclic
summands go through one engine,
``_ComponentState``: per prime it appends forward echelon rows with unit
pivots modulo the largest p**e, never rewritten, and reads the values off
them by back substitution.  A row that reduces to no unit coefficient is
refused as dependent modulo p; its witness is recomputed by
``is_p_nonsingular`` on the prefix ending at the refused row.  Divisible
summands, when there are any, take one column Hermite reduction
M*V = [L | 0], ``systems._column_hermite``, which also decides nonsingularity
over Q and refuses a singular system with Singular, and forward substitution
with exact division.  Cyclic columns are ints; a divisible column is int
numerators over one common denominator, and a Fraction is built only for a
variable's coordinate.  A ``Solution``
keeps the group its values live in, and that group writes them as JSON.
The public solvers differ only in the group each accepts:

* ``solve_mod_p``     — every summand Z/p for one prime p; refusals are PSingular.
* ``solve_bounded``   — cyclic summands only.
* ``solve_divisible`` — Prüfer and Q summands only.
* ``solve_auto``      — any mix of the three kinds, but no integer line.

``EchelonState`` feeds an equation stream to the same engine, one equation
at a time.

The verification boundary is the public call: these four solvers and the
nilpotent ones each check their answer against the input system exactly
once, through ``_checked``, before returning it; the core, ``_solve`` and
the nilpotent recursion check nothing.  The oracles check through
``_checked`` too; ``EchelonState.solution`` is not verified.  Both
brute-force oracles, ``brute_force_solve`` here and
``nilpotent.brute_force_group_solve``, are one exhaustive search,
``_first_solution``, with the oracle's own domain and equation check.
Free variables are always assigned 0 and pivots take the lowest-ordered
eligible variable, so outputs are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .abelian import CYCLIC, INTEGER, PRUFER, AbelianGroupDescriptor, GroupElement, _root
from .errors import (
    DependentRow,
    MissingPrimeNonsingularity,
    PSingular,
    SearchSpaceTooLarge,
    UnsupportedGroup,
    VerificationFailed,
)
from .intmath import inv_mod
from .systems import (
    AbelianEquation,
    AbelianSystem,
    _column_hermite,
    _exponent_matrix,
    is_p_nonsingular,
    verify_solution,
)


@dataclass(frozen=True)
class Solution:
    """An assignment of elements of ``group`` to variables; ``group`` is an
    abelian descriptor or a group handle, and encodes the values as JSON.

    Every solver's Solution is verified against its system; the one
    ``EchelonState.solution()`` returns is not (``cli.cmd_stream`` verifies it
    against the equations the state has ingested).
    """

    group: object
    assignment: dict[str, GroupElement]

    def __getitem__(self, var: str) -> GroupElement:
        return self.assignment[var]

    def to_json(self) -> dict:
        return {v: self.group.element_to_json(a) for v, a in sorted(self.assignment.items())}


def _checked(system, assignment: dict) -> Solution:
    """The assignment as a Solution of an AbelianSystem or WordSystem, or
    VerificationFailed."""
    if not verify_solution(system, assignment):
        raise VerificationFailed("solver produced a non-solution")
    return Solution(system.group, assignment)


# -- unit-pivot echelon engine -----------------------------------------------------


class _ComponentState:
    """Forward echelon rows with unit pivots over the cyclic p-summands of a
    group, modulo the largest p**e among them.  A stored row is zero on the
    earlier rows' pivots and is never rewritten.  No combinations of the
    input rows are kept: a refused row raises a bare DependentRow(p).  A
    right-hand side is the equation's coordinates at ``indices`` as ints mod
    ``modulus``, which every p-summand's own modulus divides."""

    __slots__ = ("p", "modulus", "indices", "rows")

    def __init__(self, group: AbelianGroupDescriptor, p: int):
        self.p = p
        self.indices = tuple(
            i for i, s in enumerate(group.summands) if s.kind == CYCLIC and s.p == p
        )
        self.modulus = max(group.summands[i].modulus for i in self.indices)
        # rows: (pivot var, coeff dict, rhs ints at indices)
        self.rows: list[tuple[str, dict[str, int], tuple[int, ...]]] = []

    def reduce(self, coeffs: dict[str, int], coords):
        """Reduce an equation, its coefficients and its right-hand side's
        coordinates, against the rows without changing them and scale its
        pivot to 1, ready to append to ``rows``; DependentRow if no
        coefficient is a unit."""
        m = self.modulus
        row = {v: k % m for v, k in coeffs.items() if k % m != 0}
        rhs = [coords[i] for i in self.indices]
        for pv, prow, prhs in self.rows:
            c = row.get(pv, 0)
            if c:
                for v, k in prow.items():
                    nk = (row.get(v, 0) - c * k) % m
                    if nk:
                        row[v] = nk
                    else:
                        row.pop(v, None)
                rhs = [r - c * q for r, q in zip(rhs, prhs)]
        units = [v for v, k in row.items() if k % self.p != 0]
        if not units:
            raise DependentRow(self.p)
        pv = min(units)
        inv = inv_mod(row[pv], m)
        row = {v: (inv * k) % m for v, k in row.items() if (inv * k) % m != 0}
        return pv, row, tuple(inv * r % m for r in rhs)

    def fill(self, coords: dict[str, list]) -> None:
        """Write the pivot values into coords[var] at ``indices`` by one back
        substitution, last row first: a row holds no earlier row's pivot."""
        m = self.modulus
        vals: dict[str, tuple[int, ...]] = {}
        for pv, row, rhs in reversed(self.rows):
            val = rhs
            for v, k in row.items():
                if v in vals:
                    val = [a - k * b for a, b in zip(val, vals[v])]
            vals[pv] = val = tuple(a % m for a in val)
            target = coords[pv]
            for i, c in zip(self.indices, val):
                target[i] = c


def _witness(rows, p: int) -> list[int]:
    """The combination mod p of the refused prefix rows 0..j that vanishes, 1
    on row j: rows 0..j-1 were accepted, so it is unique up to scale."""
    _, kernel = is_p_nonsingular(_exponent_matrix(rows), p)
    inv = inv_mod(kernel[-1], p)
    return [(inv * k) % p for k in kernel]


def _components(group: AbelianGroupDescriptor) -> list[_ComponentState]:
    """One engine component per prime of a cyclic summand, smallest first."""
    primes = {s.p for s in group.summands if s.kind == CYCLIC}
    return [_ComponentState(group, p) for p in sorted(primes)]


# -- batch solvers -----------------------------------------------------------------


def _solve_columns(group: AbelianGroupDescriptor, rows, rhs, variables, hermite=None):
    """The unverified answer over a group of cyclic, Prüfer and Q summands, as
    coordinate columns: a list of coordinates per variable.

    Equation i is rows[i], its exponent row (a coefficient per variable), and
    rhs[i], its right-hand side's coordinates, ints and Fractions that need
    not be canonical.  The cyclic summands are solved prime by prime,
    smallest first, in the unit-pivot echelon; a p-singular system is
    refused with MissingPrimeNonsingularity(p) for the smallest such p, its
    witness recomputed from the rows up to the refused one.  Only when the
    group has divisible summands must the system also be nonsingular over Q:
    a column change M*V = [L | 0] with L lower triangular turns M*x = b into
    L*y = b, x = V*(y, 0), and forward substitution divides down L's
    diagonal, y_i being divide_exact's pinned root of the canonical
    ±(b_i - sum_{j<i} L_ij * y_j) by |L_ii|.  So the divisible part of the
    answer is unique over Q and, over Prüfer summands, fixed by that root
    choice and by V.  Each divisible column y is kept as integer numerators
    over one common denominator, which a root multiplies, so the sums are
    plain int sums and a Fraction is built only for each variable's
    coordinate, a Prüfer numerator reduced mod the denominator first, so
    that the Fraction is canonical and ``element`` keeps it.  (L, V) is
    ``hermite`` when the caller has it, else ``_column_hermite`` of the
    rows, which refuses a singular system with Singular and
    ``is_nonsingular``'s witness.  Over the group with no summands every
    system is solved by zeros.
    """
    components = _components(group)
    for comp in components:
        for idx, (coeffs, b) in enumerate(zip(rows, rhs)):
            try:
                comp.rows.append(comp.reduce(coeffs, b))
            except DependentRow as exc:
                witness = _witness(rows[: idx + 1], comp.p) + [0] * (len(rows) - idx - 1)
                raise MissingPrimeNonsingularity(comp.p, witness=witness) from exc
    coords = {v: [0] * len(group.summands) for v in variables}
    for comp in components:
        comp.fill(coords)

    divisible = [(t, s) for t, s in enumerate(group.summands) if s.is_divisible]
    if divisible:
        L, V = _column_hermite(_exponent_matrix(rows, variables)) if hermite is None else hermite
        support = [[(j, v) for j, v in enumerate(row[: len(L)]) if v] for row in V]  # V*(y, 0)
        for t, s in divisible:
            den = math.lcm(*(b[t].denominator for b in rhs))
            y = []  # the solution of L*y = b in this column is y[j] / den
            for i, (Li, b) in enumerate(zip(L, rhs)):
                c = b[t]
                num = c.numerator * (den // c.denominator)
                num -= sum(Li[j] * y[j] for j in range(i) if Li[j])
                num, root_den = _root(s, abs(Li[i]), num if Li[i] > 0 else -num, den)
                if root_den != den:
                    y = [yj * (root_den // den) for yj in y]
                    den = root_den
                y.append(num)
            for var, entries in zip(variables, support):
                num = sum(v * y[j] for j, v in entries)
                coords[var][t] = Fraction(num % den if s.kind == PRUFER else num, den)
    return coords


def _solve(system: AbelianSystem) -> dict[str, GroupElement]:
    """``_solve_columns`` on the system's equations, each variable's element
    built once from its coordinates."""
    A = system.group
    equations = system.equations
    coords = _solve_columns(
        A, [eq.coeffs for eq in equations], [eq.rhs.coords for eq in equations], system.variables
    )
    return {v: A.element(c) for v, c in coords.items()}


def solve_mod_p(system: AbelianSystem) -> Solution:
    """Solve a p-nonsingular system over a group of prime period p."""
    summands = system.group.summands
    if any(s != summands[0] or s.kind != CYCLIC or s.e != 1 for s in summands):
        raise UnsupportedGroup("solve_mod_p needs every summand equal to Z/p")
    try:
        assignment = _solve(system)
    except MissingPrimeNonsingularity as exc:
        witness = {j: k for j, k in enumerate(exc.witness) if k}
        raise PSingular(exc.p, witness=witness) from exc
    return _checked(system, assignment)


def solve_bounded(system: AbelianSystem) -> Solution:
    """Solve over a bounded-period group by ingesting every equation into the
    per-prime unit-pivot echelon.

    Requires p-nonsingularity for every prime p dividing the period; other
    primes cannot obstruct solvability over such a group.  Components are
    filled smallest prime first, so a refusal names the smallest such p.
    """
    if not system.group.is_bounded:
        raise UnsupportedGroup("solve_bounded needs a bounded-period (finite cyclic sum) group")
    return _checked(system, _solve(system))


def solve_divisible(system: AbelianSystem) -> Solution:
    """Solve a nonsingular system over a divisible group (Prüfer and Q summands)
    by one column Hermite reduction and forward substitution (see ``_solve``)."""
    if not system.group.is_divisible:
        raise UnsupportedGroup("solve_divisible needs every summand divisible")
    return _checked(system, _solve(system))


def solve_auto(system: AbelianSystem) -> Solution:
    """Solve over a mixed group: the bounded reduced part needs p-nonsingularity
    for its period primes, a divisible part nonsingularity over Q; over the
    trivial group everything is solvable by zeros."""
    if any(s.kind == INTEGER for s in system.group.summands):
        raise UnsupportedGroup("no solver for groups with integer-line summands")
    return _checked(system, _solve(system))


# -- incremental streaming solver -------------------------------------------------


class EchelonState:
    """Incremental solver state for an equation stream over a bounded group.

    Ingesting equation i of a stream whose every truncation is p-nonsingular
    (for all p dividing the group period) always yields a fresh unit pivot;
    a reduced row with no unit coefficient means the stream broke the
    contract and raises DependentRow with the offending combination.  The
    echelon keeps no combinations: the state keeps the ingested equations,
    and the witness is recomputed from them and the refused one.
    """

    def __init__(self, group: AbelianGroupDescriptor):
        if not group.is_bounded:
            raise UnsupportedGroup("streaming needs a bounded-period group")
        self.group = group
        self.equations: list[AbelianEquation] = []
        self.variables: set[str] = set()
        self.components = _components(group)

    @property
    def count(self) -> int:
        return len(self.equations)

    def ingest(self, eq: AbelianEquation) -> EchelonState:
        """Fold one equation in; on DependentRow the state is left unchanged."""
        if eq.rhs.descriptor != self.group:
            raise UnsupportedGroup("equation over a different group")
        try:
            staged = [comp.reduce(eq.coeffs, eq.rhs.coords) for comp in self.components]
        except DependentRow as exc:
            witness = _witness([e.coeffs for e in (*self.equations, eq)], exc.p)
            raise DependentRow(exc.p, witness={j: k for j, k in enumerate(witness) if k}) from None
        for comp, row in zip(self.components, staged):
            comp.rows.append(row)
        self.equations.append(eq)
        self.variables |= eq.variables()
        return self

    def solution(self) -> Solution:
        """The current answer for the equations ingested so far, unverified."""
        coords = {v: [0] * len(self.group.summands) for v in sorted(self.variables)}
        for comp in self.components:
            comp.fill(coords)
        return Solution(self.group, {v: self.group.element(c) for v, c in coords.items()})


# -- brute force oracles -----------------------------------------------------------


BRUTE_FORCE_LIMIT = 10**7


def _first_solution(variables, size, domain, equations, holds) -> dict | None:
    """The first assignment of values from ``domain`` to ``variables`` under
    which every equation holds, or None when there is none.

    The search is exhaustive and depth first: variables are assigned in
    order and values tried in domain order, so the first hit is the least
    one in that order.  ``equations`` holds (support, equation) pairs, and
    each equation is checked, as holds(equation, assignment), once the last
    variable of its support is assigned; those with an empty support are
    checked first.  A space of more than BRUTE_FORCE_LIMIT assignments, for
    ``size`` values per variable, is refused with SearchSpaceTooLarge before
    the domain is listed.
    """
    n = len(variables)
    if size ** max(n, 1) > BRUTE_FORCE_LIMIT:
        raise SearchSpaceTooLarge(f"{size}**{n} exceeds {BRUTE_FORCE_LIMIT}")
    stages: list[list] = [[] for _ in range(n + 1)]
    for support, eq in equations:
        stages[max(map(variables.index, support), default=-1) + 1].append(eq)
    assignment: dict = {}
    if not all(holds(eq, assignment) for eq in stages[0]):
        return None
    domain = list(domain)

    def search(depth: int) -> bool:
        if depth == n:
            return True
        var, stage = variables[depth], stages[depth + 1]
        for candidate in domain:
            assignment[var] = candidate
            if all(holds(eq, assignment) for eq in stage) and search(depth + 1):
                return True
        return False

    return {v: assignment[v] for v in variables} if search(0) else None


def brute_force_solve(system: AbelianSystem) -> Solution | None:
    """Exhaustive search over a finite group, in deterministic order.

    Variables are tried in sorted order and elements in coordinate-lattice
    order, so the first solution found is the lexicographically least one.
    Equations are checked as soon as all their variables are assigned.
    Returns None when the whole space is exhausted without a solution.
    """
    A = system.group
    if not A.is_bounded:
        raise UnsupportedGroup("brute force needs a finite group")
    columns = list(enumerate(s.modulus for s in A.summands))

    def holds(eq, assignment) -> bool:
        support, rhs = eq
        for j, m in columns:
            total = 0
            for v, k in support:
                total += k * assignment[v][j]
            if total % m != rhs[j]:
                return False
        return True

    # each equation's support and right-hand side, read once
    equations = [
        (eq.coeffs, (list(eq.coeffs.items()), tuple(map(int, eq.rhs.coords))))
        for eq in system.equations
    ]
    domain = itertools.product(*(range(m) for _, m in columns))
    found = _first_solution(system.variables, A.size(), domain, equations, holds)
    return None if found is None else _checked(system, {v: A.element(c) for v, c in found.items()})
