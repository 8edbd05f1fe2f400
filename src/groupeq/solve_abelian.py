"""Constructive solvers for abelian systems.

One private core, ``_solve``, answers every abelian system over cyclic,
Prüfer and Q summands.  The cyclic summands go through one engine,
``_ComponentState``: per prime it appends forward echelon rows with unit
pivots modulo the largest p**e, never rewritten, and reads the values off
them by back substitution.  A row that reduces to no unit coefficient is
refused as dependent modulo p; its witness is recomputed by
``is_p_nonsingular`` on the prefix ending at the refused row.  Divisible
summands, when there are any, take one column Hermite reduction
M*V = [L | 0], which also decides nonsingularity over Q, and forward
substitution with exact division.  The public solvers differ only in the
group each accepts:

* ``solve_mod_p``     — every summand Z/p for one prime p; refusals are PSingular.
* ``solve_bounded``   — cyclic summands only.
* ``solve_divisible`` — Prüfer and Q summands only.
* ``solve_auto``      — any mix of the three kinds, but no integer line.

``EchelonState`` feeds an equation stream to the same engine, one equation
at a time.

The verification boundary is the public call: these four solvers and the
nilpotent ones each check their answer against the input system exactly
once, through ``_checked``, before returning it; ``_solve`` and the nilpotent
recursion that calls it check nothing.  The oracles check through
``_checked`` too; ``EchelonState.solution`` is not verified.  Free variables
are always assigned 0 and pivots take the lowest-ordered eligible variable,
so outputs are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abelian import (
    CYCLIC,
    INTEGER,
    AbelianGroupDescriptor,
    GroupElement,
    _coords_to_json,
    divide_exact,
    element_to_json,
    embed_at,
)
from .errors import (
    DependentRow,
    MissingPrimeNonsingularity,
    NotPiNonsingular,
    PSingular,
    SearchSpaceTooLarge,
    Singular,
    UnsupportedGroup,
    VerificationFailed,
)
from .intmath import inv_mod
from .systems import (
    AbelianEquation,
    AbelianSystem,
    _column_hermite,
    _exponent_matrix,
    is_nonsingular,
    is_p_nonsingular,
    verify_solution,
)


def _encode_value(value):
    if isinstance(value, GroupElement):
        return element_to_json(value)
    if isinstance(value, tuple):  # Heisenberg triple of ring scalars
        return _coords_to_json(value)
    return value  # table group index


@dataclass(frozen=True)
class Solution:
    """An assignment of group elements to variables.

    Every solver's Solution is verified against its system; the one
    ``EchelonState.solution()`` returns is not (``cli.cmd_stream`` verifies it
    against the stream truncation).
    """

    assignment: dict[str, GroupElement]

    def __getitem__(self, var: str) -> GroupElement:
        return self.assignment[var]

    def to_json(self) -> dict:
        return {v: _encode_value(a) for v, a in sorted(self.assignment.items())}


def _checked(system, assignment: dict) -> Solution:
    """The assignment as a Solution of an AbelianSystem or WordSystem, or
    VerificationFailed."""
    if not verify_solution(system, assignment):
        raise VerificationFailed("solver produced a non-solution")
    return Solution(assignment)


# -- unit-pivot echelon engine -----------------------------------------------------


class _ComponentState:
    """Forward echelon rows with unit pivots over the cyclic p-summands of a
    group, modulo the largest p**e among them.  A stored row is zero on the
    earlier rows' pivots and is never rewritten.  No combinations of the
    input rows are kept: a refused row raises a bare DependentRow(p)."""

    __slots__ = ("p", "modulus", "sub", "indices", "rows")

    def __init__(self, group: AbelianGroupDescriptor, p: int):
        self.p = p
        self.indices = tuple(
            i for i, s in enumerate(group.summands) if s.kind == CYCLIC and s.p == p
        )
        self.sub = AbelianGroupDescriptor(group.summands[i] for i in self.indices)
        self.modulus = max(s.modulus for s in self.sub.summands)
        # rows: (pivot var, coeff dict, rhs element of sub)
        self.rows: list[tuple[str, dict[str, int], GroupElement]] = []

    def reduce(self, eq: AbelianEquation):
        """Reduce an equation against the rows without changing them and scale
        its pivot to 1; DependentRow if no coefficient is a unit."""
        m = self.modulus
        row = {v: k % m for v, k in eq.coeffs.items() if k % m != 0}
        terms = [(self.sub.element(eq.rhs.coords[i] for i in self.indices), 1)]
        for pv, prow, prhs in self.rows:
            c = row.get(pv, 0)
            if c:
                for v, k in prow.items():
                    nk = (row.get(v, 0) - c * k) % m
                    if nk:
                        row[v] = nk
                    else:
                        row.pop(v, None)
                terms.append((prhs, -c))
        units = [v for v, k in row.items() if k % self.p != 0]
        if not units:
            raise DependentRow(self.p)
        pv = min(units)
        inv = inv_mod(row[pv], m)
        row = {v: (inv * k) % m for v, k in row.items() if (inv * k) % m != 0}
        return pv, row, self.sub.combine((g, inv * n) for g, n in terms)

    def commit(self, staged) -> None:
        """Append a row staged by ``reduce``; no stored row changes."""
        self.rows.append(staged)

    def values(self) -> dict[str, GroupElement]:
        """The pivot values by one back substitution, last row first, with
        free variables 0: a row holds no earlier row's pivot."""
        vals: dict[str, GroupElement] = {}
        for pv, row, rhs in reversed(self.rows):
            terms = [(vals[v], -k) for v, k in row.items() if v in vals]
            vals[pv] = self.sub.combine([(rhs, 1), *terms]) if terms else rhs
        return vals


def _witness(equations, p: int) -> list[int]:
    """The combination mod p of the refused prefix rows 0..j that vanishes, 1
    on row j: rows 0..j-1 were accepted, so it is unique up to scale."""
    _, kernel = is_p_nonsingular(_exponent_matrix(equations), p)
    inv = inv_mod(kernel[-1], p)
    return [(inv * k) % p for k in kernel]


def _components(group: AbelianGroupDescriptor) -> list[_ComponentState]:
    """One engine component per prime of a cyclic summand, smallest first."""
    primes = {s.p for s in group.summands if s.kind == CYCLIC}
    return [_ComponentState(group, p) for p in sorted(primes)]


def _assemble(group: AbelianGroupDescriptor, components, variables) -> dict[str, GroupElement]:
    """Recombine the components' pivot values; free variables are 0."""
    coords = {v: [0] * len(group.summands) for v in variables}
    for comp in components:
        for v, val in comp.values().items():
            for i, c in zip(comp.indices, val.coords):
                coords[v][i] = c
    return {v: group.element(c) for v, c in coords.items()}


# -- batch solvers -----------------------------------------------------------------


def _solve(system: AbelianSystem) -> dict[str, GroupElement]:
    """The unverified answer over a group of cyclic, Prüfer and Q summands.

    The cyclic summands are solved prime by prime, smallest first, in the
    unit-pivot echelon; a p-singular system is refused with
    MissingPrimeNonsingularity(p) for the smallest such p, its witness
    recomputed from the rows up to the refused one.  Only when the group has
    divisible summands must the system also be nonsingular over Q: a column
    change M*V = [L | 0] with L lower triangular turns M*x = b into
    L*y = b, x = V*(y, 0), and forward substitution divides down L's
    diagonal, y_i being divide_exact's pinned root of
    |L_ii| * y_i = ±(b_i - sum_{j<i} L_ij * y_j).  So the divisible part of
    the answer is unique over Q and, over Prüfer summands, fixed by that root
    choice and by V.  The column reduction also decides nonsingularity over
    Q: it fails exactly at a row that depends on the rows before it, and only
    then does ``is_nonsingular`` run, to name the Singular witness.  Over the
    group with no summands every system is solved by zeros.
    """
    A = system.group
    components = _components(A)
    for comp in components:
        for idx, eq in enumerate(system.equations):
            try:
                comp.commit(comp.reduce(eq))
            except DependentRow as exc:
                witness = _witness(system.equations[: idx + 1], comp.p)
                witness += [0] * (len(system.equations) - idx - 1)
                raise MissingPrimeNonsingularity(comp.p, witness=witness) from exc
    assignment = _assemble(A, components, system.variables)

    indices = tuple(i for i, s in enumerate(A.summands) if s.is_divisible)
    if not indices:
        return assignment
    D = AbelianGroupDescriptor(A.summands[i] for i in indices)
    rows = system.matrix()
    try:
        L, V = _column_hermite(rows)
    except NotPiNonsingular:
        raise Singular(witness=is_nonsingular(rows)[1]) from None
    y = []
    for i, eq in enumerate(system.equations):
        sign = 1 if L[i][i] > 0 else -1
        rhs = D.element(eq.rhs.coords[j] for j in indices)
        terms = [(rhs, sign), *((y[j], -sign * L[i][j]) for j in range(i) if L[i][j])]
        y.append(divide_exact(abs(L[i][i]), D.combine(terms)))
    for r, var in enumerate(system.variables):
        x = D.combine((yj, V[r][j]) for j, yj in enumerate(y) if V[r][j])
        assignment[var] = assignment[var] + embed_at(A, indices, x)
    return assignment


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
            staged = [comp.reduce(eq) for comp in self.components]
        except DependentRow as exc:
            witness = _witness([*self.equations, eq], exc.p)
            raise DependentRow(exc.p, witness={j: k for j, k in enumerate(witness) if k}) from None
        for comp, row in zip(self.components, staged):
            comp.commit(row)
        self.equations.append(eq)
        self.variables |= eq.variables()
        return self

    def solution(self) -> Solution:
        """The current answer for the equations ingested so far, unverified."""
        return Solution(_assemble(self.group, self.components, sorted(self.variables)))


# -- brute force oracle -------------------------------------------------------------


BRUTE_FORCE_LIMIT = 10**7


def brute_force_solve(system: AbelianSystem) -> Solution | None:
    """Exhaustive search over a finite group, in deterministic order.

    Variables are tried in sorted order and elements in coordinate-lattice
    order, so the first solution found is the lexicographically least one.
    Equations are checked as soon as all their variables are assigned.
    Returns None when the whole space is exhausted without a solution.
    """
    A = system.group
    size = A.size()
    if not A.is_bounded:
        raise UnsupportedGroup("brute force needs a finite group")
    variables = system.variables
    if size**max(len(variables), 1) > BRUTE_FORCE_LIMIT:
        raise SearchSpaceTooLarge(f"{size}**{len(variables)} exceeds {BRUTE_FORCE_LIMIT}")

    moduli = [s.modulus for s in A.summands]
    var_index = {v: i for i, v in enumerate(variables)}
    checkpoints: list[list[tuple[list[tuple[int, int]], tuple[int, ...]]]] = [
        [] for _ in range(len(variables) + 1)
    ]
    for eq in system.equations:
        support = [(var_index[v], k) for v, k in sorted(eq.coeffs.items())]
        last = max((i for i, _ in support), default=-1)
        checkpoints[last + 1].append((support, tuple(int(c) for c in eq.rhs.coords)))

    # equations with empty support constrain nothing but their rhs
    for _, rhs in checkpoints[0]:
        if any(c != 0 for c in rhs):
            return None

    domain = list(itertools.product(*(range(m) for m in moduli))) if moduli else [()]
    values: list[tuple[int, ...]] = [None] * len(variables)

    def satisfied(support, rhs) -> bool:
        for j in range(len(moduli)):
            total = 0
            for vi, k in support:
                total += k * values[vi][j]
            if total % moduli[j] != rhs[j]:
                return False
        return True

    def search(depth: int):
        if depth == len(variables):
            return {v: A.element(values[i]) for i, v in enumerate(variables)}
        for candidate in domain:
            values[depth] = candidate
            if all(satisfied(s, r) for s, r in checkpoints[depth + 1]):
                found = search(depth + 1)
                if found is not None:
                    return found
        values[depth] = None
        return None

    assignment = search(0)
    if assignment is None:
        return None
    return _checked(system, assignment)
