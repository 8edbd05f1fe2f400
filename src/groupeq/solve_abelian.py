"""Constructive solvers for abelian systems.

One engine, ``_ComponentState``, does every elimination over a bounded
group: per primary component it keeps a fully reduced echelon basis with
unit pivots modulo p**e.  A row that reduces to no unit coefficient is
dependent modulo p and is refused with its witness combination.

* ``solve_mod_p``     — one ingest pass over a group of prime period p.
* ``solve_bounded``   — ingest every equation into the per-prime unit-pivot
                        echelon and recombine the primary coordinates.
* ``solve_divisible`` — square reduction plus Smith normal form, then exact
                        division in Prüfer/rational coordinates.
* ``solve_p_group``   — the paper's literal lifting through A ⊃ pA ⊃ p²A ⊃ ...,
                        kept as a cross-check of the engine; no route calls it.

``solve_auto`` combines the bounded and divisible routes.  ``EchelonState``
feeds an equation stream to the same engine, one equation at a time.

Every solver verifies its answer against the input system before returning.
Free variables are always assigned 0 and pivots take the lowest-ordered
eligible variable, so outputs are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .abelian import (
    AbelianGroupDescriptor,
    GroupElement,
    Summand,
    classify,
    element_to_json,
    mod_p_quotient,
    primary_part,
)
from .errors import (
    DependentRow,
    MissingPrimeNonsingularity,
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
    is_nonsingular,
    reduce_to_square,
    smith_normal_form,
    verify_solution,
)


def _encode_value(value):
    if isinstance(value, GroupElement):
        return element_to_json(value)
    if isinstance(value, tuple):  # Heisenberg triple of ring scalars
        return [
            f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else str(c)
            for c in value
        ]
    return value  # table group index


@dataclass(frozen=True)
class Solution:
    """A verified assignment of group elements to variables."""

    assignment: dict[str, GroupElement]

    def __getitem__(self, var: str) -> GroupElement:
        return self.assignment[var]

    def to_json(self) -> dict:
        return {v: _encode_value(a) for v, a in sorted(self.assignment.items())}


def _checked(system: AbelianSystem, assignment: dict[str, GroupElement]) -> Solution:
    if not verify_solution(system, assignment):
        raise VerificationFailed("solver produced a non-solution")
    return Solution(assignment)


# -- unit-pivot echelon engine -----------------------------------------------------


def _subtract_multiple(target: dict, source: dict, c: int, m: int) -> None:
    """target -= c * source modulo m, in place, keeping only nonzero entries."""
    for key, k in source.items():
        nk = (target.get(key, 0) - c * k) % m
        if nk:
            target[key] = nk
        else:
            target.pop(key, None)


class _ComponentState:
    """Reduced echelon rows with unit pivots over the p-primary part of a group,
    computed modulo the largest p**e among its summands."""

    __slots__ = ("p", "modulus", "sub", "indices", "rows", "pivot_row")

    def __init__(self, group: AbelianGroupDescriptor, p: int):
        self.p = p
        self.sub, self.indices = primary_part(group, p)
        self.modulus = max(s.modulus for s in self.sub.summands)
        # rows: (pivot var, coeff dict, rhs element of sub, combination of input rows)
        self.rows: list[tuple[str, dict[str, int], GroupElement, dict[int, int]]] = []
        self.pivot_row: dict[str, int] = {}

    def reduce(self, index: int, eq: AbelianEquation):
        """Reduce equation ``index`` against the rows without changing them and
        scale its pivot to 1; DependentRow if no coefficient is a unit."""
        m = self.modulus
        row = {v: k % m for v, k in eq.coeffs.items() if k % m != 0}
        rhs = self.sub.element(eq.rhs.coords[i] for i in self.indices)
        comb = {index: 1}
        for pv, prow, prhs, pcomb in self.rows:
            c = row.get(pv, 0)
            if c:
                _subtract_multiple(row, prow, c, m)
                _subtract_multiple(comb, pcomb, c, m)
                rhs = rhs - prhs.scale(c)
        units = [v for v, k in row.items() if k % self.p != 0]
        if not units:
            witness = {j: k % self.p for j, k in sorted(comb.items()) if k % self.p != 0}
            raise DependentRow(self.p, witness=witness)
        pv = min(units)
        inv = inv_mod(row[pv], m)
        row = {v: (inv * k) % m for v, k in row.items() if (inv * k) % m != 0}
        comb = {j: (inv * k) % m for j, k in comb.items()}
        return pv, row, rhs.scale(inv), comb

    def commit(self, staged) -> None:
        """Clear the staged row's pivot from every row, then append it."""
        pv, row, rhs, comb = staged
        m = self.modulus
        for i, (opv, orow, orhs, ocomb) in enumerate(self.rows):
            c = orow.get(pv, 0)
            if c:
                _subtract_multiple(orow, row, c, m)
                _subtract_multiple(ocomb, comb, c, m)
                self.rows[i] = (opv, orow, orhs - rhs.scale(c), ocomb)
        self.pivot_row[pv] = len(self.rows)
        self.rows.append(staged)

    def ingest(self, index: int, eq: AbelianEquation) -> None:
        self.commit(self.reduce(index, eq))

    def value_of(self, var: str) -> GroupElement | None:
        i = self.pivot_row.get(var)
        return None if i is None else self.rows[i][2]


def _components(group: AbelianGroupDescriptor) -> list[_ComponentState]:
    """One engine component per prime dividing the period, smallest first."""
    return [_ComponentState(group, p) for p in sorted({s.p for s in group.summands})]


def _assemble(group: AbelianGroupDescriptor, components, variables) -> dict[str, GroupElement]:
    """Recombine the components' pivot values; free variables are 0."""
    assignment = {}
    for v in variables:
        coords = [0] * len(group.summands)
        for comp in components:
            val = comp.value_of(v)
            if val is not None:
                for i, c in zip(comp.indices, val.coords):
                    coords[i] = c
        assignment[v] = group.element(coords)
    return assignment


# -- batch solvers -----------------------------------------------------------------


def solve_mod_p(system: AbelianSystem) -> Solution:
    """Solve a p-nonsingular system over a group of prime period p."""
    A = system.group
    if not A.summands:
        return _checked(system, {v: A.zero() for v in system.variables})
    p = A.summands[0].p
    if any(s.kind != "cyclic" or s.p != p or s.e != 1 for s in A.summands):
        raise UnsupportedGroup("solve_mod_p needs every summand equal to Z/p")

    comp = _ComponentState(A, p)
    try:
        for idx, eq in enumerate(system.equations):
            comp.ingest(idx, eq)
    except DependentRow as exc:
        raise PSingular(p, witness=exc.witness) from exc
    return _checked(system, _assemble(A, [comp], system.variables))


def _p_subgroup(A: AbelianGroupDescriptor):
    """pA of a bounded p-group, with the positions of the surviving summands."""
    kept = [(i, s) for i, s in enumerate(A.summands) if s.e >= 2]
    sub = AbelianGroupDescriptor(Summand.cyclic(s.p, s.e - 1) for _, s in kept)
    return sub, tuple(i for i, _ in kept)


def solve_p_group(system: AbelianSystem) -> Solution:
    """Lift a solution through A ⊃ pA ⊃ p²A ⊃ ... for a bounded p-group A.

    Round r solves the induced system over the current quotient mod p,
    subtracts the lifted representatives, checks the residual right-hand
    side is divisible by p (i.e. lies in p**(r+1) * A relative to the
    original group), and descends into pA, whose period exponent is one
    lower.  The answer is the accumulated sum of lifts p**r * c_r.
    """
    A = system.group
    if any(s.kind != "cyclic" for s in A.summands):
        raise UnsupportedGroup("solve_p_group needs a finite direct sum of cyclic p-groups")
    if not A.summands:
        return _checked(system, {v: A.zero() for v in system.variables})
    p = A.summands[0].p
    if any(s.p != p for s in A.summands):
        raise UnsupportedGroup("solve_p_group needs a single prime")

    acc = {v: [0] * len(A.summands) for v in system.variables}
    work = A
    positions = tuple(range(len(A.summands)))
    rhs = [eq.rhs for eq in system.equations]
    coeff_rows = [eq.coeffs for eq in system.equations]
    r = 0
    while work.summands:
        quot = mod_p_quotient(work, p)
        induced = AbelianSystem(
            quot.group,
            [AbelianEquation(row, quot.project(b)) for row, b in zip(coeff_rows, rhs)],
            variables=system.variables,
        )
        base = solve_mod_p(induced)
        lift = {v: quot.section(x) for v, x in base.assignment.items()}
        for v in system.variables:
            for i, c in zip(positions, lift[v].coords):
                acc[v][i] += p**r * int(c)

        sub, kept = _p_subgroup(work)
        residual = []
        for row, b in zip(coeff_rows, rhs):
            for v, k in row.items():
                b = b - lift[v].scale(k)
            if any(int(c) % p for c in b.coords):
                raise VerificationFailed("residual escaped pA during lifting")
            residual.append(sub.element(int(b.coords[i]) // p for i in kept))
        work = sub
        positions = tuple(positions[i] for i in kept)
        rhs = residual
        r += 1

    assignment = {v: A.element(acc[v]) for v in system.variables}
    return _checked(system, assignment)


def solve_bounded(system: AbelianSystem) -> Solution:
    """Solve over a bounded-period group by ingesting every equation into the
    per-prime unit-pivot echelon.

    Requires p-nonsingularity for every prime p dividing the period; other
    primes cannot obstruct solvability over such a group.  Components are
    filled smallest prime first, so a refusal names the smallest such p.
    """
    A = system.group
    if not A.is_bounded:
        raise UnsupportedGroup("solve_bounded needs a bounded-period (finite cyclic sum) group")
    components = _components(A)
    for comp in components:
        try:
            for idx, eq in enumerate(system.equations):
                comp.ingest(idx, eq)
        except DependentRow as exc:
            witness = [exc.witness.get(j, 0) for j in range(len(system.equations))]
            raise MissingPrimeNonsingularity(comp.p, witness=witness) from exc
    return _checked(system, _assemble(A, components, system.variables))


def solve_divisible(system: AbelianSystem) -> Solution:
    """Solve a nonsingular system over a divisible group (Prüfer and Q summands).

    Squares the system if needed, diagonalizes U*M*V = D, transports the
    right-hand sides through U, divides coordinate-wise, and maps back
    through V and the square reduction.
    """
    from .abelian import divide_exact

    A = system.group
    if not A.is_divisible:
        raise UnsupportedGroup("solve_divisible needs every summand divisible")
    ok, witness = is_nonsingular(system.matrix())
    if not ok:
        raise Singular(witness=witness)
    square, back = reduce_to_square(system)

    M = square.matrix()
    U, D, V = smith_normal_form(M)
    k = len(square.equations)
    zero = A.zero()
    b = []
    for i in range(k):
        acc = zero
        for j in range(k):
            if U[i][j] != 0:
                acc = acc + square.equations[j].rhs.scale(U[i][j])
        b.append(acc)
    z = []
    for i in range(k):
        d = D[i][i]
        assert d != 0, "zero elementary divisor in a nonsingular system"
        z.append(divide_exact(d, b[i]))
    assignment = {}
    for r, var in enumerate(M.columns):
        acc = zero
        for j in range(k):
            if V[r][j] != 0:
                acc = acc + z[j].scale(V[r][j])
        assignment[var] = acc
    full = back(assignment)
    for v in system.variables:
        full.setdefault(v, zero)
    return _checked(system, full)


def solve_auto(system: AbelianSystem) -> Solution:
    """Dispatch over a mixed group: split off the divisible part, solve the
    bounded reduced part by primary decomposition, and recombine.

    The reduced side checks p-nonsingularity for its period primes, the
    divisible side checks nonsingularity over Q; over the trivial group
    everything is solvable by zeros.
    """
    A = system.group
    info = classify(A)
    if not info.reduced_bounded:
        raise UnsupportedGroup("no solver for groups with integer-line summands")

    solutions = []
    if info.reduced_indices:
        reduced_system = AbelianSystem(
            info.reduced,
            [
                AbelianEquation(
                    eq.coeffs, info.reduced.element(eq.rhs.coords[i] for i in info.reduced_indices)
                )
                for eq in system.equations
            ],
            variables=system.variables,
        )
        solutions.append((info.reduced_indices, solve_bounded(reduced_system)))
    if info.divisible_indices:
        divisible_system = AbelianSystem(
            info.divisible,
            [
                AbelianEquation(
                    eq.coeffs,
                    info.divisible.element(eq.rhs.coords[i] for i in info.divisible_indices),
                )
                for eq in system.equations
            ],
            variables=system.variables,
        )
        solutions.append((info.divisible_indices, solve_divisible(divisible_system)))

    assignment = {}
    for v in system.variables:
        coords = [0] * len(A.summands)
        for indices, sol in solutions:
            for i, c in zip(indices, sol.assignment[v].coords):
                coords[i] = c
        assignment[v] = A.element(coords)
    return _checked(system, assignment)


# -- incremental streaming solver -------------------------------------------------


class EchelonState:
    """Incremental solver state for an equation stream over a bounded group.

    Ingesting equation i of a stream whose every truncation is p-nonsingular
    (for all p dividing the group period) always yields a fresh unit pivot;
    a reduced row with no unit coefficient means the stream broke the
    contract and raises DependentRow with the offending combination.
    """

    def __init__(self, group: AbelianGroupDescriptor):
        if not group.is_bounded:
            raise UnsupportedGroup("streaming needs a bounded-period group")
        self.group = group
        self.count = 0
        self.variables: set[str] = set()
        self.components = _components(group)

    def ingest(self, eq: AbelianEquation) -> EchelonState:
        """Fold one equation in; on DependentRow the state is left unchanged."""
        if eq.rhs.descriptor != self.group:
            raise UnsupportedGroup("equation over a different group")
        staged = [comp.reduce(self.count, eq) for comp in self.components]
        for comp, row in zip(self.components, staged):
            comp.commit(row)
        self.count += 1
        self.variables |= eq.variables()
        return self

    def solution(self) -> Solution:
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
