"""Equations, systems, streams, exponent matrices and their singularity
classification: nonsingular / p-nonsingular / unimodular, decided exactly.

Rank over Q uses integer-preserving (fraction-free) elimination, which also
yields a nonzero maximal minor; rank mod p uses elimination over the field
of p elements.  Elementary divisors, and with them unimodularity, come from
a Smith form over the integers modulo that minor, which covers all primes at
once without factoring and without building transforms; smith_normal_form
(with its transforms) remains for the divisible solver.
Failed classifications return a witness: a nonzero integer combination of
rows that vanishes (mod p where applicable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .abelian import (
    AbelianGroupDescriptor,
    GroupElement,
    element_from_json,
    element_to_json,
    int_from_json,
)
from .errors import DescriptorMismatch, MissingVariable, NotPiNonsingular, ParseError
from .intmath import check_prime

# -- equations ----------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    """A literal group coefficient inside a word."""

    value: object


@dataclass(frozen=True)
class VarPow:
    """A literal x**exp inside a word; exp is a nonzero integer."""

    var: str
    exp: int

    def __post_init__(self):
        if self.exp == 0:
            raise ValueError("variable literals must have nonzero exponent")


@dataclass(frozen=True)
class GroupEquation:
    """A word w = 1 over some group: an alternating list of Const/VarPow literals."""

    word: tuple

    def __init__(self, word):
        object.__setattr__(self, "word", tuple(word))

    def variables(self) -> set[str]:
        return {lit.var for lit in self.word if isinstance(lit, VarPow)}


class AbelianEquation:
    """k_1*x_1 + ... + k_n*x_n = rhs with a finitely supported coefficient row."""

    __slots__ = ("coeffs", "rhs")

    def __init__(self, coeffs: dict[str, int], rhs: GroupElement):
        self.coeffs = {v: int(k) for v, k in coeffs.items() if int(k) != 0}
        self.rhs = rhs

    def variables(self) -> set[str]:
        return set(self.coeffs)

    def __repr__(self) -> str:
        lhs = " + ".join(f"{k}*{v}" for v, k in sorted(self.coeffs.items())) or "0"
        return f"{lhs} = {self.rhs!r}"


def exponent_row(eq) -> dict[str, int]:
    """Total exponent of each variable in an equation; zero sums are dropped."""
    if isinstance(eq, AbelianEquation):
        return dict(eq.coeffs)
    row: dict[str, int] = {}
    for lit in eq.word:
        if isinstance(lit, VarPow):
            row[lit.var] = row.get(lit.var, 0) + lit.exp
    return {v: k for v, k in row.items() if k != 0}


# -- systems and streams --------------------------------------------------------


class AbelianSystem:
    """A finite system of abelian equations over one group descriptor."""

    def __init__(self, group: AbelianGroupDescriptor, equations, variables=None):
        self.group = group
        self.equations = list(equations)
        for eq in self.equations:
            if eq.rhs.descriptor != group:
                raise DescriptorMismatch("equation rhs lives in a different group")
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


@dataclass(frozen=True)
class EquationStream:
    """A deterministic, replayable source of equations over a fixed group.

    ``gen(i)`` must return the identical equation every time it is called
    with the same index; a truncation is the finite system of the first N
    equations.  Families whose ambient group grows with the depth are
    exposed as per-depth truncations by the counterexample generators
    instead of as streams.
    """

    group: AbelianGroupDescriptor
    gen: Callable[[int], AbelianEquation]

    def truncation(self, n: int) -> AbelianSystem:
        return AbelianSystem(self.group, [self.gen(i) for i in range(n)])


# -- exponent matrices ----------------------------------------------------------


class ExponentMatrix:
    """Integer matrix with finitely supported rows, columns labeled by variables."""

    def __init__(self, columns, rows):
        self.columns = tuple(columns)
        index = {v: j for j, v in enumerate(self.columns)}
        self.rows = []
        for row in rows:
            if isinstance(row, dict):
                dense = [0] * len(self.columns)
                for v, k in row.items():
                    if k != 0:
                        dense[index[v]] = int(k)
                self.rows.append(dense)
            else:
                self.rows.append([int(k) for k in row])

    @classmethod
    def from_equations(cls, equations, variables=None) -> ExponentMatrix:
        if variables is None:
            seen = set()
            for eq in equations:
                seen |= set(exponent_row(eq))
            variables = sorted(seen)
        return cls(variables, [exponent_row(eq) for eq in equations])

    @classmethod
    def from_dense(cls, rows) -> ExponentMatrix:
        width = max((len(r) for r in rows), default=0)
        return cls([f"c{j}" for j in range(width)], [list(r) + [0] * (width - len(r)) for r in rows])

    def dense(self) -> list[list[int]]:
        return [row[:] for row in self.rows]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.columns)


def _dense(M) -> list[list[int]]:
    if isinstance(M, ExponentMatrix):
        return M.dense()
    return [list(map(int, row)) for row in M]


def _rank_over_q(rows):
    """Content-scaled elimination over Q.

    Returns (rank, minor, witness): minor is |det M[I, J]| > 0 for the pivot
    rows I and pivot columns J (1 when the rank is 0), and witness is a
    nonzero integer combination of the rows equal to the zero row, or None
    when the rows are independent.
    """
    k = len(rows)
    if k == 0:
        return 0, 1, None
    n = len(rows[0]) if rows else 0
    work = [row[:] for row in rows]
    trace = [[int(i == j) for j in range(k)] for i in range(k)]
    label = list(range(k))  # the original row at each position
    pivots = 1
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, k) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        trace[r], trace[pivot] = trace[pivot], trace[r]
        label[r], label[pivot] = label[pivot], label[r]
        p = work[r][c]
        pivots *= p
        for i in range(r + 1, k):
            a = work[i][c]
            if a == 0:
                continue
            g = math.gcd(p, a)
            mp, ma = p // g, a // g
            work[i] = [mp * x - ma * y for x, y in zip(work[i], work[r])]
            trace[i] = [mp * x - ma * y for x, y in zip(trace[i], trace[r])]
            # scaling both rows by their common content keeps work = trace * M
            # while bounding coefficient growth
            content = math.gcd(*work[i], *trace[i])
            if content > 1:
                work[i] = [x // content for x in work[i]]
                trace[i] = [x // content for x in trace[i]]
        r += 1
        if r == k:
            break
    # trace row t combines original rows label[0..t] only, so restricted to
    # the pivot rows it is lower triangular and det(work[:r, J]) = prod of
    # pivots = det(that triangle) * det M[I, J]
    scale = 1
    for t in range(r):
        scale *= trace[t][label[t]]
    minor = abs(pivots) // abs(scale)
    if r == k:
        return r, minor, None
    witness = trace[r]
    g = math.gcd(*witness)
    witness = [w // g for w in witness]
    lead = next(w for w in witness if w != 0)
    if lead < 0:
        witness = [-w for w in witness]
    return r, minor, witness


def is_nonsingular(M):
    """True iff the rows are linearly independent over Q.

    Returns (ok, witness): on failure the witness is a nonzero integer
    combination of the rows equal to the zero row.
    """
    rows = _dense(M)
    rank, _, witness = _rank_over_q(rows)
    return rank == len(rows), witness


def is_p_nonsingular(M, p: int):
    """True iff the rows reduced mod p are independent over the field of p
    elements.  On failure returns a witness combination, coefficients in
    [0, p) and not all zero mod p."""
    check_prime(p)
    rows = _dense(M)
    k = len(rows)
    if k == 0:
        return True, None
    n = len(rows[0]) if rows else 0
    work = [[x % p for x in row] for row in rows]
    trace = [[int(i == j) for j in range(k)] for i in range(k)]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, k) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        trace[r], trace[pivot] = trace[pivot], trace[r]
        inv = pow(work[r][c], -1, p)
        for i in range(r + 1, k):
            a = work[i][c]
            if a == 0:
                continue
            q = (a * inv) % p
            work[i] = [(x - q * y) % p for x, y in zip(work[i], work[r])]
            trace[i] = [(x - q * y) % p for x, y in zip(trace[i], trace[r])]
        r += 1
        if r == k:
            return True, None
    return False, trace[r]


def smith_normal_form(M):
    """U*M*V = D with D diagonal, d_1 | d_2 | ..., and det(U), det(V) = ±1."""
    A = _dense(M)
    k = len(A)
    n = len(A[0]) if A else 0
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(k, n):
        # locate the absolutely smallest nonzero entry in the trailing block
        best = None
        for i in range(t, k):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        while True:
            i, j = best
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            dirty = False
            for i in range(t + 1, k):
                if A[i][t] != 0:
                    add_row(i, t, -(A[i][t] // A[t][t]))
                    if A[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    add_col(j, t, -(A[t][j] // A[t][t]))
                    if A[t][j] != 0:
                        dirty = True
            if dirty:
                best = min(
                    ((i, j) for i in range(t, k) for j in range(t, n) if A[i][j] != 0),
                    key=lambda ij: abs(A[ij[0]][ij[1]]),
                )
                continue
            # pivot isolated; enforce the divisibility chain
            offender = next(
                (
                    (i, j)
                    for i in range(t + 1, k)
                    for j in range(t + 1, n)
                    if A[i][j] % A[t][t] != 0
                ),
                None,
            )
            if offender is None:
                break
            add_row(t, offender[0], 1)
            best = (t, t)
        if A[t][t] < 0:
            negate_row(t)
        t += 1
    return U, A, V


def _xgcd(a: int, b: int):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _divisors_mod(rows, rank: int, minor: int) -> list[int]:
    """The nonzero elementary divisors s_1 | ... | s_rank of an integer matrix
    of the given rank, where minor is a nonzero rank x rank minor.

    Every s_i divides d_rank = s_1 * ... * s_rank, which divides minor, so the
    Smith form over Z/minor has invariants (s_1), ..., (s_rank), (0), ...; the
    rank tells an s_rank equal to minor apart from a zero invariant.  Entries
    stay below minor, and no transform is built.
    """
    m = minor
    if m == 1:
        return [1] * rank
    A = [[x % m for x in row] for row in rows]
    width = len(A[0]) if A else 0
    diagonal = []
    while A and width:
        # pivot: a unit mod m from the first row holding one, else the entry
        # sharing least with m
        best = None
        for i, row in enumerate(A):
            for j, x in enumerate(row):
                if x and (best is None or math.gcd(x, m) < best[0]):
                    best = (math.gcd(x, m), i, j)
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, i, c = best
        while True:
            # rows: every other entry of column c becomes 0; an entry outside
            # the pivot's ideal mod m makes that ideal strictly smaller
            g = math.gcd(A[i][c], m)
            inv = pow(A[i][c] // g, -1, m // g)
            for h in range(len(A)):
                b = A[h][c]
                if h == i or b == 0:
                    continue
                if b % g == 0:
                    q = (b // g) * inv
                    A[h] = [(x - q * y) % m for x, y in zip(A[h], A[i])]
                else:
                    d, s, t = _xgcd(A[i][c], b)
                    u, v = b // d, A[i][c] // d
                    A[i], A[h] = (
                        [(s * x + t * y) % m for x, y in zip(A[i], A[h])],
                        [(u * x - v * y) % m for x, y in zip(A[i], A[h])],
                    )
                    g = math.gcd(A[i][c], m)
                    inv = pow(A[i][c] // g, -1, m // g)
            # columns: with column c clean, subtracting it changes row i only,
            # which is dropped; an entry outside the pivot's ideal takes an
            # extended-gcd column step, which dirties column c again
            j = next((j for j, b in enumerate(A[i]) if b % g), None)
            if j is None:
                break
            d, s, t = _xgcd(A[i][c], A[i][j])
            u, v = A[i][j] // d, A[i][c] // d
            for row in A:
                row[c], row[j] = (s * row[c] + t * row[j]) % m, (u * row[c] - v * row[j]) % m
        diagonal.append(math.gcd(A[i][c], m))
        del A[i]
        for row in A:
            del row[c]
        width -= 1
    diagonal += [m] * min(len(A), width)  # zero invariants
    # the Smith form of a diagonal matrix over Z/m: gcd/lcm into a chain
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            diagonal[i], diagonal[j] = math.gcd(a, b), math.lcm(a, b)
    return diagonal[:rank]


def elementary_divisors(M) -> list[int]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    rows = _dense(M)
    rank, minor, _ = _rank_over_q(rows)
    return _divisors_mod(rows, rank, minor)


def is_unimodular(M) -> bool:
    """True iff every elementary divisor is 1, i.e. p-nonsingular for every prime."""
    rows = _dense(M)
    rank, minor, _ = _rank_over_q(rows)
    return rank == len(rows) and all(d == 1 for d in _divisors_mod(rows, rank, minor))


@dataclass
class SingularityReport:
    """Classification verdicts for one finite matrix (or stream truncation).

    For a truncation, ``checked_depth`` records how far the stream was
    examined: a verdict about an infinite system only ever means "every
    checked truncation".
    """

    nonsingular: bool
    p_nonsingular: dict[int, bool] = field(default_factory=dict)
    unimodular: bool | None = None
    witness: list[int] | None = None
    p_witnesses: dict[int, list[int]] = field(default_factory=dict)
    divisors: list[int] | None = None
    checked_depth: int | None = None

    def to_json(self) -> dict:
        return {
            "nonsingular": self.nonsingular,
            "p_nonsingular": {str(p): v for p, v in sorted(self.p_nonsingular.items())},
            "unimodular": self.unimodular,
            "witness": self.witness,
            "p_witnesses": {str(p): w for p, w in sorted(self.p_witnesses.items())},
            "elementary_divisors": self.divisors,
            "checked_depth": self.checked_depth,
        }


def classify_matrix(M, primes=()) -> SingularityReport:
    rows = _dense(M)
    rank, minor, witness = _rank_over_q(rows)
    report = SingularityReport(nonsingular=rank == len(rows), witness=witness)
    report.divisors = _divisors_mod(rows, rank, minor)
    report.unimodular = len(report.divisors) == len(rows) and all(
        d == 1 for d in report.divisors
    )
    for p in primes:
        pok, pw = is_p_nonsingular(rows, p)
        report.p_nonsingular[p] = pok
        if pw is not None:
            report.p_witnesses[p] = pw
        assert not pok or report.nonsingular
    assert not report.unimodular or report.nonsingular
    return report


def classify_stream(stream: EquationStream, depth: int, primes=()) -> SingularityReport:
    """Classify the depth-N truncation of a stream, recording the depth."""
    report = classify_matrix(stream.truncation(depth).matrix(), primes)
    report.checked_depth = depth
    return report


# -- square reduction -----------------------------------------------------------


def _column_hermite(rows: list[list[int]]):
    """Column operations only: bring a full-row-rank k x n matrix to [L | 0]
    with L lower triangular.  Returns (L-extended matrix, V) with M*V = result."""
    k = len(rows)
    n = len(rows[0]) if rows else 0
    A = [row[:] for row in rows]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def add_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    for r in range(k):
        while True:
            support = [j for j in range(r, n) if A[r][j] != 0]
            if not support:
                raise NotPiNonsingular(witness=None)
            if len(support) == 1:
                if support[0] != r:
                    swap_cols(r, support[0])
                break
            c = min(support, key=lambda j: (abs(A[r][j]), j))
            for j in support:
                if j != c:
                    add_col(j, c, -(A[r][j] // A[r][c]))
    return A, V


def reduce_to_square(system: AbelianSystem, pi=()):
    """Eliminate surplus variables from a pi-nonsingular system by an integer
    change of variables, leaving as many variables as equations.

    Only column operations are used, so right-hand sides are untouched.  The
    returned back-map sends an assignment of the square system to a full
    assignment of the original one (eliminated coordinates become 0).
    """
    matrix = system.matrix()
    rows = matrix.dense()
    k = len(rows)
    n = len(matrix.columns)
    ok, witness = is_nonsingular(rows)
    if not ok:
        raise NotPiNonsingular(witness=witness)
    for p in pi:
        pok, pw = is_p_nonsingular(rows, p)
        if not pok:
            raise NotPiNonsingular(p=p, witness=pw)
    if k == n:
        return system, lambda assignment: dict(assignment)

    reduced, V = _column_hermite(rows)
    kept = matrix.columns[:k]
    square_eqs = [
        AbelianEquation({v: reduced[i][j] for j, v in enumerate(kept)}, system.equations[i].rhs)
        for i in range(k)
    ]
    square = AbelianSystem(system.group, square_eqs, variables=kept)
    zero = system.group.zero()
    columns = matrix.columns

    def back_map(assignment: dict[str, GroupElement]) -> dict[str, GroupElement]:
        full = {}
        for r, var in enumerate(columns):
            acc = zero
            for j, kv in enumerate(kept):
                if V[r][j] != 0:
                    acc = acc + assignment[kv].scale(V[r][j])
            full[var] = acc
        return full

    return square, back_map


# -- verification ----------------------------------------------------------------


def verify_solution(system, assignment: dict[str, GroupElement]) -> bool:
    """True iff every equation of the (truncated) system is satisfied exactly."""
    if isinstance(system, AbelianSystem):
        zero = system.group.zero()
        for eq in system.equations:
            acc = zero
            for v, k in eq.coeffs.items():
                if v not in assignment:
                    raise MissingVariable(f"assignment lacks variable {v!r}")
                acc = acc + assignment[v].scale(k)
            if acc != eq.rhs:
                return False
        return True
    from .nilpotent import WordSystem, evaluate_word  # deferred: avoids an import cycle

    if isinstance(system, WordSystem):
        G = system.group
        return all(
            G.equal(evaluate_word(G, eq, assignment), G.identity()) for eq in system.equations
        )
    raise TypeError(f"unknown system type {type(system)!r}")


# -- parsing ----------------------------------------------------------------------


def parse_matrix_text(text: str) -> ExponentMatrix:
    """Plain matrix format: one row per line, space-separated integers."""
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        row = []
        for col, tok in enumerate(stripped.split(), start=1):
            try:
                row.append(int(tok))
            except ValueError:
                raise ParseError(f"bad integer {tok!r}", line=lineno, column=col) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"expected {width} entries, got {len(row)}", line=lineno)
        rows.append(row)
    return ExponentMatrix.from_dense(rows)


def abelian_system_to_json(system: AbelianSystem) -> dict:
    return {
        "group": system.group.to_json(),
        "vars": list(system.variables),
        "equations": [
            {
                "coeffs": {v: k for v, k in sorted(eq.coeffs.items())},
                "rhs": element_to_json(eq.rhs),
            }
            for eq in system.equations
        ],
    }


def abelian_system_from_json(obj: dict) -> AbelianSystem:
    group = AbelianGroupDescriptor.from_json(obj["group"])
    equations = [
        AbelianEquation(
            {v: int_from_json(k) for v, k in eq["coeffs"].items()},
            element_from_json(group, eq["rhs"]),
        )
        for eq in obj["equations"]
    ]
    return AbelianSystem(group, equations, variables=obj.get("vars"))
