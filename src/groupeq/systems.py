"""Equations, systems, streams, exponent matrices (integer rows, a column per
variable) and their exact classification: nonsingular / p-nonsingular / unimodular.

Rank over Q uses Bareiss's fraction-free elimination, whose last pivot row
holds rank x rank minors; rank mod p uses elimination over the field of p
elements.  Elementary divisors, and with them unimodularity, come from a
Smith form over the integers modulo the gcd of those minors, which covers
all primes at once without factoring and without building transforms.  The
divisible solver needs only _column_hermite, a column Hermite form
M*V = [L | 0].
Failed classifications return a witness: a nonzero integer combination of
rows that vanishes (mod p where applicable).  Each elimination keeps its
transform inside the matrix it reduces: the row eliminations work on [M | I],
so the first row that reduces to zero carries the witness in its last k
entries, and the column Hermite form works on M stacked over I, so the lower
block ends as V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .abelian import (
    AbelianGroupDescriptor,
    GroupElement,
    _expect_fields,
    element_from_json,
    element_to_json,
    expect_json,
    int_from_json,
)
from .errors import DescriptorMismatch, MissingVariable, NotPiNonsingular, ParseError
from .errors import VerificationFailed
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


class EquationSystem:
    """A finite system of equations over one group; ``variables`` is sorted."""

    def __init__(self, group, equations, variables=None):
        self.group = group
        self.equations = list(equations)
        seen = set(variables or ())
        for eq in self.equations:
            seen |= eq.variables()
        self.variables = tuple(sorted(seen))

    def __len__(self) -> int:
        return len(self.equations)

    def matrix(self) -> list[list[int]]:
        """The exponent matrix: a row per equation, a column per variable."""
        return _exponent_matrix(self.equations, self.variables)


class AbelianSystem(EquationSystem):
    """A finite system of abelian equations over one group descriptor."""

    def __init__(self, group: AbelianGroupDescriptor, equations, variables=None):
        super().__init__(group, equations, variables)
        for eq in self.equations:
            if eq.rhs.descriptor != group:
                raise DescriptorMismatch("equation rhs lives in a different group")


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


def _exponent_matrix(equations, variables=None) -> list[list[int]]:
    """The equations' exponent sums as integer rows, a column per variable in
    order; by default the sorted variables with a nonzero sum somewhere."""
    sums = [exponent_row(eq) for eq in equations]
    if variables is None:
        variables = sorted(set().union(*sums))
    column = {v: j for j, v in enumerate(variables)}
    rows = []
    for row in sums:
        dense = [0] * len(column)
        for v, k in row.items():
            dense[column[v]] = k
        rows.append(dense)
    return rows


def _dense(M) -> list[list[int]]:
    """The rows of M as lists of ints; rows of different lengths are a ValueError."""
    rows = [list(map(int, row)) for row in M]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows differ in length")
    return rows


def _rank_over_q(rows):
    """Fraction-free (Bareiss) elimination over Q of the rows extended by the
    identity, [M | I], so each row carries its combination of the input rows.

    Returns (rank, modulus, witness).  By Sylvester's identity every entry of
    a Bareiss row is a minor of M, so the last pivot row holds rank x rank
    minors in its first n entries, and their gcd, the modulus, is a positive
    multiple of s_1 * ... * s_rank (|det M| when M is square and nonsingular;
    1 when the rank is 0).  witness is a nonzero integer combination of the
    rows equal to the zero row, or None when the rows are independent.
    """
    k = len(rows)
    n = len(rows[0]) if rows else 0
    work = [row + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    prev = 1
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, k) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        p = work[r][c]
        for i in range(r + 1, k):
            a = work[i][c]
            # a row with a = 0 is only rescaled by p / prev, a no-op when p = prev
            if a or p != prev:
                work[i] = [(p * x - a * y) // prev for x, y in zip(work[i], work[r])]
        prev = p
        r += 1
    modulus = math.gcd(*work[r - 1][:n]) if r else 1
    if r == k:
        return r, modulus, None
    witness = work[r][n:]
    g = math.gcd(*witness)
    witness = [w // g for w in witness]
    lead = next(w for w in witness if w != 0)
    if lead < 0:
        witness = [-w for w in witness]
    return r, modulus, witness


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
    [0, p) and not all zero mod p: the eliminated rows are extended by the
    identity, [M | I] mod p, and the first zero row carries its combination."""
    check_prime(p)
    rows = _dense(M)
    k = len(rows)
    n = len(rows[0]) if rows else 0
    work = [[x % p for x in row] + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, k) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], -1, p)
        for i in range(r + 1, k):
            a = work[i][c]
            if a == 0:
                continue
            q = (a * inv) % p
            work[i] = [(x - q * y) % p for x, y in zip(work[i], work[r])]
        r += 1
    if r == k:
        return True, None
    return False, work[r][n:]


def _xgcd(a: int, b: int):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _divisors_mod(rows, rank: int, modulus: int) -> list[int]:
    """The nonzero elementary divisors s_1 | ... | s_rank of an integer matrix
    of the given rank, where modulus is a positive multiple of
    d_rank = s_1 * ... * s_rank, such as the gcd of some rank x rank minors.

    Every s_i divides d_rank, which divides modulus, so the Smith form over
    Z/modulus has invariants (s_1), ..., (s_rank), (0), ...; the rank tells an
    s_rank equal to modulus apart from a zero invariant.  Entries stay below
    modulus, and no transform is built.
    """
    m = modulus
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
    rank, modulus, _ = _rank_over_q(rows)
    return _divisors_mod(rows, rank, modulus)


def is_unimodular(M) -> bool:
    """True iff every elementary divisor is 1, i.e. p-nonsingular for every prime."""
    rows = _dense(M)
    return elementary_divisors(rows) == [1] * len(rows)


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
    rank, modulus, witness = _rank_over_q(rows)
    report = SingularityReport(nonsingular=rank == len(rows), witness=witness)
    report.divisors = _divisors_mod(rows, rank, modulus)
    report.unimodular = report.divisors == [1] * len(rows)
    # rank mod p is the number of divisors prime to p, so only a p-singular
    # prime needs an elimination mod p, for its witness
    for p in primes:
        check_prime(p)
        pok = report.nonsingular and all(d % p for d in report.divisors)
        report.p_nonsingular[p] = pok
        if not pok:
            independent, report.p_witnesses[p] = is_p_nonsingular(rows, p)
            if independent:
                raise VerificationFailed(f"elimination mod {p} contradicts the divisors")
    if report.unimodular and not report.nonsingular:
        raise VerificationFailed("unimodular rows are singular over Q")
    return report


def classify_stream(stream: EquationStream, depth: int, primes=()) -> SingularityReport:
    """Classify the depth-N truncation of a stream, recording the depth."""
    report = classify_matrix(stream.truncation(depth).matrix(), primes)
    report.checked_depth = depth
    return report


# -- column Hermite form ---------------------------------------------------------


def _column_hermite(rows: list[list[int]]):
    """Column operations only: bring a full-row-rank k x n matrix to [L | 0]
    with L lower triangular.  The operations act on M stacked over the n x n
    identity, so the lower block records V with M*V = [L | 0].  Returns
    ([L | 0], V).  Raises NotPiNonsingular exactly when a row depends over Q
    on the rows before it: only such a row is zero past the diagonal."""
    k = len(rows)
    n = len(rows[0]) if rows else 0
    A = [row[:] for row in rows] + [[int(i == j) for j in range(n)] for i in range(n)]
    for r in range(k):
        while True:
            support = [j for j in range(r, n) if A[r][j] != 0]
            if not support:
                raise NotPiNonsingular(witness=None)
            if len(support) == 1:
                j = support[0]
                if j != r:
                    for row in A:
                        row[r], row[j] = row[j], row[r]
                break
            c = min(support, key=lambda j: (abs(A[r][j]), j))
            for j in support:
                if j != c:
                    q = -(A[r][j] // A[r][c])
                    for row in A:
                        row[j] += q * row[c]
    return A[:k], A[k:]


# -- verification ----------------------------------------------------------------


def verify_solution(system, assignment: dict[str, GroupElement]) -> bool:
    """True iff every equation of the (truncated) system is satisfied exactly."""
    if isinstance(system, AbelianSystem):
        for eq in system.equations:
            for v in eq.coeffs:
                if v not in assignment:
                    raise MissingVariable(f"assignment lacks variable {v!r}")
            if system.group.combine((assignment[v], k) for v, k in eq.coeffs.items()) != eq.rhs:
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


def parse_matrix_text(text: str) -> list[list[int]]:
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
                row.append(int_from_json(tok))
            except ParseError:
                raise ParseError(f"bad integer {tok!r}", line=lineno, column=col) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"expected {width} entries, got {len(row)}", line=lineno)
        rows.append(row)
    return rows


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


def variables_from_json(obj: dict):
    """The optional "vars" list of a JSON system: variable names, or None."""
    names = obj.get("vars")
    if names is not None and not all(isinstance(v, str) for v in expect_json(names, list, "vars")):
        raise ParseError(f"vars must be a list of strings, got {names!r}")
    return names


def abelian_system_from_json(obj: dict) -> AbelianSystem:
    obj = _expect_fields(obj, "a system", ("group", "equations"), ("vars",))
    group = AbelianGroupDescriptor.from_json(obj["group"])
    equations = []
    for eq in expect_json(obj["equations"], list, "equations"):
        eq = _expect_fields(eq, "an equation", ("coeffs", "rhs"))
        coeffs = expect_json(eq["coeffs"], dict, "coeffs")
        equations.append(
            AbelianEquation(
                {v: int_from_json(k) for v, k in coeffs.items()},
                element_from_json(group, eq["rhs"]),
            )
        )
    return AbelianSystem(group, equations, variables=variables_from_json(obj))
