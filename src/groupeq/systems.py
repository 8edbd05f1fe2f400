"""Equations, systems, streams, exponent matrices (integer rows, a column per
variable) and their exact classification: nonsingular / p-nonsingular / unimodular.

Rank over Q uses Bareiss's fraction-free elimination, whose last pivot row
holds rank x rank minors; rank mod p uses elimination over the field of p
elements, on rows packed into one int each.  Elementary divisors, and with
them unimodularity, cover all primes at once without factoring and without
building transforms.  For a square nonsingular M a certificate from the
Bareiss pass (back substitution on a few fixed vectors, giving adj(M)*c)
decides the common case [1, ..., 1, |det M|] outright and otherwise bounds
every divisor but the last; a Smith form over the integers modulo that bound,
or modulo the gcd of the minors for any other M, finds the rest.  The
divisible solver needs only _column_hermite, a column Hermite form
M*V = [L | 0], which refuses a singular system with Singular and the witness
of is_nonsingular.
Failed classifications return a witness: a nonzero integer combination of
rows that vanishes (mod p where applicable).  The Bareiss pass works on M
alone and leaves its fraction-free LU factors in place, so the witness and
the certificate's F*c come from substitution in them, not from a carried
transform.  The elimination mod p works on [M | I], so the first row that
reduces to zero carries the witness in its last k entries, and the column
Hermite form works on M stacked over I, so the lower block ends as V.

``verify_solution`` checks an abelian system on integer coordinate columns,
the result check at the solvers' public boundary: each value's coordinates
are read once through ``Summand.canon``, and each equation's sum is formed
per summand as an int (mod p**e on a cyclic summand) or as an integer
numerator over the lcm of the denominators (Q and Prüfer), then compared
with the right-hand side's coordinate by cross-multiplication.  It builds
no element and no Fraction.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from typing import Callable

from .abelian import (
    PRUFER,
    RATIONAL,
    AbelianGroupDescriptor,
    GroupElement,
    _expect_fields,
    element_from_json,
    expect_json,
    int_from_json,
)
from .errors import DescriptorMismatch, MissingVariable, ParseError, Singular
from .errors import VerificationFailed
from .intmath import check_prime

# -- equations ----------------------------------------------------------------


def _check_int(value, what: str) -> None:
    """ValueError unless value is an int: a float, Fraction, string or bool is
    refused, not truncated or parsed."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")


@dataclass(frozen=True)
class Const:
    """A literal group coefficient inside a word."""

    value: object


@dataclass(frozen=True)
class VarPow:
    """A literal x**exp inside a word; exp is a nonzero int."""

    var: str
    exp: int

    def __post_init__(self):
        _check_int(self.exp, "a variable exponent")
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
        for k in coeffs.values():
            _check_int(k, "a coefficient")
        self.coeffs = {v: k for v, k in coeffs.items() if k != 0}
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
        return _exponent_matrix([exponent_row(eq) for eq in self.equations], self.variables)


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


def _exponent_matrix(sums, variables=None) -> list[list[int]]:
    """Exponent rows, a dict per equation as ``exponent_row`` gives, as dense
    integer rows, a column per variable in order; by default the sorted
    variables with a nonzero sum somewhere."""
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
    """The rows of M as lists; an entry that is not an int, or rows of
    different lengths, are a ValueError."""
    rows = [list(row) for row in M]
    for row in rows:
        for x in row:
            if type(x) is not int:  # tested inline: a call per entry doubles the time
                _check_int(x, "a matrix entry")
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows differ in length")
    return rows


def _rank_over_q(rows):
    """Fraction-free (Bareiss) elimination of M over Q.

    Returns (rank, modulus, witness, (work, order)).  Step r, with pivot p in
    column c and the previous pivot prev, replaces each lower row by
    (p * row - a * pivot row) / prev, a its column-c entry, on columns
    c+1 ... n-1 only: its columns up to c are zero from then on, and are left
    as they were.  By Sylvester's identity every entry of a Bareiss row is a
    minor of M, so the last pivot row holds rank x rank minors from its pivot
    column on, and their gcd, the modulus, is a positive multiple of
    s_1 * ... * s_rank (|det M| when M is square and nonsingular; 1 when the
    rank is 0).  work holds the pivot rows U in its first rank rows, each
    final from its pivot column on; order[i] is the input row at position i.

    The entries left of each pivot column are the a that each step read, so
    work also holds the fraction-free LU factors P*M = L*diag(prev*p)^-1*U:
    L is lower triangular with the pivots on its diagonal and the a of step
    r in column r (Nakos, Turner & Williams 1997; Zhou & Jeffrey 2008).  So
    the transform F with F*M = U is never built.  witness is F's row at
    position rank, divided by its content and signed to a positive lead, or
    None when the rows are independent: the unique combination of that row,
    with the last pivot as its coefficient, and the pivot rows that vanishes,
    which is f*L = 0, solved by back substitution in L.
    """
    k = len(rows)
    n = len(rows[0]) if rows else 0
    work = [row[:] for row in rows]
    order = list(range(k))
    columns = []
    prev = 1
    for c in range(n):
        r = len(columns)
        pivot = next((i for i in range(r, k) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        order[r], order[pivot] = order[pivot], order[r]
        p = work[r][c]
        top = work[r][c + 1 :]
        for row in work[r + 1 :]:
            a = row[c]
            # a row with a = 0 is only rescaled by p / prev, a no-op when p = prev
            if a or p != prev:
                row[c + 1 :] = [(p * x - a * y) // prev for x, y in zip(row[c + 1 :], top)]
        prev = p
        columns.append(c)
    r = len(columns)
    modulus = math.gcd(*work[r - 1][columns[-1] :]) if r else 1
    if r == k:
        return r, modulus, None, (work, order)
    # f * L = 0 on positions 0..r with f[r] = prev, solved from the last pivot up
    f = [0] * r + [prev]
    for s in range(r - 1, -1, -1):
        c = columns[s]
        f[s] = -sum(f[i] * work[i][c] for i in range(s + 1, r + 1)) // work[s][c]
    witness = [0] * k
    for i, w in enumerate(f):
        witness[order[i]] = w
    g = math.gcd(*f)
    witness = [w // g for w in witness]
    lead = next(w for w in witness if w != 0)
    if lead < 0:
        witness = [-w for w in witness]
    return r, modulus, witness, (work, order)


def is_nonsingular(M):
    """True iff the rows are linearly independent over Q.

    Returns (ok, witness): on failure the witness is a nonzero integer
    combination of the rows equal to the zero row.
    """
    rows = _dense(M)
    rank, _, witness, _ = _rank_over_q(rows)
    return rank == len(rows), witness


def is_p_nonsingular(M, p: int):
    """True iff the rows reduced mod p are independent over the field of p
    elements.  On failure returns a witness combination, coefficients in
    [0, p) and not all zero mod p: the eliminated rows are extended by the
    identity, [M | I] mod p, and the first zero row carries its combination.

    A row of [M | I] mod p is one int, W bits an entry, column j at bit j*W;
    eliminated columns are shifted out, so column c sits at bit 0 when its
    turn comes.  A row step adds p - q times the pivot row, which keeps every
    entry below p**2, and then reduces all entries at once by a multiply-shift
    quotient (Granlund & Montgomery, PLDI 1994): for s = bits(p**2) + bits(p)
    and magic = ceil(2**s / p), x // p = (x * magic) >> s for x < p**2, and
    W = bits(p**2) + bits(magic) + 1 keeps each x * magic inside its entry.
    """
    check_prime(p)
    rows = _dense(M)
    k = len(rows)
    n = len(rows[0]) if rows else 0
    s = (p * p).bit_length() + p.bit_length()
    magic = -(-(1 << s) // p)
    W = (p * p).bit_length() + magic.bit_length() + 1
    entry = (1 << W) - 1
    # the low W - s bits of every entry, where the quotients land after >> s
    quotients = ((1 << (W - s)) - 1) * (((1 << ((n + k) * W)) - 1) // entry)
    work = []
    for i, row in enumerate(rows):
        packed = 0
        for x in reversed(row):
            packed = (packed << W) | (x % p)
        work.append(packed | 1 << ((n + i) * W))
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, k) if work[i] & entry), None)
        if pivot is None:
            for i in range(r, k):
                work[i] >>= W
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        inv = pow(top & entry, -1, p)
        for i in range(r + 1, k):
            x = work[i]
            a = x & entry
            if a:
                x += (p - a * inv % p) * top
                x -= p * (((x * magic) >> s) & quotients)
            work[i] = x >> W
        r += 1
    if r == k:
        return True, None
    return False, [(work[r] >> (j * W)) & entry for j in range(k)]


def _xgcd(a: int, b: int):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _divisors_mod(rows, rank: int, modulus: int) -> list[int]:
    """gcd(s_i, modulus) for the nonzero elementary divisors s_1 | ... |
    s_rank of an integer matrix of the given rank: the divisors themselves
    when modulus is a positive multiple of d_rank = s_1 * ... * s_rank, such
    as the gcd of some rank x rank minors.

    The Smith form over Z/modulus has the invariants (gcd(s_1, modulus)),
    ..., (gcd(s_rank, modulus)), (0), ...; the rank tells an invariant equal
    to modulus apart from a zero one.  Entries stay below modulus, and no
    transform is built.
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


def _divisor_certificate(work, order) -> int:
    """For a square nonsingular k x k matrix M with Bareiss elimination
    (work, order) from _rank_over_q, a divisor g of |det M| that
    s_1 * ... * s_(k-1) divides; g = 1 certifies the elementary divisors
    [1, ..., 1, |det M|].

    The last pivot D of U is +-det M.  For an integer vector c, the row steps
    of the elimination replayed on c, with its entries in pivot order, give
    F*c for the transform F with F*M = U (a forward substitution in L, O(k^2)
    instead of carrying F through the elimination).  Back substitution in
    U*y = D*F*c then gives y = D*M^-1*c = +-adj(M)*c, which is integral, so
    every division is exact.  With M = P*diag(s)*Q for unimodular P and Q,
    s_k*M^-1 is integral, so every denominator of M^-1*c = y/D divides s_k.
    With g the gcd of D and the entries of every y, the lcm of those
    denominators is |D|/g, so s_k is a multiple of |D|/g and
    s_1 * ... * s_(k-1) = |D|/s_k divides g (Pan 1988; Abbott, Bronstein &
    Mulders, ISSAC 1999).  Up to three c are tried, until g = 1; their
    32-bit entries are drawn from Random(0), Random(1) and Random(2), so no
    two are multiples of one another.
    """
    k = len(work)
    g = D = work[-1][k - 1]
    for t in range(3):
        rng = random.Random(t)
        c = [rng.getrandbits(32) for _ in range(k)]
        v = [c[j] for j in order]
        prev = 1
        for s in range(k - 1):
            p, vs = work[s][s], v[s]
            lower = zip(v[s + 1 :], work[s + 1 :])
            v[s + 1 :] = [(p * x - row[s] * vs) // prev for x, row in lower]
            prev = p
        y = [0] * k
        for i in range(k - 1, -1, -1):
            row = work[i]
            y[i] = (D * v[i] - sum(map(operator.mul, row[i + 1 :], y[i + 1 :]))) // row[i]
        g = math.gcd(g, *y)
        if g == 1:
            break
    return g


def is_unimodular(M) -> bool:
    """True iff the rows are independent and every elementary divisor is 1, i.e.
    p-nonsingular for every prime: classify_matrix's verdict."""
    return classify_matrix(M).unimodular


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
    rank, modulus, witness, elimination = _rank_over_q(rows)
    report = SingularityReport(nonsingular=rank == len(rows), witness=witness)
    # For a square nonsingular M with modulus |det M| above 1, s_1, ...,
    # s_(k-1) come from _divisors_mod modulo the certificate's g, unless g = 1,
    # and s_k is the modulus over their product.
    if modulus > 1 and rank == len(rows) == len(rows[0]):
        g = _divisor_certificate(*elimination)
        head = [1] * (rank - 1) if g == 1 else _divisors_mod(rows, rank, g)[:-1]
        report.divisors = head + [modulus // math.prod(head)]
    else:
        report.divisors = _divisors_mod(rows, rank, modulus)
    report.unimodular = report.divisors == [1] * len(rows)
    # rank mod p is the number of divisors prime to p, so only a p-singular
    # prime needs an elimination mod p, for its witness; a repeated prime is
    # classified once
    for p in dict.fromkeys(primes):
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


# -- column Hermite form ---------------------------------------------------------


def _column_hermite(rows: list[list[int]]):
    """Column operations only: bring a full-row-rank k x n matrix to [L | 0]
    with L lower triangular.  The operations act on M stacked over the n x n
    identity, so the lower block records V with M*V = [L | 0].  Returns
    ([L | 0], V).  Raises Singular, with ``is_nonsingular``'s witness, exactly
    when a row depends over Q on the rows before it: only such a row is zero
    past the diagonal."""
    k = len(rows)
    n = len(rows[0]) if rows else 0
    A = [row[:] for row in rows] + [[int(i == j) for j in range(n)] for i in range(n)]
    for r in range(k):
        while True:
            support = [j for j in range(r, n) if A[r][j] != 0]
            if not support:
                raise Singular(witness=is_nonsingular(rows)[1])
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
    """True iff every equation of the (truncated) system is satisfied exactly.

    An abelian system is checked equation by equation, in order, on integer
    coordinate columns: MissingVariable for a variable the assignment lacks,
    then DescriptorMismatch for a value from another group.  Each value's
    coordinates are read once, through ``Summand.canon``, so a coordinate
    that ``element`` would refuse is a ValueError.  Per summand, the
    equation's sum sum(k*c) is compared with the right-hand side's
    coordinate as given: mod p**e on a cyclic summand, exactly on Z, and on
    Q and Prüfer summands as an integer numerator over the running lcm of
    the denominators (reduced mod 1 on Prüfer), cross-multiplied.  No
    element and no Fraction is built.  A word system is checked by
    ``nilpotent._verify_words``: each value is read once through its handle,
    so a value that the handle would refuse is a ValueError, and the words
    are evaluated on the values read.
    """
    if isinstance(system, AbelianSystem):
        return _verify_columns(system, assignment)
    from .nilpotent import WordSystem, _verify_words  # deferred: avoids an import cycle

    if isinstance(system, WordSystem):
        return _verify_words(system, assignment)
    raise TypeError(f"unknown system type {type(system)!r}")


def _verify_columns(system: AbelianSystem, assignment) -> bool:
    """``verify_solution`` on an abelian system, one coordinate column at a time."""
    group = system.group
    summands = group.summands
    # a value's canonical coordinates: an int, or a (numerator, denominator)
    # pair on a divisible summand
    columns: dict[str, list] = {}
    plan = [(t, s.kind, s.modulus) for t, s in enumerate(summands)]
    for eq in system.equations:
        coeffs = eq.coeffs
        for v in coeffs:
            if v not in assignment:
                raise MissingVariable(f"assignment lacks variable {v!r}")
        fresh = [v for v in coeffs if v not in columns]
        for v in fresh:
            d = assignment[v].descriptor
            if d is not group and d != group:
                raise DescriptorMismatch("elements live in different groups")
        for v in fresh:
            columns[v] = [
                s.canon(c).as_integer_ratio() if s.is_divisible else s.canon(c)
                for s, c in zip(summands, assignment[v].coords)
            ]
        terms = [(k, columns[v]) for v, k in coeffs.items()]
        rhs = eq.rhs.coords
        if len(rhs) != len(summands):
            return False
        for t, kind, m in plan:
            b = rhs[t]
            if kind == PRUFER or kind == RATIONAL:
                num, den = 0, 1
                for k, c in terms:
                    n, d = c[t]
                    if den % d:
                        lcm = math.lcm(den, d)
                        num *= lcm // den
                        den = lcm
                    num += k * n * (den // d)
                if kind == PRUFER:
                    num %= den
                bn, bd = b.as_integer_ratio()
                if num * bd != bn * den:
                    return False
            else:
                total = sum([k * c[t] for k, c in terms])
                if (total if m is None else total % m) != b:
                    return False
    return True


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
                "rhs": system.group.element_to_json(eq.rhs),
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
