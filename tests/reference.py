"""Independent references that the tests check the library against.

Each is a second, literal implementation of a job that the library does by
another route, so an agreement between the two is evidence for both:

* ``ModPQuotient`` / ``mod_p_quotient`` — A/pA with its projection and a
  canonical section, and on it ``solve_p_group``, the paper's round-by-round
  lifting through A ⊃ pA ⊃ p²A ⊃ ... for a bounded p-group, against the
  library's unit-pivot echelon (``solve_bounded``).
* ``smith_normal_form`` — U*M*V = D with both transforms, against the
  divisors that ``classify_matrix`` computes without transforms.
* ``is_p_nonsingular`` — elimination mod p on [M | I] with a list per row,
  against the library's elimination on rows packed into one int each.
* ``rank_over_q`` / ``divisor_certificate`` — the Bareiss elimination of
  [M | I], which carries the transform F with F*M = U in its last k columns,
  and the divisor certificate read from that F, against the library's
  elimination of M alone, which recovers the witness and F*c by substitution
  in the fraction-free LU factors.
* ``center_of`` — the center of a table group by brute-force centralizer
  intersection, against the center each handle declares.
* ``project`` / ``section`` — a Heisenberg group's quotient map to its
  abelian quotient and its coset representatives (a, b, 0), against the
  handle's ``center_coords`` and ``lift``, which read and write each level
  on the triple itself.

Beside them, ``PrimePower`` and ``factor_small`` factor an integer by trial
division, which the library never needs; tests use them to name the primes
of a determinant.  ``val_p`` (the p-adic valuation), ``height_p`` (the
height of an element of a p-group) and ``classify_stream`` (the
classification of a stream truncation, with its depth recorded) have no
caller in the library either; ``height_p`` alone raises ``NotAPGroup``.
``word_system_to_json`` writes a word system as the JSON that the library's
``word_system_from_json`` reads, so the codec can be checked by a round trip.

None of them is part of the ``groupeq`` package, and nothing there calls them.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

from groupeq.abelian import (
    CYCLIC,
    INTEGER,
    AbelianGroupDescriptor,
    GroupElement,
    Summand,
)
from groupeq.errors import (
    DescriptorMismatch,
    GroupEqError,
    OutOfRange,
    UnsupportedGroup,
    VerificationFailed,
)
from groupeq.intmath import INFINITE, check_prime
from groupeq.nilpotent import HeisenbergGroup, TableGroup, WordSystem
from groupeq.solve_abelian import Solution, _checked, solve_mod_p
from groupeq.systems import (
    AbelianEquation,
    AbelianSystem,
    Const,
    EquationStream,
    SingularityReport,
    _dense,
    classify_matrix,
)


@dataclass(frozen=True)
class ModPQuotient:
    """A/pA as a direct sum of Z/p with projection and a canonical section."""

    group: AbelianGroupDescriptor
    indices: tuple[int, ...]
    source: AbelianGroupDescriptor
    p: int

    def project(self, a: GroupElement) -> GroupElement:
        if a.descriptor != self.source:
            raise DescriptorMismatch("element not in the source group")
        return self.group.element(int(a.coords[i]) % self.p for i in self.indices)

    def section(self, x: GroupElement) -> GroupElement:
        """Canonical preimage: each Z/p class lifts to its residue representative."""
        if x.descriptor != self.group:
            raise DescriptorMismatch("element not in the quotient group")
        coords = [0] * len(self.source.summands)
        for i, c in zip(self.indices, x.coords):
            coords[i] = int(c)
        return self.source.element(coords)


def mod_p_quotient(A: AbelianGroupDescriptor, p: int) -> ModPQuotient:
    """Build A/pA.  Divisible summands and q-summands with q != p vanish
    (multiplication by p is onto there); each surviving summand contributes Z/p."""
    check_prime(p)
    indices = []
    for i, s in enumerate(A.summands):
        if s.kind == CYCLIC and s.p == p:
            indices.append(i)
        elif s.kind == INTEGER:
            indices.append(i)
    quotient = AbelianGroupDescriptor([Summand.cyclic(p, 1)] * len(indices))
    return ModPQuotient(quotient, tuple(indices), A, p)


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


def rank_over_q(rows):
    """Fraction-free (Bareiss) elimination over Q of the rows extended by the
    identity, [M | I], so each row carries its combination of the input rows.

    Returns (rank, modulus, witness, work).  By Sylvester's identity every
    entry of a Bareiss row is a minor of M, so the last pivot row holds
    rank x rank minors in its first n entries, and their gcd, the modulus, is
    a positive multiple of s_1 * ... * s_rank (|det M| when M is square and
    nonsingular; 1 when the rank is 0).  witness is a nonzero integer
    combination of the rows equal to the zero row, or None when the rows are
    independent.  work is the eliminated [U | F]: F*M = U, and the first rank
    rows of U are in echelon form with the pivots on their leading entries.
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
        return r, modulus, None, work
    witness = work[r][n:]
    g = math.gcd(*witness)
    witness = [w // g for w in witness]
    lead = next(w for w in witness if w != 0)
    if lead < 0:
        witness = [-w for w in witness]
    return r, modulus, witness, work


def divisor_certificate(work) -> int:
    """For a square nonsingular k x k matrix M with Bareiss [U | F], a
    divisor g of |det M| that s_1 * ... * s_(k-1) divides; g = 1 certifies
    the elementary divisors [1, ..., 1, |det M|].

    The last pivot D of U is +-det M.  For an integer vector c,
    back-substitution in U*y = D*F*c gives y = D*M^-1*c = +-adj(M)*c, which
    is integral, so every division is exact.  With M = P*diag(s)*Q for
    unimodular P and Q, s_k*M^-1 is integral, so every denominator of
    M^-1*c = y/D divides s_k.  With g the gcd of D and the entries of every
    y, the lcm of those denominators is |D|/g, so s_k is a multiple of |D|/g
    and s_1 * ... * s_(k-1) = |D|/s_k divides g (Pan 1988; Abbott, Bronstein
    & Mulders, ISSAC 1999).  Up to three c are tried, until g = 1; their
    32-bit entries are drawn from Random(0), Random(1) and Random(2), so no
    two are multiples of one another.
    """
    k = len(work)
    g = D = work[-1][k - 1]
    for t in range(3):
        rng = random.Random(t)
        c = [rng.getrandbits(32) for _ in range(k)]
        y = [0] * k
        for i in range(k - 1, -1, -1):
            row = work[i]
            b = D * sum(map(operator.mul, row[k:], c))
            y[i] = (b - sum(map(operator.mul, row[i + 1 : k], y[i + 1 :]))) // row[i]
        g = math.gcd(g, *y)
        if g == 1:
            break
    return g


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


def project(group, g):
    """g's image in ``group.quotient``: (a, b) in the abelian quotient of a
    Heisenberg group; a handle that defines ``project`` maps with its own."""
    if isinstance(group, HeisenbergGroup):
        return group.quotient.descriptor.element([g[0], g[1]])
    return group.project(g)


def section(group, q):
    """The coset representative of q, an element of ``group.quotient``: (a, b)
    lifts to (a, b, 0) in a Heisenberg group, whose quotient's coordinates
    are canonical scalars already; a handle that defines ``section`` lifts
    with its own."""
    if isinstance(group, HeisenbergGroup):
        a, b = q.coords
        return (a, b, group.identity()[2])
    return group.section(q)


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


@dataclass(frozen=True)
class PrimePower:
    """A prime power p**e with e >= 1."""

    p: int
    e: int

    def __post_init__(self):
        check_prime(self.p)
        if self.e < 1:
            raise ValueError(f"exponent must be >= 1, got {self.e}")

    @property
    def value(self) -> int:
        return self.p**self.e

    def __repr__(self) -> str:
        return f"{self.p}^{self.e}"


def factor_small(n: int) -> list[PrimePower]:
    """Factor n <= 2**64 by trial division into a sorted list of prime powers.

    Group periods in this artifact are products of small prime powers, so no
    general-purpose factoring is needed; the bound is a guard, not a promise
    of performance for adversarial inputs.
    """
    if n < 1 or n > 2**64:
        raise OutOfRange(f"factor_small requires 1 <= n <= 2**64, got {n}")
    out = []
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            out.append(PrimePower(d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        out.append(PrimePower(rest, 1))
    return out


def val_p(n: int, p: int):
    """p-adic valuation of n: the largest k with p**k | n; INFINITE for n = 0."""
    check_prime(p)
    if n == 0:
        return INFINITE
    k = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        k += 1
    return k


class NotAPGroup(GroupEqError):
    """``height_p`` was given an element of a group that is not a p-group."""


def height_p(a: GroupElement, p: int):
    """Height of a in an abelian p-group: the maximal k such that p**k * x = a
    is solvable; INFINITE when every power works (0, or Prüfer coordinates)."""
    check_prime(p)
    for s in a.descriptor.summands:
        if not (s.is_torsion and s.p == p):
            raise NotAPGroup(f"descriptor contains non-{p}-group summand {s!r}")
    h = INFINITE
    for s, c in zip(a.descriptor.summands, a.coords):
        if s.kind == CYCLIC and c != 0:
            h = min(h, val_p(int(c), p))
    return h


def classify_stream(stream: EquationStream, depth: int, primes=()) -> SingularityReport:
    """Classify the depth-N truncation of a stream, recording the depth."""
    report = classify_matrix(stream.truncation(depth).matrix(), primes)
    report.checked_depth = depth
    return report


def word_system_to_json(system: WordSystem) -> dict:
    """The JSON object of a word system, as ``word_system_from_json`` reads it."""
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
