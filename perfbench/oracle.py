"""Independent checks of groupeq outputs, written against plain integers.

Nothing here imports groupeq or relies on ``assert``: every check returns a
list of failure messages, so the checks hold under ``python -O`` too.
"""

from __future__ import annotations

from fractions import Fraction


def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Rank over Q and, for a square matrix, the determinant (else 0).

    Fraction-free elimination (Bareiss 1968): every intermediate entry is a
    minor of the input, so the exact division below never leaves Z.
    """
    work = [row[:] for row in rows]
    k = len(work)
    n = len(work[0]) if work else 0
    rank, prev, sign = 0, 1, 1
    for c in range(n):
        if rank == k:
            break
        pivot = next((i for i in range(rank, k) if work[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            sign = -sign
        top = work[rank]
        p = top[c]
        for i in range(rank + 1, k):
            row = work[i]
            a = row[c]
            work[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
        rank += 1
    det = sign * prev if k == n and rank == k else 0
    return rank, det


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    work = [[x % p for x in row] for row in rows]
    k = len(work)
    n = len(work[0]) if work else 0
    rank = 0
    for c in range(n):
        if rank == k:
            break
        pivot = next((i for i in range(rank, k) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        inv = pow(top[c], -1, p)
        top[:] = [(inv * x) % p for x in top]
        for i in range(rank + 1, k):
            a = work[i][c]
            if a:
                work[i] = [(x - a * y) % p for x, y in zip(work[i], top)]
        rank += 1
    return rank


def _combination(witness, rows):
    n = len(rows[0]) if rows else 0
    return [sum(w * row[j] for w, row in zip(witness, rows)) for j in range(n)]


def check_witness(witness, rows, p=None) -> list[str]:
    """A witness is a nonzero row combination that vanishes (mod p if given)."""
    if witness is None or len(witness) != len(rows):
        return [f"witness {witness!r} does not have one entry per row"]
    mod = (lambda x: x % p) if p else (lambda x: x)
    if all(mod(w) == 0 for w in witness):
        return [f"witness is zero{f' mod {p}' if p else ''}"]
    if any(mod(x) != 0 for x in _combination(witness, rows)):
        return [f"witness combination is not zero{f' mod {p}' if p else ''}"]
    return []


def check_classification(rows, primes, report: dict, expect: dict) -> list[str]:
    """Check a classify_matrix report (as its JSON form) against exact arithmetic.

    ``expect`` names what the input was built to be: ``nonsingular`` False
    for a rank-deficient matrix, ``p_singular`` for a row scaled by p.
    """
    failures = []
    k, n = len(rows), len(rows[0])
    rank, det = bareiss(rows)
    if report["nonsingular"] != (rank == k):
        failures.append(f"nonsingular={report['nonsingular']} but rank over Q is {rank}/{k}")
    if not report["nonsingular"]:
        failures += check_witness(report["witness"], rows)
    if "nonsingular" in expect and report["nonsingular"] != expect["nonsingular"]:
        failures.append(f"built with nonsingular={expect['nonsingular']}")

    ranks = {p: rank_mod_p(rows, p) for p in primes}
    divisors = report["elementary_divisors"]
    if len(divisors) != rank or any(d <= 0 for d in divisors):
        failures.append(f"{len(divisors)} elementary divisors for rank {rank}")
    elif any(b % a for a, b in zip(divisors, divisors[1:])):
        failures.append("elementary divisors break the divisibility chain")
    else:
        if k == n and rank == k:
            product = 1
            for d in divisors:
                product *= d
            if product != abs(det):
                failures.append("product of elementary divisors differs from |det|")
        # M = U·diag(divisors)·V with U, V unimodular, so the rank mod p is
        # the number of divisors that p does not divide.
        for p, r in ranks.items():
            if r != sum(d % p != 0 for d in divisors):
                failures.append(f"rank mod {p} is {r}, which the elementary divisors contradict")
    unimodular = rank == k and all(d == 1 for d in divisors)
    if report["unimodular"] != unimodular:
        failures.append(f"unimodular={report['unimodular']} contradicts the divisors")

    for p in primes:
        if report["p_nonsingular"][str(p)]:
            if ranks[p] != k:
                failures.append(f"{p}-nonsingular claimed for a matrix singular mod {p}")
        else:
            failures += check_witness(report["p_witnesses"].get(str(p)), rows, p)
    p = expect.get("p_singular")
    if p is not None and (report["p_nonsingular"][str(p)] or report["unimodular"]):
        failures.append(f"row scaled by {p} but the report is not {p}-singular")
    return failures


# -- abelian solutions -------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def check_abelian_solution(group: dict, system: dict, solution: dict) -> list[str]:
    """Evaluate every equation of ``system`` at ``solution``, all in wire format.

    Cyclic coordinates compare modulo p**e, Prüfer coordinates modulo 1 and
    rational coordinates exactly; integer-line groups are not produced here.
    """
    summands = group["summands"]
    if set(solution) != set(system["vars"]):
        return [f"solution variables {sorted(solution)} != {sorted(system['vars'])}"]
    values = {v: [_fraction(c) for c in coords] for v, coords in solution.items()}
    for number, eq in enumerate(system["equations"]):
        for i, s in enumerate(summands):
            diff = sum(k * values[v][i] for v, k in eq["coeffs"].items()) - _fraction(eq["rhs"][i])
            if s["kind"] == "cyclic":
                ok = diff.denominator == 1 and diff.numerator % s["p"] ** s["e"] == 0
            elif s["kind"] == "prufer":
                ok = diff.denominator == 1
            else:
                ok = diff == 0
            if not ok:
                return [f"equation {number} fails in summand {i}"]
    return []


# -- Heisenberg solutions ------------------------------------------------------------


def check_heisenberg_solution(modulus, equations, solution: dict) -> list[str]:
    """Evaluate word equations in (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab').

    ``modulus`` is p**e, or None over Q; a word is a list of
    ("const", (a, b, c)) and ("var", name, exp) literals.
    """

    def canon(g):
        if modulus is None:
            return tuple(Fraction(x) for x in g)
        return tuple(int(x) % modulus for x in g)

    def mul(g, h):
        return canon((g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1]))

    def power(g, n):
        if n < 0:
            g, n = canon((-g[0], -g[1], -g[2] + g[0] * g[1])), -n
        out = canon((0, 0, 0))
        for _ in range(n):
            out = mul(out, g)
        return out

    values = {v: canon(_fraction(c) for c in coords) for v, coords in solution.items()}
    identity = canon((0, 0, 0))
    for number, word in enumerate(equations):
        acc = identity
        for lit in word:
            if lit[0] == "const":
                acc = mul(acc, canon(lit[1]))
            elif lit[1] not in values:
                return [f"solution lacks variable {lit[1]!r}"]
            else:
                acc = mul(acc, power(values[lit[1]], lit[2]))
        if acc != identity:
            return [f"word equation {number} evaluates to {acc}, not the identity"]
    return []
