"""Seeded random generators for systems, streams, and matrices.

Everything here is deterministic given its seed: random state is derived
from string seeds (stable across runs and platforms), and replaying a
stream index rebuilds the identical equation.
"""

from __future__ import annotations

import random

from .abelian import AbelianGroupDescriptor, Summand
from .errors import VerificationFailed
from .nilpotent import WordSystem
from .systems import AbelianEquation, AbelianSystem, Const, EquationStream, GroupEquation, VarPow
from .systems import is_nonsingular, is_p_nonsingular, is_unimodular


def rng_for(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def random_unimodular_stream(group: AbelianGroupDescriptor, seed) -> EquationStream:
    """A stream whose every truncation is unimodular by construction.

    Equation i has coefficient 1 on x_{i+1} and at most 3 random entries, each
    in ±1..±3, on earlier variables, i.e. a unit lower-triangular pattern.
    """

    def gen(i: int) -> AbelianEquation:
        rng = rng_for("stream", seed, i)
        coeffs = {f"x{i + 1}": 1}
        if i > 0:
            for j in rng.sample(range(1, i + 1), k=min(3, i)):
                c = rng.randint(1, 3) * rng.choice((1, -1))
                coeffs[f"x{j}"] = c
        return AbelianEquation(coeffs, group.random_element(rng))

    return EquationStream(group, gen)


def random_unimodular_matrix(rng: random.Random, k: int, n: int) -> list[list[int]]:
    """Shuffle [I | 0] by 6 elementary row/column operations; stays unimodular."""
    A = [[int(i == j) for j in range(n)] for i in range(k)]
    for _ in range(6):
        q = rng.randint(-2, 2)
        if rng.random() < 0.5 and k > 1:
            i, j = rng.sample(range(k), 2)
            A[i] = [x + q * y for x, y in zip(A[i], A[j])]
        elif n > 1:
            i, j = rng.sample(range(n), 2)
            for row in A:
                row[i] += q * row[j]
    if not is_unimodular(A):
        raise VerificationFailed("row and column operations broke unimodularity")
    return A


def random_bounded_group(rng: random.Random) -> AbelianGroupDescriptor:
    """A sum of at most three small cyclic p-groups, of order at most 729."""
    pool = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (3, 3)]
    summands = []
    size = 1
    for _ in range(rng.randint(1, 3)):
        p, e = rng.choice(pool)
        if size * p**e > 729:
            continue
        size *= p**e
        summands.append(Summand.cyclic(p, e))
    if not summands:
        summands.append(Summand.cyclic(2, 1))
    return AbelianGroupDescriptor(summands)


def random_abelian_instance(seed_key: str, node_budget: int = 10**5):
    """One instance for solver/oracle agreement runs.

    Three flavors, chosen by the seeded rng:

    * ``unimodular``  — matrix built from elementary operations; always
      solvable over a bounded-period group, and the solver must prove it.
    * ``filtered``    — raw random coefficients, kept only when p-nonsingular
      for every prime dividing the period (so again guaranteed solvable).
    * ``unsolvable``  — one equation is p*(row) = generator of a Z/p**e
      summand, which forces the rhs outside p*A; no solution exists and the
      solver must refuse with the matching prime.

    The search space |A|**vars stays within node_budget so the brute-force
    oracle can exhaust it.
    """
    rng = rng_for("abinst", seed_key)
    group = random_bounded_group(rng)
    size = group.size()
    nvars = 1
    while nvars < 4 and size ** (nvars + 1) <= node_budget:
        nvars += 1
    nvars = rng.randint(1, nvars)
    variables = [f"x{i + 1}" for i in range(nvars)]
    neqs = rng.randint(1, min(3, nvars))
    flavor = rng.choices(("unimodular", "filtered", "unsolvable"), weights=(5, 3, 2))[0]

    if flavor == "unimodular":
        rows = random_unimodular_matrix(rng, neqs, nvars)
    elif flavor == "filtered":
        primes = sorted({s.p for s in group.summands})
        while True:
            rows = [[rng.randint(-4, 4) for _ in range(nvars)] for _ in range(neqs)]
            if all(is_p_nonsingular(rows, p)[0] for p in primes):
                break
    else:
        # unsolvable: p * (unit row) = a with the p-part of a outside p*A
        cyclic_idx = rng.randrange(len(group.summands))
        p = group.summands[cyclic_idx].p
        rows = random_unimodular_matrix(rng, neqs, nvars)
        rows[0] = [p * k for k in rows[0]]
    # the unsolvable row's right-hand side is fixed; every other one is drawn
    rhs = [group.generator(cyclic_idx)] if flavor == "unsolvable" else []
    rhs += [group.random_element(rng) for _ in rows[len(rhs) :]]
    eqs = [AbelianEquation(dict(zip(variables, row)), b) for row, b in zip(rows, rhs)]
    return AbelianSystem(group, eqs, variables=variables), flavor


# -- word system generators -----------------------------------------------------


def _words_from_matrix(group, rng: random.Random, rows, variables) -> list[GroupEquation]:
    equations = []
    for row in rows:
        word = [Const(group.random_element(rng))]
        for j, v in enumerate(variables):
            e = row[j]
            if e == 0:
                continue
            if abs(e) > 1 and rng.random() < 0.5:
                # split the power around a constant to exercise word collection
                head = e - (1 if e > 0 else -1)
                word.append(VarPow(v, head))
                word.append(Const(group.random_element(rng)))
                word.append(VarPow(v, e - head))
            else:
                word.append(VarPow(v, e))
        word.append(Const(group.random_element(rng)))
        equations.append(GroupEquation(word))
    return equations


def random_unimodular_word_system(group, seed_key: str, max_eqs: int = 2, max_vars: int = 3):
    """A unimodular word system with random interleaved constants."""
    rng = rng_for("nilp", seed_key)
    neqs = rng.randint(1, max_eqs)
    nvars = rng.randint(neqs, max_vars)
    variables = [f"x{i + 1}" for i in range(nvars)]
    rows = random_unimodular_matrix(rng, neqs, nvars)
    system = WordSystem(group, _words_from_matrix(group, rng, rows, variables), variables)
    if not is_unimodular(system.matrix()):
        raise VerificationFailed("the word system's exponent matrix is not unimodular")
    return system


def random_nonsingular_word_system(group, seed_key: str, max_eqs: int = 2, max_vars: int = 3):
    """A nonsingular word system; coefficients stay within height 10."""
    rng = rng_for("nilpq", seed_key)
    neqs = rng.randint(1, max_eqs)
    nvars = rng.randint(neqs, max_vars)
    variables = [f"x{i + 1}" for i in range(nvars)]
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(neqs)]
        if is_nonsingular(rows)[0]:
            break
    system = WordSystem(group, _words_from_matrix(group, rng, rows, variables), variables)
    return system
