"""Property tests of the abelian solvers on small groups.

Derandomized, so every run draws the same examples: bounded groups of order
at most 64, divisible groups of at most three summands, and systems of at
most three equations in at most three variables.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupeq.abelian import AbelianGroupDescriptor, Summand
from groupeq.errors import GroupEqError, MissingPrimeNonsingularity
from groupeq.solve_abelian import solve_auto, solve_bounded, solve_divisible
from groupeq.systems import AbelianEquation, AbelianSystem, is_p_nonsingular

SMALL = settings(derandomize=True, database=None, deadline=None, max_examples=150)

CYCLIC = [Summand.cyclic(p, e) for p, e in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1))]
DIVISIBLE = [Summand.prufer(2), Summand.prufer(3), Summand.prufer(5), Summand.rational()]


@st.composite
def bounded_groups(draw):
    summands, order = [], 1
    for s in draw(st.lists(st.sampled_from(CYCLIC), max_size=3)):
        if order * s.modulus <= 64:
            order *= s.modulus
            summands.append(s)
    return AbelianGroupDescriptor(summands)


divisible_groups = st.lists(st.sampled_from(DIVISIBLE), min_size=1, max_size=3).map(
    AbelianGroupDescriptor
)


@st.composite
def systems(draw, groups):
    """A system over a drawn group, with its dense coefficient rows."""
    group = draw(groups)
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2**16)))
    variables = [f"x{j}" for j in range(n)]
    equations = [
        AbelianEquation(dict(zip(variables, row)), group.random_element(rng)) for row in rows
    ]
    return AbelianSystem(group, equations, variables=variables), rows


def outcome(solve, system):
    """The answer's JSON, or the refusal's type, message and witness."""
    try:
        return solve(system).to_json()
    except GroupEqError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


@SMALL
@given(systems(bounded_groups()))
def test_solve_bounded_succeeds_iff_p_nonsingular(case):
    system, rows = case
    primes = sorted({s.p for s in system.group.summands})
    singular = [p for p in primes if not is_p_nonsingular(rows, p)[0]]
    if not singular:
        solve_bounded(system)
        return
    with pytest.raises(MissingPrimeNonsingularity) as exc:
        solve_bounded(system)
    assert exc.value.p == singular[0]


@SMALL
@given(systems(bounded_groups()))
def test_refusal_witness_is_a_dependency_mod_p(case):
    system, rows = case
    try:
        solve_bounded(system)
    except MissingPrimeNonsingularity as exc:
        p, witness = exc.p, exc.witness
        assert len(witness) == len(rows)
        assert any(w % p for w in witness)
        for j in range(len(rows[0])):
            assert sum(w * row[j] for w, row in zip(witness, rows)) % p == 0
        # canonical: 1 on the refused row j, nothing after it, and the rows
        # before j independent mod p, so the witness is unique
        j = max(i for i, w in enumerate(witness) if w)
        assert witness[j] == 1
        assert is_p_nonsingular(rows[:j], p)[0]


@SMALL
@given(systems(bounded_groups()))
def test_solve_auto_matches_solve_bounded(case):
    system, _ = case
    assert outcome(solve_auto, system) == outcome(solve_bounded, system)


@SMALL
@given(systems(divisible_groups))
def test_solve_auto_matches_solve_divisible(case):
    system, _ = case
    assert outcome(solve_auto, system) == outcome(solve_divisible, system)
