"""Property tests of the abelian solvers on small groups, and of the element
arithmetic they run on.

Derandomized, so every run draws the same examples: bounded groups of order
at most 64, divisible groups of at most three summands, and systems of at
most three equations in at most three variables.  The arithmetic tests
compare abelian and Heisenberg elements with a reference that canonicalises
every coordinate from scratch: ``Fraction(...)`` on Q, the fractional part
on a Prüfer group, ``% p**e`` on Z/p**e.  ``verify_solution`` is compared
with each equation's sum of k*x - rhs canonicalised the same way.  The word
tests compare ``evaluate_word``, which collects a word in one pass, with a
literal left-to-right fold of ``multiply`` and ``power``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupeq.abelian import AbelianGroupDescriptor, Summand
from groupeq.errors import (
    DescriptorMismatch,
    GroupEqError,
    MissingPrimeNonsingularity,
    MissingVariable,
)
from groupeq.nilpotent import AbelianHandle, evaluate_word, heisenberg_mod, heisenberg_q
from groupeq.solve_abelian import solve_auto, solve_bounded, solve_divisible
from groupeq.systems import (
    AbelianEquation,
    AbelianSystem,
    Const,
    GroupEquation,
    VarPow,
    is_p_nonsingular,
    verify_solution,
)

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


# -- element arithmetic ----------------------------------------------------------

MIXED = CYCLIC[:3] + DIVISIBLE + [Summand.integer()]


def reference_coord(s: Summand, x):
    """x canonicalised from scratch in summand s."""
    if s.kind == "cyclic":
        return int(x) % s.p**s.e
    if s.kind == "prufer":
        return Fraction(x) % 1
    return Fraction(x) if s.kind == "q" else int(x)


def is_canonical_type(s: Summand, c) -> bool:
    return type(c) is (Fraction if s.is_divisible else int)


@st.composite
def mixed_elements(draw):
    """A descriptor mixing cyclic, Prüfer, Q and Z summands, and two of its elements."""
    group = AbelianGroupDescriptor(draw(st.lists(st.sampled_from(MIXED), min_size=1, max_size=5)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    return group, group.random_element(rng), group.random_element(rng)


@SMALL
@given(mixed_elements(), st.integers(-40, 40))
def test_element_arithmetic_matches_coordinatewise_reference(case, k):
    group, a, b = case
    raw = {
        "a + b": (a + b, [x + y for x, y in zip(a.coords, b.coords)]),
        "a - b": (a - b, [x - y for x, y in zip(a.coords, b.coords)]),
        "-a": (-a, [-x for x in a.coords]),
        "k*a": (k * a, [k * x for x in a.coords]),
        "combine": (
            group.combine([(a, k), (b, -3), (a, 1)]),
            [k * x - 3 * y + x for x, y in zip(a.coords, b.coords)],
        ),
        "combine []": (group.combine([]), [0] * len(group.summands)),
    }
    for name, (result, coords) in raw.items():
        assert result.coords == group.element(coords).coords, name
        assert result.coords == tuple(map(reference_coord, group.summands, coords)), name
        assert all(map(is_canonical_type, group.summands, result.coords)), name
    assert a - b == a + (-b)
    assert group.combine([]) == group.zero()


@SMALL
@given(st.lists(st.sampled_from(MIXED), min_size=1, max_size=5), st.data())
def test_integer_coordinates_convert_to_canonical_types(summands, data):
    group = AbelianGroupDescriptor(summands)
    coords = [0 if s.kind == "prufer" else data.draw(st.integers(-99, 99)) for s in summands]
    element = group.element(coords)
    assert element.coords == tuple(map(reference_coord, summands, coords))
    assert all(map(is_canonical_type, summands, element.coords))


def heisenberg_reference(group):
    """canon, multiply, invert and power with every scalar canonicalised from scratch."""
    if group.ring.modulus is not None:
        m = group.ring.p**group.ring.e

        def canon(x):
            return int(x) % m

    else:

        def canon(x):
            return Fraction(x)

    def element(a, b, c):
        return (canon(a), canon(b), canon(c))

    def multiply(g, h):
        return element(g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def invert(g):
        return element(-g[0], -g[1], -g[2] + g[0] * g[1])

    def power(g, n):
        out = element(0, 0, 0)
        for _ in range(abs(n)):
            out = multiply(out, g if n > 0 else invert(g))
        return out

    return element, multiply, invert, power


HEISENBERG = {"Q": heisenberg_q(), "Z/8": heisenberg_mod(2, 3), "Z/9": heisenberg_mod(3, 2)}
SCALARS = st.one_of(st.integers(-30, 30), st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)))


@SMALL
@pytest.mark.parametrize("name", sorted(HEISENBERG))
@given(st.lists(SCALARS, min_size=6, max_size=6), st.integers(-12, 12))
def test_heisenberg_arithmetic_matches_reference(name, scalars, n):
    group = HEISENBERG[name]
    element, multiply, invert, power = heisenberg_reference(group)
    if group.ring.modulus is not None:
        scalars = [int(x) for x in scalars]
    g, h = group.element(*scalars[:3]), group.element(*scalars[3:])
    assert (g, h) == (element(*scalars[:3]), element(*scalars[3:]))
    kind = int if group.ring.modulus is not None else Fraction
    for got, want in (
        (group.multiply(g, h), multiply(g, h)),
        (group.invert(g), invert(g)),
        (group.power(g, n), power(g, n)),
        (group.identity(), element(0, 0, 0)),
    ):
        assert got == want
        assert all(type(x) is kind for x in got)
    zero = element(0, 0, 0)
    assert (group.center_recognize(g) is None) == (g[:2] != zero[:2])
    assert group.center_recognize(group.element(0, 0, scalars[2])).coords == (g[2],)


# -- verification of abelian systems ---------------------------------------------

mixed_groups = st.lists(st.sampled_from(MIXED), min_size=1, max_size=4).map(AbelianGroupDescriptor)


def reference_holds(system, assignment) -> bool:
    """Every equation's sum of k*x - rhs, canonicalised from scratch, is 0."""
    for eq in system.equations:
        for i, s in enumerate(system.group.summands):
            raw = sum(k * assignment[v].coords[i] for v, k in eq.coeffs.items()) - eq.rhs.coords[i]
            if reference_coord(s, raw) != 0:
                return False
    return True


@SMALL
@given(systems(mixed_groups), st.integers(0, 2**16))
def test_verify_solution_matches_coordinatewise_reference(case, seed):
    system, _ = case
    group = system.group
    rng = random.Random(seed)
    assignment = {v: group.random_element(rng) for v in system.variables}
    assert verify_solution(system, assignment) == reference_holds(system, assignment)
    # right-hand sides built coordinate-wise from the assignment, so it holds
    built = AbelianSystem(
        group,
        [
            AbelianEquation(
                eq.coeffs,
                group.element(
                    sum(k * assignment[v].coords[i] for v, k in eq.coeffs.items())
                    for i in range(len(group.summands))
                ),
            )
            for eq in system.equations
        ],
    )
    assert reference_holds(built, assignment)
    assert verify_solution(built, assignment)
    used = sorted(built.equations[0].variables())
    if used:
        with pytest.raises(MissingVariable):
            verify_solution(built, {v: g for v, g in assignment.items() if v != used[0]})
        other = AbelianGroupDescriptor(group.summands + (Summand.integer(),)).zero()
        with pytest.raises(DescriptorMismatch):
            verify_solution(built, {**assignment, used[0]: other})


# -- word evaluation --------------------------------------------------------------


def folded(group, word, assignment):
    """The word's value as a literal left-to-right fold of multiply and power."""
    out = group.identity()
    for lit in word:
        if isinstance(lit, Const):
            out = group.multiply(out, lit.value)
        else:
            out = group.multiply(out, group.power(assignment[lit.var], lit.exp))
    return out


EXPONENTS = st.integers(-6, 6).filter(bool)
LITERALS = st.one_of(st.none(), st.tuples(st.sampled_from(["x", "y", "z"]), EXPONENTS))


@st.composite
def words(draw, group):
    """A word over a handle, possibly empty, mixing constants (None in the
    drawn literals) and powers of x, y, z; and an assignment of all three."""
    literals = draw(st.lists(LITERALS, max_size=8))
    rng = random.Random(draw(st.integers(0, 2**16)))
    word = GroupEquation(
        Const(group.random_element(rng)) if lit is None else VarPow(*lit) for lit in literals
    )
    return word, {v: group.random_element(rng) for v in "xyz"}


def check_against_fold(group, word, assignment):
    got = evaluate_word(group, word, assignment)
    assert got == folded(group, word.word, assignment)
    used = sorted(word.variables())
    if used:
        with pytest.raises(MissingVariable):
            evaluate_word(group, word, {v: g for v, g in assignment.items() if v != used[0]})
    return got


@SMALL
@pytest.mark.parametrize("name", sorted(HEISENBERG))
@given(st.data())
def test_heisenberg_word_matches_left_to_right_fold(name, data):
    group = HEISENBERG[name]
    kind = int if group.ring.modulus is not None else Fraction
    for handle in (group, group.quotient):
        got = check_against_fold(handle, *data.draw(words(handle)))
        coords = got.coords if handle is group.quotient else got
        assert all(type(x) is kind for x in coords)


@SMALL
@given(st.lists(st.sampled_from(MIXED), min_size=1, max_size=5), st.data())
def test_abelian_word_matches_left_to_right_fold(summands, data):
    group = AbelianGroupDescriptor(summands)
    handle = AbelianHandle(group)
    word, assignment = data.draw(words(group))
    got = check_against_fold(handle, word, assignment)
    assert all(map(is_canonical_type, summands, got.coords))
    other = AbelianGroupDescriptor(summands + [Summand.integer()]).zero()
    for bad_word, bad_assignment in (
        (GroupEquation(word.word + (Const(other),)), assignment),
        (GroupEquation(word.word + (VarPow("w", -1),)), {**assignment, "w": other}),
    ):
        with pytest.raises(DescriptorMismatch):
            evaluate_word(handle, bad_word, bad_assignment)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: Summand.cyclic(3, 2), id="cyclic"),
        pytest.param(lambda: Summand.prufer(5), id="prufer"),
        pytest.param(lambda: Summand.rational(), id="q"),
    ],
)
def test_reading_the_modulus_keeps_equality_and_hash(make):
    read, fresh = make(), make()
    before = hash(read)
    modulus = read.modulus
    assert read.modulus == modulus  # a second read gives the same value
    assert read == fresh and fresh == read
    assert hash(read) == before == hash(fresh)
    assert len({read, fresh}) == 1
    assert fresh.modulus == modulus
