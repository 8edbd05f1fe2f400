import random
from fractions import Fraction

import pytest

from groupeq.abelian import AbelianGroupDescriptor, Summand, order, primary_part
from groupeq.errors import (
    DependentRow,
    MissingPrimeNonsingularity,
    PSingular,
    SearchSpaceTooLarge,
    Singular,
    UnsupportedGroup,
)
from groupeq.nilpotent import (
    heisenberg_mod,
    heisenberg_q,
    solve_nilpotent_bounded,
    solve_nilpotent_divisible,
)
from groupeq.randgen import random_nonsingular_word_system, random_unimodular_word_system
from groupeq.solve_abelian import (
    EchelonState,
    brute_force_solve,
    solve_auto,
    solve_bounded,
    solve_divisible,
    solve_mod_p,
)
from groupeq.systems import AbelianEquation, AbelianSystem, is_p_nonsingular, verify_solution
from reference import solve_p_group


def Z(p, e):
    return Summand.cyclic(p, e)


def descr(*summands):
    return AbelianGroupDescriptor(summands)


def system_of(group, rows, rhs_list, variables):
    eqs = [
        AbelianEquation({v: row[j] for j, v in enumerate(variables)}, rhs)
        for row, rhs in zip(rows, rhs_list)
    ]
    return AbelianSystem(group, eqs, variables=variables)


# -- solve_mod_p ---------------------------------------------------------------


def test_solve_mod_p_examples():
    A = descr(Z(3, 1))
    sol = solve_mod_p(system_of(A, [[2]], [A.element([1])], ["x"]))
    assert sol["x"].coords == (2,)

    B = descr(Z(2, 1), Z(2, 1))
    a = B.element([1, 1])
    sol = solve_mod_p(system_of(B, [[1, 1], [0, 1]], [a, B.zero()], ["x", "y"]))
    assert sol["x"] == a and sol["y"].is_zero


def test_solve_mod_p_random_vs_brute():
    rng = random.Random("modp")
    A = descr(Z(5, 1), Z(5, 1))
    checked = 0
    while checked < 30:
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)]
        if not is_p_nonsingular(rows, 5)[0]:
            continue
        checked += 1
        rhs = [A.random_element(rng) for _ in range(2)]
        system = system_of(A, rows, rhs, ["x", "y", "z"])
        sol = solve_mod_p(system)
        assert verify_solution(system, sol.assignment)
        assert brute_force_solve(system) is not None


def test_solve_mod_p_singular_witness():
    A = descr(Z(3, 1))
    system = system_of(A, [[1, 2], [2, 4]], [A.element([1]), A.element([2])], ["x", "y"])
    with pytest.raises(PSingular) as exc:
        solve_mod_p(system)
    witness = exc.value.witness
    assert witness == {0: 1, 1: 1}
    rows = [[1, 2], [2, 4]]
    assert any(c % 3 for c in witness.values())
    for j in range(2):
        assert sum(c * rows[i][j] for i, c in witness.items()) % 3 == 0


# -- solve_p_group -------------------------------------------------------------------


def test_solve_p_group_examples():
    A = descr(Z(2, 3))
    a = A.element([5])
    assert solve_p_group(system_of(A, [[1]], [a], ["x"]))["x"] == a
    assert solve_p_group(system_of(A, [[3]], [A.element([1])], ["x"]))["x"].coords == (3,)


def test_solve_p_group_two_rounds_needed():
    # rhs in pA forces the first round's quotient solve to return zero
    A = descr(Z(2, 3))
    system = system_of(A, [[1]], [A.element([4])], ["x"])
    assert solve_p_group(system)["x"].coords == (4,)


def test_solve_p_group_vs_brute_force():
    rng = random.Random("pgroup")
    A = descr(Z(2, 3), Z(2, 3))  # |A| = 64
    for _ in range(25):
        rows = [[1, -2, 0], [0, 1, -4]]
        rhs = [A.random_element(rng) for _ in range(2)]
        system = system_of(A, rows, rhs, ["x", "y", "z"])
        sol = solve_p_group(system)
        assert verify_solution(system, sol.assignment)
        assert brute_force_solve(system) is not None


def test_solve_p_group_rejects_mixed_primes():
    A = descr(Z(2, 1), Z(3, 1))
    with pytest.raises(UnsupportedGroup):
        solve_p_group(system_of(A, [[1]], [A.zero()], ["x"]))


# -- solve_bounded ------------------------------------------------------------------------


def test_solve_bounded_examples():
    A = descr(Z(2, 1), Z(3, 1))
    system = system_of(
        A, [[1, 2, 0], [1, 0, 3]], [A.element([1, 0]), A.element([0, 1])], ["x", "y", "z"]
    )
    sol = solve_bounded(system)
    assert verify_solution(system, sol.assignment)
    assert brute_force_solve(system) is not None

    trivial = AbelianSystem(descr(), [], variables=["x"])
    assert solve_bounded(trivial)["x"].coords == ()

    B = descr(Z(3, 2))
    sol = solve_bounded(system_of(B, [[2]], [B.element([1])], ["x"]))
    assert sol["x"].coords == (5,)  # 2-singular but only p = 3 matters


def test_solve_bounded_names_offending_prime():
    A = descr(Z(2, 1), Z(3, 1))
    system = system_of(A, [[3]], [A.element([1, 1])], ["x"])  # row vanishes mod 3
    with pytest.raises(MissingPrimeNonsingularity) as exc:
        solve_bounded(system)
    assert exc.value.p == 3
    witness = exc.value.witness
    assert any(w % 3 != 0 for w in witness)
    assert sum(w * [3][i] for i, w in enumerate(witness)) % 3 == 0

    # dependent mod 3 already at row 1, mod 2 only at row 2: the whole
    # system is 2-singular, so the smaller prime is the one named
    rows = [[1, 1, 0], [4, 1, 0], [1, 2, 2]]
    system = system_of(A, rows, [A.zero()] * 3, ["x", "y", "z"])
    with pytest.raises(MissingPrimeNonsingularity) as exc:
        solve_bounded(system)
    assert exc.value.p == 2
    witness = exc.value.witness
    assert len(witness) == 3 and any(w % 2 != 0 for w in witness)
    for j in range(3):
        assert sum(w * rows[i][j] for i, w in enumerate(witness)) % 2 == 0


def test_solve_bounded_rejects_divisible_summands():
    A = descr(Summand.prufer(2))
    with pytest.raises(UnsupportedGroup):
        solve_bounded(AbelianSystem(A, []))


# -- solve_divisible -------------------------------------------------------------------------


def test_solve_divisible_examples():
    P = descr(Summand.prufer(2))
    system = system_of(P, [[2]], [P.element([Fraction(1, 2)])], ["x"])
    assert solve_divisible(system)["x"].coords == (Fraction(1, 4),)

    Q = descr(Summand.rational())
    a = Q.element([Fraction(3, 7)])
    assert solve_divisible(system_of(Q, [[1]], [a], ["x"]))["x"] == a

    M = descr(Summand.prufer(5), Summand.rational())
    rhs = [M.random_element(random.Random("div")) for _ in range(2)]
    system = system_of(M, [[2, 3], [1, -1]], rhs, ["x", "y"])  # det = -5 != 0
    sol = solve_divisible(system)
    assert verify_solution(system, sol.assignment)

    # roots over a Prufer group are not unique: forward substitution down
    # [[3, 0], [1, 1]] takes divide_exact's root x = 1/9 of 3x = 1/3, then y = -x
    P3 = descr(Summand.prufer(3))
    system = system_of(P3, [[3, 0], [1, 1]], [P3.element([Fraction(1, 3)]), P3.zero()], ["x", "y"])
    sol = solve_divisible(system)
    assert (sol["x"].coords, sol["y"].coords) == ((Fraction(1, 9),), (Fraction(8, 9),))


def test_solve_divisible_non_square():
    P = descr(Summand.prufer(3), Summand.rational())
    rng = random.Random("divsq")
    system = system_of(
        P, [[2, 0, 3], [0, 1, -1]], [P.random_element(rng) for _ in range(2)], ["x", "y", "z"]
    )
    sol = solve_divisible(system)
    assert verify_solution(system, sol.assignment)


def test_solve_divisible_singular():
    Q = descr(Summand.rational())
    system = system_of(Q, [[1, 1], [1, 1]], [Q.element([1]), Q.element([0])], ["x", "y"])
    with pytest.raises(Singular) as exc:
        solve_divisible(system)
    assert exc.value.witness is not None


# -- solve_auto ---------------------------------------------------------------------------------


def test_solve_auto_examples():
    A = descr(Z(2, 2), Summand.prufer(3))
    rng = random.Random("auto")
    system = system_of(A, [[1, 4]], [A.random_element(rng)], ["x", "y"])
    sol = solve_auto(system)
    assert verify_solution(system, sol.assignment)

    Q = descr(Summand.rational())
    a = Q.element([Fraction(-2, 9)])
    assert solve_auto(system_of(Q, [[1]], [a], ["x"]))["x"] == a


def test_solve_auto_rejects_integer_line():
    A = descr(Summand.integer())
    with pytest.raises(UnsupportedGroup):
        solve_auto(AbelianSystem(A, [AbelianEquation({"x": 1}, A.element([1]))]))


def test_solve_auto_trivial_group_accepts_singular_rows():
    A = descr()
    eqs = [AbelianEquation({"x": 2}, A.zero()), AbelianEquation({"x": 4}, A.zero())]
    for solve in (solve_auto, solve_bounded, solve_divisible, solve_mod_p):
        sol = solve(AbelianSystem(A, eqs))
        assert sol["x"].coords == ()


def test_solve_auto_propagates_prime_failures():
    A = descr(Z(2, 1), Summand.prufer(3))
    system = system_of(A, [[2]], [A.element([1, 0])], ["x"])
    with pytest.raises(MissingPrimeNonsingularity) as exc:
        solve_auto(system)
    assert exc.value.p == 2

    # singular over Q and modulo 2: the cyclic summands are solved first
    A = descr(Z(2, 1), Summand.prufer(3), Summand.rational())
    system = system_of(A, [[2, 4], [1, 2]], [A.zero(), A.element([1, 0, 0])], ["x", "y"])
    with pytest.raises(MissingPrimeNonsingularity) as exc:
        solve_auto(system)
    assert (exc.value.p, exc.value.witness) == (2, [1, 0])


def test_solve_auto_cyclic_and_prufer_summands_of_one_prime():
    # the echelon mod 9 takes Z/9 alone; Prufer(3) and Q go through the
    # column Hermite route
    A = descr(Z(3, 2), Summand.prufer(3), Summand.rational())
    a = A.element([4, Fraction(1, 3), Fraction(1, 2)])
    b = A.element([1, Fraction(2, 9), 3])
    sol = solve_auto(system_of(A, [[2, 3], [1, 1]], [a, b], ["x", "y"]))
    assert sol.to_json() == {"x": ["8", "1/3", "17/2"], "y": ["2", "8/9", "-11/2"]}


def test_each_public_solver_verifies_once(monkeypatch):
    from groupeq import solve_abelian

    calls = []

    def spy(system, assignment):
        calls.append(system)
        return verify_solution(system, assignment)

    monkeypatch.setattr(solve_abelian, "verify_solution", spy)
    rng = random.Random("once")
    mixed = descr(Z(2, 2), Z(3, 1), Summand.prufer(5), Summand.rational())
    bounded = descr(Z(2, 3), Z(3, 2))
    divisible = descr(Summand.prufer(3), Summand.rational())
    field = descr(Z(5, 1), Z(5, 1))
    cases = [
        (solve_auto, system_of(mixed, [[1, 2], [0, 1]], [mixed.random_element(rng)] * 2, "xy")),
        (solve_bounded, system_of(bounded, [[1, 2], [0, 1]], [bounded.random_element(rng)] * 2, "xy")),
        (solve_divisible, system_of(divisible, [[2, 3]], [divisible.random_element(rng)], "xy")),
        (solve_mod_p, system_of(field, [[1, 2]], [field.random_element(rng)], "xy")),
        (solve_nilpotent_bounded, random_unimodular_word_system(heisenberg_mod(3, 2), "once")),
        (solve_nilpotent_divisible, random_nonsingular_word_system(heisenberg_q(), "once")),
    ]
    for solve, system in cases:
        calls.clear()
        solve(system)
        assert calls == [system], solve.__name__


def test_solve_auto_random_mixed():
    rng = random.Random("automix")
    for _ in range(25):
        A = descr(Z(2, 2), Z(3, 1), Summand.prufer(5), Summand.rational())
        rows = [[1, rng.randint(-3, 3)], [0, 1]]
        system = system_of(A, rows, [A.random_element(rng) for _ in range(2)], ["x", "y"])
        sol = solve_auto(system)
        assert verify_solution(system, sol.assignment)


# -- streaming -------------------------------------------------------------------------------------


def test_stream_empty_state():
    A = descr(Z(2, 2))
    state = EchelonState(A)
    assert state.solution().assignment == {}


def test_stream_two_equations_over_z8():
    A = descr(Z(2, 3))
    state = EchelonState(A)
    rng = random.Random("s8")
    a, b = A.random_element(rng), A.random_element(rng)
    eq1 = AbelianEquation({"x": 1, "y": -2}, a)
    eq2 = AbelianEquation({"y": 1, "z": -2}, b)
    state.ingest(eq1)
    assert verify_solution(AbelianSystem(A, [eq1]), state.solution().assignment)
    state.ingest(eq2)
    assert verify_solution(AbelianSystem(A, [eq1, eq2]), state.solution().assignment)


def test_stream_long_run_and_stability():
    from groupeq.randgen import random_unimodular_stream

    A = descr(Z(2, 2), Z(3, 2))
    stream = random_unimodular_stream(A, seed=11)
    state = EchelonState(A)
    snapshots = {}
    for i in range(50):
        state.ingest(stream.gen(i))
        if i + 1 in (10, 25, 50):
            snapshots[i + 1] = state.solution()
    for depth, solution in snapshots.items():
        assert verify_solution(stream.truncation(depth), solution.assignment)
    # the depth-50 solution still satisfies every earlier truncation
    final = snapshots[50]
    for depth in (10, 25):
        assert verify_solution(stream.truncation(depth), final.assignment)


def test_stream_dependent_row_witness():
    A = descr(Z(2, 2))
    state = EchelonState(A)
    rows = [{"x": 1, "y": 2}, {"x": 3, "y": 6}]  # second row = 3 * first mod 4
    state.ingest(AbelianEquation(rows[0], A.element([1])))
    with pytest.raises(DependentRow) as exc:
        state.ingest(AbelianEquation(rows[1], A.element([0])))
    witness = exc.value.witness
    assert witness == {0: 1, 1: 1}
    dense = [[1, 2], [3, 6]]
    for j in range(2):
        assert sum(c * dense[i][j] for i, c in witness.items()) % 2 == 0


def test_stream_ingest_is_atomic():
    # the row is accepted mod 2 but dependent mod 3: no component may keep it
    A = descr(Z(2, 1), Z(3, 1))
    state = EchelonState(A)
    eq1 = AbelianEquation({"x": 1}, A.element([1, 2]))
    state.ingest(eq1)
    with pytest.raises(DependentRow) as exc:
        state.ingest(AbelianEquation({"x": 4, "y": 3}, A.element([0, 1])))
    assert exc.value.p == 3
    assert [len(comp.rows) for comp in state.components] == [1, 1]
    assert state.count == 1
    eq2 = AbelianEquation({"y": 1}, A.element([1, 1]))
    state.ingest(eq2)
    assert verify_solution(AbelianSystem(A, [eq1, eq2]), state.solution().assignment)


def test_stream_never_rewrites_a_stored_row():
    # the second row's pivot y sits in the first stored row, which keeps it:
    # the engine only appends, and the values come from back substitution
    A = descr(Z(2, 2))
    state = EchelonState(A)
    eq1 = AbelianEquation({"x": 1, "y": 1}, A.element([1]))
    eq2 = AbelianEquation({"y": 1}, A.element([3]))
    state.ingest(eq1)
    (comp,) = state.components
    pv, row, rhs = comp.rows[0]
    snapshot = (pv, dict(row), rhs)
    state.ingest(eq2)
    assert comp.rows[0] == snapshot
    assert verify_solution(AbelianSystem(A, [eq1, eq2]), state.solution().assignment)


def test_stream_rejects_unbounded_group():
    with pytest.raises(UnsupportedGroup):
        EchelonState(descr(Summand.prufer(2)))


def test_stream_refuses_an_equation_over_another_group():
    A, B = descr(Z(2, 1)), descr(Z(3, 1))
    state = EchelonState(A).ingest(AbelianEquation({"x": 1}, A.element([1])))
    with pytest.raises(UnsupportedGroup, match="equation over a different group"):
        state.ingest(AbelianEquation({"y": 1}, B.element([1])))
    assert state.count == 1
    assert state.solution()["x"] == A.element([1])


@pytest.mark.parametrize(
    "group",
    [
        descr(Z(2, 2)),
        descr(Z(2, 1), Z(3, 1)),
        descr(Summand.rational()),
        descr(Z(2, 1), Summand.prufer(2)),
    ],
    ids=["Z4", "Z2+Z3", "Q", "Z2+Prufer2"],
)
def test_solve_mod_p_needs_every_summand_equal_to_z_p(group):
    with pytest.raises(UnsupportedGroup, match="solve_mod_p needs every summand equal to Z/p"):
        solve_mod_p(AbelianSystem(group, [AbelianEquation({"x": 1}, group.zero())]))


@pytest.mark.parametrize(
    "group", [descr(Z(2, 1)), descr(Summand.rational(), Z(3, 1)), descr(Summand.integer())],
    ids=["Z2", "Q+Z3", "Z"],
)
def test_solve_divisible_needs_every_summand_divisible(group):
    with pytest.raises(UnsupportedGroup, match="solve_divisible needs every summand divisible"):
        solve_divisible(AbelianSystem(group, [AbelianEquation({"x": 1}, group.zero())]))


def test_stream_agrees_with_round_lifting():
    # the echelon engine (incremental and batch) against the paper's literal
    # round-by-round lifting, run on each primary component: free variables
    # are 0 on both sides, so the assignments must be equal, not just valid
    from groupeq.randgen import random_abelian_instance, random_unimodular_stream

    def by_lifting(system):
        A = system.group
        coords = {v: [0] * len(A.summands) for v in system.variables}
        for p in sorted({s.p for s in A.summands}):
            sub, indices = primary_part(A, p)
            component = AbelianSystem(
                sub,
                [
                    AbelianEquation(eq.coeffs, sub.element(eq.rhs.coords[i] for i in indices))
                    for eq in system.equations
                ],
                variables=system.variables,
            )
            for v, x in solve_p_group(component).assignment.items():
                for i, c in zip(indices, x.coords):
                    coords[v][i] = c
        lifted = {v: A.element(c) for v, c in coords.items()}
        assert verify_solution(system, lifted)
        return lifted

    A = descr(Z(2, 3), Z(2, 1), Z(3, 2))
    stream = random_unimodular_stream(A, seed="cross")
    state = EchelonState(A)
    for depth in (5, 12, 20):
        while state.count < depth:
            state.ingest(stream.gen(state.count))
        truncation = stream.truncation(depth)
        lifted = by_lifting(truncation)
        assert state.solution().assignment == lifted
        assert solve_bounded(truncation).assignment == lifted

    # wide systems, where free variables exist
    for i in range(40):
        system, flavor = random_abelian_instance(f"lift:{i}")
        if flavor != "unsolvable":
            assert solve_bounded(system).assignment == by_lifting(system)

    # dense systems, whose stored rows hold the pivots of later rows, so the
    # values need back substitution through many rows
    A = descr(Z(2, 3), Z(2, 1), Z(3, 2))
    rng = random.Random("dense")
    variables = [f"x{j}" for j in range(8)]
    kept = deep = 0
    for _ in range(200):
        rows = [[rng.randint(-6, 6) for _ in variables] for _ in range(6)]
        if not all(is_p_nonsingular(rows, p)[0] for p in (2, 3)):
            continue
        system = system_of(A, rows, [A.random_element(rng) for _ in rows], variables)
        state = EchelonState(A)
        for eq in system.equations:
            state.ingest(eq)
        lifted = by_lifting(system)
        assert state.solution().assignment == lifted
        assert solve_bounded(system).assignment == lifted
        kept += 1
        deep += any(
            later in row
            for comp in state.components
            for i, (_, row, _) in enumerate(comp.rows)
            for later, _, _ in comp.rows[i + 1 :]
        )
    assert kept >= 100
    assert deep == kept


# -- brute force -------------------------------------------------------------------------------------


def test_brute_force_examples():
    A = descr(Z(2, 1))
    a = A.element([1])
    sol = brute_force_solve(system_of(A, [[1]], [a], ["x"]))
    assert sol is not None and sol["x"] == a

    B = descr(Z(2, 2))
    assert brute_force_solve(system_of(B, [[2]], [B.element([1])], ["x"])) is None


def test_brute_force_refuses_a_variable_free_equation_with_nonzero_rhs():
    A = descr(Z(2, 1), Z(3, 1))
    system = AbelianSystem(
        A,
        [AbelianEquation({"x": 1}, A.zero()), AbelianEquation({"x": 0}, A.element([0, 2]))],
        variables=["x"],
    )
    assert brute_force_solve(system) is None
    # with a zero rhs the same equation constrains nothing
    system = AbelianSystem(A, [AbelianEquation({}, A.zero())], variables=["x"])
    assert brute_force_solve(system)["x"] == A.zero()


def test_brute_force_too_large():
    A = descr(Z(3, 3), Z(3, 3))  # |A| = 729
    system = system_of(A, [[1, 0, 0], [0, 1, 0]], [A.zero(), A.zero()], ["x", "y", "z"])
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_solve(system)


@pytest.mark.parametrize("summand", [Summand.integer(), Summand.rational(), Summand.prufer(2)])
def test_brute_force_refuses_an_infinite_group(summand):
    A = descr(Z(2, 1), summand)
    with pytest.raises(UnsupportedGroup, match="brute force needs a finite group"):
        brute_force_solve(system_of(A, [[1]], [A.zero()], ["x"]))


def test_brute_force_agrees_with_solver():
    from groupeq.randgen import random_abelian_instance

    for i in range(60):
        system, flavor = random_abelian_instance(f"agree:{i}", node_budget=3 * 10**4)
        brute = brute_force_solve(system)
        try:
            sol = solve_bounded(system)
            solved = True
            assert verify_solution(system, sol.assignment)
        except MissingPrimeNonsingularity:
            solved = False
        assert solved == (brute is not None), (flavor, system.equations)
        if flavor in ("unimodular", "filtered"):
            assert solved
