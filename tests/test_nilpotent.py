import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import groupeq
from groupeq.abelian import AbelianGroupDescriptor, GroupElement, Summand
from groupeq.errors import (
    CentralityAssertionFailed,
    DescriptorMismatch,
    MissingVariable,
    NotPeriodic,
    NotUnimodular,
    SearchSpaceTooLarge,
    Singular,
    UnsupportedGroup,
)
from groupeq.intmath import INFINITE
from groupeq.nilpotent import (
    AbelianHandle,
    HeisenbergGroup,
    TableGroup,
    WordSystem,
    brute_force_group_solve,
    commutator,
    evaluate_word,
    group_from_json,
    heisenberg_mod,
    heisenberg_q,
    nth_root_heisenberg_q,
    solve_nilpotent_bounded,
    solve_nilpotent_divisible,
    word_system_from_json,
)
from groupeq.randgen import (
    random_nonsingular_word_system,
    random_unimodular_word_system,
    rng_for,
)
from groupeq.systems import Const, GroupEquation, VarPow, is_nonsingular, verify_solution
from reference import center_of, project, section, word_system_to_json

H2 = heisenberg_mod(2)
H3 = heisenberg_mod(3)
H9 = heisenberg_mod(3, 2)
HQ = heisenberg_q()


def all_groups(rng):
    handles = [H2, H3, H9, HQ, AbelianHandle(AbelianGroupDescriptor([Summand.cyclic(2, 2)]))]
    return [(G, lambda G=G: G.random_element(rng)) for G in handles] + [
        (TableGroup.from_handle(H2), lambda: rng.randrange(8))
    ]


# -- group laws ------------------------------------------------------------------


def test_heisenberg_mod2_is_a_group():
    # TableGroup validation checks identity, unique inverses, and
    # associativity
    table = TableGroup.from_handle(H2)
    assert table.order == 8
    # the triples enumerate as the abelian group (Z/2)**3 does, last coordinate fastest
    elements = list(H2.elements())
    assert len(elements) == 8 and elements[:3] == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]
    with pytest.raises(NotPeriodic, match="cannot enumerate an infinite group"):
        next(iter(HQ.elements()))


@pytest.mark.parametrize(
    "ring", [Summand.prufer(3), Summand.integer()], ids=["prufer", "integer"]
)
def test_heisenberg_ring_is_cyclic_or_rational(ring):
    with pytest.raises(UnsupportedGroup):
        HeisenbergGroup(ring)


@pytest.mark.parametrize(
    "G, first_two",
    [
        pytest.param(H9, [["7", "3", "6"], ["1", "1", "7"]], id="mod9"),
        pytest.param(HQ, [["-5/9", "1/9", "3/1"], ["6/7", "9/1", "-8/1"]], id="q"),
    ],
)
def test_heisenberg_sampling_is_pinned(G, first_two):
    # seeded samples, and so every seeded workload, stay as they were
    rng = rng_for("pin", repr(G))
    assert [G.element_to_json(G.random_element(rng)) for _ in range(2)] == first_two


def test_heisenberg_laws_sampled():
    rng = random.Random("laws")
    for G in (H3, H9, HQ):
        for _ in range(40):
            x, y, z = (G.random_element(rng) for _ in range(3))
            assert G.multiply(G.multiply(x, y), z) == G.multiply(x, G.multiply(y, z))
            assert G.multiply(x, G.identity()) == x
            assert G.multiply(x, G.invert(x)) == G.identity()


def test_heisenberg_period_bounds():
    rng = random.Random("period")
    for G in (H2, H3, H9, heisenberg_mod(2, 2)):
        n = G.period_bound
        for _ in range(25):
            g = G.random_element(rng)
            assert G.power(g, n) == G.identity()
    # the bound is attained for p = 2: (1,1,0) has order 2*modulus
    assert H2.power((1, 1, 0), 2) != H2.identity()
    assert H2.power((1, 1, 0), 4) == H2.identity()


@pytest.mark.parametrize(
    "G", [heisenberg_mod(2, 3), heisenberg_mod(3, 2), heisenberg_q()], ids=["mod8", "mod9", "q"]
)
def test_heisenberg_power_is_repeated_product(G):
    rng = random.Random("power")
    for _ in range(10):
        g = G.random_element(rng)
        for n in range(-6, 7):
            factor = g if n >= 0 else G.invert(g)
            product = G.identity()
            for _ in range(abs(n)):
                product = G.multiply(product, factor)
            assert G.power(g, n) == product


# -- commutators ------------------------------------------------------------------


def test_commutator_examples():
    g = (1, 1, 0)
    assert commutator(H2, g, g) == H2.identity()
    assert commutator(H2, H2.identity(), g) == H2.identity()
    assert commutator(H3, (1, 0, 0), (0, 1, 0)) == (0, 0, 1)


def test_commutator_identities_all_groups():
    # [a,bc] = [a,c][a,b][[a,b],c]  and  [ab,c] = [a,c][[a,c],b][b,c]
    rng = random.Random("commid")
    for G, sample in all_groups(rng):
        for _ in range(40):
            a, b, c = sample(), sample(), sample()
            lhs = commutator(G, a, G.multiply(b, c))
            ab = commutator(G, a, b)
            rhs = G.multiply(
                G.multiply(commutator(G, a, c), ab), commutator(G, ab, c)
            )
            assert lhs == rhs
            lhs2 = commutator(G, G.multiply(a, b), c)
            ac = commutator(G, a, c)
            rhs2 = G.multiply(G.multiply(ac, commutator(G, ac, b)), commutator(G, b, c))
            assert lhs2 == rhs2


# -- word evaluation -----------------------------------------------------------------


def test_evaluate_word_basics():
    g, h = (1, 0, 0), (0, 1, 1)
    eq = GroupEquation([Const(g), Const(h)])
    assert evaluate_word(H3, eq, {}) == H3.multiply(g, h)
    eq2 = GroupEquation([VarPow("x", 1), VarPow("x", -1)])
    assert evaluate_word(H3, eq2, {"x": (2, 1, 0)}) == H3.identity()
    with pytest.raises(MissingVariable):
        evaluate_word(H3, eq2, {})


def test_heisenberg_q_words_convert_ints_and_refuse_floats():
    # a scalar that is not a Fraction is read as element reads it: an int is
    # converted, and a float is refused with ValueError, as multiply refuses
    # it, instead of being read through its own as_integer_ratio
    g = HQ.element(Fraction(-1, 2), 0, 0)
    system = WordSystem(HQ, [GroupEquation([VarPow("x", 1), Const(g)])])
    assert verify_solution(system, {"x": HQ.invert(g)})
    with pytest.raises(ValueError):
        HQ.multiply((0.5, 0.0, 0.0), g)
    with pytest.raises(ValueError):
        verify_solution(system, {"x": (0.5, 0.0, 0.0)})
    got = HQ.evaluate([((1, 0, 2), 3), (g, 1), ((0, 1, 0), -2)])
    want = HQ.multiply(HQ.multiply(HQ.power((1, 0, 2), 3), g), HQ.power((0, 1, 0), -2))
    assert got == want
    assert all(type(c) is Fraction for c in got)


Z8 = AbelianGroupDescriptor([Summand.cyclic(2, 3)])
T2 = TableGroup.from_handle(H2)


@pytest.mark.parametrize(
    "G, good, bad, shown",
    [
        (T2, 1, -7, "-7"),  # a negative index must not wrap round to element 1
        (T2, 1, True, "True"),
        (T2, 1, 99, "99"),
        (T2, 1, 1.0, "1.0"),
        (H3, (1, 0, 0), (True, 0, 0), "True"),
        (H3, (1, 0, 0), (1.0, 0, 0), "1.0"),  # named as given, not as summed
        (H3, (1, 0, 0), (1, 0), "(1, 0)"),
        (HQ, (1, 0, 0), (True, 0, 0), "True"),
        (AbelianHandle(Z8), Z8.element([1]), GroupElement(Z8, (True,)), "True"),
        (AbelianHandle(Z8), Z8.element([1]), (1,), "(1,)"),
    ],
    ids=["table-negative", "table-bool", "table-range", "table-float", "mod3-bool",
         "mod3-float", "mod3-pair", "q-bool", "abelian-bool", "abelian-tuple"],
)
def test_verify_reads_word_values_through_the_handle(G, good, bad, shown):
    # x * c = 1 with c the inverse of good: a value is read as its handle reads
    # its own elements, so one the handle would refuse is a ValueError naming
    # it, never an element it happens to index or sum to
    system = WordSystem(G, [GroupEquation([VarPow("x", 1), Const(G.invert(good))])])
    assert verify_solution(system, {"x": good})
    with pytest.raises(ValueError) as refused:
        verify_solution(system, {"x": bad})
    assert shown in str(refused.value)


def test_verify_words_checks_missing_and_descriptor_before_reading():
    word = GroupEquation([VarPow("x", 1), VarPow("y", 1)])
    with pytest.raises(MissingVariable):
        verify_solution(WordSystem(T2, [word]), {"x": -7})
    # 1/2 read as a Z/8 coordinate would be a ValueError
    A = AbelianHandle(Z8)
    other = AbelianGroupDescriptor([Summand.rational()]).element([Fraction(1, 2)])
    with pytest.raises(DescriptorMismatch):
        verify_solution(WordSystem(A, [word]), {"x": other, "y": Z8.element([1])})
    # a non-canonical value that the handle reads is the element it names
    inverse = GroupEquation([VarPow("x", 1), Const((2, 0, 0))])
    assert verify_solution(WordSystem(H3, [inverse]), {"x": (4, 0, 0)})


def test_evaluate_word_matches_table_fold():
    rng = random.Random("fold")
    table = TableGroup.from_handle(H3)
    for _ in range(30):
        word = []
        assignment = {"x": rng.randrange(27), "y": rng.randrange(27)}
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                word.append(Const(rng.randrange(27)))
            else:
                word.append(VarPow(rng.choice("xy"), rng.choice((-2, -1, 1, 2))))
        eq = GroupEquation(word)
        # oracle: literal fold over the table
        acc = table.identity()
        for lit in word:
            if isinstance(lit, Const):
                acc = table.multiply(acc, lit.value)
            else:
                g = assignment[lit.var]
                e = lit.exp
                step = g if e > 0 else table.invert(g)
                for _ in range(abs(e)):
                    acc = table.multiply(acc, step)
        assert evaluate_word(table, eq, assignment) == acc


# -- centers ---------------------------------------------------------------------------


def test_center_of_heisenberg_table_matches_structure():
    table = TableGroup.from_handle(H2)
    central = {table.source_elements[i] for i in center_of(table)}
    assert central == {(0, 0, c) for c in range(2)}
    table3 = TableGroup.from_handle(H3)
    central3 = {table3.source_elements[i] for i in center_of(table3)}
    assert central3 == {(0, 0, c) for c in range(3)}


def test_center_of_abelian_handle_is_whole_group():
    D = AbelianGroupDescriptor([Summand.cyclic(2, 2)])
    handle = AbelianHandle(D)
    assert center_of(handle) == D


def test_center_recognize_heisenberg_q():
    assert HQ.center_recognize(HQ.element(0, 0, Fraction(5, 3))) is not None
    assert HQ.center_recognize(HQ.element(1, 0, 0)) is None
    z = HQ.center_group.element([Fraction(5, 3)])
    assert HQ.center_recognize(HQ.center_embed(z)) == z


def test_center_embed_commutes_with_everything():
    rng = random.Random("central")
    for G in (H3, H9, HQ):
        for _ in range(100):
            z = G.center_embed(G.center_group.random_element(rng))
            g = G.random_element(rng)
            assert G.multiply(z, g) == G.multiply(g, z)


def test_quotient_structure():
    q = project(H3, (1, 2, 1))
    assert q.coords == (1, 2)
    assert project(H3, section(H3, q)) == q
    # projection is a homomorphism
    rng = random.Random("proj")
    for _ in range(20):
        g, h = H3.random_element(rng), H3.random_element(rng)
        assert project(H3, H3.multiply(g, h)) == project(H3, g) + project(H3, h)


# -- bounded solver ------------------------------------------------------------------------


def test_solve_bounded_class1_handle():
    D = AbelianGroupDescriptor([Summand.cyclic(2, 2)])
    handle = AbelianHandle(D)
    g = D.element([3])
    system = WordSystem(handle, [GroupEquation([VarPow("x", 1), Const(g)])])
    sol = solve_nilpotent_bounded(system)
    assert sol["x"] == -g


def test_solve_bounded_single_equation():
    g = (1, 1, 0)
    system = WordSystem(H2, [GroupEquation([VarPow("x", 1), Const(g)])])
    sol = solve_nilpotent_bounded(system)
    assert sol["x"] == H2.invert(g)


def test_solve_bounded_rejects_non_unimodular():
    system = WordSystem(H2, [GroupEquation([VarPow("x", 2), Const((1, 0, 0))])])
    with pytest.raises(NotUnimodular) as exc:
        solve_nilpotent_bounded(system)
    assert exc.value.divisors == [2]


def test_solve_bounded_rejects_an_unbounded_group():
    # x = g is unimodular, but Heisenberg(Q) has no bounded period
    system = WordSystem(HQ, [GroupEquation([VarPow("x", 1), Const(HQ.element(1, 0, 0))])])
    with pytest.raises(UnsupportedGroup, match="group period is not bounded"):
        solve_nilpotent_bounded(system)


def test_solve_bounded_random_vs_brute_force():
    table = TableGroup.from_handle(H3)
    for i in range(40):
        system = random_unimodular_word_system(H3, f"t2:{i}")
        sol = solve_nilpotent_bounded(system)
        for eq in system.equations:
            assert evaluate_word(H3, eq, sol.assignment) == H3.identity()
        table_eqs = [
            GroupEquation(
                [
                    Const(table.index_of(lit.value)) if isinstance(lit, Const) else lit
                    for lit in eq.word
                ]
            )
            for eq in system.equations
        ]
        assert brute_force_group_solve(WordSystem(table, table_eqs, system.variables)) is not None


def test_solve_bounded_heisenberg_mod9():
    for i in range(10):
        system = random_unimodular_word_system(H9, f"t9:{i}")
        sol = solve_nilpotent_bounded(system)
        for eq in system.equations:
            assert evaluate_word(H9, eq, sol.assignment) == H9.identity()


def test_solve_bounded_heisenberg_mod4_period_doubles():
    # over the 2-adic ring the group period is 2**(e+1), not 2**e
    G = heisenberg_mod(2, 2)
    assert G.period_bound == 8
    for i in range(10):
        system = random_unimodular_word_system(G, f"t4:{i}")
        sol = solve_nilpotent_bounded(system)
        for eq in system.equations:
            assert evaluate_word(G, eq, sol.assignment) == G.identity()


class UT4:
    """UT4(R), the upper unitriangular 4x4 matrices over R = Z/2 or Q, modulo
    its top 3 - depth superdiagonals: a handle of nilpotency class ``depth``.

    An element is the tuple of its entries on superdiagonals 1..depth, in
    that order.  The centre is the top kept superdiagonal; the quotient by it
    is the handle one class lower, and the abelian group of the first
    superdiagonal ends the chain.
    """

    def __init__(self, ring, depth: int = 3):
        self.ring = ring
        self.nilpotency_class = depth
        # (I + N)**4 = I + N**4 = I in characteristic 2
        self.period_bound = 4 if ring.kind == "cyclic" else INFINITE
        self.positions = [(i, i + d) for d in range(1, depth + 1) for i in range(4 - d)]
        self.top = 4 - depth  # entries on the top kept superdiagonal
        self.center_group = AbelianGroupDescriptor([ring] * self.top)
        if depth > 2:
            self.quotient = UT4(ring, depth - 1)
        else:
            self.quotient = AbelianHandle(AbelianGroupDescriptor([ring] * 3))

    def identity(self):
        return (self.ring.canon(0),) * len(self.positions)

    def multiply(self, g, h):
        a, b = dict(zip(self.positions, g)), dict(zip(self.positions, h))
        return tuple(
            self.ring.canon(a[i, j] + b[i, j] + sum(a[i, k] * b[k, j] for k in range(i + 1, j)))
            for i, j in self.positions
        )

    def invert(self, g):
        # (g * h)[i, j] = g[i, j] + h[i, j] + sum_k g[i, k] * h[k, j] = 0, solved
        # one superdiagonal at a time
        a, h = dict(zip(self.positions, g)), {}
        for i, j in self.positions:
            h[i, j] = self.ring.canon(-a[i, j] - sum(a[i, k] * h[k, j] for k in range(i + 1, j)))
        return tuple(h[ij] for ij in self.positions)

    def power(self, g, n: int):
        if n < 0:
            return self.power(self.invert(g), -n)
        out = self.identity()
        while n:
            if n & 1:
                out = self.multiply(out, g)
            g = self.multiply(g, g)
            n >>= 1
        return out

    def evaluate(self, terms):
        out = self.identity()
        for g, n in terms:
            out = self.multiply(out, self.power(g, n))
        return out

    def center_embed(self, z):
        kept = len(self.positions) - self.top
        return self.identity()[:kept] + tuple(self.ring.canon(c) for c in z.coords)

    def center_recognize(self, g):
        if any(g[: -self.top]):
            return None
        return self.center_group.element(g[-self.top :])

    def center_coords(self, g, depth):
        if depth:
            return self.quotient.center_coords(self.project(g), depth - 1)
        return None if any(g[: -self.top]) else g[-self.top :]

    def project(self, g):
        q = g[: -self.top]
        if isinstance(self.quotient, AbelianHandle):
            return self.quotient.descriptor.element(q)
        return q

    def section(self, q):
        if isinstance(self.quotient, AbelianHandle):
            q = tuple(self.ring.canon(c) for c in q.coords)
        return q + self.identity()[: self.top]

    def lift(self, g, z, depth):
        # g is the section of its image one level down, 0 on the top kept
        # superdiagonal, and the centre is 0 below it, so their product puts
        # z on top of g's other entries; a deeper level is written in the
        # quotient and sectioned back
        if depth:
            return self.section(self.quotient.lift(self.project(g), z, depth - 1))
        return g[: -self.top] + tuple(self.ring.canon(c) for c in z)

    def elements(self):
        return itertools.product(range(self.ring.modulus), repeat=len(self.positions))

    def random_element(self, rng):
        if self.ring.kind == "cyclic":
            return tuple(rng.randrange(self.ring.modulus) for _ in self.positions)
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in self.positions)


def test_solve_bounded_class_3_vs_brute_force():
    # UT4(Z/2) -> UT4/Z -> Z/2^3: the recursion runs three levels deep
    G = UT4(Summand.cyclic(2, 1))
    table = TableGroup.from_handle(G)  # checks the group laws exactly
    assert table.order == 64
    assert set(center_of(table)) == {
        table.index_of(g) for g in G.elements() if G.center_recognize(g) is not None
    }
    for i in range(24):
        system = random_unimodular_word_system(G, f"ut4:{i}")
        sol = solve_nilpotent_bounded(system)
        table_eqs = [
            GroupEquation(
                [
                    Const(table.index_of(lit.value)) if isinstance(lit, Const) else lit
                    for lit in eq.word
                ]
            )
            for eq in system.equations
        ]
        table_system = WordSystem(table, table_eqs, system.variables)
        assert brute_force_group_solve(table_system) is not None
        indexed = {v: table.index_of(x) for v, x in sol.assignment.items()}
        for eq in table_eqs:
            assert evaluate_word(table, eq, indexed) == table.identity()


def test_solve_bounded_negative_exponent():
    g = (2, 1, 1)
    system = WordSystem(H3, [GroupEquation([VarPow("x", -1), Const(g)])])
    sol = solve_nilpotent_bounded(system)
    assert sol["x"] == g


def test_solve_bounded_conjugation_word():
    # x g x^-1 y = 1: x has exponent sum 0, so only y is constrained, but the
    # value of y must absorb whatever conjugate of g the solver picks for x
    g = (1, 0, 0)
    system = WordSystem(
        H3,
        [GroupEquation([VarPow("x", 1), Const(g), VarPow("x", -1), VarPow("y", 1)])],
    )
    sol = solve_nilpotent_bounded(system)
    word_value = evaluate_word(
        H3,
        GroupEquation([VarPow("x", 1), Const(g), VarPow("x", -1), VarPow("y", 1)]),
        sol.assignment,
    )
    assert word_value == H3.identity()
    conj = H3.multiply(H3.multiply(sol["x"], g), H3.invert(sol["x"]))
    assert sol["y"] == H3.invert(conj)


def test_solve_divisible_negative_exponents():
    rng = random.Random("negq")
    g = HQ.random_element(rng)
    system = WordSystem(HQ, [GroupEquation([VarPow("x", -2), Const(g)])])
    sol = solve_nilpotent_divisible(system)
    x = sol["x"]
    assert HQ.multiply(HQ.power(x, -2), g) == HQ.identity()


def test_centrality_guard_fires_on_broken_section():
    class Broken(type(H3)):
        def lift(self, g, z, depth):
            good = super().lift(g, z, depth)
            return self.multiply(good, (1, 0, 0))  # not the value the level solved for

    broken = Broken(H3.ring)
    system = WordSystem(broken, [GroupEquation([VarPow("x", 1), Const((1, 2, 1))])])
    with pytest.raises(CentralityAssertionFailed):
        solve_nilpotent_bounded(system)


# -- divisible solver ------------------------------------------------------------------------


def test_solve_divisible_square_root():
    g = HQ.element(1, 1, 1)
    system = WordSystem(HQ, [GroupEquation([VarPow("x", 2), Const(HQ.invert(g))])])
    sol = solve_nilpotent_divisible(system)
    assert HQ.multiply(sol["x"], sol["x"]) == g


def test_solve_divisible_identity_equation():
    g = HQ.element(Fraction(2, 3), Fraction(-1, 5), Fraction(7, 2))
    system = WordSystem(HQ, [GroupEquation([VarPow("x", 1), Const(HQ.invert(g))])])
    assert solve_nilpotent_divisible(system)["x"] == g


def test_solve_divisible_two_equations():
    rng = random.Random("x2y3")
    g, h = HQ.random_element(rng), HQ.random_element(rng)
    system = WordSystem(
        HQ,
        [
            GroupEquation([VarPow("x", 2), VarPow("y", 3), Const(HQ.invert(g))]),
            GroupEquation([VarPow("y", 1), Const(HQ.invert(h))]),
        ],
    )
    sol = solve_nilpotent_divisible(system)
    for eq in system.equations:
        assert evaluate_word(HQ, eq, sol.assignment) == HQ.identity()
    assert sol["y"] == h


def test_solve_divisible_rejects_singular():
    system = WordSystem(
        HQ,
        [
            GroupEquation([VarPow("x", 1), VarPow("y", 1)]),
            GroupEquation([VarPow("x", 2), VarPow("y", 2)]),
        ],
    )
    with pytest.raises(Singular):
        solve_nilpotent_divisible(system)


def test_solve_divisible_needs_divisible_centres():
    # the singularity check over Q comes first; then every centre down the
    # series must be divisible, and Z/9 is not
    system = WordSystem(H9, [GroupEquation([VarPow("x", 1), Const(H9.element(1, 0, 0))])])
    with pytest.raises(UnsupportedGroup, match="solve_divisible needs every summand divisible"):
        solve_nilpotent_divisible(system)
    singular = WordSystem(
        H9,
        [
            GroupEquation([VarPow("x", 1), VarPow("y", 1)]),
            GroupEquation([VarPow("x", 2), VarPow("y", 2)]),
        ],
    )
    with pytest.raises(Singular):
        solve_nilpotent_divisible(singular)


def test_solve_divisible_random():
    for i in range(25):
        system = random_nonsingular_word_system(HQ, f"t3:{i}")
        sol = solve_nilpotent_divisible(system)
        for eq in system.equations:
            assert evaluate_word(HQ, eq, sol.assignment) == HQ.identity()


def test_solve_divisible_class_3():
    # UT4(Q) -> UT4(Q)/Z -> Q^3: the recursion runs three levels deep
    G = UT4(Summand.rational())
    assert G.quotient.nilpotency_class == 2
    assert isinstance(G.quotient.quotient, AbelianHandle)
    rng = random.Random("ut4q")
    for _ in range(50):
        g, h, k = (G.random_element(rng) for _ in range(3))
        assert G.multiply(G.multiply(g, h), k) == G.multiply(g, G.multiply(h, k))
        assert G.multiply(g, G.invert(g)) == G.identity() == G.multiply(G.invert(g), g)
        z = G.center_embed(G.center_group.random_element(rng))
        assert G.multiply(g, z) == G.multiply(z, g)
        assert G.power(g, 3) == G.multiply(g, G.multiply(g, g))
    for i in range(24):
        system = random_nonsingular_word_system(G, f"ut4q:{i}")
        sol = solve_nilpotent_divisible(system)
        for eq in system.equations:
            assert evaluate_word(G, eq, sol.assignment) == G.identity()
    g = G.random_element(rng)
    singular = WordSystem(
        G,
        [
            GroupEquation([VarPow("x", 1), VarPow("y", 2), Const(g)]),
            GroupEquation([VarPow("x", 3), Const(g), VarPow("y", 6)]),
        ],
    )
    with pytest.raises(Singular) as exc:
        solve_nilpotent_divisible(singular)
    assert exc.value.witness == is_nonsingular(singular.matrix())[1] == [3, -1]


def test_solve_divisible_factors_each_system_once(monkeypatch):
    # every level of the recursion solves over its centre with the word
    # system's exponent matrix: one column Hermite reduction serves them all,
    # and only a singular system runs is_nonsingular, for its witness
    from groupeq import nilpotent, solve_abelian, systems

    calls = []
    hermite, nonsingular = systems._column_hermite, is_nonsingular

    def counted_hermite(rows):
        calls.append("hermite")
        return hermite(rows)

    def counted_nonsingular(M):
        calls.append("is_nonsingular")
        return nonsingular(M)

    # any of these modules may bind either function; a call through any one counts
    for module in (nilpotent, solve_abelian, systems):
        monkeypatch.setattr(module, "_column_hermite", counted_hermite, raising=False)
        monkeypatch.setattr(module, "is_nonsingular", counted_nonsingular, raising=False)
    ut4 = UT4(Summand.rational())
    for G, key in ((HQ, "t3"), (ut4, "ut4q")):
        for i in range(12):
            system = random_nonsingular_word_system(G, f"{key}:{i}")
            calls.clear()
            solve_nilpotent_divisible(system)
            assert calls == ["hermite"], (G, i)
    g = ut4.random_element(random.Random("ut4q-singular"))
    singular = WordSystem(
        ut4, [GroupEquation([VarPow("x", 1), Const(g)]), GroupEquation([VarPow("x", 2)])]
    )
    calls.clear()
    with pytest.raises(Singular):
        solve_nilpotent_divisible(singular)
    assert calls == ["hermite", "is_nonsingular"]


@pytest.mark.parametrize(
    "G",
    [H9, HQ, *(UT4(ring, depth) for ring in (Summand.cyclic(2, 1), Summand.rational()) for depth in (2, 3))],
    ids=["H(Z/9)", "H(Q)", "UT4(Z/2)-2", "UT4(Z/2)-3", "UT4(Q)-2", "UT4(Q)-3"],
)
def test_center_coords_is_the_projected_centre(G):
    # the recursion reads each level's right-hand side with center_coords; it
    # must give what projecting down and recognising in the centre give, on
    # random elements and on lifts of each level's central elements
    levels = [G]
    while levels[-1].nilpotency_class >= 2:
        levels.append(levels[-1].quotient)
    rng = random.Random("center_coords")
    for _ in range(40):
        elements = [G.random_element(rng), G.identity()]
        for depth, H in enumerate(levels):
            g = H.center_embed(H.center_group.random_element(rng))
            for K in reversed(levels[:depth]):
                g = section(K, g)
            elements.append(g)
        for g in elements:
            for depth, H in enumerate(levels):
                b = g
                for K in levels[:depth]:
                    b = project(K, b)
                beta = H.center_recognize(b)
                assert G.center_coords(g, depth) == (None if beta is None else beta.coords)


@pytest.mark.parametrize(
    "G",
    [
        H9,
        heisenberg_mod(2, 3),
        HQ,
        UT4(Summand.cyclic(2, 1), 2),
        UT4(Summand.cyclic(2, 1), 3),
        UT4(Summand.rational(), 2),
        UT4(Summand.rational(), 3),
    ],
    ids=["H(Z/9)", "H(Z/8)", "H(Q)", "UT4(Z/2)-2", "UT4(Z/2)-3", "UT4(Q)-2", "UT4(Q)-3"],
)
def test_lift_is_section_times_centre(G):
    # the recursion writes each level's centre coordinates z into a value in
    # G with lift: on the sections of a q one level down (the identity at the
    # bottom) it must give the sections of section(q) * center_embed(z) at
    # the level, and center_coords must read z back off the lift of the
    # identity, which is central there
    levels = [G]
    while levels[-1].quotient is not None:
        levels.append(levels[-1].quotient)

    def sections(g, depth):  # g at level depth, carried up to G
        for K in reversed(levels[:depth]):
            g = section(K, g)
        return g

    rng = random.Random("lift")
    for _ in range(60):
        for depth, H in enumerate(levels):
            z = H.center_group.random_element(rng)
            if H.quotient is None:
                g, want = G.identity(), H.center_embed(z)
            else:
                q = section(H, H.quotient.random_element(rng))
                g, want = sections(q, depth), H.multiply(q, H.center_embed(z))
            assert G.lift(g, z.coords, depth) == sections(want, depth)
            central = G.lift(G.identity(), z.coords, depth)
            assert central == sections(H.center_embed(z), depth)
            assert G.center_coords(central, depth) == z.coords


def test_solve_divisible_builds_few_abelian_elements(monkeypatch):
    # Heisenberg(Q) has two levels, and both are read off and written into
    # triples, by center_coords and lift: no abelian element is built
    from groupeq.abelian import AbelianGroupDescriptor

    calls = []
    element = AbelianGroupDescriptor.element

    def counted(self, coords):
        calls.append(self)
        return element(self, coords)

    system = random_nonsingular_word_system(HQ, "elements:7", max_eqs=8, max_vars=12)
    assert (len(system.equations), len(system.variables)) == (7, 12)
    monkeypatch.setattr(AbelianGroupDescriptor, "element", counted)
    solution = solve_nilpotent_divisible(system)
    assert calls == []
    for eq in system.equations:
        assert evaluate_word(HQ, eq, solution.assignment) == HQ.identity()


def test_solve_divisible_evaluates_constants_only_at_the_bottom(monkeypatch):
    # each word is evaluated three times: at the bottom level, where every
    # variable is 1, its constants alone, inverted; at the top its whole
    # inverse, on the answer below written into G; and in verification the
    # word itself on the answer
    calls = []
    evaluate = HeisenbergGroup.evaluate

    def counted(self, terms):
        calls.append(list(terms))
        return evaluate(self, terms)

    system = random_nonsingular_word_system(HQ, "elements:7", max_eqs=8, max_vars=12)
    monkeypatch.setattr(HeisenbergGroup, "evaluate", counted)
    solve_nilpotent_divisible(system)
    words = [eq.word for eq in system.equations]
    constants = [[lit.value for lit in w if isinstance(lit, Const)] for w in words]
    assert calls[: len(words)] == [
        [(c, -1) for c in reversed(cs)] for cs in constants
    ]
    assert [len(t) for t in calls[len(words) :]] == [len(w) for w in words] * 2
    # 37 constants and 136 literals in all; evaluating the whole word at every
    # level made it 3 * 136 = 408
    assert sum(map(len, calls)) == 309


# -- roots ---------------------------------------------------------------------------------------


RESULT_CHECKS_UNDER_O = """
import sys
from groupeq import counterexamples, nilpotent, randgen, systems
from groupeq.errors import VerificationFailed

nilpotent.HeisenbergGroup.power = lambda self, g, n: self.identity()
counterexamples.verify_solution = lambda system, assignment: False
counterexamples.order = lambda x: 1
systems.is_p_nonsingular = lambda rows, p: (True, None)
randgen.is_unimodular = lambda rows: False
unimodular_matrix = randgen.random_unimodular_matrix
randgen.random_unimodular_matrix = lambda rng, k, n: [[int(i == j) for j in range(n)] for i in range(k)]
H = nilpotent.heisenberg_q()
refused = 0
for call in (
    lambda: nilpotent.nth_root_heisenberg_q(H, H.element(1, 2, 3), 2),
    lambda: counterexamples.zbad_solution_from_x(2, -9),
    lambda: counterexamples.pbad_growth(2, 4),
    lambda: systems.classify_matrix([[1, 2], [2, 4]], (3,)),
    lambda: unimodular_matrix(randgen.rng_for("O"), 2, 3),
    lambda: randgen.random_unimodular_word_system(H, "O"),
):
    try:
        call()
    except VerificationFailed:
        refused += 1
print(sys.flags.optimize, refused)
"""


def test_result_checks_survive_python_O():
    # -O strips assert statements; with powering, verification, element
    # orders, the mod-p rank and the unimodularity test broken, both
    # closed-form constructions, the pbad growth bound, the classification's
    # consistency check and both unimodular generators must still refuse
    # their result (the word system's matrix skips the matrix generator's
    # own check, so the word system's check is the one that fires)
    src = str(Path(groupeq.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", RESULT_CHECKS_UNDER_O],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "6"]


def test_nth_root_examples():
    g = HQ.element(1, 1, 1)
    assert nth_root_heisenberg_q(HQ, g, 1) == g
    assert nth_root_heisenberg_q(HQ, HQ.identity(), 5) == HQ.identity()
    w = nth_root_heisenberg_q(HQ, g, 2)
    assert HQ.multiply(w, w) == g
    with pytest.raises(UnsupportedGroup, match="need the rational Heisenberg group"):
        nth_root_heisenberg_q(H3, H3.identity(), 2)
    with pytest.raises(ValueError, match="root index must be >= 1"):
        nth_root_heisenberg_q(HQ, g, 0)


def test_nth_root_random():
    rng = random.Random("roots")
    for _ in range(100):
        g = HQ.random_element(rng)
        n = rng.randint(1, 5)
        w = nth_root_heisenberg_q(HQ, g, n)
        assert HQ.power(w, n) == g


def test_root_of_central_is_central():
    rng = random.Random("isolated")
    for _ in range(50):
        z = HQ.center_embed(HQ.center_group.random_element(rng))
        n = rng.randint(1, 5)
        w = nth_root_heisenberg_q(HQ, z, n)
        assert HQ.center_recognize(w) is not None


def test_power_central_iff_central():
    rng = random.Random("iff")
    for _ in range(100):
        if rng.random() < 0.4:
            w = HQ.center_embed(HQ.center_group.random_element(rng))
        else:
            w = HQ.random_element(rng)
        n = rng.randint(1, 5)
        wn = HQ.power(w, n)
        assert (HQ.center_recognize(wn) is not None) == (HQ.center_recognize(w) is not None)


# -- table group oracle ------------------------------------------------------------------------------


def test_table_group_rejects_broken_tables():
    with pytest.raises(ValueError):
        TableGroup([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(ValueError):
        TableGroup([[1, 0], [1, 0]])  # no identity


@pytest.mark.parametrize("table", [[[0, 1], [1, 0], [0, 1]], [[0, 1], [1]], [[0, 1, 2]]])
def test_table_group_rejects_non_square_tables(table):
    with pytest.raises(ValueError, match="multiplication table must be square"):
        TableGroup(table)


@pytest.mark.parametrize(
    "table", [[[0, 1.7], ["1", False]], [[0, 1], [1, 0.0]], [[0, 1], ["1", 0]], [[True]]]
)
def test_table_group_refuses_entries_that_are_not_ints(table):
    with pytest.raises(ValueError, match="table entries must be ints, got"):
        TableGroup(table)


def test_heisenberg_element_refuses_coordinates_that_are_not_ints():
    for coords in ((1.5, 2, 1), (1, "2", 1), (1, 2, True)):
        with pytest.raises(ValueError, match="Z/3 coordinate must be an int"):
            H3.element(*coords)
    assert H3.element(4, -1, 3) == (1, 2, 0)
    with pytest.raises(ValueError, match="Q coordinate must be an int or a Fraction"):
        heisenberg_q().element(0.5, 0, 0)


def test_table_group_rejects_a_non_associative_loop():
    # a Latin square with identity 0 and unique inverses: a loop, not a group
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError, match=r"table is not associative at \(1, 1, 2\)"):
        TableGroup(loop)


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


@pytest.mark.parametrize("n", [65, TableGroup.MAX_ORDER])
def test_table_group_checks_associativity_at_every_order(n):
    # Z/n with 3+5 and 3+6 swapped keeps its identity and inverses, and
    # (2+1)+5 is then 9 while 2+(1+5) is 8
    table = cyclic_table(n)
    table[3][5], table[3][6] = table[3][6], table[3][5]
    with pytest.raises(ValueError, match=r"table is not associative at \(2, 1, 5\)"):
        TableGroup(table)


def test_table_group_order_is_capped():
    n = TableGroup.MAX_ORDER
    assert TableGroup(cyclic_table(n)).order == n
    with pytest.raises(UnsupportedGroup, match=f"table groups are capped at order {n}"):
        TableGroup(cyclic_table(n + 1))


def test_brute_force_group_refuses_a_group_that_is_not_a_table():
    system = WordSystem(H2, [GroupEquation([VarPow("x", 1)])])
    with pytest.raises(UnsupportedGroup, match="brute force runs over table groups"):
        brute_force_group_solve(system)


def test_brute_force_group_refuses_a_constant_word_that_is_not_the_identity():
    table = TableGroup.from_handle(H2)
    g = table.index_of((1, 0, 1))
    system = WordSystem(
        table,
        [GroupEquation([VarPow("x", 1)]), GroupEquation([Const(g)])],
        variables=["x"],
    )
    assert brute_force_group_solve(system) is None
    # a constant word equal to the identity constrains nothing
    e = table.identity()
    system = WordSystem(table, [GroupEquation([Const(e), Const(e)])], variables=["x"])
    assert brute_force_group_solve(system)["x"] == e


def test_brute_force_group_examples():
    table = TableGroup.from_handle(H2)
    g = table.index_of((1, 0, 1))
    sol = brute_force_group_solve(
        WordSystem(table, [GroupEquation([VarPow("x", 1), Const(table.invert(g))])])
    )
    assert sol is not None and sol["x"] == g

    squares = {table.power(x, 2) for x in table.elements()}
    non_square = next(r for r in table.elements() if r not in squares)
    system = WordSystem(
        table, [GroupEquation([VarPow("x", 2), Const(table.invert(non_square))])]
    )
    assert brute_force_group_solve(system) is None


def test_brute_force_group_too_large():
    table = TableGroup.from_handle(H3)
    system = WordSystem(
        table,
        [GroupEquation([VarPow(f"x{i}", 1)]) for i in range(6)],
    )
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_group_solve(system)


# -- JSON -------------------------------------------------------------------------------------------


def test_group_json_roundtrip():
    obj = H9.to_json()
    assert obj == {"kind": "heisenberg", "ring": {"kind": "mod", "p": 3, "e": 2}}
    G = group_from_json(obj)
    assert G.ring == H9.ring
    GQ = group_from_json({"kind": "heisenberg", "ring": {"kind": "q"}})
    assert GQ.period_bound == heisenberg_q().period_bound
    # kind defaults to heisenberg
    assert group_from_json({"ring": {"kind": "q"}}).to_json() == GQ.to_json()


def test_word_system_json_roundtrip():
    system = WordSystem(
        H3,
        [GroupEquation([Const((1, 2, 0)), VarPow("x", -2)])],
        variables=["x", "y"],
    )
    obj = word_system_to_json(system)
    assert obj["equations"][0]["word"] == [{"const": ["1", "2", "0"]}, {"var": "x", "exp": -2}]
    back = word_system_from_json(obj, H3)
    assert back.variables == ("x", "y")
    assert back.equations[0].word == (Const((1, 2, 0)), VarPow("x", -2))
