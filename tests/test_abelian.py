import json
import random
from fractions import Fraction

import pytest

from groupeq.abelian import (
    AbelianGroupDescriptor,
    GroupElement,
    Summand,
    divide_exact,
    element_from_json,
    order,
    primary_component,
)
from groupeq.errors import DescriptorMismatch, NotDivisible, NotPeriodic
from groupeq.intmath import INFINITE
from groupeq.systems import AbelianEquation, AbelianSystem
from reference import NotAPGroup, height_p, mod_p_quotient


def Z(p, e):
    return Summand.cyclic(p, e)


def descr(*summands):
    return AbelianGroupDescriptor(summands)


def random_descriptor(rng, allow_infinite=True):
    pool = [Z(2, 1), Z(2, 3), Z(3, 2), Z(5, 1), Z(7, 2)]
    if allow_infinite:
        pool += [Summand.prufer(2), Summand.prufer(3), Summand.rational(), Summand.integer()]
    return descr(*(rng.choice(pool) for _ in range(rng.randint(1, 4))))


# -- arithmetic ----------------------------------------------------------------


def test_scale_examples():
    A = descr(Z(2, 2))
    assert A.element([1]).scale(2).coords == (2,)
    P = descr(Summand.prufer(5))
    assert P.element([Fraction(1, 25)]).scale(5).coords == (Fraction(1, 5),)


def test_add_componentwise_oracle():
    A = descr(Z(2, 3), Z(3, 2))
    a, b = A.element([5, 7]), A.element([6, 4])
    assert (a + b).coords == ((5 + 6) % 8, (7 + 4) % 9) == (3, 2)


def test_descriptor_mismatch():
    A, B = descr(Z(2, 1)), descr(Z(3, 1))
    with pytest.raises(DescriptorMismatch):
        A.element([1]) + B.element([1])
    with pytest.raises(DescriptorMismatch, match="rhs lives in a different group"):
        AbelianSystem(A, [AbelianEquation({"x": 1}, A.zero()), AbelianEquation({}, B.zero())])


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(("cyclic", 2, 0), "needs exponent >= 1, got 0", id="cyclic-e0"),
        pytest.param(("cyclic", 3), "needs exponent >= 1, got None", id="cyclic-no-e"),
        pytest.param(("q", 2), "summand kind 'q' takes no parameters", id="q-p"),
        pytest.param(("z", None, 1), "summand kind 'z' takes no parameters", id="z-e"),
        pytest.param(("klein",), "unknown summand kind 'klein'", id="unknown-kind"),
    ],
)
def test_summand_refuses_bad_parameters(args, message):
    with pytest.raises(ValueError, match=message):
        Summand(*args)


def test_element_needs_one_coordinate_per_summand():
    A = descr(Z(2, 1), Summand.rational())
    for coords in ([], [1], [1, 0, 0]):
        with pytest.raises(DescriptorMismatch, match=f"expected 2 coordinates, got {len(coords)}"):
            A.element(coords)


def test_coordinates_of_the_wrong_type_are_refused_not_converted():
    A = descr(Z(2, 2), Summand.integer())
    for bad in (2.7, "3", True, Fraction(2)):
        for coords in ([bad, 0], [0, bad]):
            with pytest.raises(ValueError, match="coordinate must be an int, got"):
                A.element(coords)
    D = descr(Summand.prufer(3), Summand.rational())
    for bad in (0.5, "1/3", True):
        for coords in ([bad, 0], [0, bad]):
            with pytest.raises(ValueError, match="coordinate must be an int or a Fraction, got"):
                D.element(coords)
    # ints of any size and Fractions where they belong pass
    assert A.element([-(10**30) - 1, 10**30]).coords == (3, 10**30)
    assert D.element([Fraction(4, 3), 2]).coords == (Fraction(1, 3), Fraction(2))


def test_prufer_coordinate_canonical():
    P = descr(Summand.prufer(2))
    assert P.element([Fraction(5, 4)]).coords == (Fraction(1, 4),)
    assert P.element([Fraction(6, 4)]).coords == (Fraction(1, 2),)
    with pytest.raises(ValueError):
        P.element([Fraction(1, 3)])


def test_group_axioms_random():
    rng = random.Random("axioms")
    for _ in range(60):
        A = random_descriptor(rng)
        x, y, z = (A.random_element(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x + (-x) == A.zero()
        k, l = rng.randint(-6, 6), rng.randint(-6, 6)
        assert x.scale(k + l) == x.scale(k) + x.scale(l)


# -- order and height --------------------------------------------------------------


def order_oracle(a, limit):
    for n in range(1, limit + 1):
        if a.scale(n).is_zero:
            return n
    return None


def test_order_examples():
    A = descr(Z(2, 3))
    assert order(A.zero()) == 1
    assert order(A.element([2])) == 4
    M = descr(Z(2, 3), Summand.prufer(3))
    a = M.element([3, Fraction(1, 9)])
    assert order(a) == 72 == order_oracle(a, 80)


def test_order_infinite():
    assert order(descr(Summand.rational()).element([Fraction(1, 2)])) == INFINITE
    assert order(descr(Summand.integer()).element([-3])) == INFINITE


def test_order_divides_period():
    rng = random.Random("orddiv")
    for _ in range(50):
        A = random_descriptor(rng, allow_infinite=False)
        a = A.random_element(rng)
        assert A.period() % order(a) == 0


def height_oracle(a, p):
    # brute-force solvability of p**k * x = a over a small finite group
    A = a.descriptor
    k = 0
    while k <= 12:
        if not any(x.scale(p**k) == a for x in A.elements()):
            return k - 1
        k += 1
    return INFINITE


def test_height_examples():
    A = descr(Z(2, 3))
    assert height_p(A.zero(), 2) == INFINITE
    B = descr(Z(3, 3))
    assert height_p(B.element([3]), 3) == 1
    C = descr(Z(2, 3), Z(2, 4))
    a = C.element([4, 2])
    assert height_p(a, 2) == 1 == height_oracle(a, 2)


def test_height_prufer_infinite():
    P = descr(Summand.prufer(5))
    assert height_p(P.element([Fraction(2, 5)]), 5) == INFINITE


def test_height_rejects_mixed_group():
    with pytest.raises(NotAPGroup):
        height_p(descr(Z(2, 1), Z(3, 1)).zero(), 2)


def test_height_oracle_agreement_random():
    rng = random.Random("height")
    for _ in range(20):
        e1, e2 = rng.randint(1, 3), rng.randint(1, 3)
        A = descr(Z(2, e1), Z(2, e2))
        a = A.random_element(rng)
        assert height_p(a, 2) == height_oracle(a, 2)


# -- primary components ---------------------------------------------------------------


def test_primary_component_examples():
    A = descr(Z(2, 3), Z(3, 2))
    a = A.element([5, 7])
    assert primary_component(a, 3).coords == (7,)
    assert primary_component(a, 5).coords == ()
    M = descr(Summand.prufer(2), Summand.prufer(3))
    m = M.element([Fraction(1, 4), Fraction(2, 3)])
    assert primary_component(m, 2).coords == (Fraction(1, 4),)


def test_primary_rejects_nonperiodic():
    with pytest.raises(NotPeriodic):
        primary_component(descr(Summand.integer()).zero(), 2)


def test_primary_decomposition_reassembles():
    from groupeq.abelian import primary_part

    rng = random.Random("primary")
    for _ in range(40):
        A = descr(*(rng.choice([Z(2, 2), Z(3, 1), Z(5, 1), Summand.prufer(2)]) for _ in range(3)))
        a = A.random_element(rng)
        total = A.zero()
        for p in sorted({s.p for s in A.summands}):
            _, indices = primary_part(A, p)
            coords = [0] * len(A.summands)
            for i, c in zip(indices, primary_component(a, p).coords):
                coords[i] = c
            total = total + A.element(coords)
        assert total == a


# -- quotients ---------------------------------------------------------------------------


def test_mod_p_quotient_examples():
    q = mod_p_quotient(descr(Z(2, 3)), 2)
    assert [s.modulus for s in q.group.summands] == [2]
    assert q.project(q.source.element([5])).coords == (1,)

    q2 = mod_p_quotient(descr(Summand.prufer(2)), 2)
    assert len(q2.group.summands) == 0

    q3 = mod_p_quotient(descr(Z(2, 3), Z(3, 2)), 2)
    assert [s.modulus for s in q3.group.summands] == [2]


def test_mod_p_quotient_homomorphism_and_section():
    rng = random.Random("quot")
    for _ in range(30):
        A = random_descriptor(rng, allow_infinite=False)
        p = rng.choice([2, 3])
        q = mod_p_quotient(A, p)
        a, b = A.random_element(rng), A.random_element(rng)
        assert q.project(a + b) == q.project(a) + q.project(b)
        for x in q.group.elements():
            assert q.project(q.section(x)) == x


# -- division in divisible groups -----------------------------------------------------------


def test_divide_exact_examples():
    P2 = descr(Summand.prufer(2))
    a = P2.element([Fraction(1, 2)])
    assert divide_exact(1, a) == a
    assert divide_exact(2, a).coords == (Fraction(1, 4),)
    P3 = descr(Summand.prufer(3))
    b = P3.element([Fraction(1, 3)])
    assert divide_exact(6, b).scale(6) == b


def test_divide_exact_rational_line():
    Q = descr(Summand.rational())
    assert divide_exact(4, Q.element([3])).coords == (Fraction(3, 4),)


def test_divide_exact_rejects_reduced():
    with pytest.raises(NotDivisible):
        divide_exact(2, descr(Z(2, 1)).zero())
    with pytest.raises(ValueError, match="divisor must be positive, got 0"):
        divide_exact(0, descr(Summand.rational()).zero())


def test_divide_exact_postcondition_random():
    rng = random.Random("divexact")
    for _ in range(80):
        A = descr(
            *(
                rng.choice([Summand.prufer(2), Summand.prufer(3), Summand.rational()])
                for _ in range(rng.randint(1, 3))
            )
        )
        a = A.random_element(rng)
        n = rng.randint(1, 30)
        assert divide_exact(n, a).scale(n) == a


# -- JSON ----------------------------------------------------------------------------------------


def test_descriptor_json_roundtrip():
    A = descr(Z(2, 3), Summand.prufer(5), Summand.rational(), Summand.integer())
    obj = A.to_json()
    assert obj == {
        "summands": [
            {"kind": "cyclic", "p": 2, "e": 3},
            {"kind": "prufer", "p": 5},
            {"kind": "q"},
            {"kind": "z"},
        ]
    }
    assert AbelianGroupDescriptor.from_json(json.loads(json.dumps(obj))) == A


def test_element_json_roundtrip():
    A = descr(Z(2, 3), Summand.prufer(5), Summand.rational(), Summand.integer())
    a = A.element([5, Fraction(2, 25), Fraction(-7, 3), 11])
    encoded = A.element_to_json(a)
    assert encoded == ["5", "2/25", "-7/3", "11"]
    assert element_from_json(A, encoded) == a
