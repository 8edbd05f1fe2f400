import json

import pytest

from groupeq.abelian import order, primary_component
from groupeq.counterexamples import (
    GrowthReport,
    bad_support_check,
    gen_bad,
    gen_pbad,
    gen_zbad,
    pbad_growth,
    zbad_bound_check,
    zbad_solution_from_x,
)
from groupeq.errors import DuplicatePrime, NotPrime
from groupeq.systems import is_unimodular, verify_solution

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19]


# -- pbad -------------------------------------------------------------------------


def test_gen_pbad_depth2():
    group, system = gen_pbad(2, 2)
    assert [s.modulus for s in group.summands] == [2, 8]
    assert [eq.coeffs for eq in system.equations] == [
        {"x1": 1, "x2": -2},
        {"x2": 1, "x3": -4},
    ]
    assert system.equations[0].rhs.coords == (1, 0)
    assert system.equations[1].rhs.coords == (0, 1)


def test_gen_pbad_depth1():
    _, system = gen_pbad(2, 1)
    assert len(system.equations) == 1
    assert system.equations[0].coeffs == {"x1": 1, "x2": -2}


def test_gen_pbad_unimodular_at_every_depth():
    for j in range(1, 7):
        _, system = gen_pbad(2, j)
        assert is_unimodular(system.matrix())
        _, system3 = gen_pbad(3, j)
        assert is_unimodular(system3.matrix())


def test_pbad_growth_small_depths():
    # k = 1, 3, 7, ...: the j-th component of x1 is forced to p**k_{j-1},
    # of order p**(k_j - k_{j-1}) = p**(k_{j-1}+1)
    r2 = pbad_growth(2, 2)
    assert r2.bound == 2**2 and r2.observed >= 4
    r3 = pbad_growth(2, 3)
    assert r3.bound == 2**4
    assert order(r3.witness["x1"]) == r3.observed


def test_pbad_witness_is_forced_componentwise():
    group, system = gen_pbad(2, 3)
    r = pbad_growth(2, 3)
    x1 = r.witness["x1"]
    assert verify_solution(system, r.witness.assignment)
    # third coordinate is p**k_2 = 8 regardless of free choices
    assert x1.coords[2] % 2**7 == 8


def test_pbad_bound_sequence_strictly_increases():
    bounds = [pbad_growth(2, j).bound for j in range(2, 9)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    # doubling k-sequence gives bound(j) >= p**(2**(j-2))
    for j, bound in zip(range(2, 9), bounds):
        assert bound >= 2 ** (2 ** (j - 2))


# -- bad --------------------------------------------------------------------------


def test_gen_bad_matrix():
    _, system = gen_bad([2, 3, 5], 3)
    assert system.matrix() == [
        [1, 2, 0, 0],
        [1, 0, 3, 0],
        [1, 0, 0, 5],
    ]
    for n in range(1, 7):
        _, trunc = gen_bad(PRIMES, n)
        assert is_unimodular(trunc.matrix())


def test_gen_bad_depth1():
    _, system = gen_bad([2, 3], 1)
    assert [eq.coeffs for eq in system.equations] == [{"x": 1, "y1": 2}]


def test_gen_bad_rejects_duplicates():
    with pytest.raises(DuplicatePrime):
        gen_bad([2, 3, 2], 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: gen_pbad(2, 0), ValueError, "depth must be >= 1", id="pbad-0"),
        pytest.param(lambda: pbad_growth(2, 1), ValueError, "depth >= 2", id="pbad-growth-1"),
        pytest.param(lambda: gen_bad([2, 3], 0), ValueError, r"in 1\.\.2", id="bad-0"),
        pytest.param(lambda: gen_bad([2, 3], 3), ValueError, r"in 1\.\.2", id="bad-over"),
        # a non-prime anywhere in the list, even past the depth, is NotPrime
        pytest.param(lambda: gen_bad([2, 4], 1), NotPrime, "4 is not prime", id="bad-not-prime"),
        pytest.param(lambda: zbad_bound_check(0), ValueError, "depth must be >= 1", id="zbad-0"),
    ],
)
def test_generators_refuse_out_of_range_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_bad_support_check():
    r = bad_support_check([2, 3, 5], 3)
    x = r.witness["x"]
    for p in (2, 3, 5):
        assert not primary_component(x, p).is_zero
    assert r.observed == 3

    r1 = bad_support_check([2, 3], 1)
    assert r1.observed == 1 and not r1.witness["x"].is_zero


def test_bad_support_equals_depth_up_to_8():
    for n in range(1, 9):
        assert bad_support_check(PRIMES, n).observed == n


# -- zbad -------------------------------------------------------------------------


def test_gen_zbad_shapes():
    _, s0 = gen_zbad(0)
    assert len(s0.equations) == 0
    _, s1 = gen_zbad(1)
    assert [eq.coeffs for eq in s1.equations] == [{"y1": 2, "x": -1}, {"x": 1, "z1": -3}]
    assert s1.equations[0].rhs.coords == (1,)
    for m in range(1, 8):
        _, sm = gen_zbad(m)
        assert len(sm.equations) == 2 * m
        assert is_unimodular(sm.matrix())


def test_zbad_minimal_solutions():
    r1 = zbad_bound_check(1, brute_limit=10**4)
    assert r1.observed == 3
    assert r1.witness.assignment["y1"].coords == (2,)
    assert r1.witness.assignment["z1"].coords == (1,)
    r2 = zbad_bound_check(2, brute_limit=10**4)
    assert r2.observed == 27
    r3 = zbad_bound_check(3, brute_limit=10**4)
    assert r3.observed == 135 >= 27


def test_zbad_witness_verifies():
    for m in (1, 2, 4):
        r = zbad_bound_check(m, brute_limit=10**3)
        _, system = gen_zbad(m)
        assert verify_solution(system, r.witness.assignment)


def test_zbad_bounds_monotone():
    bounds = [zbad_bound_check(m, brute_limit=10**3).bound for m in range(1, 9)]
    assert bounds == [3**m for m in range(1, 9)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_zbad_negative_x_respects_abs_bound():
    # x = -9 solves the depth-2 truncation and sits exactly at the bound 3**2
    assignment = zbad_solution_from_x(2, -9)
    _, system = gen_zbad(2)
    assert verify_solution(system, assignment)
    r = zbad_bound_check(2, brute_limit=100)
    assert abs(-9) >= r.bound


def test_growth_report_json_is_stable():
    r = bad_support_check([2, 3], 2)
    first = json.dumps(r.to_json(), sort_keys=True)
    second = json.dumps(bad_support_check([2, 3], 2).to_json(), sort_keys=True)
    assert first == second
