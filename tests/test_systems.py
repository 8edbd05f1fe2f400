import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from groupeq.abelian import AbelianGroupDescriptor, Summand
from groupeq.errors import NotPiNonsingular, ParseError
from groupeq.systems import (
    AbelianEquation,
    AbelianSystem,
    Const,
    EquationStream,
    GroupEquation,
    VarPow,
    abelian_system_from_json,
    abelian_system_to_json,
    _column_hermite,
    _exponent_matrix,
    _rank_over_q,
    classify_matrix,
    elementary_divisors,
    exponent_row,
    is_nonsingular,
    is_p_nonsingular,
    is_unimodular,
    parse_matrix_text,
    verify_solution,
)
from reference import smith_normal_form


# -- independent oracles (kept free of the library's elimination paths) ----------


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def maximal_minors(rows):
    k = len(rows)
    n = len(rows[0]) if rows else 0
    if k > n:
        return []
    return [
        det_cofactor([[row[j] for j in cols] for row in rows])
        for cols in itertools.combinations(range(n), k)
    ]


def unimodular_oracle(rows):
    minors = maximal_minors(rows)
    return math.gcd(*minors) == 1 if minors else len(rows) == 0


def p_nonsingular_oracle(rows, p):
    return any(m % p != 0 for m in maximal_minors(rows)) if rows else True


def nonsingular_oracle(rows):
    return any(m != 0 for m in maximal_minors(rows)) if rows else True


def random_matrix(rng, kmax=4, nmax=5, bound=3):
    k, n = rng.randint(1, kmax), rng.randint(1, nmax)
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]


# -- exponent rows ------------------------------------------------------------------


def test_exponent_row_word_example():
    # x^-1 g y x^2 g^2 x^-3 y^2
    g = object()
    eq = GroupEquation(
        [
            VarPow("x", -1),
            Const(g),
            VarPow("y", 1),
            VarPow("x", 2),
            Const(g),
            VarPow("x", -3),
            VarPow("y", 2),
        ]
    )
    assert exponent_row(eq) == {"x": -2, "y": 3}
    # a system's rows: one column per variable in sorted order, a zero sum
    # kept as a 0 entry when the variable is a column, dropped otherwise
    from groupeq.nilpotent import WordSystem, heisenberg_mod

    H = heisenberg_mod(3)
    c = Const(H.element(1, 0, 0))
    conj = GroupEquation([VarPow("x", 2), c, VarPow("x", -2), VarPow("y", 1)])
    assert WordSystem(H, [conj], variables=["w", "x", "y"]).matrix() == [[0, 0, 1]]
    assert _exponent_matrix([conj, GroupEquation([VarPow("w", 2)])]) == [[0, 1], [2, 0]]


def test_exponent_row_trivial_cases():
    assert exponent_row(GroupEquation([Const(object())])) == {}
    assert exponent_row(GroupEquation([VarPow("x", 3), VarPow("x", -3)])) == {}


def test_exponent_row_abelian_passthrough():
    A = AbelianGroupDescriptor([Summand.cyclic(2, 1)])
    eq = AbelianEquation({"x": 1, "y": 0, "z": -2}, A.zero())
    assert exponent_row(eq) == {"x": 1, "z": -2}
    system = AbelianSystem(A, [eq], variables=["y"])
    assert system.variables == ("x", "y", "z")
    assert system.matrix() == [[1, 0, -2]]


# -- rank over Q ----------------------------------------------------------------------


def test_is_nonsingular_examples():
    assert is_nonsingular([[2]]) == (True, None)
    ok, witness = is_nonsingular([[1, 2], [2, 4]])
    assert not ok
    assert any(w != 0 for w in witness)
    combo = [sum(w * row[j] for w, row in zip(witness, [[1, 2], [2, 4]])) for j in range(2)]
    assert combo == [0, 0]
    # zero columns are a width like any other: 1 x 0 and 3 x 0 are singular
    for k in (1, 3):
        assert is_nonsingular([[]] * k) == (False, [1] + [0] * (k - 1))
        assert classify_matrix([[]] * k).divisors == []


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[2, 0], [0, 2, 5]]])
def test_ragged_rows_are_refused(rows):
    for classifier in (
        is_nonsingular,
        functools.partial(is_p_nonsingular, p=2),
        elementary_divisors,
        is_unimodular,
        classify_matrix,
    ):
        with pytest.raises(ValueError, match="rows differ in length"):
            classifier(rows)


def test_prime_diagonal_is_nonsingular_but_p_singular():
    primes = [2, 3, 5, 7, 11, 13]
    M = [[primes[i] if i == j else 0 for j in range(6)] for i in range(6)]
    assert is_nonsingular(M)[0]
    for p in primes:
        assert not is_p_nonsingular(M, p)[0]


def test_witness_is_integer_combination():
    rng = random.Random("witnessQ")
    found = 0
    while found < 50:
        rows = random_matrix(rng)
        ok, witness = is_nonsingular(rows)
        assert ok == nonsingular_oracle(rows)
        if ok:
            continue
        found += 1
        n = len(rows[0])
        assert any(w != 0 for w in witness)
        assert all(sum(w * rows[i][j] for i, w in enumerate(witness)) == 0 for j in range(n))


def test_is_p_nonsingular_examples():
    assert is_p_nonsingular([[2]], 2) == (False, [1])
    for p in (2, 3, 5):
        assert is_p_nonsingular([[1, -2], [0, 1]], p)[0]
    # leading truncation of the p-group counterexample matrix: unit diagonal
    M = [[1, -2, 0], [0, 1, -4]]
    assert is_p_nonsingular(M, 2)[0]


def test_p_witness_vanishes_mod_p():
    rng = random.Random("witnessp")
    found = 0
    while found < 50:
        rows = random_matrix(rng)
        p = rng.choice([2, 3, 5])
        ok, witness = is_p_nonsingular(rows, p)
        assert ok == p_nonsingular_oracle(rows, p)
        if ok:
            continue
        found += 1
        n = len(rows[0])
        assert any(w % p != 0 for w in witness)
        assert all(sum(w * rows[i][j] for i, w in enumerate(witness)) % p == 0 for j in range(n))


# -- Smith normal form ------------------------------------------------------------------


def mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))] for i in range(len(A))]


def test_snf_examples():
    U, D, V = smith_normal_form([[1, 0], [0, 1]])
    assert D == [[1, 0], [0, 1]]
    _, D, _ = smith_normal_form([[2, 0], [0, 3]])
    assert [D[0][0], D[1][1]] == [1, 6]  # d1 = gcd of entries, d1*d2 = |det|
    _, D, _ = smith_normal_form([[4, 6]])
    assert D == [[2, 0]]  # gcd oracle


def test_snf_reconstruction_random():
    rng = random.Random("snf")
    for _ in range(120):
        M = random_matrix(rng, kmax=4, nmax=5, bound=6)
        U, D, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert abs(det_cofactor(U)) == 1
        assert abs(det_cofactor(V)) == 1
        diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        assert all(d >= 0 for d in diag)
        for i in range(len(D)):
            for j in range(len(D[0])):
                if i != j:
                    assert D[i][j] == 0


def snf_divisors(rows):
    _, D, _ = smith_normal_form(rows)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i] != 0]


# a 7x6 matrix on which the divisor computation mod the minor needs both
# extended-gcd row steps and an extended-gcd column step
XGCD_7x6 = [
    [-3, 0, 16, 24, -6, 18],
    [8, 9, -18, 4, -2, -6],
    [12, 6, 0, 3, 9, 8],
    [12, 18, 8, 0, 3, 6],
    [16, 27, 18, -6, 4, 18],
    [18, 6, 0, 6, -2, 8],
    [-6, 0, -18, 18, -6, -9],
]


DIVISOR_EXAMPLES = [
    ([[1, -8], [0, 1]], [1, 1]),
    ([[2]], [2]),
    ([[1, 2, 0, 0], [1, 0, 3, 0], [1, 0, 0, 5]], [1, 1, 1]),
    ([[2, 3]], [1]),  # the first maximal minor is 2
    ([[1, 0], [0, 7]], [1, 7]),  # s_r carries the whole minor
    ([[3, 0], [0, 9]], [3, 9]),
    ([[1, 2], [3, 4], [5, 6]], [1, 2]),  # tall
    ([[2, 4, 6], [4, 8, 14]], [2, 2]),  # wide
    ([[2, 0, 0], [0, 6, 0], [2, 6, 0], [0, 0, 0]], [2, 6]),  # rank-deficient
    ([[1, 2, 3], [2, 4, 6], [3, 6, 9]], [1]),  # corank 2
    ([[0, 0], [0, 0]], []),
    ([[]], []),
    ([], []),
    (XGCD_7x6, [1, 1, 1, 1, 1, 108]),
]


def test_is_unimodular_examples():
    for rows, divisors in DIVISOR_EXAMPLES:
        assert elementary_divisors(rows) == snf_divisors(rows) == divisors
        unimodular = len(divisors) == len(rows) and set(divisors) <= {1}
        assert is_unimodular(rows) == unimodular_oracle(rows) == unimodular


def low_rank_matrix(rng, kmax=6, nmax=6, bound=3):
    k, n = rng.randint(1, kmax), rng.randint(1, nmax)
    r = rng.randint(0, min(k, n) - 1)
    L = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(k)]
    R = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(r)]
    return [[sum(L[i][t] * R[t][j] for t in range(r)) for j in range(n)] for i in range(k)]


def test_unimodular_vs_minor_gcd_oracle():
    rng = random.Random("unimod")
    for _ in range(250):
        rows = random_matrix(rng, kmax=5, nmax=7)
        assert is_unimodular(rows) == unimodular_oracle(rows)
        assert elementary_divisors(rows) == snf_divisors(rows)
    corank2 = 0
    for _ in range(150):
        rows = low_rank_matrix(rng)
        divisors = elementary_divisors(rows)
        assert divisors == snf_divisors(rows)
        assert is_unimodular(rows) == unimodular_oracle(rows)
        corank2 += min(len(rows), len(rows[0])) - len(divisors) >= 2
    assert corank2 >= 20


def test_rank_and_minor_over_q():
    rng = random.Random("minor")
    for _ in range(200):
        if rng.random() < 0.7:
            rows = random_matrix(rng, kmax=5, nmax=5, bound=6)
        else:
            rows = low_rank_matrix(rng)
        rank, modulus, witness = _rank_over_q(rows)
        divisors = snf_divisors(rows)
        assert rank == len(divisors)
        assert (witness is None) == (rank == len(rows))
        assert modulus > 0 and modulus % math.prod(divisors) == 0
        if rank == len(rows) == len(rows[0]):
            assert modulus == abs(det_cofactor(rows))


def _p_report(witness, p_witnesses, divisors):
    """classify_matrix(M, (2, 3, 5)).to_json() for rows with the given
    Q-witness that are p-singular exactly at the primes in p_witnesses."""
    return {
        "nonsingular": witness is None,
        "p_nonsingular": {p: p not in p_witnesses for p in ("2", "3", "5")},
        "unimodular": False,
        "witness": witness,
        "p_witnesses": p_witnesses,
        "elementary_divisors": divisors,
        "checked_depth": None,
    }


# For corank >= 2 the Q-witness depends on the elimination, and it appears in
# canonical classify output and in Singular errors, so these are pinned
# exactly: (rows, is_nonsingular witness, classify_matrix(rows, (2, 3, 5)) JSON).
WITNESS_TABLE = [
    (  # corank 2
        [[1, 2, 3], [2, 4, 6], [3, 6, 9]],
        [2, -1, 0],
        _p_report([2, -1, 0], {"2": [0, 1, 0], "3": [1, 1, 0], "5": [3, 1, 0]}, [1]),
    ),
    (  # square, corank 2
        [[2, 4, 1, 0], [1, 2, 0, 3], [3, 6, 1, 3], [5, 10, 2, 3]],
        [1, 1, -1, 0],
        _p_report(
            [1, 1, -1, 0], {"2": [1, 1, 1, 0], "3": [2, 2, 1, 0], "5": [4, 4, 1, 0]}, [1, 1]
        ),
    ),
    (  # tall, corank 2
        [[1, 2], [3, 4], [5, 6], [7, 8]],
        [1, -2, 1, 0],
        _p_report(
            [1, -2, 1, 0], {"2": [1, 1, 0, 0], "3": [1, 1, 1, 0], "5": [1, 3, 1, 0]}, [1, 2]
        ),
    ),
    (  # wide, with a zero column
        [[3, 5, 7, 2, 0], [6, 10, 14, 4, 0], [1, 1, 1, 1, 1]],
        [2, -1, 0],
        _p_report([2, -1, 0], {"2": [0, 1, 0], "3": [1, 1, 0], "5": [3, 1, 0]}, [1, 1]),
    ),
    (  # wide, corank 2, with a zero column
        [[4, -2, 6, 0, 8, 2], [2, -1, 3, 0, 4, 1], [0, 3, 0, 9, 0, 6], [6, 0, 9, 9, 12, 9]],
        [1, -2, 0, 0],
        _p_report(
            [1, -2, 0, 0], {"2": [1, 0, 0, 0], "3": [1, 1, 0, 0], "5": [2, 1, 0, 0]}, [1, 3]
        ),
    ),
    (  # leading zero column
        [[0, 2, 4], [0, 3, 6], [0, 1, 5]],
        [3, -2, 0],
        _p_report([3, -2, 0], {"2": [1, 0, 0], "3": [0, 1, 0], "5": [1, 1, 0]}, [1, 3]),
    ),
    (
        [[0, 0, 0], [0, 0, 0]],
        [1, 0],
        _p_report([1, 0], {"2": [1, 0], "3": [1, 0], "5": [1, 0]}, []),
    ),
    ([[]], [1], _p_report([1], {"2": [1], "3": [1], "5": [1]}, [])),  # 1 x 0
    (
        [[], [], []],
        [1, 0, 0],
        _p_report([1, 0, 0], {"2": [1, 0, 0], "3": [1, 0, 0], "5": [1, 0, 0]}, []),
    ),
    (
        [[6, 0, 0], [0, 10, 0], [0, 0, 15]],
        None,
        _p_report(None, {"2": [0, 1, 0], "3": [1, 0, 0], "5": [0, 1, 0]}, [1, 30, 30]),
    ),
    ([[2, 4, 0], [6, 14, 3]], None, _p_report(None, {"2": [1, 0]}, [1, 2])),
    # a pivot swap: the witness ends on an earlier row than the last
    (
        [[0, 1], [0, 1], [1, 0]],
        [1, -1, 0],
        _p_report([1, -1, 0], {"2": [1, 1, 0], "3": [1, 2, 0], "5": [1, 4, 0]}, [1, 1]),
    ),
    (
        [[0, 2, 1], [0, 4, 2], [1, 0, 0], [3, 1, 1]],
        [2, -1, 0, 0],
        _p_report(
            [2, -1, 0, 0], {"2": [0, 1, 0, 0], "3": [1, 1, 0, 0], "5": [1, 2, 0, 0]}, [1, 1, 1]
        ),
    ),
    (
        [[0, 0, 1], [0, 1, 0], [0, 2, 0], [1, 0, 0]],
        [0, 2, -1, 0],
        _p_report(
            [0, 2, -1, 0], {"2": [0, 0, 1, 0], "3": [0, 1, 1, 0], "5": [0, 3, 1, 0]}, [1, 1, 1]
        ),
    ),
    (
        [[0, 3], [0, 6], [2, 1], [4, 2]],
        [2, -1, 0, 0],
        _p_report(
            [2, -1, 0, 0], {"2": [0, 1, 0, 0], "3": [0, 1, 0, 0], "5": [1, 2, 0, 0]}, [1, 6]
        ),
    ),
]


@pytest.mark.parametrize("rows, witness, report", WITNESS_TABLE)
def test_q_witnesses_are_pinned(rows, witness, report):
    assert is_nonsingular(rows) == (witness is None, witness)
    assert classify_matrix(rows, (2, 3, 5)).to_json() == report


def test_unimodular_iff_p_nonsingular_at_divisor_primes():
    rng = random.Random("unimod-iff")
    for _ in range(120):
        rows = random_matrix(rng)
        divisors = elementary_divisors(rows)
        full_rank = len(divisors) == len(rows)
        primes = sorted(
            {p for d in divisors for p in (2, 3, 5, 7, 11, 13, 17, 19) if d % p == 0}
        )
        all_p_ok = full_rank and all(is_p_nonsingular(rows, p)[0] for p in primes)
        assert is_unimodular(rows) == all_p_ok == unimodular_oracle(rows)


def test_nonsingular_implies_some_prime_nonsingular():
    # for finite systems; the safeguard prime covers divisor-free cases
    from groupeq.intmath import factor_small

    rng = random.Random("someprime")
    checked = 0
    while checked < 80:
        rows = random_matrix(rng)
        if not is_nonsingular(rows)[0]:
            continue
        checked += 1
        product = 1
        for d in elementary_divisors(rows):
            product *= d
        candidates = [pp.p for pp in factor_small(product)] + [23]
        assert any(is_p_nonsingular(rows, p)[0] for p in candidates)


def test_p_nonsingular_implies_nonsingular():
    rng = random.Random("imply")
    for _ in range(150):
        rows = random_matrix(rng)
        for p in (2, 3, 5):
            if is_p_nonsingular(rows, p)[0]:
                assert is_nonsingular(rows)[0]


# -- square reduction --------------------------------------------------------------------


def _system(group, rows, rhs_list, variables):
    eqs = [
        AbelianEquation({v: row[j] for j, v in enumerate(variables)}, rhs)
        for row, rhs in zip(rows, rhs_list)
    ]
    return AbelianSystem(group, eqs, variables=variables)


def _hermite_checked(rows):
    """_column_hermite(rows), checked: rows*V equals the result, which is
    [L | 0] with L lower triangular and a nonzero diagonal."""
    result, V = _column_hermite(rows)
    k, n = len(rows), len(rows[0])
    product = [[sum(rows[i][t] * V[t][j] for t in range(n)) for j in range(n)] for i in range(k)]
    assert product == result
    assert all(result[i][j] == 0 for i in range(k) for j in range(i + 1, n))
    assert all(result[i][i] != 0 for i in range(k))
    return result, V


def _back_substituted(system, V, y):
    """x = V[:, :k] * y as an assignment of the system's variables."""
    zero = system.group.zero()
    return {
        var: sum((y[j].scale(V[r][j]) for j in range(len(y))), zero)
        for r, var in enumerate(system.variables)
    }


def test_column_hermite_single_row():
    A = AbelianGroupDescriptor([Summand.cyclic(2, 3)])
    a = A.element([5])
    system = _system(A, [[1, 5]], [a], ["x", "y"])
    L, V = _hermite_checked(system.matrix())
    assert L == [[1, 0]]
    full = _back_substituted(system, V, [a])
    assert verify_solution(system, full)
    assert full["y"].is_zero  # eliminated variable set to identity


def test_column_hermite_identity_case():
    A = AbelianGroupDescriptor([Summand.cyclic(3, 1)])
    system = _system(A, [[1, 0, 2], [0, 1, 3]], [A.element([1]), A.element([2])], ["x", "y", "z"])
    L, V = _hermite_checked(system.matrix())
    assert L == [[1, 0, 0], [0, 1, 0]]
    full = _back_substituted(system, V, [eq.rhs for eq in system.equations])
    assert verify_solution(system, full)


def test_column_hermite_already_square():
    A = AbelianGroupDescriptor([Summand.cyclic(2, 1)])
    system = _system(A, [[1, 1], [0, 1]], [A.element([1]), A.element([0])], ["x", "y"])
    L, V = _hermite_checked(system.matrix())
    assert L == [[1, 0], [0, 1]]
    full = _back_substituted(system, V, [eq.rhs for eq in system.equations])
    assert full == {"x": A.element([1]), "y": A.zero()}
    assert verify_solution(system, full)


def test_column_hermite_preserves_pi_nonsingularity():
    rng = random.Random("square")
    A = AbelianGroupDescriptor([Summand.cyclic(2, 1)])
    checked = 0
    while checked < 40:
        k = rng.randint(1, 3)
        n = rng.randint(k + 1, k + 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        pi = [p for p in (2, 3) if is_p_nonsingular(rows, p)[0]]
        if not is_nonsingular(rows)[0]:
            continue
        checked += 1
        variables = [f"x{i}" for i in range(n)]
        system = _system(A, rows, [A.random_element(rng) for _ in range(k)], variables)
        L, _ = _hermite_checked(system.matrix())
        square = [row[:k] for row in L]
        assert is_nonsingular(square)[0]
        for p in pi:
            assert is_p_nonsingular(square, p)[0]


# (rows, _column_hermite(rows)): V decides which of the many solutions the
# divisible solver returns, so it is pinned exactly.
HERMITE_TABLE = [
    ([[0, 3]], ([[3, 0]], [[0, 1], [1, 0]])),  # column swap
    (  # column adds, then a column swap
        [[0, 2, 3], [1, 1, 1]],
        ([[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [-1, 3, -3], [1, -2, 2]]),
    ),
    ([[4, 6], [3, 5]], ([[2, 0], [2, -1]], [[-1, 3], [1, -2]])),
    (  # wide
        [[6, 10, 15, 0, 7], [1, -2, 3, 5, 0]],
        (
            [[1, 0, 0, 0, 0], [-1, 1, 0, 0, 0]],
            [
                [-1, 3, -11, -15, -14],
                [0, 1, -4, -5, -7],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
                [1, -4, 13, 20, 22],
            ],
        ),
    ),
    (
        [[2, 3, 5], [1, 4, 7], [0, 1, -1]],
        ([[1, 0, 0], [3, 1, 0], [1, -8, 14]], [[-1, 0, -1], [1, -5, 9], [0, 3, -5]]),
    ),
]


@pytest.mark.parametrize("rows, expected", HERMITE_TABLE)
def test_column_hermite_is_pinned(rows, expected):
    assert _hermite_checked(rows) == expected


def test_column_hermite_rejects_singular():
    with pytest.raises(NotPiNonsingular):
        _column_hermite([[1, 2], [2, 4]])


# -- verify_solution ------------------------------------------------------------------------


def test_verify_solution_basics():
    A = AbelianGroupDescriptor([Summand.cyclic(3, 1)])
    empty = AbelianSystem(A, [])
    assert verify_solution(empty, {})
    a = A.element([2])
    system = AbelianSystem(A, [AbelianEquation({"x": 1}, a)])
    assert verify_solution(system, {"x": a})
    assert not verify_solution(system, {"x": A.element([1])})


# -- streams ----------------------------------------------------------------------------------


def test_stream_determinism():
    from groupeq.randgen import random_unimodular_stream

    A = AbelianGroupDescriptor([Summand.cyclic(2, 2)])
    stream = random_unimodular_stream(A, seed=42)
    t1, t2 = stream.truncation(25), stream.truncation(25)
    for e1, e2 in zip(t1.equations, t2.equations):
        assert e1.coeffs == e2.coeffs and e1.rhs == e2.rhs
    assert is_unimodular(t1.matrix())


def test_stream_truncation_prefix():
    A = AbelianGroupDescriptor([Summand.cyclic(3, 1)])
    stream = EquationStream(A, lambda i: AbelianEquation({f"x{i}": 1}, A.element([i])))
    t = stream.truncation(4)
    assert len(t.equations) == 4
    assert t.equations[2].coeffs == {"x2": 1}


# -- parsing and reports -------------------------------------------------------------------------


def test_parse_matrix_text():
    m = parse_matrix_text("1 -8\n0 1\n")
    assert m == [[1, -8], [0, 1]]
    m2 = parse_matrix_text("# comment\n\n2 3\n")
    assert m2 == [[2, 3]]


def test_parse_matrix_errors():
    with pytest.raises(ParseError) as exc:
        parse_matrix_text("1 2\n3 x\n")
    assert exc.value.line == 2 and exc.value.column == 2
    with pytest.raises(ParseError):
        parse_matrix_text("1 2\n3\n")


def test_classify_matrix_report():
    report = classify_matrix([[2]], primes=[2, 3])
    assert report.nonsingular and not report.unimodular
    assert report.p_nonsingular == {2: False, 3: True}
    assert report.divisors == [2]
    out = report.to_json()
    assert out["p_nonsingular"] == {"2": False, "3": True}


def test_classify_stream_records_depth():
    from groupeq.randgen import random_unimodular_stream
    from groupeq.systems import classify_stream

    A = AbelianGroupDescriptor([Summand.cyclic(2, 2)])
    stream = random_unimodular_stream(A, seed=4)
    report = classify_stream(stream, 15, primes=[2])
    assert report.unimodular and report.p_nonsingular[2]
    assert report.checked_depth == 15
    assert report.to_json()["checked_depth"] == 15


def test_system_json_roundtrip():
    A = AbelianGroupDescriptor([Summand.cyclic(2, 3), Summand.prufer(5)])
    system = _system(
        A,
        [[1, 2], [0, 1]],
        [A.element([1, Fraction(1, 5)]), A.element([0, Fraction(2, 25)])],
        ["x", "y1"],
    )
    obj = abelian_system_to_json(system)
    back = abelian_system_from_json(obj)
    assert back.group == A and back.variables == system.variables
    for e1, e2 in zip(back.equations, system.equations):
        assert e1.coeffs == e2.coeffs and e1.rhs == e2.rhs
