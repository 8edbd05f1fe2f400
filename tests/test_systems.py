import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from groupeq import systems
from groupeq.abelian import AbelianGroupDescriptor, GroupElement, Summand
from groupeq.errors import DescriptorMismatch, ParseError, Singular, VerificationFailed
from groupeq.randgen import random_unimodular_matrix
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
    exponent_row,
    is_nonsingular,
    is_p_nonsingular,
    is_unimodular,
    parse_matrix_text,
    verify_solution,
)
from reference import divisor_certificate as divisor_certificate_from_f
from reference import is_p_nonsingular as is_p_nonsingular_on_lists
from reference import rank_over_q as rank_over_q_with_identity
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
    sums = [exponent_row(conj), exponent_row(GroupEquation([VarPow("w", 2)]))]
    assert _exponent_matrix(sums) == [[0, 1], [2, 0]]


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
        is_unimodular,
        classify_matrix,
    ):
        with pytest.raises(ValueError, match="rows differ in length"):
            classifier(rows)


def test_non_integer_entries_are_refused_not_truncated():
    Q = AbelianGroupDescriptor([Summand.rational()])
    # [[1/2]] is nonsingular over Q: truncating it to [[0]] would call it
    # singular, and 2.9 truncated to 2 would call [[2.9]] 2-singular
    for bad in (0.5, 2.9, Fraction(3, 2), "7", True):
        for classifier in (
            is_nonsingular,
            functools.partial(is_p_nonsingular, p=2),
            is_unimodular,
            classify_matrix,
        ):
            with pytest.raises(ValueError, match="must be an int"):
                classifier([[bad, 1]])
        with pytest.raises(ValueError, match="must be an int"):
            AbelianEquation({"x": bad}, Q.zero())
        with pytest.raises(ValueError, match="must be an int"):
            VarPow("x", bad)
    # ints of any size, and tuples of them, pass unchanged
    assert is_nonsingular(((10**30, 1),)) == (True, None)
    assert AbelianEquation({"x": -(10**30), "y": 0}, Q.zero()).coeffs == {"x": -(10**30)}


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


# 2**64 + 13 is the least prime above 2**64: entries and products then span
# several machine words
@pytest.mark.parametrize("p", [2, 3, 65537, 2**61 - 1, 2**64 + 13])
def test_packed_p_elimination_matches_the_list_reference(p):
    rng = random.Random(f"packed:{p}")
    # empty, k x 0, 1 x n, tall, wide and square
    shapes = [(0, 0), (3, 0), (1, 1), (1, 7), (7, 3), (3, 8), (6, 6)]
    for k, n in shapes:
        for t in range(25):
            bound = rng.choice([1, 3, p, 5 * p])
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
            if k >= 3 and t % 3:
                # rank-deficient mod p: a row made from two others, plus p times
                # anything when t % 3 == 2, so only mod p and not over Q
                a, b = rng.sample(range(k - 1), 2)
                q = rng.randint(-p, p)
                pk = (t % 3 == 2) * p
                rows[-1] = [x + q * y + pk * rng.randint(-2, 2) for x, y in zip(rows[a], rows[b])]
            if k and t % 5 == 0:
                rows[rng.randrange(k)] = [p * x for x in rows[rng.randrange(k)]]
            assert is_p_nonsingular(rows, p) == is_p_nonsingular_on_lists(rows, p)


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
        assert classify_matrix(rows).divisors == snf_divisors(rows) == divisors
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
        assert classify_matrix(rows).divisors == snf_divisors(rows)
    corank2 = 0
    for _ in range(150):
        rows = low_rank_matrix(rng)
        divisors = classify_matrix(rows).divisors
        assert divisors == snf_divisors(rows)
        assert is_unimodular(rows) == unimodular_oracle(rows)
        corank2 += min(len(rows), len(rows[0])) - len(divisors) >= 2
    assert corank2 >= 20


def _smith_product(rng, diagonal):
    """U * diag * V for random unimodular U and V."""
    k = len(diagonal)
    U, V = random_unimodular_matrix(rng, k, k), random_unimodular_matrix(rng, k, k)
    D = [[diagonal[i] if i == j else 0 for j in range(k)] for i in range(k)]
    return mat_mul(mat_mul(U, D), V)


def test_divisor_certificate_decides_without_the_smith_form(monkeypatch):
    rng = random.Random("certificate")
    # [1, ..., 1, d], which the certificate decides; then s_(k-1) > 1
    cyclic = [[1] * (k - 1) + [d] for d in (7, 30, 2**40 + 15, 6561) for k in (1, 3, 6)]
    other = [[1, 1, 2, 6], [1, 3, 9, 27], [2, 2, 4], [1, 1, 1, 5, 5 * 2**40]]
    products = [(diagonal, _smith_product(rng, diagonal)) for diagonal in cyclic + other]
    calls = []
    divisors_mod = systems._divisors_mod

    def counted(rows, rank, m):
        calls.append(m)
        return divisors_mod(rows, rank, m)

    monkeypatch.setattr(systems, "_divisors_mod", counted)
    for diagonal, M in products[: len(cyclic)]:
        assert classify_matrix(M).divisors == snf_divisors(M) == diagonal
        assert classify_matrix(M, (2, 3, 5)).divisors == diagonal
    assert calls == []
    # the Smith form runs once a call, modulo a divisor of |det M| that
    # s_1 * ... * s_(k-1) divides
    for diagonal, M in products[len(cyclic) :]:
        calls.clear()
        assert classify_matrix(M).divisors == snf_divisors(M) == diagonal
        assert len(calls) == 1
        assert math.prod(diagonal) % calls[0] == 0
        assert calls[0] % math.prod(diagonal[:-1]) == 0


def test_rank_and_minor_over_q():
    rng = random.Random("minor")
    for _ in range(200):
        if rng.random() < 0.7:
            rows = random_matrix(rng, kmax=5, nmax=5, bound=6)
        else:
            rows = low_rank_matrix(rng)
        rank, modulus, witness, _ = _rank_over_q(rows)
        divisors = snf_divisors(rows)
        assert rank == len(divisors)
        assert (witness is None) == (rank == len(rows))
        assert modulus > 0 and modulus % math.prod(divisors) == 0
        if rank == len(rows) == len(rows[0]):
            assert modulus == abs(det_cofactor(rows))


def test_bareiss_on_m_alone_matches_the_identity_carrying_reference():
    """_rank_over_q eliminates M alone and recovers the witness and F*c from
    the LU factors it leaves; the reference carries [M | I].  Rank, modulus,
    witness and the certificate's g must agree exactly."""
    rng = random.Random("bareiss-reference")
    # k x 0, 1 x n and square; then wide and tall
    shapes = [(1, 0), (3, 0), (1, 1), (1, 6), (4, 4), (7, 7), (12, 12)]
    shapes += [(3, 8), (8, 11), (8, 3), (11, 6)]
    coranks, certificates = set(), []
    for t in range(2200):
        k, n = shapes[t % len(shapes)]
        bound = rng.choice([1, 3, 9, 2**40])
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
        # rows at random positions made from two others, so the witness
        # depends on the elimination order once two or more rows depend
        for _ in range(min(t % 4, k - 2) if k > 2 else 0):
            i, a, b = rng.sample(range(k), 3)
            u, v = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[i] = [u * x + v * y for x, y in zip(rows[a], rows[b])]
        if n and t % 3 == 0:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        if k == n and t % 5 == 1:
            # two rows times 2: 2 divides s_(k-1), so the certificate's g > 1,
            # and with small entries g also depends on the row swaps
            for i in rng.sample(range(k), min(k, 2)):
                rows[i] = [2 * x for x in rows[i]]
        rank, modulus, witness, elimination = _rank_over_q(rows)
        expected = rank_over_q_with_identity(rows)
        assert (rank, modulus, witness) == expected[:3]
        coranks.add(k - rank)
        if rank == k == n and modulus > 1:
            g = systems._divisor_certificate(*elimination)
            assert g == divisor_certificate_from_f(expected[3])
            certificates.append(g)
    assert {0, 1, 2, 3} <= coranks
    # the certificate both decides (g = 1) and leaves a bound (g > 1)
    assert certificates.count(1) >= 100 and len(certificates) - certificates.count(1) >= 20


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
        divisors = classify_matrix(rows).divisors
        full_rank = len(divisors) == len(rows)
        primes = sorted(
            {p for d in divisors for p in (2, 3, 5, 7, 11, 13, 17, 19) if d % p == 0}
        )
        all_p_ok = full_rank and all(is_p_nonsingular(rows, p)[0] for p in primes)
        assert is_unimodular(rows) == all_p_ok == unimodular_oracle(rows)


def test_nonsingular_implies_some_prime_nonsingular():
    # for finite systems; the safeguard prime covers divisor-free cases
    from reference import factor_small

    rng = random.Random("someprime")
    checked = 0
    while checked < 80:
        rows = random_matrix(rng)
        if not is_nonsingular(rows)[0]:
            continue
        checked += 1
        product = 1
        for d in classify_matrix(rows).divisors:
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
    with pytest.raises(Singular) as exc:
        _column_hermite([[1, 2], [2, 4]])
    assert exc.value.witness == is_nonsingular([[1, 2], [2, 4]])[1] == [2, -1]


# -- verify_solution ------------------------------------------------------------------------


def test_verify_solution_basics():
    A = AbelianGroupDescriptor([Summand.cyclic(3, 1)])
    empty = AbelianSystem(A, [])
    assert verify_solution(empty, {})
    a = A.element([2])
    system = AbelianSystem(A, [AbelianEquation({"x": 1}, a)])
    assert verify_solution(system, {"x": a})
    assert not verify_solution(system, {"x": A.element([1])})


# Z/8 + Prufer(3) + Q + Z, and a system that x, y solve: its right-hand
# sides are built from them
EVERY_KIND = AbelianGroupDescriptor(
    [Summand.cyclic(2, 3), Summand.prufer(3), Summand.rational(), Summand.integer()]
)
X = EVERY_KIND.element([3, Fraction(1, 3), Fraction(2), 5])
Y = EVERY_KIND.element([6, Fraction(7, 9), Fraction(-1, 4), -2])


def _solved(rhs_y=None):
    """2x + 3y = b1 and x - y = b2 over EVERY_KIND; b2 is rhs_y when given."""
    b1 = EVERY_KIND.combine([(X, 2), (Y, 3)])
    b2 = EVERY_KIND.combine([(X, 1), (Y, -1)]) if rhs_y is None else rhs_y
    return AbelianSystem(
        EVERY_KIND, [AbelianEquation({"x": 2, "y": 3}, b1), AbelianEquation({"x": 1, "y": -1}, b2)]
    )


@pytest.mark.parametrize(
    "t, value",
    [
        pytest.param(0, 4, id="cyclic"),
        pytest.param(1, Fraction(2, 3), id="prufer"),
        pytest.param(2, Fraction(5, 2), id="q"),
        pytest.param(3, 6, id="z"),
    ],
)
def test_verify_refuses_one_wrong_coordinate(t, value):
    system = _solved()
    assert verify_solution(system, {"x": X, "y": Y})
    coords = list(X.coords)
    coords[t] = value
    assert not verify_solution(system, {"x": EVERY_KIND.element(coords), "y": Y})


def test_verify_reads_equal_non_canonical_coordinates_as_equal():
    from groupeq.abelian import GroupElement

    # 11 for 3 on Z/8, 4/3 for 1/3 on Prufer(3), the int 2 for 2 on Q
    x = GroupElement(EVERY_KIND, (11, Fraction(4, 3), 2, 5))
    assert verify_solution(_solved(), {"x": x, "y": Y})


def test_verify_compares_the_right_hand_side_as_given():
    from groupeq.abelian import GroupElement

    b2 = EVERY_KIND.combine([(X, 1), (Y, -1)]).coords
    assert b2 == (5, Fraction(5, 9), Fraction(9, 4), 7)
    # a hand-built right-hand side is compared as it stands: an equal Q value
    # of another type holds, a residue or Prufer value outside its range not
    for rhs, holds in (
        ((5, Fraction(5, 9), Fraction(9, 4), 7), True),
        ((5, Fraction(5, 9), Fraction(9, 4), 7.0), True),
        ((13, Fraction(5, 9), Fraction(9, 4), 7), False),
        ((5, Fraction(14, 9), Fraction(9, 4), 7), False),
        ((5, Fraction(5, 9), Fraction(9, 4), 8), False),
    ):
        system = _solved(GroupElement(EVERY_KIND, rhs))
        assert verify_solution(system, {"x": X, "y": Y}) is holds
    Q = AbelianGroupDescriptor([Summand.rational()])
    system = AbelianSystem(Q, [AbelianEquation({"x": 2}, GroupElement(Q, (1,)))])
    assert verify_solution(system, {"x": Q.element([Fraction(1, 2)])})


def test_verify_raises_missing_before_mismatch_and_goes_equation_by_equation():
    from groupeq.errors import DescriptorMismatch, MissingVariable

    other = AbelianGroupDescriptor([Summand.cyclic(2, 3)]).zero()
    system = _solved()
    with pytest.raises(MissingVariable):
        verify_solution(system, {"x": other})
    with pytest.raises(DescriptorMismatch):
        verify_solution(system, {"x": other, "y": Y})
    # the first equation fails, so the second, whose variable is missing, is not read
    late = AbelianSystem(
        EVERY_KIND,
        [AbelianEquation({"x": 1}, Y), AbelianEquation({"z": 1}, Y)],
    )
    assert not verify_solution(late, {"x": X})


@pytest.mark.parametrize(
    "summand, value, twice",
    [
        pytest.param(Summand.cyclic(2, 3), True, 2, id="bool-cyclic"),
        pytest.param(Summand.rational(), True, 2, id="bool-q"),
        pytest.param(Summand.rational(), 2.0, 4, id="float-q"),
        pytest.param(Summand.prufer(2), 0.25, Fraction(1, 2), id="float-prufer"),
    ],
)
def test_verify_refuses_coordinates_that_element_refuses(summand, value, twice):
    """x*2 = twice, with a value of x that element() refuses: a ValueError,
    not a verdict read off the coordinate as an int or a float."""
    from groupeq.abelian import GroupElement

    A = AbelianGroupDescriptor([summand])
    system = AbelianSystem(A, [AbelianEquation({"x": 2}, A.element([twice]))])
    coords = (value,)
    with pytest.raises(ValueError):
        A.element(coords)
    with pytest.raises(ValueError):
        verify_solution(system, {"x": GroupElement(A, coords)})


def test_verify_builds_no_element_and_no_fraction(monkeypatch):
    from groupeq.abelian import GroupElement
    from groupeq.randgen import random_unimodular_stream
    from groupeq.solve_abelian import solve_auto

    group = AbelianGroupDescriptor(
        [Summand.cyclic(2, 3), Summand.cyclic(3, 2), Summand.prufer(3), Summand.rational()]
    )
    system = random_unimodular_stream(group, "verify-counts").truncation(40)
    assignment = solve_auto(system).assignment
    built = []
    element_init, fraction_new = GroupElement.__init__, Fraction.__new__

    def counted_init(self, *args):
        built.append("element")
        element_init(self, *args)

    def counted_new(cls, *args, **kwargs):
        built.append("Fraction")
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(GroupElement, "__init__", counted_init)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    ok = verify_solution(system, assignment)
    monkeypatch.undo()
    assert ok
    assert built == []


Z8_Z3 = AbelianGroupDescriptor([Summand.cyclic(2, 3), Summand.cyclic(3, 1)])


@pytest.mark.parametrize(
    "value, error",
    [
        pytest.param(GroupElement(Z8_Z3, (1, 1, 0)), DescriptorMismatch, id="extra-coordinate"),
        pytest.param(GroupElement(Z8_Z3, (1,)), DescriptorMismatch, id="missing-coordinate"),
        pytest.param((1,), ValueError, id="tuple"),
        pytest.param(1, ValueError, id="int"),
        pytest.param(None, ValueError, id="none"),
    ],
)
def test_verify_refuses_a_malformed_abelian_value(value, error):
    """x = (1, 1) over Z/8 + Z/3: a GroupElement with a wrong number of
    coordinates is a DescriptorMismatch, as ``element`` says, and a value that
    is no GroupElement a ValueError, as over an abelian handle."""
    one = Z8_Z3.element([1, 1])
    system = AbelianSystem(Z8_Z3, [AbelianEquation({"x": 1}, one)])
    assert verify_solution(system, {"x": one})
    with pytest.raises(error):
        verify_solution(system, {"x": value})


def test_verify_reads_one_value_at_a_time():
    """x + y = 0 with a bool coordinate in x and y from another group: x is
    read, and refused, before y's group is checked."""
    system = AbelianSystem(Z8_Z3, [AbelianEquation({"x": 1, "y": 1}, Z8_Z3.zero())])
    other = AbelianGroupDescriptor([Summand.rational()]).zero()
    with pytest.raises(ValueError):
        verify_solution(system, {"x": GroupElement(Z8_Z3, (True, 0)), "y": other})


class _HoldsOnly(systems.EquationSystem):
    def holds(self, eq, values):
        return True


@pytest.mark.parametrize(
    "system",
    [[], systems.EquationSystem(Z8_Z3, []), _HoldsOnly(Z8_Z3, [])],
    ids=["list", "base", "holds-only"],
)
def test_verify_refuses_an_unknown_system(system):
    with pytest.raises(TypeError):
        verify_solution(system, {})


def test_classify_refuses_an_elimination_mod_p_that_contradicts_the_divisors(monkeypatch):
    monkeypatch.setattr(systems, "is_p_nonsingular", lambda rows, p: (True, None))
    with pytest.raises(VerificationFailed, match="elimination mod 2 contradicts"):
        classify_matrix([[2, 0], [0, 1]], (2,))


def test_classify_refuses_unimodular_rows_that_are_singular_over_q(monkeypatch):
    monkeypatch.setattr(systems, "_divisors_mod", lambda rows, rank, modulus: [1] * len(rows))
    with pytest.raises(VerificationFailed, match="unimodular rows are singular"):
        classify_matrix([[1, 2], [2, 4]])


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
    from reference import classify_stream

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
