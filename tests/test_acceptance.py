"""Top-level acceptance suite: one pass/fail line per numbered criterion
(run with ``pytest tests/test_acceptance.py -v -s``).

Each criterion builds a canonical JSON report from seeded inputs; the final
criterion reruns all the others and compares reports byte for byte.
"""

import itertools
import json
import math
import time

from groupeq.abelian import AbelianGroupDescriptor, Summand, primary_component
from groupeq.counterexamples import bad_support_check, gen_zbad, pbad_growth, zbad_bound_check
from groupeq.errors import MissingPrimeNonsingularity
from groupeq.nilpotent import (
    TableGroup,
    WordSystem,
    brute_force_group_solve,
    commutator,
    evaluate_word,
    heisenberg_mod,
    heisenberg_q,
    nth_root_heisenberg_q,
    solve_nilpotent_bounded,
    solve_nilpotent_divisible,
)
from groupeq.randgen import (
    random_abelian_instance,
    random_nonsingular_word_system,
    random_unimodular_stream,
    random_unimodular_word_system,
    rng_for,
)
from groupeq.solve_abelian import EchelonState, brute_force_solve, solve_bounded
from groupeq.systems import (
    Const,
    GroupEquation,
    VarPow,
    is_p_nonsingular,
    is_unimodular,
    verify_solution,
)

PRIMES = (2, 3, 5, 7, 11, 13)

_FIRST_RUN: dict[int, str] = {}


def dumps(report) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _cache(number: int, report: dict) -> dict:
    _FIRST_RUN.setdefault(number, dumps(report))
    return report


# -- independent oracles ---------------------------------------------------------


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
    k, n = len(rows), len(rows[0])
    if k > n:
        return []
    return [
        det_cofactor([[row[j] for j in cols] for row in rows])
        for cols in itertools.combinations(range(n), k)
    ]


# -- criterion 1: classification vs minor oracles ----------------------------------


def criterion_1():
    rng = rng_for("acceptance", 1)
    mismatches = 0
    unimodular_count = 0
    p_true_counts = {p: 0 for p in PRIMES}

    def check(rows):
        nonlocal mismatches, unimodular_count
        minors = maximal_minors(rows)
        oracle_unimodular = bool(minors) and math.gcd(*minors) == 1
        if is_unimodular(rows) != oracle_unimodular:
            mismatches += 1
        unimodular_count += oracle_unimodular
        for p in PRIMES:
            oracle_p = any(m % p != 0 for m in minors)
            got = is_p_nonsingular(rows, p)[0]
            if got != oracle_p:
                mismatches += 1
            p_true_counts[p] += got

    for _ in range(10_000):
        k, n = rng.randint(1, 4), rng.randint(1, 5)
        check([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)])
    exhaustive = 0
    for entries in itertools.product(range(-2, 3), repeat=4):
        check([[entries[0], entries[1]], [entries[2], entries[3]]])
        exhaustive += 1

    return {
        "ok": mismatches == 0,
        "samples": 10_000,
        "exhaustive_2x2": exhaustive,
        "mismatches": mismatches,
        "unimodular_count": unimodular_count,
        "p_nonsingular_counts": {str(p): c for p, c in p_true_counts.items()},
    }


def test_criterion_1_classification():
    started = time.monotonic()
    report = _cache(1, criterion_1())
    elapsed = time.monotonic() - started
    assert report["ok"], report
    assert elapsed < 60
    print(f"\nCRITERION 1 classification vs minor oracle: PASS ({elapsed:.1f}s)")


# -- criterion 2: solver/oracle agreement ---------------------------------------------


def criterion_2():
    agreements = 0
    solved_count = 0
    flavor_counts = {}
    for i in range(500):
        system, flavor = random_abelian_instance(f"acc2:{i}", node_budget=10**5)
        flavor_counts[flavor] = flavor_counts.get(flavor, 0) + 1
        brute = brute_force_solve(system)
        try:
            solution = solve_bounded(system)
            solved = True
            assert verify_solution(system, solution.assignment)
        except MissingPrimeNonsingularity:
            solved = False
        assert solved == (brute is not None), (flavor, i)
        if flavor in ("unimodular", "filtered"):
            assert solved, (flavor, i)
        agreements += 1
        solved_count += solved
    return {
        "ok": agreements == 500,
        "instances": agreements,
        "solved": solved_count,
        "flavors": dict(sorted(flavor_counts.items())),
    }


def test_criterion_2_solver_oracle_agreement():
    started = time.monotonic()
    report = _cache(2, criterion_2())
    elapsed = time.monotonic() - started
    assert report["ok"], report
    assert elapsed < 300
    print(f"\nCRITERION 2 solver/brute-force agreement on 500 systems: PASS ({elapsed:.1f}s)")


# -- criterion 3: streams over bounded groups ------------------------------------------


STREAM_GROUPS = {
    "Z4": [(2, 2)],
    "Z8+Z9": [(2, 3), (3, 2)],
    "Z2^3+Z25": [(2, 1), (2, 1), (2, 1), (5, 2)],
}


def criterion_3():
    verified = 0
    for name, shape in STREAM_GROUPS.items():
        group = AbelianGroupDescriptor(Summand.cyclic(p, e) for p, e in shape)
        for seed in range(100):
            stream = random_unimodular_stream(group, seed=f"acc3:{name}:{seed}")
            state = EchelonState(group)
            for i in range(100):
                state.ingest(stream.gen(i))  # a DependentRow here fails the criterion
                if i + 1 in (10, 50, 100):
                    solution = state.solution()
                    assert verify_solution(stream.truncation(i + 1), solution.assignment)
                    verified += 1
    return {
        "ok": verified == 3 * 100 * 3,
        "streams_per_group": {name: 100 for name in STREAM_GROUPS},
        "verified_truncations": verified,
        "dependent_rows": 0,
    }


def test_criterion_3_unimodular_streams():
    started = time.monotonic()
    report = _cache(3, criterion_3())
    elapsed = time.monotonic() - started
    assert report["ok"], report
    assert elapsed < 120
    print(f"\nCRITERION 3 300 streams to depth 100, zero DependentRow: PASS ({elapsed:.1f}s)")


# -- criterion 4: pbad order divergence ---------------------------------------------------


def criterion_4():
    ks = [1, 3, 7, 15, 31, 63, 127]  # k_1 .. k_7
    rows = []
    for j in range(2, 9):
        report = pbad_growth(2, j)
        expected = 2 ** (ks[j - 2] + 1)  # bound p**(k_{j-1} + 1)
        assert report.bound == expected, (j, report.bound)
        assert report.observed >= expected
        rows.append({"depth": j, "bound": str(report.bound), "observed": str(report.observed)})
    assert int(rows[-1]["bound"]) >= 2**64
    return {"ok": True, "p": 2, "rows": rows}


def test_criterion_4_pbad_divergence():
    started = time.monotonic()
    report = _cache(4, criterion_4())
    elapsed = time.monotonic() - started
    assert report["ok"], report
    assert elapsed < 30
    print(f"\nCRITERION 4 pbad order bound reaches 2^128 >= 2^64 at depth 8: PASS ({elapsed:.1f}s)")


# -- criterion 5: bad support growth ---------------------------------------------------------


def criterion_5():
    rows = []
    for n in range(1, 7):
        report = bad_support_check(PRIMES, n)
        assert report.observed == n
        x = report.witness["x"]
        for p in PRIMES[:n]:
            assert not primary_component(x, p).is_zero
        rows.append({"depth": n, "support": report.observed})
    return {"ok": True, "primes": list(PRIMES), "rows": rows}


def test_criterion_5_bad_support():
    started = time.monotonic()
    report = _cache(5, criterion_5())
    elapsed = time.monotonic() - started
    assert report["ok"], report
    assert elapsed < 10
    print(f"\nCRITERION 5 bad-family support equals depth for 1..6: PASS ({elapsed:.1f}s)")


# -- criterion 6: the system over Z ------------------------------------------------------------


def criterion_6():
    rows = []
    for m in range(1, 11):
        report = zbad_bound_check(m, brute_limit=10**5)
        assert report.bound == 3**m
        assert report.observed >= 3**m
        if m == 1:
            assert report.observed == 3
        if m == 2:
            assert report.observed == 27
        _, truncation = gen_zbad(m)
        assert verify_solution(truncation, report.witness.assignment)
        rows.append(
            {"depth": m, "bound": str(report.bound), "min_positive_x": str(report.observed)}
        )
    return {"ok": True, "scan_limit": 10**5, "rows": rows}


def test_criterion_6_zbad_bounds():
    started = time.monotonic()
    report = _cache(6, criterion_6())
    elapsed = time.monotonic() - started
    assert report["ok"], report
    assert elapsed < 30
    print(f"\nCRITERION 6 zbad minimal x = 3, 27 and >= 3^m beyond: PASS ({elapsed:.1f}s)")


# -- criterion 7: bounded nilpotent solver vs group brute force ----------------------------------


def criterion_7():
    solved = 0
    for pname, group in (("H(Z/2)", heisenberg_mod(2)), ("H(Z/3)", heisenberg_mod(3))):
        table = TableGroup.from_handle(group)
        for i in range(100):
            system = random_unimodular_word_system(group, f"acc7:{pname}:{i}")
            solution = solve_nilpotent_bounded(system)
            for eq in system.equations:
                assert evaluate_word(group, eq, solution.assignment) == group.identity()
            table_eqs = [
                GroupEquation(
                    [
                        Const(table.index_of(lit.value)) if isinstance(lit, Const) else lit
                        for lit in eq.word
                    ]
                )
                for eq in system.equations
            ]
            brute = brute_force_group_solve(WordSystem(table, table_eqs, system.variables))
            assert brute is not None, (pname, i)
            solved += 1
    return {"ok": solved == 200, "instances": solved, "groups": {"H(Z/2)": 100, "H(Z/3)": 100}}


def test_criterion_7_nilpotent_bounded():
    started = time.monotonic()
    report = _cache(7, criterion_7())
    elapsed = time.monotonic() - started
    assert report["ok"], report
    assert elapsed < 180
    print(f"\nCRITERION 7 200 unimodular systems over Heisenberg mod 2/3: PASS ({elapsed:.1f}s)")


# -- criterion 8: divisible nilpotent solver ------------------------------------------------------


def criterion_8():
    group = heisenberg_q()
    solved = 0
    for i in range(190):
        system = random_nonsingular_word_system(group, f"acc8:{i}")
        solution = solve_nilpotent_divisible(system)
        for eq in system.equations:
            assert evaluate_word(group, eq, solution.assignment) == group.identity()
        solved += 1
    roots = 0
    rng = rng_for("acc8", "sqrt")
    for _ in range(10):
        g = group.random_element(rng)
        system = WordSystem(
            group, [GroupEquation([VarPow("x", 2), Const(group.invert(g))])]
        )
        solution = solve_nilpotent_divisible(system)
        assert group.multiply(solution["x"], solution["x"]) == g
        roots += 1
        solved += 1
    return {"ok": solved == 200, "instances": solved, "square_roots": roots}


def test_criterion_8_nilpotent_divisible():
    started = time.monotonic()
    report = _cache(8, criterion_8())
    elapsed = time.monotonic() - started
    assert report["ok"], report
    assert elapsed < 60
    print(f"\nCRITERION 8 200 nonsingular systems over Heisenberg(Q): PASS ({elapsed:.1f}s)")


# -- criterion 9: divisibility of the center, commutator identities -------------------------------


def criterion_9():
    group = heisenberg_q()
    rng = rng_for("acc9", "roots")
    for _ in range(1000):
        n = rng.randint(1, 5)
        if rng.random() < 0.5:
            w = group.center_embed(group.center_group.random_element(rng))
        else:
            w = group.random_element(rng)
        wn = group.power(w, n)
        if group.center_recognize(wn) is not None:
            assert group.center_recognize(w) is not None
        z = group.center_embed(group.center_group.random_element(rng))
        assert group.center_recognize(nth_root_heisenberg_q(group, z, n)) is not None

    groups = {
        "H(Z/2)": heisenberg_mod(2),
        "H(Z/3)": heisenberg_mod(3),
        "H(Z/9)": heisenberg_mod(3, 2),
        "H(Q)": group,
        "T(H(Z/2))": TableGroup.from_handle(heisenberg_mod(2)),
    }
    identity_checks = 0
    for name, G in groups.items():
        grng = rng_for("acc9", name)
        sample = (
            (lambda: grng.randrange(G.order))
            if isinstance(G, TableGroup)
            else (lambda: G.random_element(grng))
        )
        for _ in range(1000):
            a, b, c = sample(), sample(), sample()
            ab = commutator(G, a, b)
            lhs = commutator(G, a, G.multiply(b, c))
            rhs = G.multiply(G.multiply(commutator(G, a, c), ab), commutator(G, ab, c))
            assert lhs == rhs, name
            ac = commutator(G, a, c)
            lhs2 = commutator(G, G.multiply(a, b), c)
            rhs2 = G.multiply(G.multiply(ac, commutator(G, ac, b)), commutator(G, b, c))
            assert lhs2 == rhs2, name
            identity_checks += 1
    return {
        "ok": identity_checks == 5000,
        "root_samples": 1000,
        "identity_checks_per_group": 1000,
        "groups": sorted(groups),
    }


def test_criterion_9_center_divisibility_and_identities():
    started = time.monotonic()
    report = _cache(9, criterion_9())
    elapsed = time.monotonic() - started
    assert report["ok"], report
    assert elapsed < 30
    print(f"\nCRITERION 9 central roots and commutator identities: PASS ({elapsed:.1f}s)")


# -- criterion 10: determinism --------------------------------------------------------------------


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def test_criterion_10_determinism():
    for number, fn in CRITERIA.items():
        if number not in _FIRST_RUN:
            _cache(number, fn())
        second = dumps(fn())
        assert _FIRST_RUN[number] == second, f"criterion {number} report changed between runs"
    print("\nCRITERION 10 byte-identical reports on rerun: PASS")
