"""Fingerprint of groupeq's outputs on a fixed seeded corpus.

    python tests/fingerprint.py SRC_DIR

imports groupeq from SRC_DIR (a checkout's ``src``) and prints one line,
``<count> <sha256>``: the number of outputs and the digest of their text.
Run it on two trees in separate processes; equal lines mean the two trees
gave the same answers and the same refusals on the whole corpus.

An answer is recorded with the type and value of every coordinate and with
its ``Solution.to_json()`` text, a refusal with its exception type, message,
prime, witness and divisors.  The corpus covers the four public abelian
solvers on random bounded and on mixed cyclic/Prüfer/Q systems,
``brute_force_solve`` on random bounded systems (see ``brute_corpus``),
``verify_solution``'s verdicts on right and on perturbed answers over
mixed groups with Z (see ``verify_corpus``) and over the four kinds of
word-system handle (see ``word_verify_corpus``), ``EchelonState`` checkpoints
with an injected dependent row, the nilpotent solvers on Heisenberg groups
and abelian handles, ``brute_force_group_solve``
on the H(Z/2) systems carried to its multiplication table, hand-built
word systems and word values over H(Q) and H(Z/8) (see ``word_corpus``),
``classify_matrix`` JSON on small matrices, on square and wide ones up
to 30 x 34 and on tall, square and wide ones with a zero column and two or
three dependent rows, ``divide_exact`` and ``combine``, and the
counterexample reports.  Everything is drawn from string-seeded generators,
so a tree's line does not change from run to run.

Not collected by pytest: the name does not match ``test_*.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys


def _value(v):
    """Text of an output value that keeps each coordinate's type."""
    if hasattr(v, "coords"):  # GroupElement
        v = v.coords
    if isinstance(v, tuple):
        return "(" + ",".join(f"{type(c).__name__}:{c}" for c in v) + ")"
    return f"{type(v).__name__}:{v}"


class Corpus:
    def __init__(self):
        self.lines: list[str] = []

    def record(self, tag: str, text: str) -> None:
        self.lines.append(f"{tag} {text}")

    def run(self, tag: str, fn, *args) -> object:
        """Record fn(*args): a Solution's assignment and JSON text, another
        value's text, or the GroupEqError it raised.  Returns the value, or
        None on a refusal."""
        from groupeq.errors import GroupEqError

        try:
            out = fn(*args)
        except GroupEqError as exc:
            fields = {
                k: getattr(exc, k) for k in ("p", "witness", "divisors") if hasattr(exc, k)
            }
            self.record(tag, f"{type(exc).__name__} {exc} {fields!r}")
            return None
        if hasattr(out, "assignment"):
            values = " ".join(f"{k}={_value(v)}" for k, v in sorted(out.assignment.items()))
            self.record(tag, f"{values} {json.dumps(out.to_json(), sort_keys=True)}")
        else:
            self.record(tag, _value(out))
        return out

    def digest(self) -> str:
        text = "\n".join(self.lines).encode()
        return f"{len(self.lines)} {hashlib.sha256(text).hexdigest()}"


def _mixed_group(rng, Summand, AbelianGroupDescriptor, divisible_only=False):
    pool = [Summand.prufer(3), Summand.prufer(2), Summand.rational()]
    if not divisible_only:
        pool += [Summand.cyclic(2, 3), Summand.cyclic(3, 2), Summand.cyclic(2, 1),
                 Summand.cyclic(5, 1), Summand.cyclic(3, 1)]
    return AbelianGroupDescriptor(rng.choice(pool) for _ in range(rng.randint(0, 4)))


def abelian_corpus(c: Corpus) -> None:
    from groupeq.abelian import AbelianGroupDescriptor, Summand
    from groupeq.randgen import random_abelian_instance, random_unimodular_stream
    from groupeq.solve_abelian import solve_auto, solve_bounded, solve_divisible, solve_mod_p
    from groupeq.systems import AbelianEquation, AbelianSystem

    solvers = (solve_auto, solve_bounded, solve_divisible, solve_mod_p)
    for i in range(1200):
        system, flavor = random_abelian_instance(f"fp:{i}")
        for solve in solvers:
            c.run(f"abinst {i} {flavor} {solve.__name__}", solve, system)

    for i in range(1500):
        rng = random.Random(f"fp-mixed:{i}")
        group = _mixed_group(rng, Summand, AbelianGroupDescriptor, divisible_only=i % 3 == 0)
        nvars = rng.randint(1, 4)
        variables = [f"v{j}" for j in range(nvars)]
        extra = ["w"] if i % 4 == 0 else []
        equations = []
        for _ in range(rng.randint(0, nvars + (i % 5 == 0))):
            coeffs = {v: rng.randint(-4, 4) for v in variables}
            equations.append(AbelianEquation(coeffs, group.random_element(rng)))
        system = AbelianSystem(group, equations, variables=variables + extra)
        for solve in solvers:
            c.run(f"mixed {i} {group!r} {solve.__name__}", solve, system)

    mixed = AbelianGroupDescriptor(
        [Summand.cyclic(2, 3), Summand.cyclic(3, 2), Summand.prufer(3), Summand.rational()]
    )
    for i in range(40):
        stream = random_unimodular_stream(mixed, f"fp-trunc:{i}")
        for depth in (1, 5, 12):
            c.run(f"truncation {i} {depth}", solve_auto, stream.truncation(depth))


def brute_corpus(c: Corpus) -> None:
    """``brute_force_solve``'s answer or refusal: on seeded
    ``random_abelian_instance`` systems, solvable and unsolvable, whose
    search spaces hold at most 10**4 assignments (10**5 for the last 40); on
    the same systems with 24 more variables, which take the space past
    ``BRUTE_FORCE_LIMIT``; and on a system over an infinite group."""
    from groupeq.abelian import AbelianGroupDescriptor, Summand
    from groupeq.randgen import random_abelian_instance
    from groupeq.solve_abelian import brute_force_solve
    from groupeq.systems import AbelianSystem

    for i in range(440):
        budget = 10**4 if i < 400 else 10**5
        system, flavor = random_abelian_instance(f"fp-brute:{i}", node_budget=budget)
        c.run(f"brute {i} {flavor}", brute_force_solve, system)
        if i % 20 == 0:
            wide = AbelianSystem(system.group, system.equations, [f"w{j}" for j in range(24)])
            c.run(f"brute {i} wide", brute_force_solve, wide)
    Q = AbelianGroupDescriptor([Summand.rational()])
    c.run("brute infinite", brute_force_solve, AbelianSystem(Q, [], ["x"]))


def verify_corpus(c: Corpus) -> None:
    """``verify_solution``'s verdict, or its exception type, on abelian
    systems over mixed groups with cyclic, Prüfer, Q and Z summands.

    Each system's right-hand sides are the sums of a random assignment.  Its
    answer is ``solve_auto``'s, or that assignment where the solver refuses
    the system or the group has an integer line.  The verdict is recorded
    for the answer; for the answer with one coordinate of each summand
    changed to another group element; for the answer with every coordinate
    written in an equal non-canonical form (c + p**e, Prüfer c + 1, an
    integral rational as an int); for one right-hand side written in that
    form; and for an assignment that lacks a variable or holds a value of
    another group.  Every coordinate is an int or a Fraction.
    """
    from fractions import Fraction

    from groupeq.abelian import AbelianGroupDescriptor, GroupElement, Summand
    from groupeq.errors import GroupEqError
    from groupeq.solve_abelian import solve_auto
    from groupeq.systems import AbelianEquation, AbelianSystem, verify_solution

    pool = [Summand.cyclic(2, 3), Summand.cyclic(3, 2), Summand.cyclic(5, 1), Summand.prufer(3),
            Summand.prufer(2), Summand.rational(), Summand.integer()]

    def moved(s, x, same):
        """x written another way when same, else another element of s."""
        if s.kind == "cyclic":
            return x + s.modulus if same else x + 1
        if s.kind == "prufer":
            return x + 1 if same else x + Fraction(1, s.p)
        if s.kind == "q":
            return (int(x) if x.denominator == 1 else x) if same else x + Fraction(1, 2)
        return x if same else x + 1

    def verdict(tag, system, assignment):
        try:
            c.record(tag, str(verify_solution(system, assignment)))
        except GroupEqError as exc:
            c.record(tag, type(exc).__name__)

    for i in range(300):
        rng = random.Random(f"fp-verify:{i}")
        group = AbelianGroupDescriptor(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        summands = group.summands
        variables = [f"v{j}" for j in range(rng.randint(1, 4))]
        x = {v: group.random_element(rng) for v in variables}
        equations = []
        for _ in range(rng.randint(1, len(variables) + 1)):
            coeffs = {v: rng.randint(-4, 4) for v in variables}
            rhs = group.combine((x[v], k) for v, k in coeffs.items())
            equations.append(AbelianEquation(coeffs, rhs))
        system = AbelianSystem(group, equations, variables)
        answer = x
        if not any(s.kind == "z" for s in summands):
            try:
                answer = solve_auto(system).assignment
            except GroupEqError:
                pass
        verdict(f"verify {i} {group!r}", system, answer)
        for t, s in enumerate(summands):
            v = rng.choice(variables)
            coords = list(answer[v].coords)
            coords[t] = moved(s, coords[t], False)
            changed = GroupElement(group, tuple(coords))
            verdict(f"verify {i} moved {t} {v}", system, {**answer, v: changed})

        def rewritten(g):
            return GroupElement(group, tuple(moved(s, a, True) for s, a in zip(summands, g.coords)))

        verdict(f"verify {i} rewritten", system, {v: rewritten(g) for v, g in answer.items()})
        j = rng.randrange(len(equations))
        equations[j] = AbelianEquation(equations[j].coeffs, rewritten(equations[j].rhs))
        verdict(f"verify {i} rhs {j}", AbelianSystem(group, equations, variables), answer)
        v = rng.choice(variables)
        verdict(f"verify {i} missing {v}", system, {u: g for u, g in answer.items() if u != v})
        other = AbelianGroupDescriptor((*summands, Summand.cyclic(7, 1)))
        stranger = other.element((*answer[v].coords, 0))
        verdict(f"verify {i} other {v}", system, {**answer, v: stranger})


def word_verify_corpus(c: Corpus) -> None:
    """``verify_solution``'s verdict, or its exception type, on word systems
    over H(Z/8), H(Q), the multiplication table of H(Z/2) and the abelian
    handle of Z/8 + Z/3.

    Each seeded system is solved (the table's by ``brute_force_group_solve``
    on an H(Z/2) system carried to its indices), and the verdict is recorded
    for the answer; for the answer with one value multiplied by a
    non-identity element; for the answer without that variable; for the
    answer with that value replaced by one the handle refuses; and, over the
    abelian handle, with it replaced by an element of another group.
    """
    from fractions import Fraction

    from groupeq.abelian import AbelianGroupDescriptor, GroupElement, Summand
    from groupeq.errors import GroupEqError
    from groupeq.nilpotent import (
        AbelianHandle,
        TableGroup,
        WordSystem,
        brute_force_group_solve,
        heisenberg_mod,
        heisenberg_q,
        solve_nilpotent_bounded,
        solve_nilpotent_divisible,
    )
    from groupeq.randgen import random_nonsingular_word_system, random_unimodular_word_system
    from groupeq.systems import Const, GroupEquation, verify_solution

    H2, HQ = heisenberg_mod(2, 1), heisenberg_q()
    table = TableGroup.from_handle(H2)
    A = AbelianGroupDescriptor([Summand.cyclic(2, 3), Summand.cyclic(3, 1)])
    others = [
        AbelianGroupDescriptor([Summand.rational()]).zero(),
        AbelianGroupDescriptor([*A.summands, Summand.cyclic(7, 1)]).zero(),
    ]
    malformed = [GroupElement(A, (True, 0)), GroupElement(A, (1,)), GroupElement(A, (1, 1, 0))]
    # (name, group, solver, a non-identity step, values the handle refuses)
    cases = [
        ("H(Z/8)", heisenberg_mod(2, 3), solve_nilpotent_bounded, (0, 0, 1),
         [(True, 0, 0), (1.0, 0, 0), (1, 0), None]),
        ("H(Q)", HQ, solve_nilpotent_divisible, (0, 0, Fraction(1)),
         [(0.5, 0, 0), (True, 0, 0), [0, 0, 0]]),
        ("table H(Z/2)", table, brute_force_group_solve, 1,
         [-1, table.order, True, 1.0, (0, 0, 0)]),
        ("Z/8+Z/3", AbelianHandle(A), solve_nilpotent_bounded, A.element([1, 0]),
         [*malformed, (1, 0)]),
    ]

    def draw(G, key):
        if G is HQ:
            return random_nonsingular_word_system(G, key, max_eqs=3, max_vars=4)
        if G is not table:
            return random_unimodular_word_system(G, key, max_eqs=3, max_vars=4)
        system = random_unimodular_word_system(H2, key, max_eqs=3, max_vars=3)
        carried = [
            [Const(table.index_of(x.value)) if isinstance(x, Const) else x for x in eq.word]
            for eq in system.equations
        ]
        return WordSystem(table, [GroupEquation(w) for w in carried], system.variables)

    def verdict(tag, system, assignment):
        try:
            c.record(tag, str(verify_solution(system, assignment)))
        except (GroupEqError, ValueError) as exc:
            c.record(tag, type(exc).__name__)

    for name, G, solve, step, refused in cases:
        for i in range(40):
            rng = random.Random(f"fp-word-verify:{name}:{i}")
            system = draw(G, f"fp-word-verify:{i}")
            tag = f"word verify {name} {i}"
            answer = c.run(tag, solve, system)
            if answer is None:
                continue
            answer = answer.assignment
            verdict(tag, system, answer)
            v = rng.choice(system.variables)
            verdict(f"{tag} moved {v}", system, {**answer, v: G.multiply(answer[v], step)})
            verdict(f"{tag} missing {v}", system, {u: g for u, g in answer.items() if u != v})
            bad = rng.choice(refused)
            verdict(f"{tag} refused {v} {bad!r}", system, {**answer, v: bad})
            if isinstance(G, AbelianHandle):
                verdict(f"{tag} other {v}", system, {**answer, v: rng.choice(others)})


def echelon_corpus(c: Corpus) -> None:
    from groupeq.randgen import random_bounded_group, random_unimodular_stream, rng_for
    from groupeq.solve_abelian import EchelonState
    from groupeq.systems import AbelianEquation

    for i in range(300):
        rng = rng_for("fp-echelon", i)
        group = random_bounded_group(rng)
        stream = random_unimodular_stream(group, f"fp-echelon:{i}")
        state = EchelonState(group)
        depth = rng.randint(1, 25)
        for d in range(depth):
            state.ingest(stream.gen(d))
            if d % 7 == 0:
                c.run(f"echelon {i} {d}", state.solution)
        # a row that is dependent modulo the group's smallest prime
        p = min(s.p for s in group.summands)
        a, b = rng.randrange(depth), rng.randrange(depth)
        coeffs = dict(stream.gen(a).coeffs)
        for v, k in stream.gen(b).coeffs.items():
            coeffs[v] = coeffs.get(v, 0) + rng.randint(-2, 2) * k
        coeffs = {v: p * k for v, k in coeffs.items()}
        dependent = AbelianEquation(coeffs, group.random_element(rng))
        c.run(f"echelon {i} dependent", lambda: state.ingest(dependent).count)
        c.run(f"echelon {i} after", state.solution)
        for d in range(depth, depth + 5):
            state.ingest(stream.gen(d))
        c.run(f"echelon {i} end", state.solution)


def nilpotent_corpus(c: Corpus) -> None:
    from groupeq.abelian import AbelianGroupDescriptor, Summand
    from groupeq.nilpotent import (
        AbelianHandle,
        TableGroup,
        WordSystem,
        brute_force_group_solve,
        heisenberg_mod,
        heisenberg_q,
        solve_nilpotent_bounded,
        solve_nilpotent_divisible,
    )
    from groupeq.randgen import (
        _words_from_matrix,
        random_nonsingular_word_system,
        random_unimodular_word_system,
    )
    from groupeq.systems import Const, GroupEquation

    table = TableGroup.from_handle(heisenberg_mod(2, 1))

    def run_on_table(tag, system):
        """brute_force_group_solve on an H(Z/2) system carried to ``table``."""
        equations = [
            GroupEquation(
                [Const(table.index_of(lit.value)) if isinstance(lit, Const) else lit for lit in eq.word]
            )
            for eq in system.equations
        ]
        c.run(tag, brute_force_group_solve, WordSystem(table, equations, system.variables))

    bounded = [heisenberg_mod(p, e) for p, e in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1))]
    bounded.append(AbelianHandle(AbelianGroupDescriptor([Summand.cyclic(2, 2), Summand.cyclic(3, 1)])))
    divisible = [
        heisenberg_q(),
        AbelianHandle(AbelianGroupDescriptor([Summand.rational(), Summand.prufer(2)])),
    ]
    for G in bounded:
        for i in range(60):
            system = random_unimodular_word_system(G, f"fp-hb:{i}", max_eqs=3, max_vars=4)
            c.run(f"nil {G!r} {i}", solve_nilpotent_bounded, system)
            c.run(f"nil {G!r} {i} divisible", solve_nilpotent_divisible, system)
            if G is bounded[0]:
                run_on_table(f"table {i}", system)
    for G in divisible:
        for i in range(150):
            system = random_nonsingular_word_system(G, f"fp-hq:{i}", max_eqs=3, max_vars=4)
            c.run(f"nil {G!r} {i}", solve_nilpotent_divisible, system)
    # raw rows: singular over Q, or not unimodular, some of the time
    for G in (*bounded[:3], *divisible):
        for i in range(60):
            rng = random.Random(f"fp-raw:{G!r}:{i}")
            nvars = rng.randint(1, 3)
            variables = [f"x{j}" for j in range(nvars)]
            rows = [[rng.randint(-3, 3) for _ in variables] for _ in range(rng.randint(1, nvars + 1))]
            system = WordSystem(G, _words_from_matrix(G, rng, rows, variables), variables)
            c.run(f"raw {G!r} {i} bounded", solve_nilpotent_bounded, system)
            c.run(f"raw {G!r} {i} divisible", solve_nilpotent_divisible, system)
            if G is bounded[0]:
                run_on_table(f"raw table {i}", system)


def word_corpus(c: Corpus) -> None:
    """Hand-built words over H(Q) and H(Z/8), solved and evaluated.

    The words hold what the random generators rarely draw: a variable whose
    powers cancel around a constant (x**k g x**-k, a zero exponent sum),
    identity constants, a variable repeated around a constant (x**j g x**k),
    and constants with zero coordinates, each zero either the group's own
    canonical zero or a fresh one.  Every system goes to both nilpotent
    solvers; every word is evaluated on a random assignment, and ``evaluate``
    also takes raw terms with exponents from -3 to 3, zero included, and
    empty term lists.
    """
    from fractions import Fraction

    from groupeq.nilpotent import (
        WordSystem,
        evaluate_word,
        heisenberg_mod,
        heisenberg_q,
        solve_nilpotent_bounded,
        solve_nilpotent_divisible,
    )
    from groupeq.systems import Const, GroupEquation, VarPow

    for G in (heisenberg_q(), heisenberg_mod(2, 3)):
        zeros = (G.identity()[0], Fraction(0) if G.ring.modulus is None else 0)
        for i in range(150):
            rng = random.Random(f"fp-words:{G!r}:{i}")

            def constant():
                kind = rng.randrange(4)
                if kind == 0:
                    return G.identity()
                g = list(G.random_element(rng))
                if kind == 1:
                    for j in rng.sample(range(3), rng.randint(1, 2)):
                        g[j] = rng.choice(zeros)
                return tuple(g)

            variables = [f"x{j}" for j in range(rng.randint(1, 3))]
            equations = []
            for _ in range(rng.randint(1, len(variables))):
                word = [Const(constant())]
                for v in variables:
                    # the exponent sum of v, mostly a unit so that some
                    # systems are unimodular, and its first power
                    total, j = rng.choice((-2, -1, -1, 0, 1, 1, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
                    if total == 0:
                        word += [VarPow(v, j), Const(constant()), VarPow(v, -j)]
                    elif j == total:
                        word.append(VarPow(v, j))
                    else:
                        word += [VarPow(v, j), Const(constant()), VarPow(v, total - j)]
                word.append(Const(constant()))
                equations.append(GroupEquation(word))
            system = WordSystem(G, equations, variables)
            c.run(f"words {G!r} {i} bounded", solve_nilpotent_bounded, system)
            c.run(f"words {G!r} {i} divisible", solve_nilpotent_divisible, system)
            assignment = {v: constant() for v in variables}
            for j, eq in enumerate(equations):
                c.run(f"words {G!r} {i} value {j}", evaluate_word, G, eq, assignment)
            terms = [(constant(), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6))]
            c.run(f"words {G!r} {i} terms", G.evaluate, terms)


def matrix_corpus(c: Corpus) -> None:
    from groupeq.abelian import AbelianGroupDescriptor, Summand, divide_exact
    from groupeq.systems import classify_matrix

    for i in range(400):
        rng = random.Random(f"fp-matrix:{i}")
        k, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        c.run(f"classify {i}", lambda: json.dumps(classify_matrix(rows, (2, 3, 5)).to_json(), sort_keys=True))

    # square and wide k = 10..30: a quarter rank-deficient, a quarter with a
    # row multiplied by p, so that the divisor certificate both decides and
    # falls back, and the eliminations mod p return witnesses
    primes = (2, 3, 5, 7, 11, 65537)
    for i in range(120):
        rng = random.Random(f"fp-large:{i}")
        k = rng.randint(10, 30)
        n = k + (i % 2) * rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        if i % 4 == 2:
            a, b = rng.sample(range(k - 1), 2)
            rows[-1] = [x - y for x, y in zip(rows[a], rows[b])]
        elif i % 4 == 3:
            p = rng.choice(primes)
            rows[rng.randrange(k)] = [p * x for x in rows[rng.randrange(k)]]
        c.run(f"classify large {i}", lambda: json.dumps(classify_matrix(rows, primes).to_json(), sort_keys=True))

    # tall, square and wide, k = 10..30 with a zero column, and two or three
    # rows at random positions made from two others (corank 2 or 3 when
    # square or wide), so the witness depends on the order of the elimination
    for i in range(90):
        rng = random.Random(f"fp-corank:{i}")
        k = rng.randint(10, 30)
        n = k + (i % 3 - 1) * rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        dependent = rng.sample(range(k), 2 + i % 2)
        for j in dependent:
            a, b = rng.sample([t for t in range(k) if t not in dependent], 2)
            u, v = rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2])
            rows[j] = [u * x + v * y for x, y in zip(rows[a], rows[b])]
        zero = rng.randrange(n)
        for row in rows:
            row[zero] = 0
        c.run(f"classify corank {i}", lambda: json.dumps(classify_matrix(rows, primes).to_json(), sort_keys=True))

    for i in range(400):
        rng = random.Random(f"fp-divide:{i}")
        group = _mixed_group(rng, Summand, AbelianGroupDescriptor, divisible_only=True)
        a, b = group.random_element(rng), group.random_element(rng)
        n = rng.randint(1, 40)
        c.run(f"divide {i}", divide_exact, n, a)
        c.run(f"combine {i}", group.combine, [(a, rng.randint(-5, 5)), (b, n)])
        mixed = _mixed_group(rng, Summand, AbelianGroupDescriptor)
        terms = [(mixed.random_element(rng), rng.randint(-9, 9)) for _ in range(rng.randint(0, 4))]
        c.run(f"combine mixed {i}", mixed.combine, terms)


def report_corpus(c: Corpus) -> None:
    from groupeq.counterexamples import bad_support_check, pbad_growth, zbad_bound_check

    for p in (2, 3):
        for j in range(2, 8):
            c.run(f"pbad {p} {j}", lambda: json.dumps(pbad_growth(p, j).to_json(), sort_keys=True))
    for n in range(1, 5):
        c.run(f"bad {n}", lambda: json.dumps(bad_support_check((2, 3, 5, 7), n).to_json(), sort_keys=True))
    for m in range(1, 5):
        c.run(f"zbad {m}", lambda: json.dumps(zbad_bound_check(m, brute_limit=10**4).to_json(), sort_keys=True))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/fingerprint.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, argv[1])
    corpus = Corpus()
    parts = (
        abelian_corpus,
        brute_corpus,
        verify_corpus,
        word_verify_corpus,
        echelon_corpus,
        nilpotent_corpus,
        word_corpus,
        matrix_corpus,
        report_corpus,
    )
    for part in parts:
        part(corpus)
    print(corpus.digest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
