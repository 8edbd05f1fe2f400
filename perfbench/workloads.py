"""The four workloads: inputs built from a seed during set-up, the ops run in
the timed loop, and the correctness check applied to each distinct output.

A workload's ``setup`` returns a list of items; ``run_pass`` makes one pass
of ops over them through the ``Recorder`` (one op per call into groupeq);
``check`` returns the failures found in one recorded output.  Sizes are
stratified (every pass holds the same mix of sizes and kinds, only the
entries come from the seed) so that the cost of a pass barely depends on the
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import oracle

PRIMES = (2, 3, 5, 7)
MAX_DRAWS = 10_000  # stratified sampling gives up after this many candidates


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


class Workload:
    def item_of(self, op):
        """The input an op works on; its checks decide whether the op failed."""
        return op


class Classify(Workload):
    """classify_matrix on dense integer matrices, k = 20..45, square or wide."""

    name = "classify"

    def setup(self, gq, seed, workdir, tiny):
        # 50 matrices a pass, so that a run holds enough passes for a steady
        # median rate; the counts put the median op inside the k=25 group and
        # the 90th percentile inside the k=35 group, not between groups,
        # where it would jump with small changes in timing.
        counts = {3: 4, 5: 4} if tiny else {20: 15, 25: 15, 30: 10, 35: 7, 40: 2, 45: 1}
        kinds = ("generic", "generic", "rankdef", "nonunimod")
        items = []
        for k, count in counts.items():
            for _ in range(count):
                t = len(items)
                kind, n = kinds[t % 4], k + 4 * ((t // 4) % 2)
                rng = _rng("classify", seed, t)
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
                expect = {}
                if kind == "rankdef":
                    a, b = rng.sample(range(k - 1), 2)
                    rows[-1] = [x - y for x, y in zip(rows[a], rows[b])]
                    expect["nonsingular"] = False
                elif kind == "nonunimod":
                    p = PRIMES[(t // 4) % len(PRIMES)]
                    r = rng.randrange(k)
                    rows[r] = [p * x for x in rows[r]]
                    expect["p_singular"] = p
                items.append({"rows": rows, "expect": expect})
        return items

    def run_pass(self, gq, items, rec):
        for i, item in enumerate(items):
            rec.op(i, i, gq.systems.classify_matrix, item["rows"], PRIMES)

    def canonical(self, report) -> str:
        return _dump(report.to_json())

    def check(self, gq, items, op, report):
        item = items[op]
        return oracle.check_classification(item["rows"], PRIMES, report.to_json(), item["expect"])


class Solve(Workload):
    """In-process ``groupeq --format json solve`` on JSON files from set-up."""

    name = "solve"
    # (flavour, one prime or more, equations): the generator's own
    # proportions, scaled to 30 instances (the rarest stratum, one prime
    # with three unsolvable equations, rounds to none).
    SMALL_STRATA = {
        ("filtered", 1, 1): 2, ("filtered", 1, 2): 1, ("filtered", 1, 3): 1,
        ("filtered", 2, 1): 3, ("filtered", 2, 2): 1,
        ("unimodular", 1, 1): 4, ("unimodular", 1, 2): 2, ("unimodular", 1, 3): 1,
        ("unimodular", 2, 1): 6, ("unimodular", 2, 2): 2, ("unimodular", 2, 3): 1,
        ("unsolvable", 1, 1): 2, ("unsolvable", 1, 2): 1,
        ("unsolvable", 2, 1): 2, ("unsolvable", 2, 2): 1,
    }

    def setup(self, gq, seed, workdir, tiny):
        A = gq.abelian
        systems = []
        # Small instances are drawn until each stratum holds its share, so
        # the median op, which falls among them, barely moves by seed.
        quota = {s: 1 for s in self.SMALL_STRATA if s[2] == 1} if tiny else dict(self.SMALL_STRATA)
        draws = 0
        while any(quota.values()):
            if draws == MAX_DRAWS:
                raise RuntimeError(f"strata left unfilled after {draws} draws: {quota}")
            system, flavor = gq.randgen.random_abelian_instance(f"{seed}:{draws}")
            draws += 1
            primes = min(len({s.p for s in system.group.summands}), 2)
            stratum = (flavor, primes, len(system.equations))
            if quota.get(stratum, 0) > 0:
                quota[stratum] -= 1
                systems.append((system, flavor, 1))
        # gen_pbad has no seed: the six truncations each stand for one or
        # two of the 10 pbad ops of a pass.
        pbad = ((2, 3, 1), (3, 2, 1)) if tiny else (
            (2, 6, 2), (2, 7, 2), (2, 8, 1), (3, 6, 2), (3, 7, 2), (3, 8, 1))
        for p, depth, count in pbad:
            systems.append((gq.counterexamples.gen_pbad(p, depth)[1], "pbad", count))
        mixed = A.AbelianGroupDescriptor(
            [A.Summand.cyclic(2, 3), A.Summand.cyclic(3, 2), A.Summand.prufer(3), A.Summand.rational()]
        )
        # Depths 40..100, denser at the low end: the dense U*M*V self-check
        # grows with the cube of the depth, and the pass has to stay short
        # enough to repeat several times within a run.
        depths = (5, 8) if tiny else [40 + (60 * j * j) // 81 for j in range(10)]
        for j, depth in enumerate(depths):
            stream = gq.randgen.random_unimodular_stream(mixed, f"solve:{seed}:{j}")
            systems.append((stream.truncation(depth), "divisible", 1))

        workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for i, (system, flavor, count) in enumerate(systems):
            obj = gq.systems.abelian_system_to_json(system)
            group_path = workdir / f"solve-{i}-group.json"
            system_path = workdir / f"solve-{i}-system.json"
            group_path.write_text(_dump(obj.pop("group")))
            system_path.write_text(_dump(obj))
            argv = ["--format", "json", "solve", "--group", str(group_path), "--system", str(system_path)]
            items.append({"system": system, "flavor": flavor, "count": count, "argv": argv})
        return items

    @staticmethod
    def _cli(gq, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gq.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, gq, items, rec):
        # An item runs ``count`` times a pass, spread over the pass rather
        # than back to back.
        for round_ in range(max(item["count"] for item in items)):
            for i, item in enumerate(items):
                if round_ < item["count"]:
                    rec.op(i, i, self._cli, gq, item["argv"])

    def canonical(self, result) -> str:
        code, out, _ = result
        return f"{code}\n{out}"

    def check(self, gq, items, op, result):
        item = items[op]
        code, out, err = result
        if item["flavor"] == "unsolvable":
            failures = []
            if code != 3:
                failures.append(f"refusal exited {code}, expected 3")
            if out or not err.startswith("MissingPrimeNonsingularity:"):
                failures.append(f"refusal printed {out!r} / {err.strip()!r}")
            return failures
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        solution = json.loads(out)["solution"]
        return _check_abelian(gq, item["system"], solution)


def _check_abelian(gq, system, solution: dict) -> list[str]:
    """Re-parse a printed solution; check it exactly and with verify_solution."""
    obj = gq.systems.abelian_system_to_json(system)
    failures = oracle.check_abelian_solution(obj["group"], obj, solution)
    if failures:
        return failures
    assignment = {v: gq.abelian.element_from_json(system.group, c) for v, c in solution.items()}
    if gq.systems.verify_solution(system, assignment) is not True:
        return ["verify_solution rejects the printed solution"]
    return []


class Stream(Workload):
    """EchelonState.ingest of unimodular streams, depth 800, checkpoint every 100.

    Two streams over each of two groups: three primes with small exponents,
    and one prime with high exponents.
    """

    name = "stream"

    def setup(self, gq, seed, workdir, tiny):
        A = gq.abelian
        groups = (
            A.AbelianGroupDescriptor(
                [A.Summand.cyclic(2, 3), A.Summand.cyclic(2, 1), A.Summand.cyclic(3, 2), A.Summand.cyclic(5, 1)]
            ),
            A.AbelianGroupDescriptor([A.Summand.cyclic(3, 12), A.Summand.cyclic(3, 5)]),
        )
        depth, self.every = (30, 10) if tiny else (800, 100)
        items = []
        for j, group in enumerate(groups * 2):
            stream = gq.randgen.random_unimodular_stream(group, f"stream:{seed}:{j}")
            items.append({"group": group, "equations": [stream.gen(i) for i in range(depth)]})
        return items

    def run_pass(self, gq, items, rec):
        for s, item in enumerate(items):
            state = gq.solve_abelian.EchelonState(item["group"])
            for i, eq in enumerate(item["equations"]):
                rec.op(s, (s, i), state.ingest, eq, output=False)
                if (i + 1) % self.every == 0:
                    rec.checkpoint(s, (s, i + 1, "solution"), state.solution)

    def canonical(self, solution) -> str:
        return _dump(solution.to_json())

    def item_of(self, op):
        return op[0]

    def check(self, gq, items, op, solution):
        s, depth, _ = op
        item = items[s]
        system = gq.systems.AbelianSystem(item["group"], item["equations"][:depth])
        return _check_abelian(gq, system, json.loads(self.canonical(solution)))


class Nilpotent(Workload):
    """Central-series solvers on Heisenberg groups over Z/9, Z/8 and Q."""

    name = "nilpotent"

    def setup(self, gq, seed, workdir, tiny):
        N, R = gq.nilpotent, gq.randgen
        families = (
            (N.heisenberg_mod(3, 2), R.random_unimodular_word_system, N.solve_nilpotent_bounded),
            (N.heisenberg_mod(2, 3), R.random_unimodular_word_system, N.solve_nilpotent_bounded),
            (N.heisenberg_q(), R.random_nonsingular_word_system, N.solve_nilpotent_divisible),
        )
        # Equal quotas per equation count (1..8): the cost of a solve grows
        # with it, and Heisenberg(Q) dominates the pass, so it gets twice the
        # systems of each finite group.
        items = []
        for f, (group, generate, solver) in enumerate(families):
            per_count = 1 if tiny else 7 * (2 if f == 2 else 1)
            quota = dict.fromkeys(range(1, 3 if tiny else 9), per_count)
            draws = 0
            while any(quota.values()):
                if draws == MAX_DRAWS:
                    raise RuntimeError(f"equation counts left unfilled after {draws} draws: {quota}")
                system = generate(group, f"{seed}:{f}:{draws}", max_eqs=8, max_vars=12)
                draws += 1
                if quota.get(len(system.equations), 0) > 0:
                    quota[len(system.equations)] -= 1
                    items.append({"system": system, "solver": solver.__name__})
        return items

    def run_pass(self, gq, items, rec):
        for i, item in enumerate(items):
            rec.op(i, i, getattr(gq.nilpotent, item["solver"]), item["system"])

    def canonical(self, solution) -> str:
        return _dump(solution.to_json())

    def check(self, gq, items, op, solution):
        system = items[op]["system"]
        group = system.group
        printed = json.loads(self.canonical(solution))
        if set(printed) != set(system.variables):
            return [f"solution variables {sorted(printed)} != {list(system.variables)}"]
        ring = group.to_json()["ring"]
        modulus = ring["p"] ** ring.get("e", 1) if ring["kind"] == "mod" else None
        words = [
            [
                ("var", lit.var, lit.exp) if isinstance(lit, gq.systems.VarPow) else ("const", lit.value)
                for lit in eq.word
            ]
            for eq in system.equations
        ]
        failures = oracle.check_heisenberg_solution(modulus, words, printed)
        if failures:
            return failures
        assignment = {v: group.element_from_json(c) for v, c in printed.items()}
        if gq.systems.verify_solution(system, assignment) is not True:
            return ["verify_solution rejects the printed solution"]
        return []


WORKLOADS = {w.name: w for w in (Classify, Solve, Stream, Nilpotent)}
