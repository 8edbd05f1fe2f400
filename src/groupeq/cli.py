"""Command-line front end: classify, solve, demo, stream.

Exit codes: 0 success, 2 parse error, 3 solver-reported impossibility or
unsupported input, 4 internal consistency failure, 141 standard output closed
before the result was written (128 + SIGPIPE, as a shell reports a program
that SIGPIPE ended; nothing is printed).  JSON output is canonical (sorted
keys, fixed separators) so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import counterexamples
from .abelian import AbelianGroupDescriptor, Summand, _expect_fields, expect_json, int_from_json
from .errors import (
    CentralityAssertionFailed,
    GroupEqError,
    ParseError,
    VerificationFailed,
)
from .intmath import INFINITE, MAX_MODULUS_BITS, check_prime
from .nilpotent import (
    TableGroup,
    brute_force_group_solve,
    group_from_json,
    solve_nilpotent_bounded,
    solve_nilpotent_divisible,
    word_system_from_json,
)
from .randgen import random_unimodular_stream
from .solve_abelian import EchelonState, solve_auto
from .systems import (
    abelian_system_from_json,
    classify_matrix,
    parse_matrix_text,
    verify_solution,
)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def _all_digits():
    """Lift Python's int-to-str digit limit while a result is written; parsing keeps it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None


def _parse_int_list(text: str) -> list[int]:
    return [int_from_json(tok) for tok in text.split(",")]


def cmd_classify(args) -> int:
    if (args.matrix is None) == (args.system is None):
        raise ParseError("classify needs exactly one of --matrix and --system")
    if args.matrix is not None:
        with open(args.matrix) as fh:
            matrix = parse_matrix_text(fh.read())
    else:
        matrix = abelian_system_from_json(_load_json_file(args.system)).matrix()
    primes = _parse_int_list(args.primes) if args.primes is not None else []
    report = classify_matrix(matrix, primes)
    with _all_digits():
        if args.format == "json":
            print(_dump(report.to_json()))
        else:
            print(f"nonsingular: {report.nonsingular}")
            if report.witness is not None:
                print(f"  witness: {report.witness}")
            for p in primes:
                line = f"{p}-nonsingular: {report.p_nonsingular[p]}"
                if p in report.p_witnesses:
                    line += f"  witness: {report.p_witnesses[p]}"
                print(line)
            print(f"unimodular: {report.unimodular}")
            print(f"elementary divisors: {report.divisors}")
    return 0


def _solve_dispatch(group_obj: dict, system_obj: dict):
    """The verified solution: every solver checks its answer before returning it."""
    if "kind" not in expect_json(group_obj, dict, "a group"):
        # the group comes from --group alone: the system file holds no "group"
        system_obj = _expect_fields(system_obj, "a system", ("equations",), ("vars",))
        return solve_auto(abelian_system_from_json({"group": group_obj, **system_obj}))
    group = group_from_json(group_obj)
    system = word_system_from_json(system_obj, group)
    if isinstance(group, TableGroup):
        solution = brute_force_group_solve(system)
        if solution is None:
            raise GroupEqError("table group search exhausted: no solution")
        return solution
    if group.period_bound is not INFINITE:
        return solve_nilpotent_bounded(system)
    return solve_nilpotent_divisible(system)


def cmd_solve(args) -> int:
    group_obj = _load_json_file(args.group)
    system_obj = _load_json_file(args.system)
    solution = _solve_dispatch(group_obj, system_obj)
    with _all_digits():
        print(_dump({"solution": solution.to_json()}))
    return 0


def cmd_demo(args) -> int:
    depth = args.depth
    if depth < 0:
        raise ParseError(f"--depth must be >= 0, got {depth}")
    for option, family in (("p", "pbad"), ("primes", "bad"), ("scan", "zbad")):
        if getattr(args, option) is not None and args.name != family:
            raise ParseError(f"--{option} applies only to demo {family}")
    reports = []
    if args.name == "pbad":
        p = check_prime(2 if args.p is None else args.p)
        if depth >= 2:
            # Refuse an over-limit depth before any smaller one runs.  Its last
            # summand is Z/p**k, k = 2**depth - 1; the depth is clipped where
            # every p is already over the cap, so that k stays small.
            Summand.cyclic(p, 2 ** min(depth, MAX_MODULUS_BITS.bit_length() + 1) - 1)
        reports = [counterexamples.pbad_growth(p, j) for j in range(2, depth + 1)]
    elif args.name == "bad":
        primes = _parse_int_list(args.primes) if args.primes is not None else [2, 3, 5, 7, 11, 13]
        if depth > len(primes):
            raise ParseError(f"--depth must be at most {len(primes)}, the number of primes")
        reports = [counterexamples.bad_support_check(primes, n) for n in range(1, depth + 1)]
    elif args.name == "zbad":
        scan = 10**6 if args.scan is None else args.scan
        if scan < 0:
            raise ParseError(f"--scan must be >= 0, got {scan}")
        reports = [
            counterexamples.zbad_bound_check(m, brute_limit=scan) for m in range(1, depth + 1)
        ]
    with _all_digits():
        if args.format == "json":
            print(_dump([r.to_json() for r in reports]))
        else:
            print(f"{'depth':>6}  {'metric':<14}  {'bound':>24}  {'observed':>24}")
            for r in reports:
                print(f"{r.depth:>6}  {r.metric:<14}  {r.bound:>24}  {r.observed:>24}")
    return 0


def cmd_stream(args) -> int:
    group = AbelianGroupDescriptor.from_json(_load_json_file(args.group))
    depths = sorted(set(_parse_int_list(args.depths))) if args.depths is not None else [10, 50]
    if any(d < 0 for d in depths):
        raise ParseError(f"--depths must be >= 0, got {depths[0]}")
    stream = random_unimodular_stream(group, args.seed)
    state = EchelonState(group)
    results = []
    next_eq = 0
    for depth in depths:
        while next_eq < depth:
            state.ingest(stream.gen(next_eq))
            next_eq += 1
        ok = verify_solution(stream.truncation(depth), state.solution().assignment)
        results.append({"depth": depth, "verified": ok})
    if args.format == "json":
        print(_dump({"seed": args.seed, "results": results}))
    else:
        for r in results:
            print(f"depth {r['depth']}: {'PASS' if r['verified'] else 'FAIL'}")
    return 0 if all(r["verified"] for r in results) else 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each parse fills a new
    namespace, so no option carries over from one call of ``main`` to the next."""
    parser = argparse.ArgumentParser(
        prog="groupeq",
        description="Exact classification and solving of equation systems over groups",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="singularity classification of a matrix/system")
    p_classify.add_argument("--matrix", help="text matrix file: one row per line")
    p_classify.add_argument("--system", help="JSON system file")
    p_classify.add_argument("--primes", help="comma-separated primes to test")
    p_classify.set_defaults(func=cmd_classify)

    p_solve = sub.add_parser("solve", help="solve a system over a group")
    p_solve.add_argument("--group", required=True, help="JSON group file")
    p_solve.add_argument("--system", required=True, help="JSON system file")
    p_solve.set_defaults(func=cmd_solve)

    p_demo = sub.add_parser("demo", help="counterexample growth tables")
    p_demo.add_argument("name", choices=("pbad", "bad", "zbad"))
    p_demo.add_argument("--depth", type=int_from_json, default=5)
    p_demo.add_argument("--p", type=int_from_json, help="prime for the pbad family")
    p_demo.add_argument("--primes", help="comma-separated primes for the bad family")
    p_demo.add_argument("--scan", type=int_from_json, help="zbad scan limit (default 10**6)")
    p_demo.set_defaults(func=cmd_demo)

    p_stream = sub.add_parser("stream", help="seeded unimodular stream ingestion check")
    p_stream.add_argument("--group", required=True, help="JSON group file")
    p_stream.add_argument("--seed", type=int_from_json, default=0)
    p_stream.add_argument("--depths", help="comma-separated truncation depths")
    p_stream.set_defaults(func=cmd_stream)
    return parser


def _print_refusal(exc: GroupEqError) -> None:
    """The refusal on stderr; its message may carry integers of any length."""
    with _all_digits():
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        # Inside the try: a malformed integer option is a ParseError from its
        # type, which argparse passes on rather than turning into a usage error.
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader has gone.  Point stdout at the null device so that the
        # flush at exit cannot raise again, and stop quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ParseError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2
    except (CentralityAssertionFailed, VerificationFailed) as exc:
        _print_refusal(exc)
        return 4
    except GroupEqError as exc:
        _print_refusal(exc)
        return 3
    except (KeyError, ValueError) as exc:
        print(f"ParseError: malformed input ({exc})", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:  # a failed write, not an unreadable input
            raise
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
