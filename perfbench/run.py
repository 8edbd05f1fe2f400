"""groupeq benchmark: one seeded workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload classify --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; groupeq is imported from its ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import ELEMENT_OPS, MODULES, OP, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SUBMODULES = ("abelian", "systems", "solve_abelian", "nilpotent", "cli", "randgen", "counterexamples")
MIN_PASSES = 4  # in all, counting traced and untraced passes
RECORDED = HERE / "digests.json"


def load_groupeq(src: Path) -> SimpleNamespace:
    """Import groupeq afresh from ``src``, dropping any copy already loaded."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n.split(".")[0] == "groupeq"]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"groupeq.{m}") for m in SUBMODULES})


class Recorder:
    """Times ops and checkpoints, and keeps the canonical output of each one.

    ``item`` ties a call to the input whose checks decide whether it failed;
    ``op`` names the work, so that every run of an op is compared with its
    first recorded output.  Only the calls into groupeq are timed; hashing
    and comparing outputs happen between them, outside the timed interval
    and outside op spans.
    """

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None
        self.ops_per_item: dict[object, int] = {}
        self.first: dict[object, tuple[str, object]] = {}  # op -> (sha256, raw output)
        self.failures: dict[object, list[str]] = {}
        self.latencies: list[float] = []  # op latencies of the current pass
        self.timed = 0.0  # timed seconds of the current pass

    def _call(self, item, op, fn, args, is_op, output):
        self.ops_per_item[item] = self.ops_per_item.get(item, 0) + is_op
        tracer = self.tracer
        start = perf_counter()
        try:
            out = tracer.op(fn, *args, count=is_op) if tracer else fn(*args)
        except Exception as exc:  # an op must never raise; record it and go on
            out = None
            self.failures.setdefault(item, []).append(f"raised {type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        self.timed += elapsed
        if is_op:
            self.latencies.append(elapsed)
        if output and out is not None:
            digest = hashlib.sha256(self.workload.canonical(out).encode()).hexdigest()
            seen = self.first.setdefault(op, (digest, out))
            if seen[0] != digest:
                self.failures.setdefault(item, []).append(f"output of {op!r} changed on rerun")

    def op(self, item, op, fn, *args, output=True):
        self._call(item, op, fn, args, True, output)

    def checkpoint(self, item, op, fn, *args):
        """Timed towards ops_per_s, but neither an op nor a latency sample."""
        self._call(item, op, fn, args, False, True)

    def run(self, gq, items, seconds, tracer=None, between=None):
        """Whole passes over the items until ``seconds`` of timed work.

        With a tracer, passes alternate between untraced and traced, so
        that both see the same load.  ``between`` is called, untimed, after
        each pass.  Returns, for the untraced passes and then the traced
        ones, the ops per timed second of each pass and the op latencies of
        all of them.
        """
        kinds = [([], []) for _ in range(2 if tracer else 1)]  # (rates, latencies)
        done, timed = 0, 0.0
        while timed < seconds or done < MIN_PASSES:
            self.latencies, self.timed = [], 0.0
            self.tracer = tracer if done % 2 else None
            if self.tracer:
                tracer.install()
            try:
                self.workload.run_pass(gq, items, self)
            finally:
                if self.tracer:
                    tracer.uninstall()
            rates, latencies = kinds[done % len(kinds)]
            rates.append(len(self.latencies) / self.timed)
            latencies += self.latencies
            done += 1
            timed += self.timed
            if between:
                between()
        self.tracer = None
        return kinds


def _set_up_aside(set_up):
    """Run ``set_up`` only to time it, then put back the groupeq modules
    that the passes' inputs were built with."""
    loaded = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "groupeq"}
    set_up()
    for name in [n for n in sys.modules if n.split(".")[0] == "groupeq"]:
        del sys.modules[name]
    sys.modules.update(loaded)
    gc.collect()


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _digest(first) -> str:
    h = hashlib.sha256()
    for key, (digest, _) in first.items():
        h.update(f"{key!r}={digest}\n".encode())
    return h.hexdigest()


def _determinism(name, seed, tiny, digest, state_dir) -> list[str]:
    """Compare with the digest of the same seed from an earlier run in this
    checkout, and for the recorded seed with the committed digest."""
    problems = []
    key = f"{name}:{seed}:{'tiny' if tiny else 'full'}"
    store = state_dir / "digests.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    if seen.setdefault(key, digest) != digest:
        problems.append(f"digest {digest} differs from an earlier run of {key}: {seen[key]}")
    else:
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, store)
    recorded = json.loads(RECORDED.read_text())
    if not tiny and seed == recorded["seed"] and name in recorded["digests"]:
        if recorded["digests"][name] != digest:
            problems.append(f"digest {digest} differs from the recorded {recorded['digests'][name]}")
    return problems


# Traced functions and the statistics reported for each, per traced pass.
LAYER_STATS = (
    ("systems.smith_normal_form", ("calls", "self_s")),
    ("systems.is_nonsingular", ("calls", "self_s")),
    ("systems.is_p_nonsingular", ("calls", "self_s")),
    ("systems.reduce_to_square", ("self_s",)),
    ("systems.verify_solution", ("self_s",)),
    ("solve_abelian.solve_divisible", ("self_s",)),
    ("solve_abelian.solve_p_group", ("self_s",)),
    ("solve_abelian.solve_mod_p", ("calls", "self_s")),
    ("solve_abelian.solve_bounded", ("self_s",)),
    ("solve_abelian.solve_auto", ("self_s",)),
    ("solve_abelian.EchelonState.ingest", ("calls", "self_s")),
    ("solve_abelian.EchelonState.solution", ("calls", "self_s")),
    ("abelian.divide_exact", ("calls", "self_s")),
    ("nilpotent.evaluate_word", ("calls", "self_s")),
    ("nilpotent.solve_nilpotent_bounded", ("self_s",)),
    ("nilpotent.solve_nilpotent_divisible", ("self_s",)),
    ("cli.main", ("self_s",)),
)


def _layer_metrics(t: Tracer, passes: int, untraced: float, traced: float) -> dict:
    """Per-layer metrics of a traced run; counts and self times are per
    traced pass, so that counts repeat exactly from run to run."""
    values = {}
    for name, stats in LAYER_STATS:
        if "calls" in stats:
            values[f"{name}.calls"] = (t.calls(name) / passes, "calls/pass")
        values[f"{name}.self_s"] = (t.self_s(name) / passes, "s/pass")
    for module in MODULES:
        values[f"{module}.self_s"] = (t.module_self_s(module) / passes, "s/pass")
    values.update(
        {
            "systems.smith_normal_form.transform_bits_max": (t.transform_bits_max, "bits"),
            "systems.verify_solution.calls_per_op": (
                t.calls("systems.verify_solution") / t.ops, "calls/op"),
            "solve_abelian.solve_p_group.rounds": (t.rounds / passes, "calls/pass"),
            "abelian.element_ops": (sum(map(t.calls, ELEMENT_OPS)) / passes, "calls/pass"),
            "abelian.element_self_s": (sum(map(t.self_s, ELEMENT_OPS)) / passes, "s/pass"),
            "cli.parse_s": (t.parse_s / passes, "s/pass"),
            "bench.op.self_s": (t.self_s(OP) / passes, "s/pass"),
            "trace.passes": (passes, "count"),
            "trace.spans_dropped": (t.dropped, "count"),
            "trace.ops_per_s_untraced": (untraced, "1/s"),
            "trace.ops_per_s_traced": (traced, "1/s"),
            "trace.overhead_ratio": (traced / untraced, "ratio"),
        }
    )
    return values


def run_workload(name, seed, seconds, trace, root: Path, tiny=False, state_dir=None):
    """Run one workload and return (result dict, report lines)."""
    workload = WORKLOADS[name]()
    state_dir = Path(state_dir or root / ".perfbench")
    state_dir.mkdir(parents=True, exist_ok=True)
    workdir = state_dir / f"work-{name}-{os.getpid()}"
    lines = []
    try:
        setup_times = []

        def set_up():
            start = perf_counter()
            gq = load_groupeq(root / "src")
            items = workload.setup(gq, seed, workdir, tiny)
            setup_times.append(perf_counter() - start)
            return gq, items

        gq, items = set_up()
        gc.collect()
        gc.freeze()  # keep set-up objects out of the collections timed later

        rec = Recorder(workload)
        if trace:
            tracer = Tracer()
            (untraced, _), (traced, _) = rec.run(gq, items, seconds, tracer)
            tracer.write(state_dir / f"trace-{name}.jsonl")
            rates = [statistics.median(r) for r in (untraced, traced)]
            values = _layer_metrics(tracer, len(traced), *rates)
        else:
            # A set-up after every pass samples set-up time across the run,
            # as the passes sample the ops, not in one burst at its start.
            [(rates, lat)] = rec.run(gq, items, seconds, between=lambda: _set_up_aside(set_up))
            values = {
                "ops_per_s": (statistics.median(rates), "1/s"),
                "latency_p50_ms": (_percentile(lat, 50) * 1e3, "ms"),
                "latency_p90_ms": (_percentile(lat, 90) * 1e3, "ms"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            lines.append(f"{len(rates)} passes; latency samples: {len(lat)} ops of all passes")

        for op, (_, out) in rec.first.items():
            problems = workload.check(gq, items, op, out)
            if problems:
                rec.failures.setdefault(workload.item_of(op), []).extend(problems)
        digest = _digest(rec.first)
        problems = _determinism(name, seed, tiny, digest, state_dir)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(rec.ops_per_item.values())
    failed = sum(n for item, n in rec.ops_per_item.items() if item in rec.failures)
    for item, msgs in rec.failures.items():
        lines.append(f"FAIL item {item}: {msgs[0]}")
    lines += [f"FAIL {p}" for p in problems]
    lines.append(f"failed_ratio: {failed / max(attempted, 1):.6f} ratio ({failed}/{attempted})")
    lines.append(f"output digest: {digest}")
    lines += [f"{k}: {v:.6g} {unit}" for k, (v, unit) in values.items()]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "groupeq" / "__init__.py").is_file():
        print(f"perfbench: no groupeq sources under {root / 'src'}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
