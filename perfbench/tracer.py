"""Span tracer that wraps groupeq's public functions from outside the package.

``Tracer.install`` replaces every public module-level function of the traced
modules, and the methods named in ``METHODS``, with a wrapper that records a
span (name, start, end, parent span, op id) while an op is open.  Outside an
op the wrapper calls straight through, so set-up and correctness checks are
never counted.  Self time is accumulated as spans close: a span's duration
minus the time covered by its direct children.  At most ``SPAN_CAP`` spans
are kept in memory for the trace file; the counters cover every span.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

MODULES = ("systems", "solve_abelian", "abelian", "nilpotent", "cli")
SPAN_CAP = 100_000  # spans kept in memory for the trace file

METHODS = (
    ("abelian", "GroupElement", "__add__"),
    ("abelian", "GroupElement", "__sub__"),
    ("abelian", "GroupElement", "__neg__"),
    ("abelian", "GroupElement", "scale"),
    ("abelian", "AbelianGroupDescriptor", "element"),
    ("abelian", "AbelianGroupDescriptor", "from_json"),
    ("solve_abelian", "EchelonState", "ingest"),
    ("solve_abelian", "EchelonState", "solution"),
)

ELEMENT_OPS = frozenset(
    {
        "abelian.GroupElement.__add__",
        "abelian.GroupElement.__sub__",
        "abelian.GroupElement.__neg__",
        "abelian.GroupElement.scale",
        "abelian.AbelianGroupDescriptor.element",
    }
)
PARSERS = frozenset(
    {
        "abelian.AbelianGroupDescriptor.from_json",
        "systems.abelian_system_from_json",
        "abelian.element_from_json",
    }
)
SNF = "systems.smith_normal_form"
P_GROUP = "solve_abelian.solve_p_group"
MOD_P = "solve_abelian.solve_mod_p"
OP = "bench.op"


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, _Stat] = {}
        self.stack: list[list] = []  # open spans: [name, start, child_s, span_id]
        self.op_id: int | None = None
        self.ops = 0
        self.next_span = 0
        self.transform_bits_max = 0
        self.rounds = 0
        self.parse_s = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0, self.next_span]
        self.next_span += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        name, start, child_s, span_id = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        stat.calls += 1
        stat.self_s += duration - child_s
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if name in PARSERS and not any(f[0] in PARSERS for f in self.stack):
            self.parse_s += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (span_id, name, start, end, parent[3] if parent else None, self.op_id)
            )
        else:
            self.dropped += 1

    def op(self, fn, *args, count: bool = True):
        """Run one op as a root span under a fresh op id; ``count=False``
        marks a checkpoint, which is traced but not counted as an op."""
        self.op_id = self.next_span
        self.ops += count
        frame = self._open(OP)
        try:
            return fn(*args)
        finally:
            self._close(frame)
            self.op_id = None

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            if name == MOD_P and any(f[0] == P_GROUP for f in tracer.stack):
                tracer.rounds += 1
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if name == SNF:
                U, _, V = result
                bits = max((abs(x).bit_length() for M in (U, V) for row in M for x in row), default=0)
                tracer.transform_bits_max = max(tracer.transform_bits_max, bits)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced names in every loaded groupeq module that binds them."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "groupeq"]
        for short in MODULES:
            module = sys.modules[f"groupeq.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, name, value))
                            setattr(m, name, wrapped)
        for short, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"groupeq.{short}"], cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                continue
            name = f"{short}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def self_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.self_s if stat else 0.0

    def module_self_s(self, short: str) -> float:
        prefix = short + "."
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(prefix))

    def write(self, path) -> None:
        """One JSON object per line: a header, then one span per line."""
        with open(path, "w") as fh:
            header = {"spans": len(self.spans), "dropped": self.dropped, "fields": [
                "span_id", "name", "start", "end", "parent", "op_id"]}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
