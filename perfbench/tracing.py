"""Span recorder for the traced run.

The recorder wraps simulroot's public functions in every simulroot
module namespace that holds them (``simulroot.polys.sin`` is the same
object as ``simulroot.numeric.sin``), so calls made inside the package
are seen without changing its source.  Spans (name, start, end, parent,
op) live in flat arrays until :meth:`Tracer.dump` writes them out.  A
span's self time is its duration minus the durations of its children;
calls are sequential, so children never overlap.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# Span name -> (defining module, attribute).  The span name is the layer.
TRACED = {
    **{f"numeric.{fn}": ("simulroot.numeric", fn)
       for fn in ("sin", "cos", "cot", "sinh", "cosh", "coth")},
    "polys.eval_with_derivative": ("simulroot.polys", "eval_with_derivative"),
    "polys.newton_ratio": ("simulroot.polys", "newton_ratio"),
    "solver.correction_sum": ("simulroot.solver", "correction_sum"),
    "solver.solve": ("simulroot.solver", "solve"),
    "ingest.parse_problem": ("simulroot.ingest", "parse_problem"),
    "ingest.parse_expression": ("simulroot.ingest", "parse_expression"),
    "ingest.render_trace": ("simulroot.ingest", "render_trace"),
    "ingest.parse_trace": ("simulroot.ingest", "parse_trace"),
    **{f"theory.check_theorem{k}": ("simulroot.theory", f"check_theorem{k}") for k in (1, 2, 3)},
    "fixtures.run_example": ("simulroot.fixtures", "run_example"),
    "fixtures.diff_against_table": ("simulroot.fixtures", "diff_against_table"),
    "cli.main": ("simulroot.cli", "main"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = -1
        # span index -> value returned by the call, for solve and render_trace
        self.results: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int, kind: str) -> int:
        self._op = op_id
        return self._open(f"op.{kind}")

    def end_op(self, idx: int) -> None:
        self._close(idx)
        self._op = -1

    def _wrapper(self, name: str, fn, keep_result: bool):
        def traced(*args, **kwargs):
            span = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span = f"cli.main.{argv[0] if argv else 'none'}"
            idx = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep_result:
                self.results[idx] = result
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in simulroot modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "simulroot" or n.startswith("simulroot."))]
        for name, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrapper(name, original, name in ("solver.solve", "ingest.render_trace"))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def dump(self, path) -> None:
        payload = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "op": list(self.op),
            "start": list(self.start),
            "end": list(self.end),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name, over spans inside ops: calls, total and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i in range(n):
            if self.op[i] < 0:
                continue
            dur = self.end[i] - self.start[i]
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["total"] += dur
            row["self"] += dur - child[i]
        return out

    def spans_named(self, name: str):
        nid = self._ids.get(name)
        return [i for i in range(len(self.start)) if self.name[i] == nid and self.op[i] >= 0]
