"""In-memory span recorder for the traced run, and the layer entry points it wraps.

Spans are made from outside the library: while ``LayerTracer.installed()``
is active, each entry point below is replaced by a wrapper that records a
span (name, start, end, parent) around the original call.  A function is
rebound in its defining module and in every treecap module that imported it
by name; a method is rebound on its class.  Everything is put back on exit,
and nothing outside the benchmark process is touched.

An entry point that a later version of the library no longer has is skipped,
so its per-layer metrics read 0 instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Recorder.spans, -1 for a root span
    error: str | None = None


class Recorder:
    """Spans and counters of one traced run, kept in memory until the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        span = Span(name, perf_counter_ns(), 0, self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span around every call; ``on_result(recorder, value)`` sees returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                value = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, value)
            return value

        return traced

    def to_json_obj(self) -> dict:
        return {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.error] for s in self.spans
            ],
            "span_fields": ["name", "start_ns", "end_ns", "parent", "error"],
            "counters": dict(self.counters),
        }


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered, cursor = 0, span.start
        for child in sorted(children[index], key=lambda c: spans[c].start):
            lo = max(spans[child].start, cursor)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def totals(spans: list[Span]) -> dict[str, tuple[float, int, int]]:
    """Per span name: (self seconds, calls, calls that raised)."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        self_s[span.name] += own * 1e-9
        calls[span.name] += 1
        errors[span.name] += span.error is not None
    return {name: (self_s[name], calls[name], errors[name]) for name in calls}


# Minimum array traffic of one Jacobi-preconditioned CG iteration, per grid
# cell, with every vector update fused: 18 float64 passes (stencil read and
# write, two dot products, two axpys, the residual norm, the preconditioner
# and the direction update) plus one pass over the one-byte free mask.
# Temporaries and cache reuse are ignored, so bytes computed from it are a
# floor, not a measurement.
CG_BYTES_PER_CELL_ITERATION = 18 * 8 + 1


def _count_solve(recorder: Recorder, solution) -> None:
    cells = solution.potential.size
    recorder.count("disc.cg_iterations", solution.iterations)
    recorder.count("disc.cells", cells)
    recorder.count("disc.cell_iterations", cells * solution.iterations)


# (module, attribute, span name, result hook).  Trie construction has no
# public entry point of its own: every constructor funnels into
# ``tree._tree_from_leaves`` (from leaves and intervals) or
# ``builder._closure_set`` (cut surgery along a path), so those two carry the
# tree.build span.  The cold capacity folds are likewise the private
# memo builders behind the public ``capacity``.
FUNCTIONS = [
    ("treecap.tree", "_tree_from_leaves", "tree.build", None),
    ("treecap.builder", "_closure_set", "tree.build", None),
    ("treecap.capacity", "_cap_float_memo", "capacity.fold", None),
    ("treecap.capacity", "_cap_pair_memo", "capacity.fold_exact", None),
    ("treecap.capacity", "condenser_capacity", "capacity.condenser", None),
    ("treecap.builder", "calibrated_set", "builder.calibrate", None),
    ("treecap.builder", "set_of_capacity", "builder.set_of_capacity", None),
    ("treecap.builder", "equal_split", "builder.equal_split", None),
    ("treecap.disc", "solve", "disc.solve", _count_solve),
    ("treecap.experiments", "parse_set_spec", "experiments.parse", None),
    ("treecap.experiments", "run_blowup", "experiments.run", None),
    ("treecap.experiments", "run_plateau", "experiments.run", None),
    ("treecap.experiments", "run_lowerbound", "experiments.run", None),
    ("treecap.experiments", "run_compare", "experiments.run", None),
    ("treecap.experiments", "run_conjecture", "experiments.run", None),
    ("treecap.cli", "main", "cli.main", None),
]

# (module, class, method, span name)
METHODS = [
    ("treecap.tree", "BoundarySet", "full_leaves", "tree.full_leaves"),
    ("treecap.tree", "BoundarySet", "union", "tree.union"),
    ("treecap.tree", "BoundarySet", "__hash__", "tree.hash_eq"),
    ("treecap.tree", "BoundarySet", "__eq__", "tree.hash_eq"),
    ("treecap.disc", "CondenserProblem", "from_set", "disc.problem"),
    ("treecap.disc", "DiscSolution", "flux_capacity", "disc.field"),
]


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class LayerTracer:
    """Installs and removes the span wrappers for one recorder."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    @contextmanager
    def installed(self):
        undo = []
        try:
            self._install(undo)
            yield self.recorder
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, undo) -> None:
        for module_name, attr, span_name, hook in FUNCTIONS:
            module = _module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self.recorder.wrap(span_name, original, hook)
            for caller in list(sys.modules.values()):
                if not getattr(caller, "__name__", "").startswith("treecap"):
                    continue
                if caller.__dict__.get(attr) is original:
                    undo.append((caller, attr, original))
                    setattr(caller, attr, wrapped)
        for module_name, class_name, attr, span_name in METHODS:
            cls = getattr(_module(module_name), class_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.recorder.wrap(span_name, raw.__func__))
            else:
                wrapped = self.recorder.wrap(span_name, raw)
            undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)


def trie_counts(bset) -> tuple[int, int]:
    """Distinct internal nodes of a set's trie, and the paths that reach them.

    Leaves are left out: every trie shares the same two leaf objects, which
    would make even an unshared path trie look shared.  The walk visits each
    distinct node once.  Returns (0, 0) when the set does not expose its
    trie root.
    """
    root = getattr(bset, "_root", None)
    if root is None:
        return 0, 0
    positions: dict[int, int] = {}  # internal positions below and at a node
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in positions:
            stack.pop()
            continue
        left, right = getattr(node, "left", None), getattr(node, "right", None)
        if left is None:
            positions[id(node)] = 0
            stack.pop()
            continue
        lv, rv = positions.get(id(left)), positions.get(id(right))
        if lv is not None and rv is not None:
            positions[id(node)] = 1 + lv + rv
            stack.pop()
        else:
            if rv is None:
                stack.append(right)
            if lv is None:
                stack.append(left)
    internal = sum(1 for value in positions.values() if value)
    return internal, positions[id(root)]


def count_tries(recorder: Recorder, sets) -> None:
    """Trie counters of each distinct set an op returned."""
    seen = set()
    for bset in sets:
        if id(bset) in seen:
            continue
        seen.add(id(bset))
        nodes, positions = trie_counts(bset)
        recorder.count("tree.nodes", nodes)
        recorder.count("tree.positions", positions)
        recorder.counters["tree.resolution_max"] = max(
            recorder.counters["tree.resolution_max"], bset.resolution
        )


def layer_metrics(recorder: Recorder, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run: name -> (value, unit)."""
    t = totals(recorder.spans)
    c = recorder.counters

    def self_s(name):
        return t.get(name, (0.0, 0, 0))[0]

    def calls(name):
        return t.get(name, (0.0, 0, 0))[1]

    calibrate_calls = calls("builder.calibrate")
    calibrate_ok = calibrate_calls - t.get("builder.calibrate", (0.0, 0, 0))[2]
    iterations = c["disc.cg_iterations"]
    return {
        "tree.build_s": (self_s("tree.build"), "s"),
        "tree.full_leaves_s": (self_s("tree.full_leaves"), "s"),
        "tree.full_leaves_calls": (calls("tree.full_leaves"), "count"),
        "tree.union_s": (self_s("tree.union"), "s"),
        "tree.union_calls": (calls("tree.union"), "count"),
        "tree.hash_eq_s": (self_s("tree.hash_eq"), "s"),
        "tree.nodes": (c["tree.nodes"], "count"),
        "tree.positions": (c["tree.positions"], "count"),
        "tree.positions_per_node": (
            c["tree.positions"] / c["tree.nodes"] if c["tree.nodes"] else 0.0,
            "ratio",
        ),
        "tree.resolution_max": (c["tree.resolution_max"], "levels"),
        "capacity.fold_s": (self_s("capacity.fold"), "s"),
        "capacity.fold_calls": (calls("capacity.fold"), "count"),
        "capacity.fold_exact_s": (self_s("capacity.fold_exact"), "s"),
        "capacity.condenser_s": (self_s("capacity.condenser"), "s"),
        "capacity.condenser_calls": (calls("capacity.condenser"), "count"),
        "builder.calibrate_s": (self_s("builder.calibrate"), "s"),
        "builder.calibrate_calls": (calibrate_calls, "count"),
        "builder.calibrate_ok_ratio": (
            calibrate_ok / calibrate_calls if calibrate_calls else 0.0,
            "ratio",
        ),
        "builder.set_of_capacity_s": (self_s("builder.set_of_capacity"), "s"),
        "builder.equal_split_s": (self_s("builder.equal_split"), "s"),
        "builder.equal_split_calls": (calls("builder.equal_split"), "count"),
        "disc.problem_s": (self_s("disc.problem"), "s"),
        "disc.solve_s": (self_s("disc.solve"), "s"),
        "disc.solve_calls": (calls("disc.solve"), "count"),
        "disc.cg_iterations": (iterations, "count"),
        "disc.iter_us": (
            1e6 * self_s("disc.solve") / iterations if iterations else 0.0,
            "us",
        ),
        "disc.cells": (c["disc.cells"], "count"),
        "disc.bytes_moved_computed": (
            c["disc.cell_iterations"] * CG_BYTES_PER_CELL_ITERATION,
            "B",
        ),
        "disc.field_s": (self_s("disc.field"), "s"),
        "experiments.self_s": (self_s("experiments.run"), "s"),
        "experiments.parse_s": (self_s("experiments.parse"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
