"""Span tracing of toolpath's layers, from outside the package.

The tracer swaps the names ``toolpath.cli`` and ``toolpath.evaluation``
call their collaborators by for wrappers that record one span per call
(name, start, end, parent, op id) in memory.  Simulator calls are far too
many for one span each, so the simulator class is swapped, in untraced and
traced runs alike, for a subclass that adds each call's count, simulated
seconds and busy time to the op's counters.  When a span is open, the busy
time also goes to the innermost one (the search that made the call), whose
self time then excludes it.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


def _count(key, size):
    def count(counts, result):
        counts[key] += size(result)

    return count


def _count_search(counts, result):
    counts["search.expanded"] += result.expanded_count
    if result.path is not None:
        counts["search.path_steps"] += len(result.path.steps) - 1  # the root is not executed


# (span name, module attribute, counts taken from the result)
WRAPPED = (
    ("registry.load_mdt", "load_mdt", _count("registry.records", lambda r: len(r.records))),
    ("registry.load_benchmark", "load_benchmark", None),
    ("planning.parse_subtask_tree", "parse_subtask_tree", _count("planning.tree_nodes", lambda r: len(r.nodes))),
    ("graphs.build_tdg", "build_tdg", _count("graphs.tdg_edges", lambda r: len(r.edges))),
    ("graphs.build_tool_subgraph", "build_tool_subgraph", _count("graphs.subgraph_nodes", lambda r: len(r.nodes))),
    ("graphs.enumerate_paths", "enumerate_paths", _count("graphs.paths_enumerated", len)),
    ("search.precompute_heuristics", "precompute_heuristics", None),
    ("search.astar_search", "astar_search", _count_search),
    ("evaluation.brute_force_optimal", "brute_force_optimal", None),
    ("evaluation.sweep_alpha", "sweep_alpha", None),
)

# Spans whose self time each layer metric sums.
SELF_TIME = {
    "registry.load_ms": ("registry.load_mdt", "registry.load_benchmark"),
    "planning.parse_tree_ms": ("planning.parse_subtask_tree",),
    "graphs.build_tdg_ms": ("graphs.build_tdg",),
    "graphs.build_subgraph_ms": ("graphs.build_tool_subgraph",),
    "graphs.enumerate_ms": ("graphs.enumerate_paths",),
    "search.heuristics_ms": ("search.precompute_heuristics",),
    "search.astar_self_ms": ("search.astar_search",),
    "evaluation.sweep_ms": ("evaluation.sweep_alpha",),
    "evaluation.verify_ms": ("evaluation.brute_force_optimal",),
    "cli.self_ms": ("cli.main",),
}


class OpCounters:
    """Per-op executor counters."""

    def __init__(self, threshold: float = 0.0):
        self.threshold = threshold
        self.calls = 0
        self.sim_time = 0.0
        self.busy = 0.0
        self.retry_calls = 0
        self.failed_calls = 0


class Tracer:
    def __init__(self):
        # span: [op id, name, start, end, parent index, executor busy seconds]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: str | None = None
        self.counters = OpCounters()
        # Counts per traced op id.
        self.counts: dict[str, dict[str, float]] = {}

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self.counts[op_id] = defaultdict(float)

    def end_op(self) -> None:
        c, counts = self.counters, self.counts[self.op]
        counts["execution.calls"] += c.calls
        counts["execution.busy_s"] += c.busy
        counts["execution.retry_calls"] += c.retry_calls
        counts["execution.failed_calls"] += c.failed_calls

    def wrap(self, name: str, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = [tracer.op, name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts[tracer.op], result)
            return result

        return traced

    def simulator(self, base):
        """Subclass of `base` that fills `self.counters` on every call."""
        tracer = self

        class CountingSimulator(base):
            def __call__(self, node, attempt):
                start = perf_counter()
                outcome = base.__call__(self, node, attempt)
                busy = perf_counter() - start
                c = tracer.counters
                c.calls += 1
                c.busy += busy
                c.sim_time += outcome.time_seconds
                c.retry_calls += attempt > 1
                c.failed_calls += outcome.quality < c.threshold
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]][5] += busy
                return outcome

        return CountingSimulator

    def totals(self, ops) -> dict[str, float]:
        """Counts summed over the traced ops in `ops`."""
        out: dict[str, float] = defaultdict(float)
        for op in ops:
            for key, value in self.counts[op].items():
                out[key] += value
        return out

    def self_times(self, ops) -> dict[str, float]:
        """Seconds of self time per span name, summed over the traced ops in `ops`.

        A span's self time is its duration minus its children's and minus
        the simulator time it spent.
        """
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (op, name, start, end, _, busy) in enumerate(self.spans):
            if op in ops:
                out[name] += (end - start) - child[i] - busy
        return out

    def span_count(self, name: str, ops) -> int:
        return sum(1 for span in self.spans if span[1] == name and span[0] in ops)


class Patch:
    """Replace module attributes for the duration of a `with` block."""

    def __init__(self, replacements: list[tuple[object, str, object]]):
        self.replacements = replacements
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, value in self.replacements:
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self.saved):
            setattr(module, attr, value)
        self.saved.clear()
        return False


def tracing_patch(tracer: Tracer, modules) -> Patch:
    """Wrap every traced name that each module in `modules` imported.

    The simulator is not among them: the counting patch swaps it in every run.
    """
    replacements = []
    for module in modules:
        for name, attr, count in WRAPPED:
            if hasattr(module, attr):
                replacements.append((module, attr, tracer.wrap(name, getattr(module, attr), count)))
    return Patch(replacements)
