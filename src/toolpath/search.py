"""Cost/quality-weighted best-first search over a tool subgraph.

The realized prefix objective of a path is

    g = (sum of executed times) ** alpha * (2 - product of qualities) ** (2 - alpha)

alpha in [0, 2] trades time against quality: 2 is pure time, 0 pure
quality.  g never falls when time rises or quality falls, for every alpha.

The paper orders paths by f = g + h, with the suffix estimate h of
`precompute_heuristics`.  That sum overestimates the best completion when
alpha < 1, so the search here orders by an admissible bound instead: with
`suffix_bounds` giving, per node, the minimum suffix time and the maximum
suffix quality product, a prefix (T, Q) at node n is queued at

    f = g(T + min_time[n], Q * max_quality[n])

which never exceeds the g of any completion and equals g at a leaf.  The
paper's h stays available as `precompute_heuristics`.

Paths are pruned by Pareto dominance: each node keeps the non-dominated
(cum_time, cum_quality) labels that reached it, as in the label-setting
searches NAMOA* (Mandow & Perez de la Cruz, JACM 2010) and BOA* (Hernandez
et al., AIJ 2023).  Execution outcomes are keyed by node and attempt, not
by the path taken, so a dominated prefix can never complete better than its
dominator and the pruning is exact.

A node whose executed quality misses the threshold is retried with a bumped
attempt counter; a node that exhausts its retries drops the path without
re-queueing it, while other routes through the same node stay explorable.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import asdict, dataclass
from heapq import heappop, heappush

from .errors import AlphaOutOfRange, QueueOverflow
from .execution import ExecutionOutcome, TraceRecorder, validate_quality
from .graphs import ROOT_ID, PlanNode, ToolSubgraph
from .registry import BenchmarkTable

DEFAULT_SEED = 0xC057A
DEFAULT_QUALITY_THRESHOLD = 0.8
DEFAULT_MAX_RETRIES = 3
DEFAULT_QUEUE_CAP = 100_000

STATUS_FOUND = "found"
STATUS_EXHAUSTED = "exhausted"

logger = logging.getLogger(__name__)


def validate_alpha(alpha: float) -> float:
    if not 0.0 <= alpha <= 2.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 2], got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class SearchConfig:
    alpha: float = 1.0
    quality_threshold: float = DEFAULT_QUALITY_THRESHOLD
    max_retries: int = DEFAULT_MAX_RETRIES
    queue_cap: int = DEFAULT_QUEUE_CAP
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        validate_alpha(self.alpha)
        if not 0.0 <= self.quality_threshold <= 1.0:
            raise ValueError("quality_threshold must lie in [0, 1]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.queue_cap < 1:
            raise ValueError("queue_cap must be positive")


def _pow(base: float, exponent: float) -> float:
    # 0 ** 0 is taken as 1; only degenerate zero-time inputs reach it.
    if base == 0.0 and exponent == 0.0:
        return 1.0
    return base**exponent


def compute_g(cum_time: float, cum_quality: float, alpha: float) -> float:
    """Realized prefix objective; a zero-time prefix (the bare root) is 0."""
    if cum_time == 0.0:
        return 0.0
    return cum_time**alpha * (2.0 - cum_quality) ** (2.0 - alpha)


@dataclass(frozen=True)
class HeuristicEntry:
    h: float
    h_C: float
    h_Q: float


def precompute_heuristics(
    graph: ToolSubgraph, bt: BenchmarkTable, alpha: float
) -> dict[int, HeuristicEntry]:
    """Best-case suffix estimates for every node, in reverse topological order.

    Sink nodes get (h=0, h_C=0, h_Q=1) exactly.  Elsewhere the minimizing
    successor hands its accumulated (h_C + C, Q * h_Q) upward; among equal
    values the smallest successor id wins, which makes the table
    deterministic.
    """
    validate_alpha(alpha)
    entries: dict[int, HeuristicEntry] = {}
    order = _reverse_topological(graph)
    for node_id in order:
        succs = graph.successors[node_id]
        if not succs:
            entries[node_id] = HeuristicEntry(h=0.0, h_C=0.0, h_Q=1.0)
            continue
        best_val = None
        best_hc = best_hq = 0.0
        for succ in succs:
            node = graph.nodes[succ]
            if node.is_root:
                c, q = 0.0, 1.0
            else:
                row = bt.row(node.tool, node.kind)
                c, q = row.time_seconds, row.quality_norm
            sub = entries[succ]
            val = _pow(sub.h_C + c, alpha) * (2.0 - q * sub.h_Q) ** (2.0 - alpha)
            if best_val is None or val < best_val:
                best_val = val
                best_hc = sub.h_C + c
                best_hq = q * sub.h_Q
        entries[node_id] = HeuristicEntry(h=best_val, h_C=best_hc, h_Q=best_hq)
    return entries


def _reverse_topological(graph: ToolSubgraph) -> list[int]:
    """Sinks first; among ready nodes the smallest id goes next.

    Calls heapq through the module, so the bare heappop/heappush names stay
    the path queue's alone.
    """
    outdeg = [len(s) for s in graph.successors]
    ready = [i for i in range(len(graph.nodes)) if outdeg[i] == 0]
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in graph.predecessors[i]:
            outdeg[j] -= 1
            if outdeg[j] == 0:
                heapq.heappush(ready, j)
    return order


@dataclass(frozen=True)
class SuffixBounds:
    """Per-node best cases over every completion, indexed by node id."""

    min_time: tuple[float, ...]
    max_quality: tuple[float, ...]


def suffix_bounds(graph: ToolSubgraph, bt: BenchmarkTable) -> SuffixBounds:
    """Minimum suffix time and maximum suffix quality product of every node.

    One reverse-topological pass over benchmark values, independent of
    alpha; sinks get (0, 1).  The two extrema may come from different
    successors, which keeps both of them optimistic.
    """
    min_time = [0.0] * len(graph.nodes)
    max_quality = [1.0] * len(graph.nodes)
    for node_id in _reverse_topological(graph):
        succs = graph.successors[node_id]
        if not succs:
            continue
        times, qualities = [], []
        for succ in succs:
            node = graph.nodes[succ]
            row = bt.row(node.tool, node.kind)
            times.append(row.time_seconds + min_time[succ])
            qualities.append(row.quality_norm * max_quality[succ])
        min_time[node_id] = min(times)
        max_quality[node_id] = max(qualities)
    return SuffixBounds(min_time=tuple(min_time), max_quality=tuple(max_quality))


@dataclass(frozen=True)
class PathStep:
    node_id: int
    time_seconds: float  # all attempts for this node on this path
    quality: float  # quality of the final (accepted) attempt
    attempts: int


@dataclass(frozen=True)
class PathState:
    node_ids: tuple[int, ...]
    steps: tuple[PathStep, ...]
    cum_time: float
    cum_quality: float
    g: float
    f: float


@dataclass(frozen=True)
class RetryOutcome:
    succeeded: bool
    extra_time: float
    final_quality: float
    attempts: int  # total invocations including the original failed one


def retry_node(
    node: PlanNode,
    executor,
    cfg: SearchConfig,
    attempt_path: PathState,
    recorder: TraceRecorder | None = None,
    first_outcome: ExecutionOutcome | None = None,
) -> RetryOutcome:
    """Re-invoke a below-threshold node with bumped attempt counters.

    Stops at the first attempt meeting the quality threshold, or after
    max_retries re-invocations.  extra_time sums the retry attempts only;
    the original attempt's time is already on the path.
    """
    extra_time = 0.0
    final_quality = first_outcome.quality if first_outcome is not None else 0.0
    retries = 0
    succeeded = False
    for attempt in range(2, cfg.max_retries + 2):
        outcome = executor(node, attempt)
        retries += 1
        extra_time += outcome.time_seconds
        final_quality = outcome.quality
        passed = validate_quality(outcome, cfg.quality_threshold)
        if recorder is not None:
            recorder.record(node, attempt, outcome, passed)
        if passed:
            succeeded = True
            break
    return RetryOutcome(
        succeeded=succeeded,
        extra_time=extra_time,
        final_quality=final_quality,
        attempts=1 + retries,
    )


@dataclass(frozen=True)
class SearchStats:
    """Deterministic work counters of one search.

    Every successor walked from an expanded path is one `generated` path
    and one first execution, so `executions == generated + retries`.  A
    generated path is then dropped after its retries, pruned by dominance,
    or queued.  `stale_pops` are queued paths whose label a later label
    dominated; they are skipped and not counted as `expanded`.
    """

    executions: int = 0
    expanded: int = 0
    generated: int = 0
    pruned_by_dominance: int = 0
    stale_pops: int = 0
    retries: int = 0
    dropped_after_retries: int = 0
    peak_frontier: int = 0


@dataclass(frozen=True)
class PlanResult:
    status: str
    alpha: float
    path: PathState | None
    trace: object
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.status == STATUS_FOUND

    @property
    def expanded_count(self) -> int:
        return self.stats.expanded

    def to_json_dict(self, graph: ToolSubgraph) -> dict:
        path_rows = []
        totals = None
        if self.path is not None:
            for step in self.path.steps:
                node = graph.nodes[step.node_id]
                path_rows.append(
                    {
                        "tool": node.tool if not node.is_root else "ROOT",
                        "subtask": node.kind,
                        "argument": node.instance.argument if node.instance else None,
                        "ordinal": node.instance.ordinal if node.instance else None,
                        "c": step.time_seconds,
                        "q": step.quality,
                        "attempts": step.attempts,
                    }
                )
            totals = {
                "time": self.path.cum_time,
                "quality_product": self.path.cum_quality,
                "g": self.path.g,
                "f": self.path.f,
            }
        return {
            "status": self.status,
            "alpha": self.alpha,
            "path": path_rows,
            "totals": totals,
            "expanded_count": self.expanded_count,
            "stats": asdict(self.stats),
        }


class _Label:
    """A (cum_time, cum_quality) pair that reached a node; dead once dominated."""

    __slots__ = ("time", "quality", "alive")

    def __init__(self, time: float, quality: float):
        self.time = time
        self.quality = quality
        self.alive = True


def _admit(labels: list[_Label], time: float, quality: float) -> _Label | None:
    """Add (time, quality) to a node's non-dominated labels.

    Returns None when a live label is at least as good on both coordinates,
    so an equal label loses to the one that came first.  Otherwise the
    labels the new one dominates are marked dead and removed, and the new
    label is returned.
    """
    for label in labels:
        if label.time <= time and label.quality >= quality:
            return None
    for label in labels:
        if time <= label.time and quality >= label.quality:
            label.alive = False
    labels[:] = [label for label in labels if label.alive]
    new = _Label(time, quality)
    labels.append(new)
    return new


def astar_search(
    graph: ToolSubgraph,
    bounds: SuffixBounds,
    executor,
    cfg: SearchConfig,
    recorder: TraceRecorder | None = None,
) -> PlanResult:
    """Best-first search returning the first leaf-ending path popped.

    Successors are executed when generated; a passing node extends the
    path, a failing one goes through the retry mechanism and, if it never
    passes, the extension is dropped without re-queueing.  Queue order is
    (f, insertion counter), so runs replay exactly; f is the admissible
    bound of the module docstring, so the first leaf popped is optimal.
    A path whose (cum_time, cum_quality) label at its node is weakly
    dominated by a live label there is dropped; queued paths whose labels
    a newer label dominates are skipped when popped.
    """
    rec = recorder if recorder is not None else TraceRecorder()
    alpha = cfg.alpha
    min_time, max_quality = bounds.min_time, bounds.max_quality
    counter = itertools.count()
    stats = dict.fromkeys(SearchStats.__dataclass_fields__, 0)
    labels: list[list[_Label]] = [[] for _ in graph.nodes]
    root_label = _admit(labels[ROOT_ID], 0.0, 1.0)
    root_state = PathState(
        node_ids=(ROOT_ID,),
        steps=(PathStep(node_id=ROOT_ID, time_seconds=0.0, quality=1.0, attempts=0),),
        cum_time=0.0,
        cum_quality=1.0,
        g=0.0,
        f=compute_g(min_time[ROOT_ID], max_quality[ROOT_ID], alpha),
    )
    heap: list[tuple[float, int, PathState, _Label]] = [
        (root_state.f, next(counter), root_state, root_label)
    ]
    stats["peak_frontier"] = 1

    def finish(status: str, path: PathState | None) -> PlanResult:
        result = PlanResult(
            status=status, alpha=alpha, path=path, trace=rec.build(), stats=SearchStats(**stats)
        )
        logger.debug("search at alpha=%s %s: %s", alpha, status, result.stats)
        return result

    while heap:
        _, _, state, label = heappop(heap)
        if not label.alive:
            stats["stale_pops"] += 1
            continue
        stats["expanded"] += 1
        last = state.node_ids[-1]
        if last in graph.leaves:
            return finish(STATUS_FOUND, state)
        for succ in graph.successors[last]:
            node = graph.nodes[succ]
            first = executor(node, 1)
            stats["generated"] += 1
            stats["executions"] += 1
            passed = validate_quality(first, cfg.quality_threshold)
            rec.record(node, 1, first, passed)
            if passed:
                attempts, extra_time, final_quality = 1, 0.0, first.quality
            else:
                retry = retry_node(node, executor, cfg, state, recorder=rec, first_outcome=first)
                stats["retries"] += retry.attempts - 1
                stats["executions"] += retry.attempts - 1
                if not retry.succeeded:
                    stats["dropped_after_retries"] += 1
                    continue
                attempts = retry.attempts
                extra_time = retry.extra_time
                final_quality = retry.final_quality

            cum_time = state.cum_time + first.time_seconds + extra_time
            cum_quality = state.cum_quality * final_quality
            g_path = compute_g(cum_time, cum_quality, alpha)
            if attempts > 1:
                g_literal = compute_g(
                    state.cum_time + first.time_seconds, state.cum_quality * first.quality, alpha
                ) + compute_g(extra_time, final_quality, alpha)
                rec.annotate_last(g_literal=g_literal, g_path=g_path)

            succ_label = _admit(labels[succ], cum_time, cum_quality)
            if succ_label is None:
                stats["pruned_by_dominance"] += 1
                continue

            f = compute_g(cum_time + min_time[succ], cum_quality * max_quality[succ], alpha)
            next_state = PathState(
                node_ids=state.node_ids + (succ,),
                steps=state.steps
                + (
                    PathStep(
                        node_id=succ,
                        time_seconds=first.time_seconds + extra_time,
                        quality=final_quality,
                        attempts=attempts,
                    ),
                ),
                cum_time=cum_time,
                cum_quality=cum_quality,
                g=g_path,
                f=f,
            )
            heappush(heap, (f, next(counter), next_state, succ_label))
            stats["peak_frontier"] = max(stats["peak_frontier"], len(heap))
            if len(heap) > cfg.queue_cap:
                raise QueueOverflow(
                    f"search queue exceeded its capacity of {cfg.queue_cap} paths"
                )

    return finish(STATUS_EXHAUSTED, None)
