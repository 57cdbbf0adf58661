"""Cost/quality-weighted best-first search over a tool subgraph.

The realized prefix objective of a path is

    g = (sum of executed times) ** alpha * (2 - product of qualities) ** (2 - alpha)

alpha in [0, 2] trades time against quality: 2 is pure time, 0 pure
quality.  g never falls when time rises or quality falls, for every alpha.

The paper orders paths by f = g + h, with the suffix estimate h of
`precompute_heuristics`.  That sum overestimates the best completion when
alpha < 1, so the search here orders by an exact bound instead:
`suffix_bounds` gives, per node, the Pareto front of (suffix time, suffix
quality product) over benchmark values, and a prefix (T, Q) at node n is
queued at

    f = min over (t, q) in fronts[n] of g(T + t, Q * q)

the best completion of the prefix under benchmark values.  It never
exceeds the g of any completion at any alpha, and equals g at a sink,
whose front is the single point (0, 1).  The paper's h stays available as
`precompute_heuristics`.

Paths are pruned by Pareto dominance: each node keeps the non-dominated
(cum_time, cum_quality) labels that reached it, as in the label-setting
searches NAMOA* (Mandow & Perez de la Cruz, JACM 2010) and BOA* (Hernandez
et al., AIJ 2023).  Execution outcomes are keyed by node and attempt, not
by the path taken, so a dominated prefix can never complete better than its
dominator and the pruning is exact.  A label is the search's only state:
it links to the label of the prefix it extends, and the one path returned
is rebuilt from those links.

Each generated successor runs through one attempt loop: attempts 1 to
1 + max_retries are executed until one meets the quality threshold.  A
successor that never passes drops the path without re-queueing it, while
other routes through the same node stay explorable.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import asdict, dataclass
from heapq import heappop, heappush

from .errors import AlphaOutOfRange, InvalidConfig, QueueOverflow
from .execution import ExecutionTrace, TraceEvent, validate_quality
from .graphs import ROOT_ID, ToolSubgraph
from .planning import kahn_order
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
            raise InvalidConfig(
                f"quality_threshold must lie in [0, 1], got {self.quality_threshold}"
            )
        if self.max_retries < 0:
            raise InvalidConfig(f"max_retries must be non-negative, got {self.max_retries}")
        if self.queue_cap < 1:
            raise InvalidConfig(f"queue_cap must be positive, got {self.queue_cap}")


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
    for node_id in reversed(kahn_order(dict(enumerate(graph.successors)))):
        succs = graph.successors[node_id]
        if not succs:
            entries[node_id] = HeuristicEntry(h=0.0, h_C=0.0, h_Q=1.0)
            continue
        best_val = None
        best_hc = best_hq = 0.0
        for succ in succs:
            node = graph.nodes[succ]
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


# (suffix time, suffix quality product) pairs, ascending in both.
Front = tuple[tuple[float, float], ...]


def suffix_bounds(graph: ToolSubgraph, bt: BenchmarkTable) -> tuple[Front, ...]:
    """Pareto front of suffix (time, quality product) of every node, by node id.

    One reverse-topological pass over benchmark values, independent of
    alpha; a sink's front is ((0, 1),).  A node merges its successors'
    fronts, each shifted by that successor's benchmark row, and keeps the
    points no other point weakly dominates.  A front depends only on the
    successors, so nodes with the same successors share one front.
    """
    fronts: list[Front] = [((0.0, 1.0),)] * len(graph.nodes)
    shared: dict[tuple[int, ...], Front] = {}
    for node_id in reversed(kahn_order(dict(enumerate(graph.successors)))):
        succs = graph.successors[node_id]
        if not succs:
            continue
        front = shared.get(succs)
        if front is None:
            points = []
            for succ in succs:
                node = graph.nodes[succ]
                row = bt.row(node.tool, node.kind)
                c, r = row.time_seconds, row.quality_norm
                points += [(c + t, -(r * q)) for t, q in fronts[succ]]
            # Ascending time, higher quality first among equal times: a point
            # survives only if it beats the quality of every faster one.
            points.sort()
            kept = []
            for t, neg_q in points:
                if not kept or -neg_q > kept[-1][1]:
                    kept.append((t, -neg_q))
            front = shared[succs] = tuple(kept)
        fronts[node_id] = front
    return tuple(fronts)


def _front_bound(front: Front, time: float, quality: float, alpha: float) -> float:
    """min over (t, q) in `front` of g(time + t, quality * q).

    Times ascend along the front, so once (time + t) ** alpha times the
    quality factor of the front's best quality reaches the best g found,
    no later point can do better.
    """
    floor = (2.0 - quality * front[-1][1]) ** (2.0 - alpha)
    best = math.inf
    for t, q in front:
        total = time + t
        if total**alpha * floor >= best:
            break
        g = compute_g(total, quality * q, alpha)
        if g < best:
            best = g
    return best


@dataclass(frozen=True)
class PathStep:
    node_id: int
    time_seconds: float  # all attempts for this node on this path
    quality: float  # quality of the final (accepted) attempt
    attempts: int


@dataclass(frozen=True)
class PathState:
    """A returned root-to-leaf path; the search itself keeps `_Label`s."""

    node_ids: tuple[int, ...]
    steps: tuple[PathStep, ...]
    cum_time: float
    cum_quality: float
    g: float
    f: float


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
    trace: ExecutionTrace
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
                path_rows.append(
                    {
                        **graph.nodes[step.node_id].view(),
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
    """One path prefix: its (cum_time, cum_quality), the step that ended it
    and the label of the prefix before it (None at the root).

    The label is dead once a newer label at its node dominates it.
    """

    __slots__ = ("time", "quality", "step", "parent", "alive")

    def __init__(self, time: float, quality: float, step: PathStep, parent: _Label | None):
        self.time = time
        self.quality = quality
        self.step = step
        self.parent = parent
        self.alive = True


def _admit(
    labels: list[_Label], time: float, quality: float, step: PathStep, parent: _Label | None
) -> _Label | None:
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
    new = _Label(time, quality, step, parent)
    labels.append(new)
    return new


def _path(label: _Label, f: float, alpha: float) -> PathState:
    """The path ending at `label`, rebuilt by walking its parent links."""
    steps = []
    link = label
    while link is not None:
        steps.append(link.step)
        link = link.parent
    steps.reverse()
    return PathState(
        node_ids=tuple(step.node_id for step in steps),
        steps=tuple(steps),
        cum_time=label.time,
        cum_quality=label.quality,
        g=compute_g(label.time, label.quality, alpha),
        f=f,
    )


def astar_search(
    graph: ToolSubgraph,
    fronts: tuple[Front, ...],
    executor,
    cfg: SearchConfig,
) -> PlanResult:
    """Best-first search returning the first path popped that ends at a sink.

    Successors are executed when generated, up to 1 + max_retries times
    until an attempt meets the quality threshold; a successor that never
    passes is dropped without re-queueing.  Queue order is (f, insertion
    counter), so runs replay exactly; f is the admissible bound of the
    module docstring, which is exact at a sink, so the first sink popped is
    optimal.  A prefix whose (cum_time, cum_quality) label at its node is
    weakly dominated by a live label there is dropped; queued labels that a
    newer label dominates are skipped when popped.
    """
    events: list[TraceEvent] = []
    alpha, threshold = cfg.alpha, cfg.quality_threshold
    counter = itertools.count()
    stats = dict.fromkeys(SearchStats.__dataclass_fields__, 0)
    labels: list[list[_Label]] = [[] for _ in graph.nodes]
    root = _admit(labels[ROOT_ID], 0.0, 1.0, PathStep(ROOT_ID, 0.0, 1.0, 0), None)
    f_root = _front_bound(fronts[ROOT_ID], 0.0, 1.0, alpha)
    heap: list[tuple[float, int, _Label]] = [(f_root, next(counter), root)]
    stats["peak_frontier"] = 1

    def finish(status: str, path: PathState | None) -> PlanResult:
        result = PlanResult(status, alpha, path, ExecutionTrace(tuple(events)), SearchStats(**stats))
        logger.debug("search at alpha=%s %s: %s", alpha, status, result.stats)
        return result

    while heap:
        f, _, label = heappop(heap)
        if not label.alive:
            stats["stale_pops"] += 1
            continue
        stats["expanded"] += 1
        last = label.step.node_id
        if not graph.successors[last]:
            return finish(STATUS_FOUND, _path(label, f, alpha))
        for succ in graph.successors[last]:
            node = graph.nodes[succ]
            stats["generated"] += 1
            retry_time = 0.0
            for attempt in range(1, cfg.max_retries + 2):
                outcome = executor(node, attempt)
                stats["executions"] += 1
                if attempt == 1:
                    first = outcome
                else:
                    stats["retries"] += 1
                    retry_time += outcome.time_seconds
                if validate_quality(outcome, threshold):
                    break
                events.append(TraceEvent(succ, attempt, outcome.time_seconds, outcome.quality, "fail"))
            else:
                stats["dropped_after_retries"] += 1
                continue

            # Retry times are summed apart from the first attempt, as the split
            # in g_literal needs; a running total would round differently.
            cum_time = label.time + first.time_seconds + retry_time
            cum_quality = label.quality * outcome.quality
            g_literal = g_path = None
            if attempt > 1:
                g_literal = compute_g(
                    label.time + first.time_seconds, label.quality * first.quality, alpha
                ) + compute_g(retry_time, outcome.quality, alpha)
                g_path = compute_g(cum_time, cum_quality, alpha)
            events.append(
                TraceEvent(succ, attempt, outcome.time_seconds, outcome.quality, "pass", g_literal, g_path)
            )

            step = PathStep(succ, first.time_seconds + retry_time, outcome.quality, attempt)
            succ_label = _admit(labels[succ], cum_time, cum_quality, step, label)
            if succ_label is None:
                stats["pruned_by_dominance"] += 1
                continue
            f = _front_bound(fronts[succ], cum_time, cum_quality, alpha)
            heappush(heap, (f, next(counter), succ_label))
            stats["peak_frontier"] = max(stats["peak_frontier"], len(heap))
            if len(heap) > cfg.queue_cap:
                raise QueueOverflow(f"search queue exceeded its capacity of {cfg.queue_cap} paths")

    return finish(STATUS_EXHAUSTED, None)
