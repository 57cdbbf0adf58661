"""Verification oracle, accuracy aggregation, and Pareto sweep utilities.

The oracle scores all root-to-leaf paths in one prefix-sharing walk whose
objectives are bit-identical to scoring each path alone from the root.
Under deterministic playback the alpha sweep runs no tool: it reads every
alpha's point off one Pareto front of (total time, quality product), built
in one label-setting pass over the nodes that pass the quality threshold.
Other executors get one search per alpha.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import EmptyRecord, InvalidScore, OutputError, SearchExhausted
from .execution import DEFAULT_SEED, Simulator, SimulatorSpec, add_left_to_right
from .graphs import DEFAULT_PATH_CAP, ROOT_ID, ToolSubgraph, count_paths
from .registry import BenchmarkTable
from .search import (
    SearchConfig,
    _non_dominated,
    astar_search,
    benchmark_rows,
    compute_g,
    suffix_bounds,
    validate_alpha,
)

# Partial-correctness scores a human evaluation may assign, plus the full
# pass/fail endpoints.
SCORE_VOCABULARY = (0.0, 0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0)


class OracleReport(NamedTuple):
    best_path: tuple[int, ...]
    best_objective: float
    astar_objective: float
    gap: float
    paths_enumerated: int
    astar_path: tuple[int, ...] = ()


def brute_force_optimal(
    graph: ToolSubgraph,
    bt: BenchmarkTable,
    alpha: float,
    cfg: SearchConfig | None = None,
    cap: int = DEFAULT_PATH_CAP,
) -> OracleReport:
    """Exhaustive path enumeration against which the search is measured.

    Paths are scored with benchmark rows, independent of any executor and of
    the search's bounds.  After the cap check, each node's row is read once,
    and one depth-first walk carries each prefix's running (time, quality),
    adding times from 0.0 and multiplying qualities from 1.0 in path order,
    so each objective is bit-identical to scoring its path alone from the
    root; paths come in lexicographic node-id order, so `<` keeps the first
    of a tie.  A node whose successors all end paths scores them in one
    loop, with the same sums and products in the same order.  The
    search runs under deterministic playback, where every step of the
    returned path passed on its first attempt, so the path's g sums and
    multiplies the same rows in the same order and is its objective; the
    gap (that objective minus the minimum) is never negative.  A search
    with no path raises SearchExhausted.
    """
    validate_alpha(alpha)
    paths_enumerated = count_paths(graph, cap)
    successors = graph.successors
    # Node id -> benchmark (time, quality), read in the walk's first-visit order,
    # so a missing row names the node that scoring the paths one by one meets first.
    rows: list[tuple[float, float] | None] = [None] * len(graph.nodes)
    rows[ROOT_ID] = (0.0, 1.0)
    unread = [iter(successors[ROOT_ID])]
    while unread:
        node_id = next(unread[-1], None)
        if node_id is None:
            unread.pop()
        elif rows[node_id] is None:
            node = graph.nodes[node_id]
            row = bt.row(node.tool, node.kind)
            rows[node_id] = (row.time_seconds, row.quality_norm)
            unread.append(iter(successors[node_id]))
    # Nodes whose successors all end a path: the walk scores those ends in one loop.
    last_hop = [bool(succ) and not any(successors[j] for j in succ) for succ in successors]
    best_path: tuple[int, ...] = ()
    best_obj = float("inf")
    path: list[int] = []
    # (successors left to visit, time and quality of the prefix they extend)
    stack = [(iter((ROOT_ID,)), 0.0, 1.0)]
    while stack:
        left, time, quality = stack[-1]
        node_id = next(left, None)
        if node_id is None:
            stack.pop()
            del path[-1:]
            continue
        t, q = rows[node_id]
        time, quality = time + t, quality * q
        succ = successors[node_id]
        if not succ:
            if (obj := compute_g(time, quality, alpha)) < best_obj:
                best_obj, best_path = obj, (*path, node_id)
        elif last_hop[node_id]:
            for sink in succ:
                t, q = rows[sink]
                if (obj := compute_g(time + t, quality * q, alpha)) < best_obj:
                    best_obj, best_path = obj, (*path, node_id, sink)
        else:
            path.append(node_id)
            stack.append((iter(succ), time, quality))
    search_cfg = (cfg if cfg is not None else SearchConfig()).with_alpha(alpha)
    # Deterministic playback reads no seed.
    simulator = Simulator(SimulatorSpec(mode="deterministic"), bt, DEFAULT_SEED)
    result = astar_search(graph, suffix_bounds(graph, bt), simulator, search_cfg)
    if not result.found:
        raise SearchExhausted(f"search at alpha={alpha} found no valid path")
    return OracleReport(
        best_path=best_path,
        best_objective=best_obj,
        astar_objective=result.path.g,
        gap=result.path.g - best_obj,
        paths_enumerated=paths_enumerated,
        astar_path=result.path.node_ids,
    )


def task_accuracy(scores) -> float:
    """Mean subtask score for one task; scores must use the score vocabulary."""
    values = list(scores)
    if not values:
        raise EmptyRecord("task has no subtask scores")
    for v in values:
        if not any(abs(v - allowed) < 1e-12 for allowed in SCORE_VOCABULARY):
            raise InvalidScore(f"score {v} is not in the vocabulary {SCORE_VOCABULARY}")
    return add_left_to_right(values) / len(values)


def overall_accuracy(task_scores) -> float:
    """Mean of per-task accuracies."""
    values = list(task_scores)
    if not values:
        raise EmptyRecord("no task scores given")
    return add_left_to_right(values) / len(values)


class ParetoPoint(NamedTuple):
    alpha: float
    total_time: float
    quality_product: float
    g_final: float


def pareto_filter(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """Drop points beaten on both time (lower) and quality (higher).

    A point survives unless some other point is at least as good on both
    coordinates and strictly better on one; exact duplicates all survive,
    in input order.
    """
    kept = set(_non_dominated([(p.total_time, -p.quality_product) for p in points]))
    return [p for p in points if (p.total_time, -p.quality_product) in kept]


def _playback_front(graph: ToolSubgraph, rows: list[tuple[float, float]], threshold: float) -> list[tuple[float, float]]:
    """Pareto front of (total time, quality product) over the paths playback completes.

    Deterministic playback returns a node's benchmark row on every attempt,
    so a node whose quality is below `threshold` fails all of them and no
    path through it completes, while every other node passes on its first.
    One pass in ascending node id, a topological order, carries each
    node's non-dominated prefix labels, kept as (time, -quality): times add
    from 0.0 and qualities multiply from 1.0 in path order, the search's
    order, so each point is bit-identical to the totals of the search's
    label for its path.  A label another one at its node weakly dominates
    is dropped, as the search drops it; rounding is monotone, so it could
    never complete better than that label.  Points come in ascending time
    and quality.
    """
    successors = graph.successors
    incoming: list[list[tuple[float, float]]] = [[] for _ in successors]
    incoming[ROOT_ID].append((0.0, -1.0))
    ends: list[tuple[float, float]] = []
    for node_id, succs in enumerate(successors):
        labels = _non_dominated(incoming[node_id])
        if not succs:
            ends += labels
        for succ in succs:
            c, q = rows[succ]
            if q >= threshold:
                incoming[succ] += [(t + c, neg_q * q) for t, neg_q in labels]
    return [(t, -neg_q) for t, neg_q in _non_dominated(ends)]


def sweep_alpha(
    graph: ToolSubgraph,
    bt: BenchmarkTable,
    executor,
    alphas,
    base_cfg: SearchConfig | None = None,
) -> list[ParetoPoint]:
    """The point of the path the search reaches at each alpha, sorted by alpha.

    When `executor` is a deterministic simulator playing back `bt`, every
    attempt's outcome is its benchmark row, so no tool runs: the front of
    (total time, quality product) over the paths whose every node meets the
    quality threshold is built once (`_playback_front`), and each alpha
    takes its point of least g.  g is a weighted-sum scalarization of
    (ln T, ln(2 - Q)) (Ehrgott, Multicriteria Optimization, 2005), so its
    least value over all those paths lies on that front.  Of front points
    with equal g the faster one is taken, while a search may end on any
    path of that g.  Points are totalled as the search totals its labels,
    so they hold the bits a search reports, except at such ties and where
    the search's bounds, which total a suffix from its end, let it settle
    on a path whose g is a rounding error above the least.  No queue is
    built, so this sweep never overflows one.

    Any other executor gets one search per alpha.  The suffix bounds do not
    depend on alpha, so they are computed once.  A simulator keys its
    outcomes by (seed, node, attempt), so sharing one across alphas gives
    each search the outcomes a fresh one would.

    Either way, rows are read in node-id order before anything runs, and
    when no path completes the sweep raises SearchExhausted naming the
    least alpha.
    """
    cfg0 = base_cfg if base_cfg is not None else SearchConfig()
    alphas = sorted(validate_alpha(a) for a in alphas)
    if not alphas:
        return []
    points: list[ParetoPoint] = []
    spec = getattr(executor, "spec", None)  # a Simulator's, or None for a bare callable
    if spec is not None and spec.mode == "deterministic" and executor.bt is bt:
        front = _playback_front(graph, benchmark_rows(graph, bt), cfg0.quality_threshold)
        if not front:
            raise SearchExhausted(f"search at alpha={alphas[0]} found no valid path")
        for alpha in alphas:
            # min keeps the first, so the fastest, of the points of least g.
            time, quality = min(front, key=lambda point: compute_g(*point, alpha))
            points.append(ParetoPoint(alpha, time, quality, compute_g(time, quality, alpha)))
        return points
    bounds = suffix_bounds(graph, bt)
    for alpha in alphas:
        cfg = cfg0.with_alpha(alpha)
        result = astar_search(graph, bounds, executor, cfg)
        if not result.found:
            raise SearchExhausted(f"search at alpha={alpha} found no valid path")
        points.append(
            ParetoPoint(
                alpha=alpha,
                total_time=result.path.cum_time,
                quality_product=result.path.cum_quality,
                g_final=result.path.g,
            )
        )
    return points


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise OutputError(f"the sweep CSV cannot hold the non-finite value {x}")
    return format(x, ".9g")


def pareto_csv(points: list[ParetoPoint]) -> str:
    """Diff-stable CSV rendering; nine significant digits per value.

    The last column flags the points that survive the Pareto filter.
    """
    survivors = {id(p) for p in pareto_filter(points)}
    lines = ["alpha,total_time,quality_product,g_final,non_dominated"]
    for p in points:
        values = ",".join([_fmt(p.alpha), _fmt(p.total_time), _fmt(p.quality_product), _fmt(p.g_final)])
        lines.append(values + (",true" if id(p) in survivors else ",false"))
    return "\n".join(lines) + "\n"
