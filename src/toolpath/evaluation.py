"""Verification oracle, accuracy aggregation, and Pareto sweep utilities.

The oracle scores all root-to-leaf paths in one prefix-sharing walk whose
objectives are bit-identical to scoring each path alone from the root.
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
    astar_search,
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
    coordinates and strictly better on one; exact duplicates all survive.
    """
    return [
        p
        for p in points
        if not any(
            q.total_time <= p.total_time
            and q.quality_product >= p.quality_product
            and (q.total_time < p.total_time or q.quality_product > p.quality_product)
            for q in points  # strictly better on one coordinate, so never p itself
        )
    ]


def sweep_alpha(
    graph: ToolSubgraph,
    bt: BenchmarkTable,
    executor,
    alphas,
    base_cfg: SearchConfig | None = None,
) -> list[ParetoPoint]:
    """One search per alpha, all with `executor`; output sorted by alpha.

    The suffix bounds do not depend on alpha, so they are computed once.
    A simulator keys its outcomes by (seed, node, attempt), so sharing one
    across alphas gives each search the outcomes a fresh one would.
    """
    cfg0 = base_cfg if base_cfg is not None else SearchConfig()
    alphas = sorted(validate_alpha(a) for a in alphas)
    bounds = suffix_bounds(graph, bt) if alphas else None
    points: list[ParetoPoint] = []
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
