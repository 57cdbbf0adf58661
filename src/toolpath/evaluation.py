"""Verification oracle, accuracy aggregation, and Pareto sweep utilities.

The oracle scores all root-to-leaf paths in one prefix-sharing walk whose
objectives are bit-identical to scoring each path alone from the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import EmptyRecord, InvalidScore, OutputError, SearchExhausted
from .execution import DEFAULT_SEED, Simulator, SimulatorSpec
from .graphs import DEFAULT_PATH_CAP, ROOT_ID, ToolSubgraph, count_paths
from .registry import BenchmarkRow, BenchmarkTable
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


@dataclass(frozen=True)
class OracleReport:
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
    the search's bounds.  After the cap check, one depth-first walk carries
    each prefix's running (time, quality), adding times from 0.0 and
    multiplying qualities from 1.0 in path order, so each objective is
    bit-identical to scoring its path alone from the root; paths come in
    lexicographic node-id order, so `<` keeps the first of a tie.  The
    search runs under deterministic playback, where every step of the
    returned path passed on its first attempt, so the path's g sums and
    multiplies the same rows in the same order and is its objective; the
    gap (that objective minus the minimum) is never negative.  A search
    with no path raises SearchExhausted.
    """
    validate_alpha(alpha)
    paths_enumerated = count_paths(graph, cap)
    best_path: tuple[int, ...] = ()
    best_obj = float("inf")
    path: list[int] = []
    rows = {ROOT_ID: BenchmarkRow(0.0, 1.0)}  # node id -> row, read from bt on the node's first visit
    # (successors left to visit, time and quality of the prefix they extend)
    stack = [(iter((ROOT_ID,)), 0.0, 1.0)]
    while stack:
        successors, time, quality = stack[-1]
        node_id = next(successors, None)
        if node_id is None:
            stack.pop()
            del path[-1:]
            continue
        if node_id not in rows:
            node = graph.nodes[node_id]
            rows[node_id] = bt.row(node.tool, node.kind)
        row = rows[node_id]
        time, quality = time + row.time_seconds, quality * row.quality_norm
        if graph.successors[node_id]:
            path.append(node_id)
            stack.append((iter(graph.successors[node_id]), time, quality))
        elif (obj := compute_g(time, quality, alpha)) < best_obj:
            best_obj, best_path = obj, (*path, node_id)
    search_cfg = cfg if cfg is not None else SearchConfig(alpha=alpha)
    if search_cfg.alpha != alpha:
        search_cfg = replace(search_cfg, alpha=alpha)
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
    return sum(values) / len(values)


def overall_accuracy(task_scores) -> float:
    """Mean of per-task accuracies."""
    values = list(task_scores)
    if not values:
        raise EmptyRecord("no task scores given")
    return sum(values) / len(values)


@dataclass(frozen=True)
class ParetoPoint:
    alpha: float
    total_time: float
    quality_product: float
    g_final: float


def pareto_filter(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """Drop points beaten on both time (lower) and quality (higher).

    A point survives unless some other point is at least as good on both
    coordinates and strictly better on one; exact duplicates all survive.
    """
    survivors = []
    for i, p in enumerate(points):
        dominated = False
        for j, q in enumerate(points):
            if i == j:
                continue
            if (
                q.total_time <= p.total_time
                and q.quality_product >= p.quality_product
                and (q.total_time < p.total_time or q.quality_product > p.quality_product)
            ):
                dominated = True
                break
        if not dominated:
            survivors.append(p)
    return survivors


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
        cfg = replace(cfg0, alpha=alpha)
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
