"""Verification oracle, accuracy aggregation, and Pareto sweep utilities."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import EmptyRecord, InvalidScore, SearchExhausted
from .execution import Simulator, SimulatorSpec
from .graphs import DEFAULT_PATH_CAP, ToolSubgraph, enumerate_paths
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


@dataclass(frozen=True)
class OracleReport:
    best_path: tuple[int, ...]
    best_objective: float
    astar_objective: float
    gap: float
    paths_enumerated: int
    astar_status: str
    astar_path: tuple[int, ...] = ()


def path_objective(graph: ToolSubgraph, bt: BenchmarkTable, path, alpha: float) -> float:
    """Benchmark-valued objective of one root-to-leaf path."""
    total_time = 0.0
    quality = 1.0
    for node_id in path:
        node = graph.nodes[node_id]
        if node.is_root:
            continue
        row = bt.row(node.tool, node.kind)
        total_time += row.time_seconds
        quality *= row.quality_norm
    return compute_g(total_time, quality, alpha)


def brute_force_optimal(
    graph: ToolSubgraph,
    bt: BenchmarkTable,
    alpha: float,
    cfg: SearchConfig | None = None,
    cap: int = DEFAULT_PATH_CAP,
) -> OracleReport:
    """Exhaustive path enumeration against which the search is measured.

    Every root-to-leaf path is scored with benchmark (expected) values, so
    the oracle is independent of any executor.  The search side runs the
    planner with deterministic execution and scores its returned path the
    same way; the gap is search objective minus enumeration minimum and is
    never negative.
    """
    validate_alpha(alpha)
    paths = enumerate_paths(graph, cap=cap)
    best_path: tuple[int, ...] = ()
    best_obj = float("inf")
    for path in paths:
        obj = path_objective(graph, bt, path, alpha)
        if obj < best_obj:
            best_obj = obj
            best_path = path
    search_cfg = cfg if cfg is not None else SearchConfig(alpha=alpha)
    if search_cfg.alpha != alpha:
        search_cfg = replace(search_cfg, alpha=alpha)
    simulator = Simulator(SimulatorSpec(mode="deterministic"), bt, search_cfg.seed)
    result = astar_search(graph, suffix_bounds(graph, bt), simulator, search_cfg)
    if result.found:
        astar_obj = path_objective(graph, bt, result.path.node_ids, alpha)
        astar_path = result.path.node_ids
    else:
        astar_obj = float("inf")
        astar_path = ()
    return OracleReport(
        best_path=best_path,
        best_objective=best_obj,
        astar_objective=astar_obj,
        gap=astar_obj - best_obj,
        paths_enumerated=len(paths),
        astar_status=result.status,
        astar_path=astar_path,
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
    sim_spec: SimulatorSpec,
    alphas,
    base_cfg: SearchConfig | None = None,
) -> list[ParetoPoint]:
    """One deterministic search per alpha; output sorted by alpha.

    The suffix bounds do not depend on alpha, so they are computed once.
    """
    cfg0 = base_cfg if base_cfg is not None else SearchConfig()
    alphas = sorted(validate_alpha(a) for a in alphas)
    fronts = suffix_bounds(graph, bt) if alphas else None
    points: list[ParetoPoint] = []
    for alpha in alphas:
        cfg = replace(cfg0, alpha=alpha)
        simulator = Simulator(sim_spec, bt, cfg.seed)
        result = astar_search(graph, fronts, simulator, cfg)
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
