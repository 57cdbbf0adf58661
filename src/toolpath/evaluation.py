"""Verification oracle, accuracy aggregation, and Pareto sweep utilities.

The oracle and the deterministic alpha sweep read one Pareto front of
(total time, quality product), built in one label-setting pass over the
nodes that pass a quality threshold: 0 for the oracle, so every path
counts, the search's for the sweep, which then runs no tool.  Its points
are totalled from the root in path order, so each is bit-identical to
scoring its path alone.  Both take, per alpha, the point of least g; of
equal g the faster point, and of equal points the lexicographically first
path the pass keeps.  Other executors get one search per alpha.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from .errors import EmptyRecord, InvalidScore, OutputError, SearchExhausted
from .execution import DEFAULT_SEED, Simulator, SimulatorSpec, add_left_to_right
from .graphs import ROOT_ID, ToolSubgraph, count_paths
from .registry import BenchmarkTable
from .search import (
    SearchConfig,
    _non_dominated,
    _within_capacity,
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
) -> OracleReport:
    """The least objective over every root-to-leaf path, against which the search is measured.

    Paths are scored with benchmark rows, independent of any executor and of
    the search's bounds.  `suffix_bounds` reads every row once, in node-id
    order, so a missing row names the lowest node id that lacks one; its
    rows give the playback front at threshold 0, which every path passes
    (`_playback_front`), and its fronts serve the search.  The front point
    of least g is the least over all paths, bit for bit, since each point
    is totalled from the root in path order and no path it drops can score
    lower.  Of the paths of least g the fastest is taken, then the
    lexicographically first the pass keeps, and no path is walked.  The
    search runs under deterministic playback, where every step of the
    returned path passed on its first attempt, so the path's g sums and
    multiplies the same rows in the same order and is its objective; the
    gap (that objective minus the minimum) is never negative.  A search
    with no path raises SearchExhausted; past QUEUE_CAP entries it, or
    either pass, raises QueueOverflow.
    """
    validate_alpha(alpha)
    paths_enumerated = count_paths(graph)
    bounds = suffix_bounds(graph, bt)
    front = _playback_front(graph, bounds.rows, 0.0, paths=True)
    # min keeps the first, so the fastest, of the points of least g.
    time, quality, best_path = min(front, key=lambda point: compute_g(point[0], point[1], alpha))
    best_obj = compute_g(time, quality, alpha)
    search_cfg = (cfg if cfg is not None else SearchConfig()).with_alpha(alpha)
    # Deterministic playback reads no seed.
    simulator = Simulator(SimulatorSpec(mode="deterministic"), bt, DEFAULT_SEED)
    result = astar_search(graph, bounds, simulator, search_cfg)
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


def _playback_front(
    graph: ToolSubgraph, rows: Sequence[tuple[float, float]], threshold: float, paths: bool = False
) -> list[tuple[float, float, tuple[int, ...] | None]]:
    """Pareto front of (total time, quality product, path) over the paths playback completes.

    Deterministic playback returns a node's benchmark row on every attempt,
    so a node whose quality is below `threshold` fails all of them and no
    path through it completes, while every other node passes on its first.
    One pass in ascending node id, a topological order, carries each
    node's non-dominated prefix labels, kept as (time, -quality, path), as
    the multi-objective label-setting of NAMOA* (Mandow & Perez de la Cruz,
    JACM 2010): times add from 0.0 and qualities multiply from 1.0 in path
    order, the search's order, so each point is bit-identical to the totals
    of the search's label for its path.  A label another one at its node
    weakly dominates is dropped, as the search drops it; rounding is
    monotone, so it could never complete better than that label.  Of equal
    labels the one whose path is lexicographically first is kept: a path
    ends in a sentinel above every node id, so a prefix sorts as the paths
    that extend it would.  Paths are built only when `paths` is set, and
    a label's path only once it survives at its node; the entries queued
    for its successors share that tuple.  Otherwise every path is None and
    the points are the same.  More than QUEUE_CAP labels kept over all
    nodes raise QueueOverflow.
    Points come in ascending time and quality.
    """
    successors = graph.successors
    sentinel = len(successors)
    incoming: list[list | None] = [[] for _ in successors]
    incoming[ROOT_ID].append((0.0, -1.0, (sentinel,) if paths else None))
    ends: list[tuple[float, float, tuple[int, ...] | None]] = []
    labels_kept = 0
    for node_id, succs in enumerate(successors):
        kept = _non_dominated(incoming[node_id])
        labels_kept += len(kept)
        _within_capacity(labels_kept, "playback-front pass")
        incoming[node_id] = None  # read once; freeing it keeps only the unread labels alive
        if paths:
            kept = [(t, neg_q, path[:-1] + (node_id, sentinel)) for t, neg_q, path in kept]
        if not succs:
            ends += kept
        for succ in succs:
            c, q = rows[succ]
            if q >= threshold:
                incoming[succ] += [(t + c, neg_q * q, path) for t, neg_q, path in kept]
    return [(t, -neg_q, path and path[:-1]) for t, neg_q, path in _non_dominated(ends)]


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
    with equal g the faster one is taken, as the oracle takes it, while a
    search may end on any path of that g.  Points are totalled as the
    search totals its labels, so they hold the bits a search reports,
    except at such ties and where the search's bounds, which total a
    suffix from its end, let it settle on a path whose g is a rounding
    error above the least.

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
            time, quality, _ = min(front, key=lambda point: compute_g(point[0], point[1], alpha))
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
