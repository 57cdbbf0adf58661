"""Verification oracle, accuracy aggregation, and Pareto sweep utilities.

The oracle and the deterministic alpha sweep read one Pareto front of
(total time, quality product) over the paths whose nodes pass a quality
threshold: 0 for the oracle, so every path counts, the search's for the
sweep, which then runs no tool.  It is `search.playback_front`, the
suffix bounds' label-setting pass run forward over predecessor lists to
one virtual node after every sink, from which the search also takes its
stop target.  Its points are totalled from the root in path order, so
each is bit-identical to scoring its path alone.  Both take, per alpha,
the point of least g, and of equal g the faster point, from the search's
own reader of a front's least point (`search._front_bound` from the
bare root); the oracle then rebuilds the one path it reports, the
lexicographically first of those whose every prefix the pass keeps as a
label.  Other executors get one search per alpha.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from typing import NamedTuple

from .errors import EmptyRecord, InvalidScore, OutputError, SearchExhausted
from .execution import DEFAULT_SEED, Simulator, SimulatorSpec, add_left_to_right, playback_table
from .graphs import ROOT_ID, ToolSubgraph, count_paths
from .registry import BenchmarkTable
from .search import (
    Front,
    SearchConfig,
    _front_bound,
    _non_dominated,
    astar_search,
    benchmark_rows,
    playback_front,
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
    astar_path: tuple[int, ...]


def brute_force_optimal(graph: ToolSubgraph, bt: BenchmarkTable, cfg: SearchConfig) -> OracleReport:
    """The least objective over every root-to-leaf path, against which the search is measured.

    Paths are scored with benchmark rows, independent of any executor and of
    the search's bounds.  `suffix_bounds` reads every row once, in node-id
    order, so a missing row names the lowest node id that lacks one; its
    rows give the playback front at threshold 0, which every path passes
    (`playback_front`), and its fronts serve the search.  The front point
    of least g at `cfg.alpha` is the least over all paths, bit for bit,
    since each point is totalled from the root in path order and no path
    it drops can score lower.  It is read as the search reads its target,
    by `_front_bound` from the bare root, so of the paths of least g the
    fastest is taken, then the lexicographically first whose prefixes the
    pass keeps (`_best_path`); no other path is walked.  The search runs
    with `cfg` under deterministic playback, where every step of the
    returned path passed on its first attempt, so the path's g sums and
    multiplies the same rows in the same order and is its objective; the
    gap (that objective minus the minimum) is never negative.  A search
    with no path raises SearchExhausted; past QUEUE_CAP entries it, or
    either pass, raises QueueOverflow.
    """
    paths_enumerated = count_paths(graph)
    bounds = suffix_bounds(graph, bt)
    fronts = playback_front(graph, bounds.rows, 0.0)
    best_obj, time, neg_quality = _front_bound(fronts[-1], 0.0, 1.0, cfg.alpha)
    best_path = _best_path(graph, bounds.rows, fronts, (time, -neg_quality))
    # Deterministic playback reads no seed.
    simulator = Simulator(SimulatorSpec(mode="deterministic"), bt, DEFAULT_SEED)
    result = astar_search(graph, bounds, simulator, cfg)
    if not result.found:
        raise SearchExhausted(f"search at alpha={cfg.alpha} found no valid path")
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


def _best_path(
    graph: ToolSubgraph, rows: Sequence[tuple[float, float]], fronts: list[Front], point: tuple[float, float]
) -> tuple[int, ...]:
    """The lexicographically first path to `point` among those the playback front keeps.

    `fronts` are `playback_front`'s at threshold 0 and `point` a point of
    its whole-path front.  A label is the totals of a path prefix ending at
    a node; the labels a node keeps are its prefix front shifted by its own
    row, less those another one weakly dominates.  A pass that carried each
    node's labels and paths would drop the others there, and of equal
    labels keep the one whose path sorts first, so the path it ends on at
    `point` is the first whose every prefix ends on a kept label.  One walk
    in descending node id marks each kept label that a successor's marked
    label extends, or at a sink that equals `point`.  The prefix points
    whose labels extend to a marked time are one run of the node's front,
    found by bisection, and only a node with such a point filters its
    labels.  A walk from the root then takes, at each step, the lowest-id
    successor whose label it extends to is marked.
    """
    successors = graph.successors
    end = ((0.0, 1.0), {point})  # the virtual node after every sink: no time, no loss, its one label `point`
    marked: list[set[tuple[float, float]]] = [set() for _ in successors]
    for node_id in reversed(range(len(successors))):
        c, r = rows[node_id]
        front, succs, hits = fronts[node_id], successors[node_id], set()
        for (c_s, r_s), labels in [(rows[succ], marked[succ]) for succ in succs] if succs else [end]:
            # `+` rounds monotonically, so the front's points whose labels extend to one time are one run.
            def extended(prefix):
                return c + prefix[0] + c_s

            for time, quality in labels:
                for t, q in front[bisect_left(front, time, key=extended) : bisect_right(front, time, key=extended)]:
                    if r * q * r_s == quality:
                        hits.add((c + t, r * q))
        if hits:
            kept = _non_dominated([(c + t, -(r * q)) for t, q in front])
            marked[node_id] = hits.intersection((t, -neg_q) for t, neg_q in kept)
    path, label = [ROOT_ID], (0.0, 1.0)
    while successors[path[-1]]:
        for succ in successors[path[-1]]:
            step = (label[0] + rows[succ][0], label[1] * rows[succ][1])
            if step in marked[succ]:
                break
        path.append(succ)
        label = step
    return tuple(path)


def sweep_alpha(
    graph: ToolSubgraph,
    bt: BenchmarkTable,
    executor,
    alphas,
    base_cfg: SearchConfig | None = None,
) -> list[ParetoPoint]:
    """The point of the path the search reaches at each alpha, sorted by alpha.

    When `executor` is a deterministic simulator playing back `bt`
    (`playback_table`), every attempt's outcome is its benchmark row, so no
    tool runs: the front of (total time, quality product) over the paths
    whose every node meets the quality threshold is built once
    (`playback_front`), and each alpha takes its point of least g
    (`_front_bound` from the bare root).  g is a weighted-sum
    scalarization of (ln T, ln(2 - Q)) (Ehrgott, Multicriteria
    Optimization, 2005), so its least value over all those paths lies on
    that front.  Of front points with equal g the faster one is taken, as
    the oracle and the search take it.  Points are totalled as the search
    totals its labels, so they hold the bits a search reports.

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
    if playback_table(executor) is bt:
        front = playback_front(graph, benchmark_rows(graph, bt), cfg0.quality_threshold)[-1]
        if not front:
            raise SearchExhausted(f"search at alpha={alphas[0]} found no valid path")
        for alpha in alphas:
            g, time, neg_quality = _front_bound(front, 0.0, 1.0, alpha)
            points.append(ParetoPoint(alpha, time, -neg_quality, g))
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
