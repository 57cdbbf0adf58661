"""Cost/quality-weighted best-first search over a tool subgraph.

The realized prefix objective of a path is

    g = (sum of executed times) ** alpha * (2 - product of qualities) ** (2 - alpha)

alpha in [0, 2] trades time against quality: 2 is pure time, 0 pure
quality.  g never falls when time rises or quality falls, for every alpha.

The paper orders paths by f = g + h, where h at a node is the objective of
the suffix through the successor that minimizes it, built in reverse
topological order.  That sum overestimates the best completion when
alpha < 1, so the search here orders by an exact bound instead:
`suffix_bounds` gives, per node, the Pareto front of (suffix time, suffix
quality product) over benchmark values, and a prefix (T, Q) at node n is
queued at

    f = min over (t, q) in fronts[n] of g(T + t, Q * q)

the best completion of the prefix under benchmark values.  It never
exceeds the g of any completion at any alpha, and equals g at a sink,
whose front is the single point (0, 1).  The fronts come from
`pareto_fronts`, one label-setting pass over neighbour lists: over
successor lists in reverse topological order for the suffix bounds, and
over predecessor lists in topological order for `playback_front`, the
front of whole paths under deterministic playback.

Paths are pruned by Pareto dominance: each node keeps the non-dominated
(cum_time, cum_quality) labels that reached it, as in the label-setting
searches NAMOA* (Mandow & Perez de la Cruz, JACM 2010) and BOA* (Hernandez
et al., AIJ 2023).  Execution outcomes are keyed by node and attempt, not
by the path taken, so a dominated prefix can never complete better than its
dominator and the pruning is exact.  A label is the search's only path state:
it links to the label of the prefix it extends, and the one path returned
is rebuilt from those links.

Tools run when the search pops them, not when they are generated, as in
Lazy Weighted A* (Cohen, Phillips & Likhachev, SoCS 2014) and LazySP
(Dellin & Srinivasa, ICAPS 2016).  Expanding a label queues one
unexecuted edge per successor at the bound its benchmark row gives, and a
popped edge runs one attempt.  An attempt below the quality threshold
re-prices its edge, as the paper's recovery step does: the edge is queued
again, its bound now counting the time its attempts have already cost, so
a sibling that has become cheaper runs before the retry.  Attempts run
from 1 to 1 + max_retries; an edge whose last attempt fails drops the path
without being queued again, while other routes through the same node stay
explorable.  Outcomes are keyed by node and attempt, so three rules in
`astar_search` spare the executor at an edge pop: a failed attempt runs
once per search, as LazySP evaluates no edge twice; a pass seen on
another prefix waits at the key of its label, as Lazy Weighted A* queues
an evaluated edge again at its true cost; and an edge a live label
already beats is not run, as BOA* drops a dominated label before it is
queued.  Under stochastic execution an edge is queued at its benchmark
bound and its label at the realized one, so the search commits to a path
without seeing the outcomes of siblings it never popped, and may return a
path an eager search, which ran every sibling, would have beaten.

A bound totals a suffix from its end, while a path's g totals it from the
root, so two paths whose times tie in decimal can sum an ulp apart.  The
search breaks bound ties depth-first, and the first sink popped ends it,
as the paper's A* stops at its first goal.  Under deterministic playback
alone, where the least g over all paths is known from the playback front,
a sink popped with other entries within a stop window, sized from the
summation error bound, makes the search pop on until it holds that
target; so there the path returned has the least g over all paths, bit
for bit, and of equal g the least time.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Iterable, Sequence
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import AlphaOutOfRange, InvalidConfig, QueueOverflow
from .execution import ExecutionTrace, Frozen, TraceEvent, playback_table, validate_quality
from .graphs import ROOT_ID, ToolSubgraph, predecessors
from .registry import BenchmarkTable, ExecutionOutcome

DEFAULT_QUALITY_THRESHOLD = 0.8
DEFAULT_MAX_RETRIES = 3
# Most entries a search queue (labels and edges) or a Pareto pass (front
# points or labels, which can grow exponentially with path length) may hold.
QUEUE_CAP = 100_000

STATUS_FOUND = "found"
STATUS_EXHAUSTED = "exhausted"

logger = logging.getLogger(__name__)


def validate_alpha(alpha: float) -> float:
    """`alpha` as a float in [0, 2]; a negative zero comes back as +0.0, so no output spells it -0."""
    if not 0.0 <= alpha <= 2.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 2], got {alpha}")
    return float(alpha) + 0.0


class SearchConfig(Frozen):
    """Search settings, checked each time one is built, copies included."""

    __slots__ = ("alpha", "quality_threshold", "max_retries")

    def __init__(
        self,
        alpha: float = 1.0,
        quality_threshold: float = DEFAULT_QUALITY_THRESHOLD,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ):
        alpha = validate_alpha(alpha)
        if not 0.0 <= quality_threshold <= 1.0:
            raise InvalidConfig(f"quality_threshold must lie in [0, 1], got {quality_threshold}")
        if max_retries < 0:
            raise InvalidConfig(f"max_retries must be non-negative, got {max_retries}")
        for name, value in zip(self.__slots__, (alpha, quality_threshold, max_retries)):
            object.__setattr__(self, name, value)

    def with_alpha(self, alpha: float) -> SearchConfig:
        return SearchConfig(alpha, self.quality_threshold, self.max_retries)


def compute_g(cum_time: float, cum_quality: float, alpha: float) -> float:
    """Realized prefix objective; the bare root, at time 0 and quality 1, is 0."""
    if cum_time == 0.0 and cum_quality == 1.0:
        return 0.0
    try:
        return cum_time**alpha * (2.0 - cum_quality) ** (2.0 - alpha)
    except OverflowError:  # a time beyond the float range
        return math.inf


# (time, quality product) pairs, ascending in both.
Front = tuple[tuple[float, float], ...]


class SuffixBounds(NamedTuple):
    """By node id: the node's benchmark (time, quality) and its suffix front."""

    rows: tuple[tuple[float, float], ...]
    fronts: tuple[Front, ...]


def benchmark_rows(graph: ToolSubgraph, bt: BenchmarkTable) -> list[tuple[float, float]]:
    """Each node's benchmark row, the table's own record, read in node-id
    order, so a missing row names the lowest node id that lacks one; the
    root, which runs no tool, is (0, 1)."""
    return [(0.0, 1.0) if node.is_root else bt.row(node.tool, node.kind) for node in graph.nodes]


def _within_capacity(count: int, holder: str) -> None:
    """Raise QueueOverflow naming `holder` once `count` exceeds QUEUE_CAP, read at each call."""
    if count > QUEUE_CAP:
        raise QueueOverflow(f"{holder} exceeded its capacity of {QUEUE_CAP} entries")


def pareto_fronts(
    rows: Sequence[tuple[float, float]],
    neighbours: Sequence[tuple[int, ...]],
    order: Iterable[int],
    threshold: float,
    holder: str,
) -> list[Front]:
    """Each node's Pareto front of (time, quality product) totalled over its neighbours.

    The one label-setting pass (NAMOA*, Mandow & Perez de la Cruz, JACM
    2010) behind both the suffix bounds (successor lists in descending id)
    and the playback front (predecessor lists in ascending id).  `order`
    visits every neighbour of a node before the node.  A node with no
    neighbours has the front ((0, 1),).  Any other node merges the fronts
    of its neighbours whose quality meets `threshold`, each shifted by that
    neighbour's row, and keeps the points no other point weakly dominates;
    so none is left when no neighbour meets it.  A front depends only on
    the neighbours, so nodes with the same neighbours share one front.  Of
    a node's neighbours that share a front, one whose row a sibling's
    weakly dominates is skipped: float `+` and `*` round monotonically, so
    each of its shifted points is weakly dominated by the sibling's at the
    same index, and the merged front holds the same values.  More than
    QUEUE_CAP points over the distinct fronts raise QueueOverflow naming
    `holder`.
    """
    fronts: list[Front] = [((0.0, 1.0),)] * len(neighbours)
    shared: dict[tuple[int, ...], Front] = {}
    points_kept = 0
    for node_id in order:
        near = neighbours[node_id]
        if not near:
            continue
        front = shared.get(near)
        if front is None:
            groups: dict[tuple[int, ...], list] = {}
            for other in near:
                c, r = rows[other]
                if r >= threshold:
                    groups.setdefault(neighbours[other], []).append((c, -r, other))
            points = []
            for group in groups.values():
                for c, neg_r, other in _non_dominated(group):
                    points += [(c + t, neg_r * q) for t, q in fronts[other]]
            front = shared[near] = tuple((t, -neg_q) for t, neg_q in _non_dominated(points))
            points_kept += len(front)
            _within_capacity(points_kept, holder)
        fronts[node_id] = front
    return fronts


def suffix_bounds(graph: ToolSubgraph, bt: BenchmarkTable) -> SuffixBounds:
    """Benchmark row and Pareto front of suffix (time, quality product) of every node.

    `pareto_fronts` over successor lists in descending node id, a reverse
    topological order, over benchmark values, independent of alpha, at
    threshold 0, so every row counts; a sink's front is ((0, 1),) and the
    root's row, which runs no tool, is (0, 1).
    """
    rows = benchmark_rows(graph, bt)
    fronts = pareto_fronts(rows, graph.successors, reversed(range(len(rows))), 0.0, "suffix-bounds pass")
    return SuffixBounds(tuple(rows), tuple(fronts))


def playback_front(graph: ToolSubgraph, rows: Sequence[tuple[float, float]], threshold: float) -> list[Front]:
    """Prefix fronts of (total time, quality product) over the paths playback completes.

    Deterministic playback returns a node's benchmark row on every attempt,
    so a node whose quality is below `threshold` fails all of them and no
    path through it completes, while every other node passes on its first.
    `pareto_fronts` runs over predecessor lists in ascending node id, a
    topological order, plus one virtual node after every sink: a node's
    front holds the totals of the paths from the root to its predecessors,
    and the virtual node's, the last, those of the whole paths.  Times add
    from 0.0 and qualities multiply from 1.0 in path order, the search's
    order, so each point is bit-identical to the totals of the search's
    label for its path.  More than QUEUE_CAP points over the distinct
    fronts raise QueueOverflow.
    """
    sinks = tuple(node_id for node_id, succs in enumerate(graph.successors) if not succs)
    neighbours = [*predecessors(graph), sinks]
    return pareto_fronts(rows, neighbours, range(len(neighbours)), threshold, "playback-front pass")


def _non_dominated(points: list[tuple]) -> list[tuple]:
    """The (time, -quality, ...) points no other point weakly dominates, in ascending time.

    Sorts `points` in place: ascending time, higher quality first among
    equal times, so a point survives only if its quality beats that of
    every faster one; of points equal in both, the first in sort order,
    which any further items decide, is kept.
    """
    points.sort()
    kept: list[tuple] = []
    for point in points:
        if not kept or point[1] < kept[-1][1]:
            kept.append(point)
    return kept


def _front_bound(front: Front, time: float, quality: float, alpha: float) -> tuple[float, float, float]:
    """(g, total time, -quality product) of the first point of `front`, the
    fastest, that reaches min over (t, q) in `front` of g(time + t, quality * q).

    The one reader of a front's least point: the search's keys, its target,
    and the least point the oracle and the sweep take.  The first point is
    the incumbent, so a front whose every g is infinite yields it.  Times
    ascend along the front, so once (time + t) ** alpha times the quality
    factor of the front's best quality reaches the best g found, no later
    point can do better.
    """
    floor = (2.0 - quality * front[-1][1]) ** (2.0 - alpha)
    best_t, best_q = front[0]
    best_total = time + best_t
    best = compute_g(best_total, quality * best_q, alpha)
    for t, q in itertools.islice(front, 1, None):  # no copy of a long front
        total = time + t
        try:
            if total**alpha * floor >= best:
                break
        except OverflowError:  # g is infinite here and at every later, larger total
            break
        g = compute_g(total, quality * q, alpha)
        if g < best:
            best, best_total, best_q = g, total, q
    return best, best_total, -(quality * best_q)


class PathStep(NamedTuple):
    node_id: int
    time_seconds: float  # all attempts for this node on this path
    quality: float  # quality of the final (accepted) attempt
    attempts: int


class PathState(NamedTuple):
    """A returned root-to-leaf path; the search itself keeps `_Label`s."""

    node_ids: tuple[int, ...]
    steps: tuple[PathStep, ...]
    cum_time: float
    cum_quality: float
    g: float


class SearchStats(NamedTuple):
    """Deterministic work counters of one search.

    Expanding a label queues one unexecuted edge per successor.  Popping an
    edge runs one attempt: the first attempt of an edge is one `generated`
    path, and each later one, popped after a failed attempt queued the edge
    again, is one of the `retries`.  So `executions == generated +
    retries`, which is also the number of trace events.  An attempt the
    failure memo spares counts in none of these and writes no event, but
    an edge whose last attempt it spares still counts in
    `dropped_after_retries`.  A seen pass queued again counts nowhere but
    in `peak_frontier`, and counts as above if it runs.  A generated path
    is then dropped after its retries, pruned by dominance, queued, or left
    waiting for a retry that goes stale.  `stale_pops` are queued labels
    and edges whose label a later label dominated; they are skipped, so a
    stale label is not `expanded` and a stale edge, first attempt or retry,
    never runs.  `expanded` counts every live label popped, sinks included,
    and so, under playback, those popped after the first sink on the way to
    the target; an edge the dominance check drops is counted nowhere, as it
    never runs.  So `pruned_by_dominance` reads 0 under every `Simulator`: it
    counts a label only when the executor returns another outcome for a
    (node, attempt) it has already run than the one the search kept.
    `peak_frontier` counts queued labels and edges together.
    """

    executions: int = 0
    expanded: int = 0
    generated: int = 0
    pruned_by_dominance: int = 0
    stale_pops: int = 0
    retries: int = 0
    dropped_after_retries: int = 0
    peak_frontier: int = 0


class PlanResult(NamedTuple):
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
                # A sink's front is ((0, 1),), so the bound a path was popped at is its g.
                "f": self.path.g,
            }
        return {
            "status": self.status,
            "alpha": self.alpha,
            "path": path_rows,
            "totals": totals,
            "expanded_count": self.expanded_count,
            "stats": self.stats._asdict(),
        }


_Edge = tuple[int, int, float]


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


def _beaten(labels: list[_Label], time: float, quality: float) -> bool:
    """Whether one of a node's live `labels` is at least as good as (time, quality) on both coordinates."""
    for label in labels:
        if label.time <= time and label.quality >= quality:
            return True
    return False


def _admit(
    labels: list[_Label], time: float, quality: float, step: PathStep, parent: _Label | None
) -> _Label | None:
    """Add (time, quality) to a node's non-dominated labels.

    Returns None when `_beaten`, so an equal label loses to the one that
    came first.  Otherwise the labels the new one dominates are marked dead
    and removed, and the new label is returned.
    """
    if _beaten(labels, time, quality):
        return None
    for label in labels:
        if time <= label.time and quality >= label.quality:
            label.alive = False
    labels[:] = [label for label in labels if label.alive]
    new = _Label(time, quality, step, parent)
    labels.append(new)
    return new


def _path(label: _Label, alpha: float) -> PathState:
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
    )


def astar_search(
    graph: ToolSubgraph,
    bounds: SuffixBounds,
    executor,
    cfg: SearchConfig,
) -> PlanResult:
    """Best-first search returning the first sink label popped, or under playback the least.

    The queue holds labels and unexecuted edges.  Popping a label that does
    not end at a sink expands it: each successor's edge is queued at the
    bound of the label extended by that successor's benchmark row.  Popping
    an edge runs one attempt of its successor and adds its time to the one
    running total the edge carries: the time spent on the successor so far.
    An attempt that meets the quality threshold is queued as a new label at
    the bound of its realized (cum_time, cum_quality), the label's time plus
    that total; a passing retry's trace event records the realized g of that
    label as `g_path`.  A failed attempt, if fewer than 1 + max_retries have
    run, queues the edge again with its next attempt number, at the bound of
    the label extended by the time spent so far plus the successor's
    benchmark row; after the last attempt the successor is dropped.  A
    prefix whose label at its node is weakly dominated by a live label
    there is dropped; queued labels and edges whose label a newer label
    dominates are skipped when popped.

    Three rules spare the executor at an edge pop.  The search keeps the
    first outcome the executor returned for each (successor, attempt).
    Dominance check: the edge is dropped unrun when a live label at its
    successor has time at most and quality at least the least label the
    edge can make: if the kept outcome of its attempt passed, that
    outcome's label, (label time + (running total + outcome time), label
    quality * outcome quality), the arithmetic and order used after a run;
    otherwise (label time + running total, label quality).  Failure memo:
    an attempt whose kept outcome failed is not run again; its time is
    added to the running total and the edge is queued again at the
    re-priced key, or dropped after the last attempt, as if it had run,
    with no trace event.  Seen pass: an attempt whose kept outcome passed
    is queued again, with the same progress and not run, at its label's
    key if that ranks above the popped key; otherwise it runs, since a
    pass's output is its own prefix's next input.  The rules rest on
    outcomes keyed by node and attempt, with time >= 0 and quality <= 1.
    `test_search_returns_what_running_every_edge_returns` checks them
    against `tests/oracles.py`'s `eager_search`, which runs every popped
    edge: the status, path, totals, g and `expanded` are the same and no
    count of runs is higher, except where entries tie on the whole key
    (`test_a_tie_on_the_whole_key_can_part_the_search_from_the_eager_reference`).
    Under deterministic playback a seen pass's key is the popped key, bit
    for bit, and no edge waits.

    Queue order is (f, t_f, -q_f, -progress, insertion counter), so runs
    replay exactly.  (t_f, q_f) are the totals of the fastest completion
    that reaches f; so of sinks at equal g the fastest pops first.  A label
    at depth d has progress 2d and an edge into depth d 2d - 1: at a tie the
    deepest entry goes first, a label before the edges it queues wait
    behind, so a tie is followed down one branch, as depth-first
    tie-breaking does (Asai & Fukunaga, JAIR 2017), instead of running
    every order of an order diamond.

    The first sink popped ends the search, unless `executor` plays back a
    table (`playback_table`).  Under playback the sink becomes the
    incumbent, ranked by (g, time, -quality).  A bound totals a suffix from
    its end and a path's g totals it from the root; for n positive terms
    the two sums differ by at most about (n - 1) u relative (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 4), and g
    raises time and quality factor to powers totalling 2.  So the stop
    window reaches up to the incumbent's g times 1 + eps, eps being 8n + 16
    units of roundoff, n the node count, which covers that twice with room
    for `pow`'s own rounding: no entry beyond it can beat the incumbent.
    If an entry lies within the window, the target is built once: the
    least (g, time, -quality) over the whole-path front of the bounds' rows,
    the played-back table's, at the search's threshold (`playback_front`),
    whose points hold the bits of the search's labels.  The search then pops on while the
    least f is within the window, a sink replacing the incumbent if it
    ranks lower, and stops once the incumbent's key is the target.  So
    under playback the returned path has the least g over all paths, bit
    for bit, and of equal g the least time, then the highest quality.
    """
    rows, fronts, successors = bounds.rows, bounds.fronts, graph.successors
    events: list[TraceEvent] = []
    alpha, threshold = cfg.alpha, cfg.quality_threshold
    slack = 1.0 + (8 * len(rows) + 16) * 2.0**-53
    counter = itertools.count()
    stats = dict.fromkeys(SearchStats._fields, 0)
    labels: list[list[_Label]] = [[] for _ in graph.nodes]
    # (f, t_f, -q_f, -progress, insertion counter, label, edge or None).  An edge is
    # (successor id, next attempt, time its earlier attempts have spent on the successor).
    heap: list[tuple[float, float, float, int, int, _Label, _Edge | None]] = []
    best: _Label | None = None
    best_key = (math.inf, math.inf, 0.0)
    limit = math.inf  # the stop window's upper end, once a sink has popped

    def push(key: tuple[float, float, float], neg_progress: int, label: _Label, edge: _Edge | None) -> None:
        heappush(heap, (*key, neg_progress, next(counter), label, edge))
        stats["peak_frontier"] = max(stats["peak_frontier"], len(heap))
        _within_capacity(len(heap), "search queue")

    # (successor id, attempt) -> the first outcome the executor returned for it in this search.
    outcomes: dict[tuple[int, int], ExecutionOutcome] = {}
    playback = playback_table(executor) is not None
    target = None  # under playback, the least (g, time, -quality) over all paths, built when first needed

    root = _admit(labels[ROOT_ID], 0.0, 1.0, PathStep(ROOT_ID, 0.0, 1.0, 0), None)
    push(_front_bound(fronts[ROOT_ID], 0.0, 1.0, alpha), 0, root, None)
    while heap and heap[0][0] <= limit:
        f, t_f, neg_q_f, neg_progress, _, label, edge = heappop(heap)
        if not label.alive:
            stats["stale_pops"] += 1
            continue
        if edge is None:
            stats["expanded"] += 1
            last = label.step.node_id
            if not successors[last]:
                key = (f, t_f, neg_q_f)  # a sink's front is ((0, 1),), so its key is (g, time, -quality)
                if key < best_key:
                    best, best_key, limit = label, key, key[0] * slack
                if target is None and playback and heap and heap[0][0] <= limit:
                    front = playback_front(graph, rows, threshold)[-1]
                    target = _front_bound(front, 0.0, 1.0, alpha)
                if target is None or target == best_key:
                    break
                continue
            for succ in successors[last]:
                c, q = rows[succ]
                key = _front_bound(fronts[succ], label.time + c, label.quality * q, alpha)
                push(key, neg_progress - 1, label, (succ, 1, 0.0))
            continue

        succ, attempt, spent = edge
        outcome = outcomes.get((succ, attempt))
        passed = outcome is not None and validate_quality(outcome, threshold)
        # The least label the edge can make: a seen pass's own, else the prefix before the attempt.
        if passed:
            time, quality = label.time + (spent + outcome.time_seconds), label.quality * outcome.quality
        else:
            time, quality = label.time + spent, label.quality
        if _beaten(labels[succ], time, quality):
            continue
        if passed:
            # A pass seen on another prefix: run it only once the label it makes would pop.
            key = _front_bound(fronts[succ], time, quality, alpha)
            if key > (f, t_f, neg_q_f):
                push(key, neg_progress, label, edge)
                continue
        if outcome is None or passed:
            outcome = executor(graph.nodes[succ], attempt)
            outcomes.setdefault((succ, attempt), outcome)
            stats["executions"] += 1
            stats["generated" if attempt == 1 else "retries"] += 1
            passed = validate_quality(outcome, threshold)
            if not passed:
                events.append(TraceEvent(succ, attempt, outcome.time_seconds, outcome.quality, "fail"))
        spent += outcome.time_seconds
        if not passed:
            if attempt > cfg.max_retries:
                stats["dropped_after_retries"] += 1
                continue
            # The retry waits its turn, priced with the time this node has already cost.
            c, q = rows[succ]
            key = _front_bound(fronts[succ], label.time + spent + c, label.quality * q, alpha)
            push(key, neg_progress, label, (succ, attempt + 1, spent))
            continue

        cum_time = label.time + spent
        cum_quality = label.quality * outcome.quality
        g_path = compute_g(cum_time, cum_quality, alpha) if attempt > 1 else None
        events.append(TraceEvent(succ, attempt, outcome.time_seconds, outcome.quality, "pass", g_path))

        step = PathStep(succ, spent, outcome.quality, attempt)
        succ_label = _admit(labels[succ], cum_time, cum_quality, step, label)
        if succ_label is None:
            stats["pruned_by_dominance"] += 1
            continue
        push(_front_bound(fronts[succ], cum_time, cum_quality, alpha), neg_progress - 1, succ_label, None)

    status, path = (STATUS_EXHAUSTED, None) if best is None else (STATUS_FOUND, _path(best, alpha))
    result = PlanResult(status, alpha, path, ExecutionTrace(tuple(events)), SearchStats(**stats))
    logger.debug("search at alpha=%s %s: %s", alpha, status, result.stats)
    return result
