from __future__ import annotations

import json
import logging
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    attempts_for,
    dijkstra_min_time,
    eager_search,
    enumerate_paths,
    enumerate_then_score,
    merge_every_successor_fronts,
    path_objective,
    path_totals,
    sinks,
)
from synth import (
    build_payload,
    built_instance,
    chain_instance,
    detection_graph,
    random_plan_graph,
    tradeoff_chain_instance,
)
from toolpath.errors import AlphaOutOfRange, InvalidConfig, MissingBenchmark, QueueOverflow
from toolpath.evaluation import brute_force_optimal
from toolpath.execution import (
    DEFAULT_SEED,
    ExecutionOutcome,
    Simulator,
    SimulatorSpec,
    TraceEvent,
    add_left_to_right,
)
from toolpath.graphs import ROOT_ID, build_tool_subgraph, predecessors
from toolpath.planning import parse_subtask_tree
from toolpath.registry import BenchmarkTable, load_benchmark, load_mdt
from toolpath.search import (
    DEFAULT_MAX_RETRIES,
    STATUS_EXHAUSTED,
    PathStep,
    SearchConfig,
    _admit,
    _front_bound,
    _non_dominated,
    astar_search,
    benchmark_rows,
    compute_g,
    suffix_bounds,
    validate_alpha,
)

ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0)


def _unit_bt(bt: BenchmarkTable) -> BenchmarkTable:
    return BenchmarkTable(
        rows={
            k: ExecutionOutcome(r.time_seconds, 1.0) for k, r in bt.rows.items()
        }
    )


def _run(graph, bt, alpha=1.0, sim=None, **cfg_kwargs):
    cfg = SearchConfig(alpha=alpha, **cfg_kwargs)
    simulator = sim if sim is not None else Simulator(SimulatorSpec(mode="deterministic"), bt, DEFAULT_SEED)
    return astar_search(graph, suffix_bounds(graph, bt), simulator, cfg)


# ---------------------------------------------------------------- compute_g


def test_compute_g_spot_values():
    assert compute_g(0.0062 + 0.046, 0.82 * 1.0, 1.0) == pytest.approx(0.061596, abs=1e-9)
    assert compute_g(0.0062 + 0.046, 0.82 * 1.0, 2.0) == pytest.approx(0.00272484, abs=1e-9)
    assert compute_g(0.0, 1.0, 0.0) == 0.0
    assert compute_g(0.0, 1.0, 1.7) == 0.0


def test_compute_g_exponent_boundaries():
    # alpha=2 ignores quality; alpha=0 ignores time
    assert compute_g(3.0, 0.4, 2.0) == 9.0
    assert compute_g(3.0, 0.4, 0.0) == pytest.approx((2 - 0.4) ** 2)
    assert compute_g(123.0, 1.0, 0.0) == 1.0


def test_validate_alpha_domain():
    validate_alpha(0.0)
    validate_alpha(2.0)
    with pytest.raises(AlphaOutOfRange):
        validate_alpha(-0.1)
    with pytest.raises(AlphaOutOfRange):
        validate_alpha(2.01)
    with pytest.raises(AlphaOutOfRange):
        SearchConfig(alpha=3.0)


@pytest.mark.parametrize(
    "kwargs",
    [{"quality_threshold": 1.5}, {"quality_threshold": float("nan")}, {"max_retries": -1}],
)
def test_search_config_rejects_bad_settings(kwargs):
    with pytest.raises(InvalidConfig) as info:
        SearchConfig(**kwargs)
    assert isinstance(info.value, ValueError)


# ---------------------------------------------------------------- search


def test_single_chain_returned_whole(data_dir, full_tables):
    mdt, bt = full_tables
    tree = parse_subtask_tree((data_dir / "tree_single_deblur.json").read_text())
    graph = build_tool_subgraph(tree, mdt)
    res = _run(graph, bt, alpha=1.0)
    assert res.found
    assert res.path.node_ids == (0, 1)
    assert res.expanded_count == 2
    assert res.path.cum_time == 0.85


def test_detection_fixture_alpha_tradeoff(detection_fixture):
    graph, bt = detection_fixture
    fast = _run(graph, bt, alpha=2.0)
    good = _run(graph, bt, alpha=0.0)
    assert [graph.nodes[i].tool for i in fast.path.node_ids[1:]] == [
        "YOLOv7",
        "SAM",
        "Stable Diffusion Inpaint",
    ]
    assert [graph.nodes[i].tool for i in good.path.node_ids[1:]] == [
        "Grounding DINO",
        "SAM",
        "Stable Diffusion Inpaint",
    ]
    # matches 2-branch enumeration of the objective
    for alpha, res in ((2.0, fast), (0.0, good)):
        objs = {p: path_objective(graph, bt, p, alpha) for p in enumerate_paths(graph)}
        assert path_objective(graph, bt, res.path.node_ids, alpha) == min(objs.values())


@pytest.mark.parametrize("alpha", (1.0, 1.5, 2.0))
def test_unit_quality_corner_is_time_optimal(alpha):
    # For alpha >= 1 the suffix estimate never overshoots (power
    # superadditivity), so the first leaf popped is exactly time-optimal.
    for seed in range(60):
        graph, bt, *_ = built_instance(seed, unit_quality=True)
        res = _run(graph, bt, alpha=alpha)
        assert res.found
        got = sum(
            bt.row(graph.nodes[i].tool, graph.nodes[i].kind).time_seconds
            for i in res.path.node_ids
            if not graph.nodes[i].is_root
        )
        assert got == dijkstra_min_time(graph, bt)


def test_monotone_pops_at_alpha1_unit_quality():
    # At alpha=1 with unit quality the heuristic is consistent, so popped f
    # values never decrease (up to float regrouping of the time sums).
    import heapq

    from toolpath import search as search_mod

    popped_fs: list[float] = []
    original_pop = heapq.heappop

    def spy_pop(heap):
        item = original_pop(heap)
        popped_fs.append(item[0])
        return item

    for seed in range(10):
        popped_fs.clear()
        graph, bt, *_ = built_instance(seed, unit_quality=True)
        try:
            search_mod.heappop = spy_pop
            res = _run(graph, bt, alpha=1.0)
        finally:
            search_mod.heappop = original_pop
        assert res.found
        for before, after in zip(popped_fs, popped_fs[1:]):
            assert after >= before - 1e-12 * max(1.0, abs(before))


def test_time_scale_invariance_of_returned_path(detection_fixture):
    graph, bt = detection_fixture
    for alpha in ALPHAS:
        base = _run(graph, bt, alpha=alpha).path.node_ids
        for k in (0.5, 2.0, 10.0):
            scaled = BenchmarkTable(
                rows={
                    key: ExecutionOutcome(r.time_seconds * k, r.quality)
                    for key, r in bt.rows.items()
                }
            )
            assert _run(graph, scaled, alpha=alpha).path.node_ids == base


def test_queue_overflow(detection_fixture, monkeypatch):
    import toolpath.search as search

    graph, bt = detection_fixture
    bounds = suffix_bounds(graph, bt)  # its fronts hold 4 points, above the cap set next
    monkeypatch.setattr(search, "QUEUE_CAP", 1)
    simulator = Simulator(SimulatorSpec(mode="deterministic"), bt, DEFAULT_SEED)
    with pytest.raises(QueueOverflow, match="^search queue exceeded its capacity of 1 entries$"):
        astar_search(graph, bounds, simulator, SearchConfig())


def test_suffix_bounds_capacity_boundary(monkeypatch):
    """The distinct fronts of a 4-stage trade-off chain hold 2 + 4 + 8 + 16 = 30 points.

    Every path is Pareto-optimal, so the root's front holds all 16 of them.
    """
    import toolpath.search as search

    graph, bt, *_ = build_payload(tradeoff_chain_instance(4))
    monkeypatch.setattr(search, "QUEUE_CAP", 30)
    assert len(suffix_bounds(graph, bt).fronts[0]) == 16
    monkeypatch.setattr(search, "QUEUE_CAP", 29)
    with pytest.raises(QueueOverflow, match="^suffix-bounds pass exceeded its capacity of 29 entries$"):
        suffix_bounds(graph, bt)


# ---------------------------------------------------------------- retries


def _scripted_two_branch():
    """ROOT -> {A, B}; A is preferred but fails forever, B always passes."""
    mdt_payload = [
        {"tool": "A", "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["Bounding Boxes"]},
        {"tool": "B", "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["Bounding Boxes"]},
    ]
    from toolpath.registry import parse_benchmark, parse_mdt

    mdt = parse_mdt(json.dumps(mdt_payload))
    bt = parse_benchmark(
        json.dumps(
            [
                {"tool": "A", "subtask": "Object Detection", "time_seconds": 1.0, "quality": 1.0},
                {"tool": "B", "subtask": "Object Detection", "time_seconds": 5.0, "quality": 1.0},
            ]
        ),
        mdt,
    )
    tree = parse_subtask_tree(
        json.dumps({"task": "t", "subtask_tree": [{"subtask": "Object Detection (X)(1)", "parent": []}]})
    )
    graph = build_tool_subgraph(tree, mdt)
    return graph, bt


def test_retry_succeeds_on_second_attempt():
    graph, bt = _scripted_two_branch()
    node_a = next(n for n in graph.nodes if n.tool == "A")
    script = {
        ("A", "Object Detection", 1): (1.0, 0.5),
        ("A", "Object Detection", 2): (1.5, 0.9),
        ("B", "Object Detection", 1): (5.0, 1.0),
    }
    sim = Simulator(SimulatorSpec(mode="scripted", script=script), bt, seed=0)
    res = _run(graph, bt, alpha=1.0, sim=sim, quality_threshold=0.8, max_retries=3)
    assert res.found and res.path.node_ids == (0, node_a.node_id)
    step = res.path.steps[-1]
    assert step.attempts == 2
    assert step.quality == 0.9
    events = [e for e in res.trace.events if e.node_id == node_a.node_id]
    assert [(e.attempt, e.decision) for e in events] == [(1, "fail"), (2, "pass")]
    assert events[-1].time_seconds == 1.5  # the retry's time, on top of the first
    assert res.stats.retries == 1


def test_retry_exhaustion_attempt_count():
    graph, bt = _scripted_two_branch()
    node_a = next(n for n in graph.nodes if n.tool == "A")
    script = {("A", "Object Detection", k): (1.0, 0.1) for k in range(1, 5)}
    script[("B", "Object Detection", 1)] = (5.0, 1.0)
    sim = Simulator(SimulatorSpec(mode="scripted", script=script), bt, seed=0)
    res = _run(graph, bt, alpha=1.0, sim=sim, quality_threshold=0.8, max_retries=3)
    assert node_a.node_id not in res.path.node_ids
    events = [e for e in res.trace.events if e.node_id == node_a.node_id]
    assert len(events) == 4  # 1 original + 3 retries
    assert all(e.decision == "fail" for e in events)
    assert sum(e.time_seconds for e in events if e.attempt > 1) == pytest.approx(3.0)
    assert res.stats.dropped_after_retries == 1


def test_failing_branch_falls_back_to_sibling():
    graph, bt = _scripted_two_branch()
    script = {("A", "Object Detection", k): (1.0, 0.1) for k in range(1, 5)}
    script[("B", "Object Detection", 1)] = (5.0, 1.0)
    sim = Simulator(SimulatorSpec(mode="scripted", script=script), bt, seed=0)
    res = _run(graph, bt, alpha=1.0, sim=sim, max_retries=3)
    assert res.found
    assert [graph.nodes[i].tool for i in res.path.node_ids[1:]] == ["B"]
    # A was invoked exactly 1 + max_retries times and never re-queued
    node_a = next(n for n in graph.nodes if n.tool == "A")
    assert attempts_for(res.trace, node_a.node_id) == 4
    # total trace time includes the failed attempts
    assert res.trace.total_time == pytest.approx(4 * 1.0 + 5.0)


def test_zero_max_retries_drops_after_single_attempt():
    graph, bt = _scripted_two_branch()
    script = {
        ("A", "Object Detection", 1): (1.0, 0.1),
        ("B", "Object Detection", 1): (5.0, 1.0),
    }
    sim = Simulator(SimulatorSpec(mode="scripted", script=script), bt, seed=0)
    res = _run(graph, bt, alpha=1.0, sim=sim, max_retries=0)
    assert [graph.nodes[i].tool for i in res.path.node_ids[1:]] == ["B"]
    node_a = next(n for n in graph.nodes if n.tool == "A")
    assert attempts_for(res.trace, node_a.node_id) == 1


def test_threshold_equality_passes_without_retry():
    graph, bt = _scripted_two_branch()
    script = {
        ("A", "Object Detection", 1): (1.0, 0.8),
        ("B", "Object Detection", 1): (5.0, 1.0),
    }
    sim = Simulator(SimulatorSpec(mode="scripted", script=script), bt, seed=0)
    res = _run(graph, bt, alpha=1.0, sim=sim, quality_threshold=0.8)
    assert [graph.nodes[i].tool for i in res.path.node_ids[1:]] == ["A"]
    node_a = next(n for n in graph.nodes if n.tool == "A")
    assert attempts_for(res.trace, node_a.node_id) == 1


def test_retry_updates_path_g_consistently():
    graph, bt = _scripted_two_branch()
    script = {
        ("A", "Object Detection", 1): (1.0, 0.5),
        ("A", "Object Detection", 2): (1.5, 0.9),
        ("B", "Object Detection", 1): (50.0, 1.0),
    }
    sim = Simulator(SimulatorSpec(mode="scripted", script=script), bt, seed=0)
    res = _run(graph, bt, alpha=1.0, sim=sim)
    assert [graph.nodes[i].tool for i in res.path.node_ids[1:]] == ["A"]
    step = res.path.steps[-1]
    assert step.attempts == 2
    assert step.time_seconds == pytest.approx(2.5)  # both attempts on the path
    assert step.quality == 0.9
    assert res.path.g == pytest.approx(compute_g(2.5, 0.9, 1.0))
    # the passing retry's trace event carries the realized g of the path
    node_a = next(n for n in graph.nodes if n.tool == "A")
    final_event = [e for e in res.trace.events if e.node_id == node_a.node_id][-1]
    assert final_event.g_path == pytest.approx(res.path.g)


def test_cheaper_sibling_runs_between_attempts_of_a_failing_node():
    """ROOT -> {A, B}, alpha 1: A is cheaper on paper (1 s against 2.5 s).

    A's first attempt takes 2 s and fails, so its retry is queued at
    2 + 1 = 3 s, behind B.  B runs next and passes, but slowly (4 s), so
    its label waits behind A's retry, which passes in 0.5 s: A is returned
    after 2.5 s, and B ran between A's two attempts.
    """
    a, b = 1, 2
    graph, bt = detection_graph({"A": (1.0, 1.0), "B": (2.5, 1.0)}, {(0, a), (0, b)})
    ran = {("A", 1): (2.0, 0.5), ("A", 2): (0.5, 0.9), ("B", 1): (4.0, 1.0)}

    def executor(node, attempt):
        return ExecutionOutcome(*ran[node.tool, attempt])

    res = _run(graph, bt, alpha=1.0, sim=executor, quality_threshold=0.8)
    assert [(e.node_id, e.attempt, e.decision) for e in res.trace.events] == [
        (a, 1, "fail"),
        (b, 1, "pass"),
        (a, 2, "pass"),
    ]
    assert res.path.node_ids == (0, a)
    assert res.path.steps[-1] == PathStep(a, 2.5, 0.9, 2)
    assert res.path.g == compute_g(2.5, 0.9, 1.0)
    assert (res.stats.generated, res.stats.retries, res.stats.executions) == (2, 1, 3)


def test_all_paths_failing_exhausts():
    graph, bt = _scripted_two_branch()
    script = {("A", "Object Detection", k): (1.0, 0.1) for k in range(1, 5)}
    script.update({("B", "Object Detection", k): (5.0, 0.2) for k in range(1, 5)})
    sim = Simulator(SimulatorSpec(mode="scripted", script=script), bt, seed=0)
    res = _run(graph, bt, alpha=1.0, sim=sim)
    assert res.status == STATUS_EXHAUSTED
    assert res.path is None


# ---------------------------------------------------------------- result


def test_plan_result_json_shape(detection_fixture):
    graph, bt = detection_fixture
    res = _run(graph, bt, alpha=2.0)
    payload = res.to_json_dict(graph)
    assert payload["status"] == "found"
    assert payload["alpha"] == 2.0
    assert payload["path"][0]["tool"] == "ROOT"
    assert {"tool", "subtask", "c", "q", "attempts"} <= set(payload["path"][1])
    assert payload["totals"]["time"] == pytest.approx(res.path.cum_time)
    assert payload["expanded_count"] == res.expanded_count


# ------------------------------------------------- suffix bounds and labels


def _suffix_extrema(graph, bt):
    """Independent DP: (min suffix time sum, max suffix quality product)."""
    n = len(graph.nodes)
    min_time = [0.0] * n
    max_quality = [1.0] * n
    predecessors = [[] for _ in range(n)]
    for i, succs in enumerate(graph.successors):
        for j in succs:
            predecessors[j].append(i)
    order = []
    outdeg = [len(s) for s in graph.successors]
    ready = [i for i in range(n) if outdeg[i] == 0]
    while ready:
        i = ready.pop()
        order.append(i)
        for j in predecessors[i]:
            outdeg[j] -= 1
            if outdeg[j] == 0:
                ready.append(j)
    for i in order:
        if not graph.successors[i]:
            continue
        times, qualities = [], []
        for j in graph.successors[i]:
            node = graph.nodes[j]
            row = bt.row(node.tool, node.kind)
            times.append(row.time_seconds + min_time[j])
            qualities.append(row.quality * max_quality[j])
        min_time[i] = min(times)
        max_quality[i] = max(qualities)
    return min_time, max_quality


def test_suffix_bounds_match_independent_dp():
    for seed in range(40):
        graph, bt = random_plan_graph(seed)
        min_time, max_quality = _suffix_extrema(graph, bt)
        fronts = suffix_bounds(graph, bt).fronts
        got_min_time = [front[0][0] for front in fronts]
        got_max_quality = [front[-1][1] for front in fronts]
        assert got_min_time == pytest.approx(min_time, rel=1e-12, abs=1e-300)
        assert got_max_quality == pytest.approx(max_quality, rel=1e-12, abs=1e-300)
        for leaf in sinks(graph):
            assert fronts[leaf] == ((0.0, 1.0),)


def _enumerated_front(graph, bt, node_id):
    """Pareto filter of every suffix from `node_id`, summed from the sink up."""
    points = set()
    stack = [(node_id, ())]
    while stack:
        i, rows = stack.pop()
        if not graph.successors[i]:
            t, q = 0.0, 1.0
            for row in reversed(rows):
                t, q = row.time_seconds + t, row.quality * q
            points.add((t, q))
            continue
        for j in graph.successors[i]:
            node = graph.nodes[j]
            stack.append((j, rows + (bt.row(node.tool, node.kind),)))
    front = [
        p for p in points
        if not any(o != p and o[0] <= p[0] and o[1] >= p[1] for o in points)
    ]
    return tuple(sorted(front))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=299), unit_quality=st.booleans())
def test_suffix_fronts_are_pareto_filters_of_enumerated_suffixes(seed, unit_quality):
    graph, bt, *_ = built_instance(seed, unit_quality=unit_quality)
    fronts = suffix_bounds(graph, bt).fronts
    for node_id in range(len(graph.nodes)):
        assert fronts[node_id] == _enumerated_front(graph, bt, node_id)


def _hex_fronts(fronts) -> list[list[tuple[str, str]]]:
    return [[(t.hex(), q.hex()) for t, q in front] for front in fronts]


CHAIN_SHAPES = [(0, 2, 2), (1, 3, 5), (2, 4, 3), (3, 6, 2), (4, 5, 6), (5, 2, 9), (6, 8, 4)]


@settings(max_examples=60, deadline=None)
@given(
    instance=st.one_of(
        st.tuples(st.integers(min_value=0, max_value=1999), st.booleans()).map(lambda a: built_instance(*a)),
        st.sampled_from(CHAIN_SHAPES).map(lambda shape: build_payload(chain_instance(*shape))),
    )
)
def test_suffix_fronts_match_merging_every_successor(instance):
    """Skipping a successor a sibling dominates leaves every front's bits as they were."""
    graph, bt, *_ = instance
    assert _hex_fronts(suffix_bounds(graph, bt).fronts) == _hex_fronts(merge_every_successor_fronts(graph, bt))


# Root -> {1, 2} -> {3, 4}: both middle nodes lead to the same sinks.
_SHARED_JOIN = {(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)}


@pytest.mark.parametrize(
    ("rows", "edges", "root_front"),
    [
        # exactly tied rows: one of each pair is skipped, and the values stay
        (
            {"A": (1.5, 0.9), "B": (1.5, 0.9), "C": (0.25, 0.5), "D": (0.25, 0.5)},
            _SHARED_JOIN,
            ((1.75, 0.45),),
        ),
        # B is as fast as A but worse, D as fast as C but worse
        (
            {"A": (1.5, 0.9), "B": (1.5, 0.8), "C": (0.25, 0.5), "D": (0.25, 0.25)},
            _SHARED_JOIN,
            ((1.75, 0.45),),
        ),
        # sinks share ((0, 1),): C is beaten by B, and A and B trade off
        (
            {"A": (1.0, 0.5), "B": (2.0, 0.9), "C": (3.0, 0.8)},
            {(0, 1), (0, 2), (0, 3)},
            ((1.0, 0.5), (2.0, 0.9)),
        ),
        # the time sums overflow to inf: A is skipped for B, whose point is (inf, 0.95)
        (
            {"A": (1.7e308, 0.9), "B": (1.7e308, 0.95), "C": (1.7e308, 1.0)},
            {(0, 1), (0, 2), (1, 3), (2, 3)},
            ((math.inf, 0.95),),
        ),
        # neither row dominates, but both sums overflow, so only the better quality is kept
        (
            {"A": (1.6e308, 0.99), "B": (1.7e308, 0.95), "C": (1.7e308, 1.0)},
            {(0, 1), (0, 2), (1, 3), (2, 3)},
            ((math.inf, 0.99),),
        ),
    ],
    ids=["exact-tie", "equal-time-lower-quality", "shared-sink-front", "overflow", "overflow-tie"],
)
def test_suffix_fronts_skip_dominated_siblings_exactly(rows, edges, root_front):
    graph, bt = detection_graph(rows, edges)
    fronts = suffix_bounds(graph, bt).fronts
    assert fronts[0] == root_front
    assert _hex_fronts(fronts) == _hex_fronts(merge_every_successor_fronts(graph, bt))


@pytest.mark.parametrize(
    ("shape", "merged", "skipped"),
    [((1, 24, 16), 59_488, 11_511), ((1, 10, 6), 618, 257), ((1, 8, 8), 720, 240)],
)
def test_suffix_pass_shifts_only_undominated_siblings(shape, merged, skipped, monkeypatch):
    """Shifted points the pass filters, counted where it filters them: on a full chain
    join every node of a stage has the same successors, so only the stage's
    undominated rows are shifted."""
    import toolpath.search as search

    shifted = [0]
    non_dominated = search._non_dominated

    def counting(points):
        if len(points[0]) == 2:  # shifted (time, -quality) points, not a group's (c, -r, succ) rows
            shifted[0] += len(points)
        return non_dominated(points)

    monkeypatch.setattr(search, "_non_dominated", counting)
    graph, bt, *_ = build_payload(chain_instance(*shape))
    merge_every_successor_fronts(graph, bt)
    assert shifted[0] == merged
    shifted[0] = 0
    suffix_bounds(graph, bt)
    assert shifted[0] == skipped


_TIMES = st.one_of(st.sampled_from([0.0, 0.5, 1e154, 1e300, math.inf]), st.floats(min_value=0.0, max_value=10.0))
_QUALITIES = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(st.tuples(_TIMES, _QUALITIES), min_size=1, max_size=8),
    alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(min_value=0.0, max_value=2.0)),
)
@example(points=[(1e300, 0.5), (math.inf, 1.0)], alpha=2.0)  # every g overflows
def test_front_bound_from_the_root_reads_the_least_point(points, alpha):
    """From the bare root `_front_bound` returns the g, time and -quality of the
    front's first point of least g, bit for bit, as `min` picks it."""
    front = tuple((t, -neg_q) for t, neg_q in _non_dominated([(t, -q) for t, q in points]))
    time, quality = min(front, key=lambda point: compute_g(point[0], point[1], alpha))
    expected = (compute_g(time, quality, alpha), time, -quality)
    assert [x.hex() for x in _front_bound(front, 0.0, 1.0, alpha)] == [x.hex() for x in expected]


def test_suffix_bounds_missing_benchmark():
    graph, bt = random_plan_graph(0)
    rows = dict(bt.rows)
    rows.popitem()
    with pytest.raises(MissingBenchmark):
        suffix_bounds(graph, BenchmarkTable(rows=rows))


def test_label_rules():
    labels = []
    step = PathStep(node_id=1, time_seconds=1.0, quality=0.9, attempts=1)
    first = _admit(labels, 2.0, 0.9, step, None)
    assert first is not None
    # weakly dominated (equal time, lower quality) and equal labels are dropped
    assert _admit(labels, 2.0, 0.8, step, None) is None
    assert _admit(labels, 2.0, 0.9, step, None) is None
    assert [(x.time, x.quality) for x in labels] == [(2.0, 0.9)]
    # a trade-off label is kept beside the first
    other = _admit(labels, 1.0, 0.5, step, None)
    assert other is not None and first.alive and other.alive
    # a label dominating both kills them and is the only one left
    best = _admit(labels, 1.0, 0.95, step, None)
    assert not first.alive and not other.alive
    assert labels == [best]


def _dominated_queued_state_run(leaf_time):
    """ROOT -> {A, B} -> X -> L, and A -> Z with Z failing every attempt; alpha 2; L runs in `leaf_time`.

    Z's optimistic suffix time lets A pop before B.  X runs in 2, not its
    benchmark 1, so the label through A reaches X and is queued above B's
    edge; B runs in 1, not its benchmark 1.5, and its path reaches X as fast
    and at a better quality.  That kills the queued label through A, which
    is never expanded: it ties with the label through B on the bound, and
    of the two B's better quality pops first.
    """
    a, b, x, leaf, z = range(1, 6)
    rows = {"A": (1.0, 0.9), "B": (1.5, 1.0), "X": (1.0, 1.0), "L": (1.0, 1.0), "Z": (0.1, 0.5)}
    graph, bt = detection_graph(rows, {(0, a), (0, b), (a, x), (a, z), (b, x), (x, leaf)})
    ran = {**rows, "B": (1.0, 1.0), "X": (2.0, 1.0), "L": (leaf_time, 1.0)}

    def executor(node, attempt):
        return ExecutionOutcome(*ran[node.tool])

    res = _run(graph, bt, alpha=2.0, sim=executor)
    assert res.path.node_ids == (0, b, x, leaf)
    assert res.stats.expanded == res.expanded_count == 5  # ROOT, A, B, X via B, L
    assert res.stats.dropped_after_retries == 1
    assert res.stats.retries == 3
    assert [e.node_id for e in res.trace.events] == [a, *[z] * 4, x, b, x, leaf]
    assert res.stats.executions == res.stats.generated + res.stats.retries == len(res.trace.events)
    return res


def test_dominated_queued_state_is_skipped_at_pop():
    """When L runs in its benchmark 1 s, its sink ties the dead label through A in g and
    time, but not in quality, so it pops first and, under a bare callable, which plays
    back no table, ends the search: the dead label is never popped."""
    assert _dominated_queued_state_run(1.0).stats.stale_pops == 0


def test_dead_label_popped_before_the_sink_is_skipped():
    """When L runs in 3 s, its sink is queued above the dead label through A,
    which pops first and is skipped stale."""
    assert _dominated_queued_state_run(3.0).stats.stale_pops == 1


def test_edge_queued_from_a_dead_label_is_not_executed():
    """ROOT -> {A, B} -> X -> {F, L}, alpha 2, F failing every attempt.

    B's benchmark time is 3 but it runs in 1.  The path through A reaches X
    first; expanding it queues X's edges, F drops, and the edge to L waits
    behind B.  B then reaches X as fast and at a better quality, so the
    label through A dies and its edge to L never runs.  F's edge from the
    label through B pops all four attempts again, but each is a failure the
    search already holds, so none runs.  L's sink through B ties the dead
    edge's bound in g and time but not in quality, so it pops first; under
    a bare callable, which plays back no table, the first sink ends the
    search, and the dead edge is never popped.
    """
    a, b, x, fail, leaf = range(1, 6)
    rows = {"A": (1.0, 0.9), "B": (3.0, 1.0), "X": (1.0, 1.0), "F": (0.5, 0.5), "L": (4.0, 1.0)}
    graph, bt = detection_graph(rows, {(0, a), (0, b), (a, x), (b, x), (x, fail), (x, leaf)})
    ran = {**rows, "B": (1.0, 1.0)}

    def executor(node, attempt):
        return ExecutionOutcome(*ran[node.tool])

    res = _run(graph, bt, alpha=2.0, sim=executor)
    assert res.path.node_ids == (0, b, x, leaf)
    assert res.stats.stale_pops == 0
    assert attempts_for(res.trace, leaf) == 1
    assert [e.node_id for e in res.trace.events] == [a, x, *[fail] * 4, b, x, leaf]
    assert res.stats.dropped_after_retries == 2
    assert res.stats.executions == res.stats.generated + res.stats.retries == len(res.trace.events)


def _counting(executor, calls: Counter):
    """`executor`, counting its calls in `calls` by (node id, attempt)."""

    def run(node, attempt):
        calls[node.node_id, attempt] += 1
        return executor(node, attempt)

    return run


def test_failed_attempt_runs_once_for_every_prefix_that_reaches_its_node():
    """ROOT -> {A, B} -> N, alpha 1; N fails attempt 1 and passes attempt 2.

    A runs at quality 0.9, not its benchmark 1, and its prefix reaches N
    first: N's attempt 1 fails there, and attempt 2 passes.  When B's
    prefix reaches N, the failure is reused: its time counts, but attempt 1
    does not run again and writes no event.  Attempt 2 is a pass, whose
    output the next step would read, so it runs again on B's prefix, and it
    is slow enough that B's better quality wins.  The step at N reports
    both attempts and their summed time.
    """
    a, b, n = 1, 2, 3
    graph, bt = detection_graph({"A": (1.0, 1.0), "B": (1.5, 1.0), "N": (1.0, 1.0)}, {(0, a), (0, b), (a, n), (b, n)})
    t1, t2 = 0.1, 4.2
    ran = {("A", 1): (1.0, 0.9), ("B", 1): (1.5, 1.0), ("N", 1): (t1, 0.5), ("N", 2): (t2, 1.0)}
    calls: Counter = Counter()
    executor = _counting(lambda node, attempt: ExecutionOutcome(*ran[node.tool, attempt]), calls)

    res = _run(graph, bt, alpha=1.0, sim=executor)
    assert res.path.node_ids == (0, b, n)
    assert res.path.steps[-1] == PathStep(n, t1 + t2, 1.0, 2)
    assert calls == {(a, 1): 1, (b, 1): 1, (n, 1): 1, (n, 2): 2}
    assert [(e.node_id, e.attempt, e.decision) for e in res.trace.events] == [
        (a, 1, "pass"),
        (n, 1, "fail"),
        (n, 2, "pass"),
        (b, 1, "pass"),
        (n, 2, "pass"),
    ]
    assert (res.stats.generated, res.stats.retries, res.stats.executions) == (3, 2, 5)


@pytest.mark.parametrize(("a_quality", "ran_after_b"), [(1.0, ()), (0.9, ("X",))])
def test_edge_a_live_label_already_beats_is_not_run(a_quality, ran_after_b):
    """ROOT -> {A, B} -> X -> L, alpha 2.

    L runs in 5, not its benchmark 1, so once the path through A reaches L,
    B's edge, and then X's edge from B, still pop below it.  B runs in 2,
    not its benchmark 1.5, so the label through A reaches X at B's time
    alone.  When A runs at quality 1, that label is also no worse than B's:
    an attempt of X from B can only add time and lose quality, so its label
    would be weakly dominated, and the edge is dropped without running.
    When A runs at 0.9, B's label keeps the better quality, so X runs from
    B as well.  L's attempt 1 already passed at 5 s on the path through A, so
    L's edge from B waits at the key of that outcome, above the incumbent,
    and never runs.
    """
    a, b, x, leaf = range(1, 5)
    rows = {"A": (1.0, 1.0), "B": (1.5, 1.0), "X": (1.0, 1.0), "L": (1.0, 1.0)}
    graph, bt = detection_graph(rows, {(0, a), (0, b), (a, x), (b, x), (x, leaf)})
    ran = {**rows, "A": (1.0, a_quality), "B": (2.0, 1.0), "L": (5.0, 1.0)}

    def executor(node, attempt):
        return ExecutionOutcome(*ran[node.tool])

    res = _run(graph, bt, alpha=2.0, sim=executor)
    assert res.path.node_ids == (0, a, x, leaf)
    assert [graph.nodes[e.node_id].tool for e in res.trace.events] == ["A", "X", "L", "B", *ran_after_b]
    assert res.stats.pruned_by_dominance == res.stats.stale_pops == 0
    assert res.stats.executions == res.stats.generated == 4 + len(ran_after_b)


def test_seen_pass_a_live_label_already_beats_is_not_run():
    """ROOT -> {A, B} -> N -> L, alpha 2; B runs at quality 0.9, L in 5 s.

    The path through A reaches N at (2, 1.0) and L at 7 s, g 49, while B's
    edge and then N's edge from B still pop below it.  B's prefix (1.5, 0.9)
    is not beaten by N's label, but N's attempt 1 already passed in 1 s at
    quality 1.0, so the least label N's edge from B can make is (2.5, 0.9),
    which N's label weakly dominates: the edge is dropped unrun, and nothing
    is pruned after a run.
    """
    a, b, n, leaf = range(1, 5)
    rows = {"A": (1.0, 1.0), "B": (1.5, 1.0), "N": (1.0, 1.0), "L": (1.0, 1.0)}
    graph, bt = detection_graph(rows, {(0, a), (0, b), (a, n), (b, n), (n, leaf)})
    ran = {**rows, "B": (1.5, 0.9), "L": (5.0, 1.0)}
    calls: Counter = Counter()
    executor = _counting(lambda node, attempt: ExecutionOutcome(*ran[node.tool]), calls)

    res = _run(graph, bt, alpha=2.0, sim=executor)
    assert res.path.node_ids == (0, a, n, leaf) and res.path.g == 49.0
    assert [e.node_id for e in res.trace.events] == [a, n, leaf, b]
    assert calls[n, 1] == 1
    assert res.stats.pruned_by_dominance == 0
    assert res.stats.executions == res.stats.generated == 4


def test_rerun_pass_worse_than_the_kept_outcome_is_pruned():
    """ROOT -> {A, B} -> N -> L, alpha 2, with an executor not keyed by (node, attempt).

    A runs at quality 0.9, so N's label through A is (2, 0.9), and the label
    N's kept pass would make from B, (2.5, 1.0), is not beaten: the edge
    waits at its key and then runs.  This second run of N returns quality
    0.8, so its label (2.5, 0.8) is pruned after the run, the one case
    `pruned_by_dominance` counts.
    """
    a, b, n, leaf = range(1, 5)
    rows = {"A": (1.0, 1.0), "B": (1.5, 1.0), "N": (1.0, 1.0), "L": (1.0, 1.0)}
    graph, bt = detection_graph(rows, {(0, a), (0, b), (a, n), (b, n), (n, leaf)})
    ran = {**rows, "A": (1.0, 0.9), "L": (5.0, 1.0)}
    calls: Counter = Counter()

    def executor(node, attempt):
        if node.tool == "N" and calls[n, attempt] > 1:
            return ExecutionOutcome(1.0, 0.8)
        return ExecutionOutcome(*ran[node.tool])

    res = _run(graph, bt, alpha=2.0, sim=_counting(executor, calls))
    assert res.path.node_ids == (0, a, n, leaf) and res.path.g == 49.0
    assert [e.node_id for e in res.trace.events] == [a, n, leaf, b, n]
    assert res.stats.pruned_by_dominance == 1
    assert res.stats.executions == res.stats.generated == 5


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=299),
    unit_quality=st.booleans(),
    sim_seed=st.integers(min_value=0, max_value=2**32 - 1),
    threshold=st.sampled_from((0.8, 0.95)),
    alpha=st.sampled_from(ALPHAS),
    mode=st.sampled_from(("stochastic", "deterministic")),
)
def test_each_failed_attempt_runs_once_per_search(seed, unit_quality, sim_seed, threshold, alpha, mode):
    """Under the stochastic simulator, or playback, no failing (node, attempt) runs twice in one search.

    Every call of the simulator writes one trace event, and each path step
    still totals its attempts' times left to right, with the quality of its
    last attempt, as if every prefix had run them all.  Outcomes are keyed
    by (node, attempt), so no label is pruned after a run.
    """
    graph, bt, *_ = built_instance(seed, unit_quality=unit_quality)
    sim = Simulator(SimulatorSpec(mode=mode, quality_noise_sigma=0.1), bt, sim_seed)
    calls: Counter = Counter()
    res = _run(graph, bt, alpha=alpha, sim=_counting(sim, calls), quality_threshold=threshold)
    assert res.stats.executions == len(res.trace.events) == sum(calls.values())
    assert res.stats.pruned_by_dominance == 0
    failing = [key for key in calls if sim(graph.nodes[key[0]], key[1]).quality < threshold]
    assert all(calls[key] == 1 for key in failing)
    if res.found:
        for step in res.path.steps[1:]:
            outcomes = [sim(graph.nodes[step.node_id], k) for k in range(1, step.attempts + 1)]
            assert step.time_seconds == add_left_to_right(outcome.time_seconds for outcome in outcomes)
            assert step.quality == outcomes[-1].quality


def _scripted(graph, bt: BenchmarkTable, outcome) -> Simulator:
    """A scripted simulator that plays, for each (tool, subtask) pair of
    `graph` and each attempt from 1 to 1 + DEFAULT_MAX_RETRIES,
    `outcome(node, attempt)` at the pair's first node."""
    script: dict[tuple[str, str, int], tuple[float, float]] = {}
    for node in graph.nodes[1:]:
        for attempt in range(1, DEFAULT_MAX_RETRIES + 2):
            script.setdefault((node.tool, node.kind, attempt), tuple(outcome(node, attempt)))
    return Simulator(SimulatorSpec(mode="scripted", script=script), bt, DEFAULT_SEED)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=299),
    unit_quality=st.booleans(),
    sim_seed=st.integers(min_value=0, max_value=2**32 - 1),
    threshold=st.sampled_from((0.8, 0.95)),
    alpha=st.sampled_from(ALPHAS),
    mode=st.sampled_from(("deterministic", "stochastic", "scripted")),
)
def test_search_returns_what_running_every_edge_returns(seed, unit_quality, sim_seed, threshold, alpha, mode):
    """The outcome memo, the dominance check at the edge pop and the seen-pass
    re-key spare only runs: against `eager_search`, which runs every popped
    live edge, the status, path steps, totals, g and `expanded` are equal,
    and `executions`, `generated` and `retries` are no higher.

    The stochastic simulator draws quality noise at sigma 0.1.  The script
    replays each row on every attempt, so it fails and retries as playback
    does but builds no stop target.  A script whose rows differ from the
    table is left out: there the nodes of one pair share outcomes, so two
    prefixes can tie on the whole key, where the claim does not hold (see
    the next test).
    """
    graph, bt, *_ = built_instance(seed, unit_quality=unit_quality)
    if mode == "scripted":
        sim = _scripted(graph, bt, lambda node, attempt: bt.row(node.tool, node.kind))
    else:
        sim = Simulator(SimulatorSpec(mode=mode, quality_noise_sigma=0.1), bt, sim_seed)
    bounds = suffix_bounds(graph, bt)
    cfg = SearchConfig(alpha=alpha, quality_threshold=threshold)
    res, ref = astar_search(graph, bounds, sim, cfg), eager_search(graph, bounds, sim, cfg)
    assert (res.status, res.path, res.stats.expanded) == (ref.status, ref.path, ref.stats.expanded)
    for field in ("executions", "generated", "retries"):
        assert getattr(res.stats, field) <= getattr(ref.stats, field), field


def test_a_tie_on_the_whole_key_can_part_the_search_from_the_eager_reference():
    """A script that plays what a stochastic simulator draws at each pair's
    first node gives the nodes of one pair the same outcomes.  Here the
    prefixes through nodes 12 and 7 total the same outcomes in another
    order, so their edges into node 15 tie on the whole key, and their
    labels there an ulp apart.  The eager reference runs both edges at that
    key, and the label through 7, the better one, makes the one through 12
    stale before it pops.  The search runs the first edge and queues the
    second, a seen pass, again at its label's key, where the label through
    12 pops first: a label sorts before an edge at the same key and depth.
    So the search runs one tool more and expands two labels more than the
    reference, and returns the path through 12, whose g is one ulp above
    the reference's.  Over `built_instance` seeds 0-299, both `unit_quality`
    values, thresholds 0.8 and 0.95, five alphas and seeds 0-9, such scripts
    part the two in 44 of 60,000 searches, and the stochastic simulator,
    whose draws are keyed by node, in none.
    """
    graph, bt, *_ = built_instance(260)
    stochastic = Simulator(SimulatorSpec(mode="stochastic", quality_noise_sigma=0.1), bt, 9)
    sim = _scripted(graph, bt, stochastic)
    bounds = suffix_bounds(graph, bt)
    cfg = SearchConfig(alpha=0.5)
    res, ref = astar_search(graph, bounds, sim, cfg), eager_search(graph, bounds, sim, cfg)
    assert (res.stats.executions, res.stats.expanded) == (14, 13)
    assert (ref.stats.executions, ref.stats.expanded) == (13, 11)
    assert res.path.g == math.nextafter(ref.path.g, math.inf)


def test_seen_pass_worse_than_its_row_waits_past_the_incumbent():
    """ROOT -> {A, B} -> N, alpha 2; N's row says 1 s but it runs in 4.

    The path through A reaches N first and N passes there at 4 s, which
    makes the incumbent, g 25.  B's edge, and then N's edge from B, still
    pop below it at their benchmark keys 9 and 9.  N's attempt 1 already
    passed, so its label from B would sit at (2 + 4) ** 2 = 36: the edge is
    queued again at that key, above the incumbent's stop window, and N never
    runs a second time.
    """
    a, b, n = range(1, 4)
    rows = {"A": (1.0, 1.0), "B": (2.0, 1.0), "N": (1.0, 1.0)}
    graph, bt = detection_graph(rows, {(0, a), (0, b), (a, n), (b, n)})
    ran = {**rows, "N": (4.0, 1.0)}
    calls: Counter = Counter()
    executor = _counting(lambda node, attempt: ExecutionOutcome(*ran[node.tool]), calls)

    res = _run(graph, bt, alpha=2.0, sim=executor)
    assert res.path.node_ids == (0, a, n) and res.path.g == 25.0
    assert [(e.node_id, e.time_seconds) for e in res.trace.events] == [(a, 1.0), (n, 4.0), (b, 2.0)]
    assert calls[n, 1] == 1
    assert res.stats.expanded == 4  # ROOT, A, B, N through A
    assert res.stats.pruned_by_dominance == 0
    assert res.stats.executions == res.stats.generated == len(res.trace.events) == 3


def test_seen_pass_better_than_its_row_runs_at_once():
    """ROOT -> {A, B} -> N -> L, alpha 1; N's row says 4 s but it runs in 1,
    and L's says 1 s but it runs in 20.

    A runs at quality 0.9, so the path through A reaches N and L first.
    When N's edge from B pops at its benchmark key, the pass N already gave
    puts B's label below that key, so N runs on B's prefix at once.  L's
    seen pass puts B's label at 22.7, above the key its edge popped at, so
    that edge waits; it runs when it pops at 22.7, below the 24.2 of the
    path through A, and B's path wins.  Each pass ran on both prefixes, since
    its output is that prefix's next input.
    """
    a, b, n, leaf = range(1, 5)
    rows = {"A": (1.0, 1.0), "B": (1.5, 1.0), "N": (4.0, 1.0), "L": (1.0, 1.0)}
    graph, bt = detection_graph(rows, {(0, a), (0, b), (a, n), (b, n), (n, leaf)})
    ran = {**rows, "A": (1.0, 0.9), "B": (1.7, 1.0), "N": (1.0, 1.0), "L": (20.0, 1.0)}
    calls: Counter = Counter()
    executor = _counting(lambda node, attempt: ExecutionOutcome(*ran[node.tool]), calls)

    res = _run(graph, bt, alpha=1.0, sim=executor)
    assert res.path.node_ids == (0, b, n, leaf) and res.path.g == 22.7
    assert [e.node_id for e in res.trace.events] == [a, b, n, leaf, n, leaf]
    assert calls == {(a, 1): 1, (b, 1): 1, (n, 1): 2, (leaf, 1): 2}
    assert res.stats.executions == res.stats.generated == 6


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=299),
    unit_quality=st.booleans(),
    sim_seed=st.integers(min_value=0, max_value=2**32 - 1),
    threshold=st.sampled_from((0.8, 0.95)),
    alpha=st.sampled_from(ALPHAS),
    mode=st.sampled_from(("stochastic", "deterministic")),
)
def test_repeated_passes_return_the_first_outcome(seed, unit_quality, sim_seed, threshold, alpha, mode):
    """Under the stochastic simulator, or playback, every repeated attempt of a (node, attempt) is a
    pass equal to the first.

    Passes that wait at the key of a seen outcome still run on each prefix
    whose label pops, so every simulator call writes one trace event, and
    each path step totals its attempts' times left to right, with the
    quality of its last attempt.  A seen pass whose label a live label
    already beats does not run, so no label is pruned after a run.
    """
    graph, bt, *_ = built_instance(seed, unit_quality=unit_quality)
    sim = Simulator(SimulatorSpec(mode=mode, quality_noise_sigma=0.1), bt, sim_seed)
    calls: Counter = Counter()
    res = _run(graph, bt, alpha=alpha, sim=_counting(sim, calls), quality_threshold=threshold)
    assert res.stats.executions == len(res.trace.events) == sum(calls.values())
    assert res.stats.pruned_by_dominance == 0
    first: dict[tuple[int, int], TraceEvent] = {}
    for event in res.trace.events:
        seen = first.setdefault((event.node_id, event.attempt), event)
        if seen is not event:
            assert event.decision == seen.decision == "pass"
            assert (event.time_seconds, event.quality) == (seen.time_seconds, seen.quality)
    if res.found:
        for step in res.path.steps[1:]:
            outcomes = [sim(graph.nodes[step.node_id], k) for k in range(1, step.attempts + 1)]
            assert step.time_seconds == add_left_to_right(outcome.time_seconds for outcome in outcomes)
            assert step.quality == outcomes[-1].quality


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=299), alpha=st.floats(min_value=0.0, max_value=2.0))
def test_search_runs_only_nodes_on_paths_no_worse_than_its_own(seed, alpha):
    """An edge runs only when popped, at a bound no higher than the returned g.

    So under deterministic execution every executed node lies on some path
    whose objective is at most g.  Ties are allowed up to rounding: the
    search sums a suffix from the sink up, `path_objective` from the root
    down.
    """
    graph, bt, *_ = built_instance(seed)
    res = _run(graph, bt, alpha=alpha)
    assert res.found
    best: dict[int, float] = {}
    for path in enumerate_paths(graph):
        objective = path_objective(graph, bt, path, alpha)
        for node_id in path:
            best[node_id] = min(best.get(node_id, math.inf), objective)
    for event in res.trace.events:
        objective = best[event.node_id]
        assert objective <= res.path.g or math.isclose(objective, res.path.g, rel_tol=1e-12)


def test_search_stats_logged_at_debug(detection_fixture, caplog):
    graph, bt = detection_fixture
    with caplog.at_level(logging.DEBUG, logger="toolpath.search"):
        res = _run(graph, bt, alpha=1.0)
    assert str(res.stats) in caplog.text


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=299), alpha=st.floats(min_value=0.0, max_value=2.0))
def test_search_matches_oracle_at_any_alpha(seed, alpha):
    graph, bt, *_ = built_instance(seed)
    assert brute_force_optimal(graph, bt, SearchConfig(alpha)).gap == 0


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1999), unit_quality=st.booleans(), alpha=st.sampled_from(ALPHAS))
@example(seed=46, unit_quality=False, alpha=0.0)
@example(seed=1467, unit_quality=False, alpha=1.0)
@example(seed=1467, unit_quality=False, alpha=2.0)
def test_search_returns_the_least_enumerated_g_and_the_fastest_of_a_tie(seed, unit_quality, alpha):
    """The least g over every path scored alone, bit for bit; of paths at that g, the fastest, then the best.

    Seed 46 at alpha 0 has two paths of equal quality, 68.7573 and 73.7629 s;
    on seed 1467 two paths' times tie in decimal and sum one ulp apart.
    """
    graph, bt, *_ = built_instance(seed, unit_quality=unit_quality)
    _, least, _ = enumerate_then_score(graph, bt, alpha)
    res = _run(graph, bt, alpha=alpha)
    assert res.path.g == least
    paths = enumerate_paths(graph)
    tied = [path_totals(graph, bt, path) for path in paths if path_objective(graph, bt, path, alpha) == least]
    assert (res.path.cum_time, res.path.cum_quality) == min(tied, key=lambda totals: (totals[0], -totals[1]))


@pytest.mark.parametrize(
    ("equal_rows", "passes", "executions"),
    [(True, (1, 1, 1, 1, 1), (249, 339, 339, 339, 339)), (False, (0,) * 5, (24,) * 5)],
)
def test_stop_window_runs_one_pass_per_search(equal_rows, passes, executions, monkeypatch):
    """Under playback the search builds its target, one Pareto pass, only when a sink pops
    with an entry still inside the stop window.

    On the 24 x 16 chain with every row (1.1 s, 0.97), every path totals the
    same bits, but a bound totals its suffix from the end, so entries an ulp
    apart crowd the window, and one pass builds the target.  On the chain's
    own rows no entry lies within the window, so none runs.  On the plateau
    every stage's row was seen on the first prefix to reach it, and the
    label it would make on any other prefix ties one already live, so that
    pass does not run: one execution per expansion but the root's, where
    running each such pass and pruning its label ran 3,369 and 5,139.
    """
    import toolpath.search as search

    graph, bt, *_ = build_payload(chain_instance(1, stages=24, tools=16))
    if equal_rows:
        bt = BenchmarkTable(rows=dict.fromkeys(bt.rows, ExecutionOutcome(1.1, 0.97)))
    bounds = suffix_bounds(graph, bt)
    calls = []
    pareto_fronts = search.pareto_fronts

    def counting(*args):
        calls.append(args[-1])
        return pareto_fronts(*args)

    monkeypatch.setattr(search, "pareto_fronts", counting)
    sim = Simulator(SimulatorSpec(mode="deterministic"), bt, DEFAULT_SEED)
    for alpha, count, runs in zip(ALPHAS, passes, executions):
        calls.clear()
        res = astar_search(graph, bounds, sim, SearchConfig(alpha=alpha))
        assert calls == ["playback-front pass"] * count
        assert res.stats.executions == runs
        if equal_rows:
            totals = (0.0, 1.0)
            for _ in range(24):
                totals = (totals[0] + 1.1, totals[1] * 0.97)
            assert (res.path.cum_time, res.path.cum_quality) == totals
            assert res.path.g == compute_g(*totals, alpha)


def _bundled(data_dir, tables, tree):
    mdt = load_mdt(data_dir / f"mdt_{tables}.json")
    bt = load_benchmark(data_dir / f"benchmark_{tables}.json", mdt)
    return build_tool_subgraph(parse_subtask_tree((data_dir / f"tree_{tree}.json").read_text()), mdt), bt


@pytest.mark.parametrize(
    ("tables", "tree", "alpha", "executions"),
    [
        *[("full", "example1", alpha, runs) for alpha, runs in ((0.0, 5), (0.5, 5), (1.0, 5), (2.0, 7))],
        *[("full", "example2", alpha, 10) for alpha in (0.0, 0.5, 1.0, 2.0)],
        *[("table1", "example1", alpha, 5) for alpha in (0.0, 0.5, 1.0, 2.0)],
        ("shared_end", "shared_end", 0.0, 1),
    ],
)
def test_bundled_plans_run_each_tie_once(data_dir, tables, tree, alpha, executions):
    """Under playback a bound tie is followed down one branch, and the search stops at the
    first sink that holds the least key over the playback front, without running the tied
    entries left in its stop window.

    Every count but full/example1's at alpha 2 is the path's length; breaking
    ties first in, first out ran 9/8/8/9, 13, 9 and 3 tools here.
    """
    graph, bt = _bundled(data_dir, tables, tree)
    res = _run(graph, bt, alpha=alpha)
    assert res.stats.executions == executions
    assert res.stats.executions == len(res.trace.events) == res.stats.generated


@pytest.mark.parametrize(("alpha", "executions", "g"), [(1.5, 16, 264.1494935411362), (2.0, 18, 1661.785225)])
def test_high_threshold_plan_runs_each_failure_once(data_dir, alpha, executions, g):
    """full/example1 at threshold 0.95 under playback, where some rows miss the threshold.

    A node that fails is reached by more than one prefix; its failures run
    once, so no (node, attempt) fails twice in the trace.  Running each
    again on every prefix ran 18 and 22 tools for the same path and totals.
    """
    graph, bt = _bundled(data_dir, "full", "example1")
    res = _run(graph, bt, alpha=alpha, quality_threshold=0.95)
    assert res.path.node_ids == (0, 1, 8, 10, 11, 14)
    assert (res.path.cum_time, res.path.cum_quality, res.path.g) == (40.765, 0.97, g)
    assert res.stats.executions == len(res.trace.events) == executions
    failed = [(e.node_id, e.attempt) for e in res.trace.events if e.decision == "fail"]
    assert failed and len(failed) == len(set(failed))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_order_diamond_runs_one_order(alpha):
    """ROOT -> {A1, B1}, A1 -> B2, B1 -> A2: two stages in either order, on identical rows.

    Both orders total the same bits, so every entry ties.  The search follows
    A1 down to B2, whose sink already holds the least key over the playback
    front, so the search stops there, and B1's edge, whose one completion
    only ties it, never runs.
    """
    rows = {"A1": (1.5, 0.9), "B1": (2.5, 0.95), "B2": (2.5, 0.95), "A2": (1.5, 0.9)}
    graph, bt = detection_graph(rows, {(0, 1), (0, 2), (1, 3), (2, 4)})
    res = _run(graph, bt, alpha=alpha)
    assert res.path.node_ids == (0, 1, 3)
    assert res.stats.executions == len(res.path.steps) - 1 == 2


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=299),
    sim_seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.floats(min_value=0.0, max_value=2.0),
    max_retries=st.integers(min_value=0, max_value=3),
)
def test_stochastic_replays_are_bit_stable(seed, sim_seed, alpha, max_retries):
    """Failed checks re-queue their edges, and the search still accounts for every attempt.

    Each run keeps executions == generated + retries == trace events, no
    step takes more than 1 + max_retries attempts, every step on the path
    meets the threshold, and a second run with the same seed writes the
    same plan and trace JSON.
    """
    graph, bt, *_ = built_instance(seed)
    runs = []
    for _ in range(2):
        sim = Simulator(SimulatorSpec(mode="stochastic", quality_noise_sigma=0.1), bt, sim_seed)
        res = _run(graph, bt, alpha=alpha, sim=sim, max_retries=max_retries)
        stats = res.stats
        assert stats.executions == stats.generated + stats.retries == len(res.trace.events)
        assert all(e.attempt <= max_retries + 1 for e in res.trace.events)
        if res.found:
            assert all(1 <= step.attempts <= max_retries + 1 for step in res.path.steps[1:])
            assert all(step.quality >= 0.8 for step in res.path.steps[1:])
        runs.append(json.dumps([res.to_json_dict(graph), res.trace.to_json_dict(graph)], sort_keys=True))
    assert runs[0] == runs[1]


def test_one_path_state_per_search(detection_fixture, monkeypatch):
    import toolpath.search as search

    built = []
    path_state = search.PathState

    def counting_path_state(*args, **kwargs):
        built.append(path_state(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(search, "PathState", counting_path_state)
    graph, bt = detection_fixture
    res = _run(graph, bt, alpha=1.0)
    assert built == [res.path]
    assert res.path.node_ids[0] == 0 and res.path.node_ids[-1] in sinks(graph)
    assert [step.node_id for step in res.path.steps] == list(res.path.node_ids)


@pytest.mark.parametrize(
    ("alpha", "expanded", "tool_nodes"),
    [(0.0, 25, 384), (0.5, 25, 384), (1.0, 25, 384), (1.5, 25, 384), (2.0, 25, 384)],
)
def test_deep_chain_counters(alpha, expanded, tool_nodes):
    # 16**24 paths; before the labelled search this ran into the queue cap.
    # The exact suffix-front bound expands only the optimal path at every
    # alpha: one expansion per stage plus the root.  A tool runs only when
    # its edge is popped, so of the 384 tool nodes one per stage is executed.
    graph, bt, *_ = build_payload(chain_instance(0, stages=24, tools=16))
    assert len(graph.nodes) - 1 == tool_nodes
    res = _run(graph, bt, alpha=alpha)
    assert res.found
    assert res.expanded_count == expanded
    assert res.stats.executions == expanded - 1 == 24
