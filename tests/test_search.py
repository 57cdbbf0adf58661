from __future__ import annotations

import json
import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import attempts_for, dijkstra_min_time, enumerate_paths, path_objective, sinks
from synth import build_payload, built_instance, chain_instance, detection_graph, random_plan_graph
from toolpath.errors import AlphaOutOfRange, InvalidConfig, MissingBenchmark, QueueOverflow
from toolpath.evaluation import brute_force_optimal
from toolpath.execution import DEFAULT_SEED, ExecutionOutcome, Simulator, SimulatorSpec
from toolpath.graphs import build_tool_subgraph
from toolpath.planning import parse_subtask_tree
from toolpath.registry import BenchmarkRow, BenchmarkTable
from toolpath.search import (
    STATUS_EXHAUSTED,
    PathStep,
    SearchConfig,
    _admit,
    astar_search,
    compute_g,
    suffix_bounds,
    validate_alpha,
)

ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0)


def _unit_bt(bt: BenchmarkTable) -> BenchmarkTable:
    return BenchmarkTable(
        rows={
            k: BenchmarkRow(r.time_seconds, 1.0) for k, r in bt.rows.items()
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
                    key: BenchmarkRow(r.time_seconds * k, r.quality_norm)
                    for key, r in bt.rows.items()
                }
            )
            assert _run(graph, scaled, alpha=alpha).path.node_ids == base


def test_queue_overflow(detection_fixture, monkeypatch):
    import toolpath.search as search

    graph, bt = detection_fixture
    monkeypatch.setattr(search, "QUEUE_CAP", 1)
    with pytest.raises(QueueOverflow):
        _run(graph, bt, alpha=1.0)


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
            qualities.append(row.quality_norm * max_quality[j])
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
                t, q = row.time_seconds + t, row.quality_norm * q
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


def test_dominated_queued_state_is_skipped_at_pop():
    """ROOT -> {A, B} -> X -> L, and A -> Z with Z failing every attempt.

    Z's optimistic suffix time lets A pop before B, so the path through A
    queues its label at X first and, at an exact f tie, expands it before
    B's edge to X runs; B then reaches X with the same time and a better
    quality, which kills that label, and its queued edge to L is skipped.
    """
    a, b, x, leaf, z = range(1, 6)
    rows = {"A": (1.0, 0.9), "B": (1.0, 1.0), "X": (1.0, 1.0), "L": (1.0, 1.0), "Z": (0.1, 0.5)}
    graph, bt = detection_graph(rows, {(0, a), (0, b), (a, x), (a, z), (b, x), (x, leaf)})
    res = _run(graph, bt, alpha=2.0)
    assert res.path.node_ids == (0, b, x, leaf)
    assert res.stats.stale_pops == 1
    assert res.stats.expanded == res.expanded_count == 6  # ROOT, A, B, X via A, X via B, L
    assert res.stats.dropped_after_retries == 1
    assert res.stats.retries == 3
    assert res.stats.executions == res.stats.generated + res.stats.retries == len(res.trace.events)
    assert attempts_for(res.trace, leaf) == 1


def test_edge_queued_from_a_dead_label_is_not_executed():
    """ROOT -> {A, B} -> X -> {F, L}, alpha 2, F failing every attempt.

    B's benchmark time is 3 but it runs in 1.  The path through A reaches X
    first; expanding it queues X's edges, F drops, and the edge to L waits
    behind B.  B then reaches X as fast and at a better quality, so the
    label through A dies and its edge to L is popped stale, never run.
    """
    a, b, x, fail, leaf = range(1, 6)
    rows = {"A": (1.0, 0.9), "B": (3.0, 1.0), "X": (1.0, 1.0), "F": (0.5, 0.5), "L": (4.0, 1.0)}
    graph, bt = detection_graph(rows, {(0, a), (0, b), (a, x), (b, x), (x, fail), (x, leaf)})
    ran = {**rows, "B": (1.0, 1.0)}

    def executor(node, attempt):
        return ExecutionOutcome(*ran[node.tool])

    res = _run(graph, bt, alpha=2.0, sim=executor)
    assert res.path.node_ids == (0, b, x, leaf)
    assert res.stats.stale_pops == 1
    assert attempts_for(res.trace, leaf) == 1
    assert [e.node_id for e in res.trace.events] == [a, x, *[fail] * 4, b, x, *[fail] * 4, leaf]
    assert res.stats.executions == res.stats.generated + res.stats.retries == len(res.trace.events)


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
    assert brute_force_optimal(graph, bt, alpha).gap == 0


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
