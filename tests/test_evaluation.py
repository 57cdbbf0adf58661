from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_paths, enumerate_then_score, path_objective
from synth import build_payload, built_instance, chain_instance
from toolpath.errors import EmptyRecord, InvalidScore, MissingBenchmark, PathExplosion, SearchExhausted
from toolpath.evaluation import (
    SCORE_VOCABULARY,
    ParetoPoint,
    brute_force_optimal,
    overall_accuracy,
    pareto_csv,
    pareto_filter,
    sweep_alpha,
    task_accuracy,
)
from toolpath.execution import DEFAULT_SEED, Simulator, SimulatorSpec
from toolpath.graphs import build_tool_subgraph, count_paths
from toolpath.planning import parse_subtask_tree
from toolpath.registry import BenchmarkTable, load_benchmark, load_mdt
from toolpath.search import SearchConfig, astar_search, suffix_bounds


# ---------------------------------------------------------------- oracle


def test_single_chain_gap_zero(data_dir):
    mdt = load_mdt(data_dir / "mdt_full.json")
    bt = load_benchmark(data_dir / "benchmark_full.json", mdt)
    tree = parse_subtask_tree((data_dir / "tree_single_deblur.json").read_text())
    graph = build_tool_subgraph(tree, mdt)
    rep = brute_force_optimal(graph, bt, 1.0)
    assert rep.gap == 0.0
    assert rep.paths_enumerated == 1


def test_detection_fixture_alpha2_yolo_branch(detection_fixture):
    graph, bt = detection_fixture
    rep = brute_force_optimal(graph, bt, 2.0)
    assert rep.gap == 0.0
    assert rep.paths_enumerated == 2
    tools = [graph.nodes[i].tool for i in rep.best_path[1:]]
    assert tools[0] == "YOLOv7"


def test_gap_nonnegative_on_random_instances():
    for seed in range(30):
        graph, bt, *_ = built_instance(seed)
        for alpha in (0.0, 1.0, 2.0):
            rep = brute_force_optimal(graph, bt, alpha)
            assert rep.gap >= 0.0
            assert rep.best_objective <= rep.astar_objective


def test_alpha1_unit_quality_corner_gap_zero():
    for seed in range(50):
        graph, bt, *_ = built_instance(seed, unit_quality=True)
        rep = brute_force_optimal(graph, bt, 1.0)
        assert rep.gap == 0.0


def test_oracle_path_cap(detection_fixture):
    graph, bt = detection_fixture
    with pytest.raises(PathExplosion):
        brute_force_optimal(graph, bt, 1.0, cap=1)


# (stages, tools per stage) of chain instances: 512, 625, 1,024, 729 and 4,096 paths.
_CHAIN_SHAPES = ((3, 8), (4, 5), (5, 4), (6, 3), (4, 8))

_instances = st.one_of(
    st.builds(built_instance, st.integers(0, 999), st.booleans()),
    st.builds(
        lambda seed, shape: build_payload(chain_instance(seed, *shape)),
        st.integers(0, 999),
        st.sampled_from(_CHAIN_SHAPES),
    ),
)


@settings(max_examples=60, deadline=None)
@given(instance=_instances, alpha=st.one_of(st.sampled_from((0.0, 1.0, 2.0)), st.floats(0.0, 2.0)))
def test_oracle_walk_matches_enumerate_then_score(instance, alpha):
    """The prefix walk finds the same path, objective (bit for bit) and count as scoring each path alone.

    The search's objective, its returned path's g, is that path's score bit for bit too.
    """
    graph, bt, *_ = instance
    rep = brute_force_optimal(graph, bt, alpha)
    assert (rep.best_path, rep.best_objective, rep.paths_enumerated) == enumerate_then_score(graph, bt, alpha)
    assert rep.astar_objective == path_objective(graph, bt, rep.astar_path, alpha)


def _tied_chain() -> dict:
    """Two stages of two tools; both first-stage tools have identical rows.

    The second stage has a slow and a fast tool, so at alpha > 0 the two
    paths through the fast tool tie exactly and beat the other two.
    """
    payload = chain_instance(0, stages=2, tools=2)
    times = {"ChainTool-00-00": 2.0, "ChainTool-00-01": 2.0, "ChainTool-01-00": 5.0, "ChainTool-01-01": 1.0}
    for row in payload["benchmark"]:
        row["time_seconds"], row["quality"] = times[row["tool"]], 0.95
    return payload


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_oracle_tie_keeps_the_lexicographically_first_path(alpha):
    graph, bt, *_ = build_payload(_tied_chain())
    objectives = {path: path_objective(graph, bt, path, alpha) for path in enumerate_paths(graph)}
    tied = sorted(path for path, obj in objectives.items() if obj == min(objectives.values()))
    assert len(tied) == 2
    assert [graph.nodes[i].tool for i in tied[0][1:]] == ["ChainTool-00-00", "ChainTool-01-01"]
    rep = brute_force_optimal(graph, bt, alpha)
    assert rep.best_path == tied[0]
    assert rep.best_objective == objectives[tied[0]]


def test_oracle_cap_boundary():
    graph, bt, *_ = build_payload(chain_instance(3, stages=3, tools=3))
    count = count_paths(graph)
    assert count == 27
    assert brute_force_optimal(graph, bt, 1.0, cap=count).paths_enumerated == count
    # With no benchmark rows, scoring before the cap check would raise MissingBenchmark.
    empty = BenchmarkTable(rows={})
    with pytest.raises(PathExplosion, match="^27 root-to-leaf paths exceed the cap of 26$"):
        brute_force_optimal(graph, empty, 1.0, cap=count - 1)
    with pytest.raises(MissingBenchmark):
        brute_force_optimal(graph, empty, 1.0, cap=count)


# ---------------------------------------------------------------- accuracy


def test_task_accuracy_examples():
    assert task_accuracy([1, 0.9, 0.5]) == pytest.approx(0.8, abs=1e-12)
    assert task_accuracy([1, 1, 1]) == 1.0
    assert task_accuracy([0]) == 0.0


def test_overall_accuracy_examples():
    assert overall_accuracy([0.8, 1.0]) == pytest.approx(0.9, abs=1e-12)
    assert overall_accuracy([0.94]) == 0.94
    assert overall_accuracy([0, 1]) == 0.5


def test_accuracy_errors():
    with pytest.raises(EmptyRecord):
        task_accuracy([])
    with pytest.raises(EmptyRecord):
        overall_accuracy([])
    with pytest.raises(InvalidScore):
        task_accuracy([0.42])


@given(st.lists(st.sampled_from(SCORE_VOCABULARY), min_size=1, max_size=20))
def test_task_accuracy_permutation_invariant_and_bounded(scores):
    value = task_accuracy(scores)
    assert 0.0 <= value <= 1.0
    assert task_accuracy(list(reversed(scores))) == pytest.approx(value, abs=1e-12)


# ---------------------------------------------------------------- pareto


def test_pareto_filter_example():
    pts = [
        ParetoPoint(alpha=0, total_time=1.0, quality_product=0.9, g_final=0),
        ParetoPoint(alpha=1, total_time=2.0, quality_product=0.95, g_final=0),
        ParetoPoint(alpha=2, total_time=1.5, quality_product=0.85, g_final=0),
    ]
    kept = pareto_filter(pts)
    assert kept == pts[:2]


def test_pareto_filter_single_point_and_duplicates():
    p = ParetoPoint(alpha=1, total_time=1.0, quality_product=0.5, g_final=0.1)
    assert pareto_filter([p]) == [p]
    q = ParetoPoint(alpha=2, total_time=1.0, quality_product=0.5, g_final=0.2)
    assert pareto_filter([p, q]) == [p, q]


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=10, allow_nan=False),
            st.floats(min_value=0.1, max_value=1, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_pareto_filter_survivors_mutually_nondominating(raw):
    pts = [ParetoPoint(alpha=0, total_time=t, quality_product=q, g_final=0) for t, q in raw]
    kept = pareto_filter(pts)
    assert kept
    for a in kept:
        for b in kept:
            if a is b:
                continue
            strictly_dominates = (
                b.total_time <= a.total_time
                and b.quality_product >= a.quality_product
                and (b.total_time < a.total_time or b.quality_product > a.quality_product)
            )
            assert not strictly_dominates
    # every dropped point is dominated by some survivor
    for p in pts:
        if p in kept:
            continue
        assert any(
            s.total_time <= p.total_time
            and s.quality_product >= p.quality_product
            and (s.total_time < p.total_time or s.quality_product > p.quality_product)
            for s in kept
        )


# ---------------------------------------------------------------- sweep


def _playback(bt: BenchmarkTable) -> Simulator:
    return Simulator(SimulatorSpec(mode="deterministic"), bt, DEFAULT_SEED)


def test_sweep_detection_fixture_direction(detection_fixture):
    graph, bt = detection_fixture
    points = sweep_alpha(graph, bt, _playback(bt), [0, 2])
    assert [p.alpha for p in points] == [0.0, 2.0]
    fast = points[1]
    good = points[0]
    assert fast.total_time <= good.total_time
    assert fast.quality_product <= good.quality_product


def test_sweep_duplicate_alphas_identical_rows(detection_fixture):
    graph, bt = detection_fixture
    points = sweep_alpha(graph, bt, _playback(bt), [1, 1])
    assert points[0] == points[1]


def test_sweep_empty():
    assert sweep_alpha(None, None, None, []) == []


def test_sweep_unsorted_input_is_ordered_by_alpha(detection_fixture):
    graph, bt = detection_fixture
    points = sweep_alpha(graph, bt, _playback(bt), [2, 0, 1])
    assert [p.alpha for p in points] == [0.0, 1.0, 2.0]


def test_sweep_exhaustion_raises(detection_fixture):
    graph, bt = detection_fixture
    # every tool fails every attempt, so no alpha can find a valid path
    script = {
        (tool, kind, attempt): (1.0, 0.1)
        for (tool, kind) in bt.rows
        for attempt in range(1, 3)
    }
    with pytest.raises(SearchExhausted):
        sweep_alpha(
            graph,
            bt,
            Simulator(SimulatorSpec(mode="scripted", script=script), bt, DEFAULT_SEED),
            [2],
            base_cfg=SearchConfig(max_retries=1),
        )


def test_pareto_csv_formatting(detection_fixture):
    graph, bt = detection_fixture
    points = sweep_alpha(graph, bt, _playback(bt), [0, 2])
    text = pareto_csv(points)
    lines = text.strip().splitlines()
    assert lines[0] == "alpha,total_time,quality_product,g_final,non_dominated"
    assert len(lines) == 3
    assert all(line.endswith((",true", ",false")) for line in lines[1:])
    assert pareto_csv(points) == pareto_csv(points)


def test_stochastic_sweep_is_replayable(detection_fixture):
    """A sweep replays, and its one simulator gives each alpha the search a fresh one would.

    At threshold 0.9 the alpha=2 search retries a failed attempt, so retry draws are shared too.
    """
    graph, bt = detection_fixture
    spec = SimulatorSpec(mode="stochastic")
    alphas = [0.0, 0.5, 1.0, 1.5, 2.0]
    base = SearchConfig(quality_threshold=0.9)
    a = sweep_alpha(graph, bt, Simulator(spec, bt, DEFAULT_SEED), alphas, base_cfg=base)
    b = sweep_alpha(graph, bt, Simulator(spec, bt, DEFAULT_SEED), alphas, base_cfg=base)
    assert a == b
    bounds = suffix_bounds(graph, bt)
    retries = 0
    for point in a:
        cfg = SearchConfig(alpha=point.alpha, quality_threshold=0.9)
        result = astar_search(graph, bounds, Simulator(spec, bt, DEFAULT_SEED), cfg)
        path = result.path
        assert (point.total_time, point.quality_product, point.g_final) == (path.cum_time, path.cum_quality, path.g)
        retries += result.stats.retries
    assert retries > 0
