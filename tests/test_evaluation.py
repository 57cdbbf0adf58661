from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    enumerate_paths,
    enumerate_then_score,
    pareto_filter_pairwise,
    path_objective,
    path_totals,
    playback_front_by_labels,
    sweep_by_search,
)
from synth import build_payload, built_instance, chain_instance, detection_graph, tradeoff_chain_instance
from toolpath.errors import (
    AlphaOutOfRange,
    EmptyRecord,
    InvalidConfig,
    InvalidScore,
    MissingBenchmark,
    ParseError,
    QueueOverflow,
    SearchExhausted,
)
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
from toolpath.registry import BenchmarkTable, ExecutionOutcome, load_benchmark, load_mdt
from toolpath import search
from toolpath.search import SearchConfig, astar_search, benchmark_rows, compute_g, suffix_bounds


# ---------------------------------------------------------------- oracle


def test_single_chain_gap_zero(data_dir):
    mdt = load_mdt(data_dir / "mdt_full.json")
    bt = load_benchmark(data_dir / "benchmark_full.json", mdt)
    tree = parse_subtask_tree((data_dir / "tree_single_deblur.json").read_text())
    graph = build_tool_subgraph(tree, mdt)
    rep = brute_force_optimal(graph, bt, SearchConfig(1.0))
    assert rep.gap == 0.0
    assert rep.paths_enumerated == 1


def test_detection_fixture_alpha2_yolo_branch(detection_fixture):
    graph, bt = detection_fixture
    rep = brute_force_optimal(graph, bt, SearchConfig(2.0))
    assert rep.gap == 0.0
    assert rep.paths_enumerated == 2
    tools = [graph.nodes[i].tool for i in rep.best_path[1:]]
    assert tools[0] == "YOLOv7"


def test_gap_nonnegative_on_random_instances():
    for seed in range(30):
        graph, bt, *_ = built_instance(seed)
        for alpha in (0.0, 1.0, 2.0):
            rep = brute_force_optimal(graph, bt, SearchConfig(alpha))
            assert rep.gap >= 0.0
            assert rep.best_objective <= rep.astar_objective


def test_alpha1_unit_quality_corner_gap_zero():
    for seed in range(50):
        graph, bt, *_ = built_instance(seed, unit_quality=True)
        rep = brute_force_optimal(graph, bt, SearchConfig(1.0))
        assert rep.gap == 0.0


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
    """The front's least g and the path count equal scoring each path alone, bit for bit.

    Its path is one of least (g, T, -Q) and scores that objective alone; where
    an exact tie remains, the pass may keep a later path than enumeration's
    first.  The search's objective, its returned path's g, is that path's
    score bit for bit too.
    """
    graph, bt, *_ = instance
    rep = brute_force_optimal(graph, bt, SearchConfig(alpha))
    _, best_objective, count = enumerate_then_score(graph, bt, alpha)
    assert (rep.best_objective, rep.paths_enumerated) == (best_objective, count)
    keys = {}
    for path in enumerate_paths(graph):
        time, quality = path_totals(graph, bt, path)
        keys[path] = (compute_g(time, quality, alpha), time, -quality)
    assert keys[rep.best_path] == min(keys.values())
    assert path_objective(graph, bt, rep.best_path, alpha) == rep.best_objective
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
    rep = brute_force_optimal(graph, bt, SearchConfig(alpha))
    assert rep.best_path == tied[0]
    assert rep.best_objective == objectives[tied[0]]


def test_playback_front_capacity_boundary(monkeypatch):
    """On a 4-stage trade-off chain the pass keeps 2**5 - 1 = 31 labels, every prefix.

    A deterministic sweep runs the playback front alone, with no suffix
    bounds, so the cap it meets is that pass's.
    """
    graph, bt, *_ = build_payload(tradeoff_chain_instance(4))
    monkeypatch.setattr(search, "QUEUE_CAP", 31)
    points = sweep_alpha(graph, bt, _playback(bt), [0.0, 2.0])
    assert (points[0].total_time, points[1].total_time) == (4 + 15, 4)  # tool 1 at every stage, then tool 0
    monkeypatch.setattr(search, "QUEUE_CAP", 30)
    with pytest.raises(QueueOverflow, match="^playback-front pass exceeded its capacity of 30 entries$"):
        sweep_alpha(graph, bt, _playback(bt), [1.0])


# (seed, stages, tools per stage) of chain instances the playback-front tests cover.
_FRONT_CHAIN_SHAPES = ((1, 8, 8), (1, 10, 6), (0, 2, 2), (1, 3, 5), (2, 4, 3), (3, 6, 2), (4, 5, 6), (5, 2, 9))
_FRONT_ALPHAS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)


def _least_g_point(front, alpha):
    return min(front, key=lambda point: compute_g(point[0], point[1], alpha))


@settings(max_examples=60, deadline=None)
@given(
    instance=st.one_of(
        st.builds(built_instance, st.integers(0, 1999), st.booleans()),
        st.sampled_from(_FRONT_CHAIN_SHAPES).map(lambda shape: build_payload(chain_instance(*shape))),
    ),
    threshold=st.sampled_from((0.0, 0.8, 0.95)),
)
def test_playback_front_matches_the_pass_that_carries_every_label(instance, threshold):
    """The shared-join pass gives the label-carrying pass's front, sweep points and
    oracle path, bit for bit: its tie rule is the lexicographically first path
    among the labels that pass keeps."""
    graph, bt, *_ = instance
    rows = benchmark_rows(graph, bt)
    reference = playback_front_by_labels(graph, rows, threshold)
    front = search.playback_front(graph, rows, threshold)[-1]
    assert [(t.hex(), q.hex()) for t, q in front] == [(t.hex(), q.hex()) for t, q, _ in reference]
    cfg = SearchConfig(quality_threshold=threshold)
    if not reference:
        with pytest.raises(SearchExhausted):
            sweep_alpha(graph, bt, _playback(bt), _FRONT_ALPHAS, cfg)
    else:
        expected = [(t.hex(), q.hex()) for t, q, _ in (_least_g_point(reference, a) for a in _FRONT_ALPHAS)]
        points = sweep_alpha(graph, bt, _playback(bt), _FRONT_ALPHAS, cfg)
        assert [(p.total_time.hex(), p.quality_product.hex()) for p in points] == expected
    with_paths = playback_front_by_labels(graph, rows, 0.0, paths=True)
    for alpha in _FRONT_ALPHAS:
        time, quality, path = _least_g_point(with_paths, alpha)
        rep = brute_force_optimal(graph, bt, SearchConfig(alpha))
        assert (rep.best_path, rep.best_objective, rep.paths_enumerated) == (
            path,
            compute_g(time, quality, alpha),
            count_paths(graph),
        )


@pytest.mark.parametrize(
    ("shape", "by_labels", "shared"),
    [((1, 24, 16), 632_657, 11_122), ((1, 10, 6), 3_331, 281), ((1, 8, 8), 4_265, 228)],
)
def test_playback_front_merges_each_join_once(shape, by_labels, shared, monkeypatch):
    """Label points each pass filters, counted where it filters them: on a full chain
    join every node of a stage has the same predecessors, so the stage merges
    their fronts once, and only from the predecessors no sibling dominates."""
    merged = [0]
    non_dominated = search._non_dominated

    def counting(points):
        if points and not isinstance(points[0][-1], int):  # labels, not a group's (c, -r, id) rows
            merged[0] += len(points)
        return non_dominated(points)

    monkeypatch.setattr(search, "_non_dominated", counting)
    graph, bt, *_ = build_payload(chain_instance(*shape))
    rows = benchmark_rows(graph, bt)
    reference = playback_front_by_labels(graph, rows, 0.0)
    assert merged[0] == by_labels
    merged[0] = 0
    assert len(search.playback_front(graph, rows, 0.0)[-1]) == len(reference)
    assert merged[0] == shared


def test_oracle_and_plan_name_the_same_missing_row():
    """Rows of ChainTool-01-02 (node 6) and ChainTool-02-00 (node 7) are missing.

    verify reads rows through `suffix_bounds`, which plan calls before it
    searches, so both name node 6, the lowest node id that lacks one,
    although scoring the paths one by one meets node 7 first, on the first
    path (0, 1, 4, 7).  The loaders refuse such tables, so they are built
    here.
    """
    graph, bt, *_ = build_payload(chain_instance(3, stages=3, tools=3))
    missing = {("ChainTool-01-02", "Depth Estimation"), ("ChainTool-02-00", "Text Replacement")}
    assert {(graph.nodes[i].tool, graph.nodes[i].kind) for i in (6, 7)} == missing
    partial = BenchmarkTable(rows={key: row for key, row in bt.rows.items() if key not in missing})
    message = "no benchmark row for ('ChainTool-01-02', 'Depth Estimation')"
    with pytest.raises(MissingBenchmark, match=f"^{re.escape(message)}$"):
        brute_force_optimal(graph, partial, SearchConfig(1.0))
    with pytest.raises(MissingBenchmark, match=f"^{re.escape(message)}$"):
        suffix_bounds(graph, partial)
    with pytest.raises(MissingBenchmark, match="ChainTool-02-00"):
        enumerate_then_score(graph, partial, 1.0)


@pytest.mark.parametrize("alpha, best", [(0.0, (0, 1, 3, 4)), (1.0, (0, 1, 2)), (2.0, (0, 1, 2))])
def test_oracle_node_with_ending_and_continuing_successors(alpha, best):
    """A's successors are S1 (ends), C (goes on to D) and S2 (ends, S1's twin).

    S1's and S2's paths end with equal labels, and the front keeps the
    lexicographically first, S1's.
    """
    rows = {"A": (1.0, 0.9), "S1": (2.0, 0.8), "C": (1.0, 1.0), "D": (1.5, 0.95), "S2": (2.0, 0.8)}
    a, s1, c, d, s2 = range(1, 6)
    graph, bt = detection_graph(rows, {(0, a), (a, s1), (a, c), (c, d), (a, s2)})
    rep = brute_force_optimal(graph, bt, SearchConfig(alpha))
    assert (rep.best_path, rep.best_objective, rep.paths_enumerated) == enumerate_then_score(graph, bt, alpha)
    assert rep.best_path == best


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_oracle_tie_orders_a_prefix_after_its_extensions(alpha):
    """C takes no time and keeps quality, so (0, 1, 2, 3) and (0, 1, 3) tie exactly.

    At B the two labels come from the prefixes (0, 1, 2) and (0, 1); the
    first path runs through the longer one, so ranking labels by their bare
    predecessor's path would keep (0, 1, 3).
    """
    graph, bt = detection_graph({"A": (1.0, 0.9), "C": (0.0, 1.0), "B": (2.0, 0.8)}, {(0, 1), (1, 2), (2, 3), (1, 3)})
    rep = brute_force_optimal(graph, bt, SearchConfig(alpha))
    assert (rep.best_path, rep.best_objective, rep.paths_enumerated) == enumerate_then_score(graph, bt, alpha)
    assert rep.best_path == (0, 1, 2, 3)


def test_oracle_g_tie_goes_to_the_faster_path():
    """At alpha 1, B (1.5 s, quality 1) and A (1 s, quality 0.5) both score g = 1.5 exactly.

    Enumeration keeps B's path, the first; the oracle takes A's, the faster, as the sweep does.
    """
    graph, bt = detection_graph({"B": (1.5, 1.0), "A": (1.0, 0.5)}, {(0, 1), (0, 2)})
    assert enumerate_then_score(graph, bt, 1.0) == ((0, 1), 1.5, 2)
    rep = brute_force_optimal(graph, bt, SearchConfig(1.0))
    assert (rep.best_path, rep.best_objective) == ((0, 2), 1.5)
    (point,) = sweep_alpha(graph, bt, _playback(bt), [1.0], base_cfg=SearchConfig(quality_threshold=0.0))
    assert (point.total_time, point.quality_product) == (1.0, 0.5)


def test_oracle_keeps_the_path_whose_prefix_is_an_ulp_faster():
    """On `built_instance(132)` at alpha 0 two paths total (78.0702, 0.6227815448139155).

    At node 19, where they meet, the lexicographically first one's prefix
    sums to 45.8417 and the other's to 45.841699999999996 at the same
    quality, so the pass drops the first there and returns the second.
    """
    graph, bt, *_ = built_instance(132)
    first, best_objective, _ = enumerate_then_score(graph, bt, 0.0)
    rep = brute_force_optimal(graph, bt, SearchConfig(0.0))
    assert first == (0, 1, 2, 3, 16, 17, 18, 19, 20, 21, 28, 29)
    assert rep.best_path == (0, 7, 8, 9, 10, 11, 12, 19, 20, 21, 28, 29)
    assert rep.best_objective == best_objective
    assert path_totals(graph, bt, first) == path_totals(graph, bt, rep.best_path) == (78.0702, 0.6227815448139155)
    assert path_totals(graph, bt, first[:8]) == (45.8417, 0.8353217747887166)
    assert path_totals(graph, bt, rep.best_path[:8]) == (45.841699999999996, 0.8353217747887166)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_oracle_path_drops_a_label_its_own_row_makes_dominated(alpha):
    """A is an ulp slower than B and an ulp better, so C's prefix front holds both.

    C's row rounds both qualities to one product, so at C A's label is
    dominated and dropped, although D's row then rounds both times to one
    total and both paths end at the same point.  The oracle keeps B's path,
    as the pass that carried every label did, not A's, the first.
    """
    rows = {"A": (math.nextafter(1.0, 2.0), math.nextafter(0.8, 1.0)), "B": (1.0, 0.8), "C": (0.5, 0.75), "D": (4.0, 1.0)}
    graph, bt = detection_graph(rows, {(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)})
    assert path_totals(graph, bt, (0, 1, 3)) != path_totals(graph, bt, (0, 2, 3))
    assert path_totals(graph, bt, (0, 1, 3, 4)) == path_totals(graph, bt, (0, 2, 3, 4))
    ((*_, path),) = playback_front_by_labels(graph, benchmark_rows(graph, bt), 0.0, paths=True)
    rep = brute_force_optimal(graph, bt, SearchConfig(alpha, quality_threshold=0.0))
    assert rep.best_path == path == (0, 2, 3, 4)


# ---------------------------------------------------------------- accuracy


def test_task_accuracy_examples():
    assert task_accuracy([1, 0.9, 0.5]) == pytest.approx(0.8, abs=1e-12)
    assert task_accuracy([1, 1, 1]) == 1.0
    assert task_accuracy([0]) == 0.0


def test_overall_accuracy_examples():
    assert overall_accuracy([0.8, 1.0]) == pytest.approx(0.9, abs=1e-12)
    assert overall_accuracy([0.94]) == 0.94
    assert overall_accuracy([0, 1]) == 0.5


def test_accuracy_means_add_left_to_right():
    # Ten 0.1 scores: sum() compensates float rounding from Python 3.12 on and would give 0.1.
    assert task_accuracy([0.1] * 10) == 0.09999999999999999
    assert overall_accuracy([0.1] * 10) == 0.09999999999999999


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


# Few distinct values, so lists hold duplicates and equal times or qualities.
_TIMES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]), st.floats(min_value=0.0, max_value=10.0))
_QUALITIES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=300)
@given(st.lists(st.tuples(_TIMES, _QUALITIES), max_size=16))
def test_pareto_filter_matches_the_pairwise_rule(raw):
    pts = [ParetoPoint(alpha=i, total_time=t, quality_product=q, g_final=0) for i, (t, q) in enumerate(raw)]
    kept = pareto_filter(pts)
    want = pareto_filter_pairwise(pts)
    assert len(kept) == len(want) and all(a is b for a, b in zip(kept, want))


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


def test_configs_are_checked_on_every_construction(detection_fixture):
    """The per-alpha copies of a config are built, and so checked, like any other config."""
    graph, bt = detection_fixture
    with pytest.raises(AlphaOutOfRange):
        sweep_alpha(graph, bt, _playback(bt), [0.5, 2.5])
    base = SearchConfig(quality_threshold=0.9, max_retries=1)
    with pytest.raises(AlphaOutOfRange):
        base.with_alpha(2.5)
    copy = base.with_alpha(2.0)
    assert (copy.alpha, copy.quality_threshold, copy.max_retries) == (2.0, 0.9, 1)
    with pytest.raises(InvalidConfig):
        SearchConfig(quality_threshold=1.5)
    with pytest.raises(ParseError):
        SimulatorSpec(mode="stochastic", time_noise_sigma=-0.1)


@pytest.mark.parametrize("config", [SearchConfig(), SimulatorSpec()], ids=["SearchConfig", "SimulatorSpec"])
def test_configs_refuse_changes_after_construction(config):
    """An assignment would skip the checks a construction runs, so it raises, as does a delete."""
    name = config.__slots__[0]
    before = getattr(config, name)
    with pytest.raises(AttributeError):
        setattr(config, name, 2.5)
    with pytest.raises(AttributeError):
        delattr(config, name)
    with pytest.raises(AttributeError):
        config.unknown = 1
    assert getattr(config, name) == before


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


# ------------------------------------------------- deterministic sweep front


class _CountingSimulator(Simulator):
    """A simulator that counts the attempts it is asked to run."""

    def __init__(self, spec, bt, seed=DEFAULT_SEED):
        super().__init__(spec, bt, seed)
        self.calls = 0

    def __call__(self, node, attempt):
        self.calls += 1
        return super().__call__(node, attempt)


def _least_g(graph, bt, alpha, threshold):
    """(g, time, quality) of the path of least g, then least time, then highest quality,
    among the paths whose every node's benchmark quality meets `threshold`; None without one.

    Each path is totalled alone from the root, times from 0.0 and qualities from 1.0.
    """
    best = None
    for path in enumerate_paths(graph):
        time, quality = 0.0, 1.0
        for node_id in path[1:]:
            row = bt.row(graph.nodes[node_id].tool, graph.nodes[node_id].kind)
            if row.quality < threshold:
                break
            time, quality = time + row.time_seconds, quality * row.quality
        else:
            key = (compute_g(time, quality, alpha), time, -quality)
            best = key if best is None or key < best else best
    return None if best is None else (best[0], best[1], -best[2])


def _outcome(sweep, *args, **kwargs):
    try:
        return sweep(*args, **kwargs)
    except SearchExhausted as exc:
        return type(exc), str(exc)


_alpha_lists = st.lists(st.one_of(st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0)), st.floats(0.0, 2.0)), min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 1999),
    unit_quality=st.booleans(),
    threshold=st.sampled_from((0.0, 0.8, 0.95, 1.0)),
    alphas=_alpha_lists.flatmap(lambda a: st.permutations(a + a[:1])),
)
def test_deterministic_sweep_reads_the_search_points_off_one_front(seed, unit_quality, threshold, alphas):
    """Each point is the least-g path over the paths playback completes, ties going to the faster.

    It is the search's point bit for bit: the search's bounds total a
    suffix from its end, so two paths whose times tie in decimal can sum
    one ulp apart (seed 1467), and its stop window reaches the lower.
    Exhaustion matches the search's, type and message.
    """
    graph, bt, *_ = built_instance(seed, unit_quality=unit_quality)
    cfg = SearchConfig(quality_threshold=threshold)
    sim = _CountingSimulator(SimulatorSpec(mode="deterministic"), bt)
    points = _outcome(sweep_alpha, graph, bt, sim, alphas, base_cfg=cfg)
    reference = _outcome(sweep_by_search, graph, bt, _playback(bt), alphas, base_cfg=cfg)
    assert sim.calls == 0
    if isinstance(reference, tuple):
        assert points == reference
        assert _least_g(graph, bt, 0.0, threshold) is None
        return
    assert [p.alpha for p in points] == sorted(alphas)
    assert points == reference
    for p in points:
        assert (p.g_final, p.total_time, p.quality_product) == _least_g(graph, bt, p.alpha, threshold)


def test_alpha0_tie_takes_the_faster_point():
    """At alpha 0, g reads quality alone: two paths of seed 46 have equal quality, and the sweep
    and the search both take the faster, 68.7573 s against 73.7629 s."""
    graph, bt, *_ = built_instance(46)
    alphas = [0, 0.5, 1, 1.5, 2]
    points = sweep_alpha(graph, bt, _playback(bt), alphas)
    assert points == sweep_by_search(graph, bt, _playback(bt), alphas)
    assert pareto_csv(points).splitlines()[1] == "0,68.7573,0.892549215,1.22644724,true"


def test_sweep_point_is_not_above_the_least_g_when_the_search_is():
    """The search's bounds sum suffixes from the end, the front sums paths from the root.

    On seed 1467 at alpha 1 two paths' times tie in decimal and sum one ulp
    apart; the search's stop window reaches the lower, the sweep's point.
    """
    graph, bt, *_ = built_instance(1467)
    (point,) = sweep_alpha(graph, bt, _playback(bt), [1])
    (searched,) = sweep_by_search(graph, bt, _playback(bt), [1])
    assert point == searched
    assert (point.total_time, point.g_final) == (43.17659999999999, 49.2287512385465)


def test_only_a_deterministic_sweep_runs_no_tool(detection_fixture):
    graph, bt = detection_fixture
    alphas = [0, 0.5, 1, 1.5, 2]
    script = {(tool, kind, 1): (row.time_seconds, row.quality) for (tool, kind), row in bt.rows.items()}
    specs = {
        "deterministic": SimulatorSpec(mode="deterministic"),
        "stochastic": SimulatorSpec(mode="stochastic"),
        "scripted": SimulatorSpec(mode="scripted", script=script),
    }
    calls = {}
    for mode, spec in specs.items():
        sim = _CountingSimulator(spec, bt)
        points = sweep_alpha(graph, bt, sim, alphas)
        assert points == sweep_by_search(graph, bt, Simulator(spec, bt, DEFAULT_SEED), alphas)
        calls[mode] = sim.calls
    assert calls["deterministic"] == 0
    assert calls["stochastic"] > 0 and calls["scripted"] > 0


def test_deterministic_sweep_exhaustion_names_the_least_alpha(detection_fixture):
    graph, bt = detection_fixture
    # Every path ends at the inpainting tool, which now falls short of the threshold.
    rows = {**bt.rows, ("Stable Diffusion Inpaint", "Object Removal"): ExecutionOutcome(12.1, 0.5)}
    bt = BenchmarkTable(rows=rows)
    cfg = SearchConfig(quality_threshold=0.8, max_retries=0)
    with pytest.raises(SearchExhausted, match=re.escape("search at alpha=0.5 found no valid path")):
        sweep_alpha(graph, bt, _playback(bt), [2, 0.5, 1], base_cfg=cfg)
    with pytest.raises(SearchExhausted, match=re.escape("search at alpha=0.5 found no valid path")):
        sweep_by_search(graph, bt, _playback(bt), [2, 0.5, 1], base_cfg=cfg)


def test_deterministic_sweep_reads_rows_in_node_id_order(detection_fixture):
    """A missing row is the one the search's bounds would have met first, even on a node playback skips."""
    graph, bt = detection_fixture
    first = next(node for node in graph.nodes if not node.is_root)
    rows = {key: row for key, row in bt.rows.items() if key[0] not in (first.tool, "Stable Diffusion Inpaint")}
    partial = BenchmarkTable(rows=rows)
    messages = set()
    for sweep in (sweep_alpha, sweep_by_search):
        with pytest.raises(MissingBenchmark) as info:
            sweep(graph, partial, _playback(partial), [1], base_cfg=SearchConfig(quality_threshold=1.0))
        messages.add(str(info.value))
    assert messages == {f"no benchmark row for ({first.tool!r}, {first.kind!r})"}
