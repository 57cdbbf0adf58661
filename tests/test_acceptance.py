"""Acceptance suite: one test per release criterion.

Each test prints a single "criterion N: PASS <summary>" line on success, so
`pytest tests/test_acceptance.py -v -s` doubles as the acceptance report.
"""

from __future__ import annotations

import json
import time

import pytest

from oracles import (
    attempts_for,
    enumerate_paths,
    load_json,
    pairwise_tdg_edges,
    path_objective,
    reference_fronts,
    root_to_leaf_orderings,
    sinks,
)
from synth import built_instance, random_plan_graph, random_pipeline_instance, write_instance
from toolpath.cli import main
from toolpath.errors import CycleDetected, DanglingParent
from toolpath.evaluation import (
    brute_force_optimal,
    overall_accuracy,
    sweep_alpha,
    task_accuracy,
)
from toolpath.execution import DEFAULT_SEED, Simulator, SimulatorSpec
from toolpath.graphs import ROOT_ID, build_tdg, build_tool_subgraph
from toolpath.planning import parse_subtask_tree
from toolpath.registry import load_mdt
from toolpath.search import SearchConfig, _front_bound, astar_search, compute_g, suffix_bounds


def _report(n: int, summary: str) -> None:
    print(f"criterion {n}: PASS {summary}")


def test_criterion_01_tdg_construction(data_dir, full_tables):
    start = time.monotonic()
    mdt, _ = full_tables
    tdg = build_tdg(mdt)
    oracle = pairwise_tdg_edges(load_json(data_dir / "mdt_full.json"))
    assert set(tdg.edges) == oracle

    excerpt = load_mdt(data_dir / "mdt_table1.json")
    excerpt_tdg = build_tdg(excerpt)
    assert ("YOLO", "SAM") in excerpt_tdg.edges
    assert ("SAM", "DALL-E") in excerpt_tdg.edges
    assert ("SAM", "Stable Diffusion Inpaint") in excerpt_tdg.edges
    assert ("EasyOCR", "YOLO") not in excerpt_tdg.edges
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"dependency edges match the pairwise oracle ({len(tdg.edges)} edges, {elapsed:.3f}s)")


def test_criterion_02_subtask_tree_parsing(data_dir):
    start = time.monotonic()
    tree1 = parse_subtask_tree((data_dir / "tree_example1.json").read_text())
    tree2 = parse_subtask_tree((data_dir / "tree_example2.json").read_text())
    assert len(tree1.nodes) == 6 and len(tree2.nodes) == 6
    assert len(root_to_leaf_orderings(tree1)) == 2

    cyclic = {
        "task": "x",
        "subtask_tree": [
            {"subtask": "Object Detection (A)(1)", "parent": ["Object Removal (B)(2)"]},
            {"subtask": "Object Removal (B)(2)", "parent": ["Object Detection (A)(1)"]},
        ],
    }
    with pytest.raises(CycleDetected):
        parse_subtask_tree(json.dumps(cyclic))
    dangling = {
        "task": "x",
        "subtask_tree": [{"subtask": "Object Detection (A)(1)", "parent": ["Ghost (B)(9)"]}],
    }
    with pytest.raises(DanglingParent):
        parse_subtask_tree(json.dumps(dangling))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, f"example trees parse to 6-node DAGs, 2 orderings; rejects verified ({elapsed:.3f}s)")


def test_criterion_03_heuristic_correctness():
    """The search's suffix estimate: per node, the Pareto front of (suffix
    time, suffix quality product), and the bound it puts on the root."""
    start = time.monotonic()
    alphas = (0.0, 0.5, 1.0, 1.5, 2.0)
    checked = 0
    for seed in range(100):
        graph, bt = random_plan_graph(seed, max_nodes=40)
        assert len(graph.nodes) <= 40
        fronts = suffix_bounds(graph, bt).fronts
        want = reference_fronts(graph, bt)
        assert list(fronts) == want
        checked += len(want)
        for node_id in sinks(graph):
            assert fronts[node_id] == ((0.0, 1.0),)
        for alpha in alphas:
            least = min(compute_g(t, q, alpha) for t, q in want[ROOT_ID])
            assert _front_bound(fronts[ROOT_ID], 0.0, 1.0, alpha)[0] == least
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(3, f"{checked} node fronts match the from-scratch recomputation ({elapsed:.1f}s)")


def test_criterion_04_objective_spot_checks():
    prefix_time = 0.0062 + 0.046
    prefix_quality = 0.82 * 1.0
    assert compute_g(prefix_time, prefix_quality, 1.0) == pytest.approx(0.061596, abs=1e-9)
    assert compute_g(prefix_time, prefix_quality, 2.0) == pytest.approx(0.00272484, abs=1e-9)
    assert compute_g(0.0, 1.0, 0.7) == 0.0
    assert compute_g(0.0, 1.0, 0.0) == 0.0
    _report(4, "prefix objective reproduces the hand-derived values; root prefix is 0 exactly")


@pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, 2.0))
def test_criterion_05_reducible_corner(alpha):
    """Unit-quality corner: the search must match the enumeration oracle.

    The search orders its queue by the exact suffix-front bound, which never
    exceeds the objective of any completion at any alpha and equals it at a
    sink, so under deterministic execution the first sink popped is optimal
    and the oracle gap is 0 on every instance.  At alpha = 0 every path has
    the same objective, so only the gap is checked; for alpha >= 1 the
    returned path's total time is also checked against the enumeration
    minimum.
    """
    start = time.monotonic()
    violations: list[tuple[int, float]] = []
    for seed in range(200):
        graph, bt, *_ = built_instance(seed, unit_quality=True)
        assert len(enumerate_paths(graph, cap=10**4)) <= 10**4
        rep = brute_force_optimal(graph, bt, alpha)
        if rep.gap != 0.0:
            violations.append((seed, rep.gap))
            continue
        if alpha >= 1.0:
            # objective is strictly monotone in total time here, so the
            # returned path's time equals the enumeration minimum exactly
            def total_time(path):
                return sum(
                    bt.row(graph.nodes[i].tool, graph.nodes[i].kind).time_seconds
                    for i in path
                    if not graph.nodes[i].is_root
                )

            assert total_time(rep.astar_path) == min(
                total_time(p) for p in enumerate_paths(graph)
            )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert not violations, (
        f"alpha={alpha}: {len(violations)}/200 instances returned a suboptimal path "
        f"(sample: {violations[:5]})"
    )
    _report(5, f"alpha={alpha}: gap 0 on all 200 unit-quality subgraphs ({elapsed:.1f}s)")


def test_criterion_06_alpha_tradeoff_fixture(detection_fixture):
    graph, bt = detection_fixture
    sim = Simulator(SimulatorSpec(mode="deterministic"), bt, DEFAULT_SEED)

    def run(alpha):
        return astar_search(graph, suffix_bounds(graph, bt), sim, SearchConfig(alpha=alpha))

    fast = run(2.0)
    good = run(0.0)
    assert [graph.nodes[i].tool for i in fast.path.node_ids[1:2]] == ["YOLOv7"]
    assert [graph.nodes[i].tool for i in good.path.node_ids[1:2]] == ["Grounding DINO"]
    for alpha, res in ((2.0, fast), (0.0, good)):
        objectives = {p: path_objective(graph, bt, p, alpha) for p in enumerate_paths(graph)}
        assert objectives[res.path.node_ids] == min(objectives.values())

    points = sweep_alpha(graph, bt, sim, [0, 2])
    assert points[1].total_time <= points[0].total_time
    assert points[1].quality_product <= points[0].quality_product
    _report(6, "alpha=2 picks the fast detector, alpha=0 the accurate one; sweep direction holds")


def test_criterion_07_retry_semantics():
    from toolpath.registry import parse_benchmark, parse_mdt

    mdt = parse_mdt(json.dumps([
        {"tool": "A", "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["Bounding Boxes"]},
        {"tool": "B", "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["Bounding Boxes"]},
    ]))
    bt = parse_benchmark(json.dumps([
        {"tool": "A", "subtask": "Object Detection", "time_seconds": 1.0, "quality": 1.0},
        {"tool": "B", "subtask": "Object Detection", "time_seconds": 5.0, "quality": 1.0},
    ]), mdt)
    tree = parse_subtask_tree(json.dumps(
        {"task": "t", "subtask_tree": [{"subtask": "Object Detection (X)(1)", "parent": []}]}
    ))
    graph = build_tool_subgraph(tree, mdt)
    node_a = next(n for n in graph.nodes if n.tool == "A")

    # (a) the comparison is >=: exactly-at-threshold passes with no retry
    script = {("A", "Object Detection", 1): (1.0, 0.8), ("B", "Object Detection", 1): (5.0, 1.0)}
    sim = Simulator(SimulatorSpec(mode="scripted", script=script), bt, seed=0)
    cfg = SearchConfig(alpha=1.0, quality_threshold=0.8)
    res = astar_search(graph, suffix_bounds(graph, bt), sim, cfg)
    assert [graph.nodes[i].tool for i in res.path.node_ids[1:]] == ["A"]
    assert attempts_for(res.trace, node_a.node_id) == 1

    # (b) after max_retries failures the path is dropped and the sibling returned
    script = {("A", "Object Detection", k): (1.0, 0.1) for k in range(1, 5)}
    script[("B", "Object Detection", 1)] = (5.0, 1.0)
    sim = Simulator(SimulatorSpec(mode="scripted", script=script), bt, seed=0)
    cfg = SearchConfig(alpha=1.0, quality_threshold=0.8, max_retries=3)
    res = astar_search(graph, suffix_bounds(graph, bt), sim, cfg)
    assert [graph.nodes[i].tool for i in res.path.node_ids[1:]] == ["B"]
    assert attempts_for(res.trace, node_a.node_id) == 4  # never re-queued afterwards

    # (c) the trace total includes every failed attempt
    assert res.trace.total_time == pytest.approx(4 * 1.0 + 5.0, abs=1e-12)
    _report(7, "threshold is inclusive, exhausted retries drop the path, trace keeps failed time")


def test_criterion_08_oracle_gap_report(tmp_path):
    start = time.monotonic()
    rows = []
    corner_count = 0
    for seed in range(500):
        alpha = (0.0, 1.0, 2.0)[seed % 3]
        unit = seed % 2 == 0
        payload = random_pipeline_instance(seed, unit_quality=unit)
        paths = write_instance(payload, tmp_path / f"inst{seed:03d}")
        out = tmp_path / f"report{seed:03d}.json"
        code = main([
            "verify",
            "--mdt", str(paths["mdt"]),
            "--benchmark", str(paths["benchmark"]),
            "--tree", str(paths["tree"]),
            "--alpha", str(alpha),
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["gap"] >= 0.0
        if alpha == 1.0 and unit:
            corner_count += 1
            assert report["gap"] == 0.0
        rows.append((seed, alpha, unit, report["paths_enumerated"], report["gap"]))

    csv_path = tmp_path / "gap_distribution.csv"
    lines = ["seed,alpha,unit_quality,paths,gap"]
    lines += [f"{s},{a},{int(u)},{p},{g!r}" for s, a, u, p, g in rows]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    nonzero = sum(1 for *_, g in rows if g > 0)
    _report(
        8,
        f"500 instances verified: gap >= 0 everywhere, gap = 0 on all {corner_count} "
        f"alpha=1 unit-quality instances; {nonzero} measured nonzero gaps recorded in "
        f"{csv_path.name} ({elapsed:.1f}s)",
    )


def test_criterion_09_determinism(data_dir, tmp_path):
    args = [
        "--mdt", str(data_dir / "mdt_detection_choice.json"),
        "--benchmark", str(data_dir / "benchmark_detection_choice.json"),
        "--tree", str(data_dir / "tree_detection_choice.json"),
    ]
    plan_a, plan_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (plan_a, plan_b):
        assert main(["plan", *args, "--alpha", "1", "--out", str(out)]) == 0
    assert plan_a.read_bytes() == plan_b.read_bytes()

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (csv_a, csv_b):
        assert main(["sweep", *args, "--alphas", "0,0.5,1,1.5,2", "--csv", str(out)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    _report(9, "plan JSON and sweep CSV are byte-identical across repeated runs")


def test_criterion_10_accuracy_aggregation():
    assert task_accuracy([1, 0.9, 0.5]) == pytest.approx(0.8, abs=1e-12)
    assert overall_accuracy([0.8, 1.0]) == pytest.approx(0.9, abs=1e-12)
    from toolpath.errors import InvalidScore

    with pytest.raises(InvalidScore):
        task_accuracy([0.85])
    _report(10, "subtask and task means reproduce the aggregation formulas at 1e-12")
