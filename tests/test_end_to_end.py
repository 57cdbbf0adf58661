"""End-to-end runs over the full bundled registry."""

from __future__ import annotations

import json

import pytest

from oracles import attempts_for, enumerate_paths, path_objective, root_to_leaf_orderings, validate_dag
from toolpath.errors import UnsatisfiableDependency
from toolpath.evaluation import brute_force_optimal
from toolpath.execution import DEFAULT_SEED, Simulator, SimulatorSpec
from toolpath.graphs import build_tool_subgraph
from toolpath.planning import parse_subtask_tree
from toolpath.registry import parse_mdt
from toolpath.search import SearchConfig, astar_search, suffix_bounds

ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0)


def _expand(full_tables, tree_json: dict):
    mdt, bt = full_tables
    tree = parse_subtask_tree(json.dumps(tree_json))
    graph = build_tool_subgraph(tree, mdt)
    return graph, bt, tree


def _search(graph, bt, alpha, **cfg_kwargs):
    cfg = SearchConfig(alpha=alpha, **cfg_kwargs)
    sim = Simulator(SimulatorSpec(mode="deterministic"), bt, DEFAULT_SEED)
    return astar_search(graph, suffix_bounds(graph, bt), sim, cfg)


def _single_tree(kind: str, argument: str = "Sign") -> dict:
    return {"task": "t", "subtask_tree": [{"subtask": f"{kind} ({argument})(1)", "parent": []}]}


def test_text_removal_expansion_shares_prefix(full_tables):
    graph, _, _ = _expand(full_tables, _single_tree("Text Removal"))
    tools = [n.tool for n in graph.nodes[1:]]
    # one spliced prefix chain, then the three removal alternatives
    assert tools[:4] == ["CRAFT", "EasyOCR", "DeepFont", "LLM (GPT-4o)"]
    assert sorted(tools[4:]) == [
        "DALL-E",
        "Stable Diffusion Erase",
        "Text Removal (Painting)",
    ]
    assert len(enumerate_paths(graph)) == 3


def test_text_removal_alpha2_fallback_after_painting_fails(full_tables):
    # The paint-over tool is by far the fastest but its quality (0.20) can
    # never reach the 0.8 threshold, so its path must burn its retries and
    # the search must fall back to the next-fastest eraser.
    graph, bt, _ = _expand(full_tables, _single_tree("Text Removal"))
    res = _search(graph, bt, alpha=2.0, max_retries=3)
    assert res.found
    assert [graph.nodes[i].tool for i in res.path.node_ids[-1:]] == ["Stable Diffusion Erase"]
    painting = next(n for n in graph.nodes if n.tool == "Text Removal (Painting)")
    assert attempts_for(res.trace, painting.node_id) == 4
    # failed attempts stay on the clock; the slower DALL-E is never run
    prefix = 1.27 + 0.15 + 1.80 + 6.20
    assert res.trace.total_time == pytest.approx(prefix + 4 * 0.045 + 13.8, abs=1e-9)
    assert res.path.cum_time == pytest.approx(prefix + 13.8, abs=1e-9)


def test_text_removal_alpha0_prefers_lossless_eraser(full_tables):
    graph, bt, _ = _expand(full_tables, _single_tree("Text Removal"))
    res = _search(graph, bt, alpha=0.0)
    assert [graph.nodes[i].tool for i in res.path.node_ids[-1:]] == ["DALL-E"]
    assert res.path.cum_quality == 1.0


def test_recoloration_alpha_direction(full_tables):
    # Inpaint (12.1s, 0.89) via a detection+segmentation chain vs the
    # one-shot recolorer (14.7s, 1.0) straight off the input image.
    graph, bt, _ = _expand(full_tables, _single_tree("Object Recoloration", "Dog -> Pink Dog"))
    fast = _search(graph, bt, alpha=2.0)
    good = _search(graph, bt, alpha=0.0)
    assert graph.nodes[fast.path.node_ids[-1]].tool == "Stable Diffusion Inpaint"
    assert graph.nodes[good.path.node_ids[-1]].tool == "Stable Diffusion Search & Recolor"
    assert fast.path.cum_time < good.path.cum_time
    assert fast.path.cum_quality < good.path.cum_quality


@pytest.mark.parametrize("tree_name", ("tree_example1.json", "tree_example2.json"))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_example_trees_plan_at_every_alpha(data_dir, full_tables, tree_name, alpha):
    mdt, bt = full_tables
    tree = parse_subtask_tree((data_dir / tree_name).read_text())
    graph = build_tool_subgraph(tree, mdt)
    validate_dag(graph)
    res = _search(graph, bt, alpha=alpha)
    assert res.found
    # the returned instance sequence is one of the tree's orderings
    orderings = {
        tuple(n.label() for n in chain) for chain in root_to_leaf_orderings(tree)
    }
    visited: list[str] = []
    for node_id in res.path.node_ids[1:]:
        label = graph.nodes[node_id].instance.label()
        if not visited or visited[-1] != label:
            visited.append(label)
    assert tuple(visited) in orderings
    # measured, not asserted zero: the search objective never beats enumeration
    rep = brute_force_optimal(graph, bt, alpha)
    assert rep.gap >= 0.0
    assert path_objective(graph, bt, res.path.node_ids, alpha) >= rep.best_objective


def test_example1_search_is_optimal_at_alpha2(data_dir, full_tables):
    # With the bundled benchmark values the alpha=2 objective is dominated
    # by the big diffusion steps; enumeration confirms the search optimum.
    mdt, bt = full_tables
    tree = parse_subtask_tree((data_dir / "tree_example1.json").read_text())
    graph = build_tool_subgraph(tree, mdt)
    rep = brute_force_optimal(graph, bt, 2.0)
    assert rep.gap == 0.0


def test_validate_dag_on_subtask_tree(data_dir):
    tree = parse_subtask_tree((data_dir / "tree_example1.json").read_text())
    validate_dag(tree)


# ------------------------------------------------- resolver stress cases


def test_resolver_rejects_mutually_recursive_producers():
    payload = [
        {"tool": "Target", "subtasks": ["Object Detection"], "inputs": ["res-x"], "outputs": ["done"]},
        {"tool": "A", "subtasks": ["Object Removal"], "inputs": ["res-y"], "outputs": ["res-x"]},
        {"tool": "B", "subtasks": ["Object Addition"], "inputs": ["res-x"], "outputs": ["res-y"]},
    ]
    mdt = parse_mdt(json.dumps(payload))
    tree = parse_subtask_tree(
        json.dumps({"task": "t", "subtask_tree": [{"subtask": "Object Detection (X)(1)", "parent": []}]})
    )
    with pytest.raises(UnsatisfiableDependency):
        build_tool_subgraph(tree, mdt)


def test_resolver_handles_deep_chain():
    payload = [
        {"tool": "Target", "subtasks": ["Object Detection"], "inputs": ["res-9"], "outputs": ["done"]}
    ]
    for i in range(10):
        consumed = "Input Image" if i == 0 else f"res-{i - 1}"
        payload.append(
            {"tool": f"Maker{i}", "subtasks": ["Object Removal"], "inputs": [consumed], "outputs": [f"res-{i}"]}
        )
    mdt = parse_mdt(json.dumps(payload))
    tree = parse_subtask_tree(
        json.dumps({"task": "t", "subtask_tree": [{"subtask": "Object Detection (X)(1)", "parent": []}]})
    )
    graph = build_tool_subgraph(tree, mdt)
    tools = [n.tool for n in graph.nodes[1:]]
    assert tools == [f"Maker{i}" for i in range(10)] + ["Target"]


def test_resolver_tie_break_is_lexicographic():
    payload = [
        {"tool": "Target", "subtasks": ["Object Detection"], "inputs": ["res-x"], "outputs": ["done"]},
        {"tool": "Zeta", "subtasks": ["Object Removal"], "inputs": ["Input Image"], "outputs": ["res-x"]},
        {"tool": "Alpha", "subtasks": ["Object Addition"], "inputs": ["Input Image"], "outputs": ["res-x"]},
    ]
    mdt = parse_mdt(json.dumps(payload))
    tree = parse_subtask_tree(
        json.dumps({"task": "t", "subtask_tree": [{"subtask": "Object Detection (X)(1)", "parent": []}]})
    )
    graph = build_tool_subgraph(tree, mdt)
    assert [n.tool for n in graph.nodes[1:]] == ["Alpha", "Target"]


def test_resolver_prefers_shorter_chain_over_name():
    payload = [
        {"tool": "Target", "subtasks": ["Object Detection"], "inputs": ["res-x"], "outputs": ["done"]},
        # "Aaa" would win a name tie, but it needs one more hop than "Zzz"
        {"tool": "Aaa", "subtasks": ["Object Removal"], "inputs": ["mid"], "outputs": ["res-x"]},
        {"tool": "Mid", "subtasks": ["Object Addition"], "inputs": ["Input Image"], "outputs": ["mid"]},
        {"tool": "Zzz", "subtasks": ["Outpainting"], "inputs": ["Input Image"], "outputs": ["res-x"]},
    ]
    mdt = parse_mdt(json.dumps(payload))
    tree = parse_subtask_tree(
        json.dumps({"task": "t", "subtask_tree": [{"subtask": "Object Detection (X)(1)", "parent": []}]})
    )
    graph = build_tool_subgraph(tree, mdt)
    assert [n.tool for n in graph.nodes[1:]] == ["Zzz", "Target"]
