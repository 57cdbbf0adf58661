from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    PathExplosion,
    count_paths_dfs,
    edge_set,
    enumerate_paths,
    expand_reference,
    load_json,
    pairwise_tdg_edges,
    resource_keys,
    root_to_leaf_orderings,
    sinks,
    tree_children,
    validate_dag,
)
from synth import _assemble, built_instance, detection_graph, random_pipeline_instance, random_plan_graph
from test_golden import FIXTURES
from toolpath.errors import (
    CycleDetected,
    NoToolForSubtask,
    UnsatisfiableDependency,
)
from toolpath.graphs import (
    ROOT_OUTPUTS,
    build_tdg,
    build_tool_subgraph,
    count_paths,
    subgraph_to_dot,
    subgraph_to_json,
    tdg_to_dot,
)
from toolpath.planning import parse_subtask_tree
from toolpath.registry import load_mdt, parse_mdt


def _tree(payload: dict):
    return parse_subtask_tree(json.dumps(payload))


def _single(kind: str, argument: str = "X"):
    return _tree({"task": "t", "subtask_tree": [{"subtask": f"{kind} ({argument})(1)", "parent": []}]})


# ---------------------------------------------------------------- TDG


def test_tdg_table1_edges(data_dir):
    mdt = load_mdt(data_dir / "mdt_table1.json")
    tdg = build_tdg(mdt)
    assert ("YOLO", "SAM") in tdg.edges
    assert ("SAM", "DALL-E") in tdg.edges
    assert ("SAM", "Stable Diffusion Inpaint") in tdg.edges
    assert ("EasyOCR", "YOLO") not in tdg.edges
    assert len(tdg.edges) == 3


def test_tdg_full_matches_pairwise_oracle(data_dir, full_tables):
    mdt, _ = full_tables
    tdg = build_tdg(mdt)
    assert set(tdg.edges) == pairwise_tdg_edges(load_json(data_dir / "mdt_full.json"))


def test_tdg_no_self_edges(full_tables):
    mdt, _ = full_tables
    tdg = build_tdg(mdt)
    assert all(u != v for (u, v) in tdg.edges)


def test_tdg_disjoint_io_has_no_edges():
    mdt = parse_mdt(json.dumps([
        {"tool": "A", "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["foo"]},
        {"tool": "B", "subtasks": ["Object Removal"], "inputs": ["bar"], "outputs": ["baz"]},
    ]))
    assert build_tdg(mdt).edges == frozenset()


def test_tdg_random_mdts_match_pairwise_oracle():
    import numpy as np

    from toolpath.registry import PLANNER_SUBTASKS

    rng = np.random.default_rng(7)
    resources = [f"res-{i}" for i in range(6)] + ["Input Image"]
    for _ in range(25):
        payload = []
        for t in range(int(rng.integers(2, 8))):
            payload.append(
                {
                    "tool": f"T{t}",
                    "subtasks": [PLANNER_SUBTASKS[t % 24]],
                    "inputs": [resources[i] for i in rng.choice(len(resources), size=2, replace=False)],
                    "outputs": [resources[i] for i in rng.choice(len(resources), size=2, replace=False)],
                }
            )
        mdt = parse_mdt(json.dumps(payload))
        assert set(build_tdg(mdt).edges) == pairwise_tdg_edges(payload)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=299), rnd=st.randoms(use_true_random=False))
def test_registry_indexes_match_scans_of_the_records(seed, rnd):
    rows = random_pipeline_instance(seed)["mdt"]
    first, last = rows[0], rows[-1]
    # A row listing no subtask: its tool has no record but stays a TDG node
    # with edges in from the first row's tool and out to the last row's.
    bare = {
        "tool": "Subtaskless",
        "subtasks": [],
        "inputs": list(first["outputs"]),
        "outputs": list(last["inputs"]),
    }
    rows = rows + [bare]
    rnd.shuffle(rows)  # the indexes are sorted whatever the row order
    mdt = parse_mdt(json.dumps(rows))
    records = list(mdt.records.values())

    assert mdt.by_subtask == {
        sub: tuple(sorted((r for r in records if r.subtask == sub), key=lambda r: r.tool))
        for sub in {r.subtask for r in records}
    }
    assert mdt.producers == {
        res: tuple(sorted((r for r in records if res in r.output_keys), key=lambda r: r.key))
        for res in {k for r in records for k in r.output_keys}
    }
    expected_io = {
        tool: (
            frozenset().union(*(r.input_keys for r in records if r.tool == tool)),
            frozenset().union(*(r.output_keys for r in records if r.tool == tool)),
        )
        for tool in {r.tool for r in records}
    }
    expected_io["Subtaskless"] = (resource_keys(bare["inputs"]), resource_keys(bare["outputs"]))
    assert mdt.tool_io == expected_io

    tdg = build_tdg(mdt)
    assert set(tdg.edges) == pairwise_tdg_edges(rows)
    assert "Subtaskless" in tdg.nodes
    assert (first["tool"], "Subtaskless") in tdg.edges
    assert ("Subtaskless", last["tool"]) in tdg.edges


# ------------------------------------------------- subgraph construction


def test_replacement_chain_on_table1(data_dir):
    mdt = load_mdt(data_dir / "mdt_table1.json")
    tree = parse_subtask_tree((data_dir / "tree_replacement.json").read_text())
    g = build_tool_subgraph(tree, mdt)
    names = [(n.tool, n.kind) for n in g.nodes[1:]]
    assert names == [
        ("YOLO", "Object Detection"),
        ("SAM", "Object Segmentation"),
        ("DALL-E", "Object Replacement"),
        ("Stable Diffusion Inpaint", "Object Replacement"),
    ]
    assert sorted(edge_set(g)) == [(0, 1), (1, 2), (2, 3), (2, 4)]
    assert sinks(g) == {3, 4}


def test_deblur_needs_no_prerequisites(data_dir, full_tables):
    mdt, _ = full_tables
    tree = parse_subtask_tree((data_dir / "tree_single_deblur.json").read_text())
    g = build_tool_subgraph(tree, mdt)
    assert len(g.nodes) == 2
    assert g.nodes[1].tool == "DeblurGAN"
    assert edge_set(g) == {(0, 1)}


def test_text_replacement_splices_full_chain(full_tables):
    mdt, _ = full_tables
    g = build_tool_subgraph(_single("Text Replacement", "A -> B"), mdt)
    tools = [n.tool for n in g.nodes[1:]]
    assert tools == [
        "CRAFT",
        "EasyOCR",
        "DeepFont",
        "LLM (GPT-4o)",
        "DALL-E",
        "Text Writing using Pillow",
    ]
    # one linear chain
    assert count_paths(g) == 1


def test_input_produced_by_an_earlier_chain_is_not_spliced_again():
    # P yields both inputs R lacks; resolving the bounding box splices P, which
    # also yields the label, so the label needs no second chain.
    mdt_payload = [
        {"tool": "P", "subtasks": ["Object Detection"], "inputs": ["Input Image"],
         "outputs": ["Bounding Box", "Label"]},
        {"tool": "R", "subtasks": ["Object Removal"], "inputs": ["Input Image", "Bounding Box", "Label"],
         "outputs": ["Image"]},
    ]
    tree_payload = {"task": "t", "subtask_tree": [{"subtask": "Object Removal (X)(1)", "parent": []}]}
    g = build_tool_subgraph(_tree(tree_payload), parse_mdt(json.dumps(mdt_payload)))
    assert [n.tool for n in g.nodes[1:]] == ["P", "R"]
    assert sorted(edge_set(g)) == [(0, 1), (1, 2)]
    ref_nodes, ref_edge_count, ref_paths = expand_reference(tree_payload, mdt_payload)
    assert (len(ref_nodes), ref_edge_count, ref_paths) == (3, 2, 1)


def test_example1_expansion_matches_reference(data_dir, full_tables):
    mdt, _ = full_tables
    tree_payload = load_json(data_dir / "tree_example1.json")
    mdt_payload = load_json(data_dir / "mdt_full.json")
    tree = parse_subtask_tree(json.dumps(tree_payload))
    g = build_tool_subgraph(tree, mdt)

    ref_nodes, ref_edge_count, ref_paths = expand_reference(tree_payload, mdt_payload)
    got_nodes = sorted(
        ("ROOT", None, None) if n.is_root else (n.instance.label(), n.tool, n.kind) for n in g.nodes
    )
    assert got_nodes == ref_nodes
    assert len(edge_set(g)) == ref_edge_count
    assert count_paths(g) == ref_paths
    # frozen hand-derived sizes for this fixture
    assert (len(g.nodes), len(edge_set(g)), count_paths(g)) == (15, 26, 32)


def test_example2_expansion_matches_reference(data_dir, full_tables):
    mdt, _ = full_tables
    tree_payload = load_json(data_dir / "tree_example2.json")
    mdt_payload = load_json(data_dir / "mdt_full.json")
    tree = parse_subtask_tree(json.dumps(tree_payload))
    g = build_tool_subgraph(tree, mdt)

    ref_nodes, ref_edge_count, ref_paths = expand_reference(tree_payload, mdt_payload)
    got_nodes = sorted(
        ("ROOT", None, None) if n.is_root else (n.instance.label(), n.tool, n.kind) for n in g.nodes
    )
    assert got_nodes == ref_nodes
    assert len(edge_set(g)) == ref_edge_count
    assert count_paths(g) == ref_paths
    assert (len(g.nodes), len(edge_set(g)), count_paths(g)) == (18, 24, 16)


def test_no_tool_for_subtask(data_dir):
    mdt = load_mdt(data_dir / "mdt_table1.json")
    with pytest.raises(NoToolForSubtask):
        build_tool_subgraph(_single("Outpainting"), mdt)


def test_unsatisfiable_dependency(data_dir):
    # On the excerpt, EasyOCR needs a text bounding box and nothing produces one.
    mdt = load_mdt(data_dir / "mdt_table1.json")
    with pytest.raises(UnsatisfiableDependency):
        build_tool_subgraph(_single("Text Extraction"), mdt)


def test_a_candidate_that_cannot_run_is_left_out():
    """Needy's input is produced by nothing, but Good can still do the subtask."""
    good = {"tool": "Good", "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["Bounding Boxes"]}
    needy = {"tool": "Needy", "subtasks": ["Object Detection"], "inputs": ["Thermal Map"], "outputs": ["Bounding Boxes"]}
    tree_payload = {"task": "t", "subtask_tree": [{"subtask": "Object Detection (X)(1)", "parent": []}]}
    g = build_tool_subgraph(_tree(tree_payload), parse_mdt(json.dumps([good, needy])))
    assert [(n.tool, n.role) for n in g.nodes[1:]] == [("Good", "candidate")]
    assert sorted(edge_set(g)) == [(0, 1)]
    assert expand_reference(tree_payload, [good, needy]) == (
        [("Object Detection (X)(1)", "Good", "Object Detection"), ("ROOT", None, None)], 1, 1
    )
    # With no candidate left, the first candidate's error is raised.
    with pytest.raises(UnsatisfiableDependency, match="'thermal map' required by 'Needy'"):
        build_tool_subgraph(_tree(tree_payload), parse_mdt(json.dumps([needy])))


def _path_is_sound(g, records, path) -> bool:
    have = set(ROOT_OUTPUTS)
    for node_id in path:
        node = g.nodes[node_id]
        if node.is_root:
            continue
        record = records[(node.tool, node.kind)]
        if not record.input_keys <= have:
            return False
        have |= record.output_keys
    return True


@pytest.mark.parametrize("seed", range(40))
def test_random_subgraph_invariants(seed):
    g, bt, tree, payload = built_instance(seed)
    records = parse_mdt(json.dumps(payload["mdt"])).records
    validate_dag(g)
    orderings = {
        tuple(n.label() for n in chain) for chain in root_to_leaf_orderings(tree)
    }
    for path in enumerate_paths(g):
        # resource soundness along every root-to-leaf path
        assert _path_is_sound(g, records, path)
        # the instances visited form exactly one root-to-leaf tree ordering
        visited: list[str] = []
        for node_id in path[1:]:
            label = g.nodes[node_id].instance.label()
            if not visited or visited[-1] != label:
                visited.append(label)
        assert tuple(visited) in orderings
        # every maximal path ends at a leaf
        assert path[-1] in sinks(g)


@pytest.mark.parametrize("seed", range(40))
def test_eq1_candidate_coverage(seed):
    g, bt, tree, payload = built_instance(seed)
    supported: dict[str, set[str]] = {}
    for row in payload["mdt"]:
        for sub in row["subtasks"]:
            supported.setdefault(sub, set()).add(row["tool"])
    for inst in tree.nodes:
        nodes = [n for n in g.nodes[1:] if n.instance == inst]
        candidates = {n.tool for n in nodes if n.role == "candidate"}
        assert candidates == supported[inst.kind]
        for n in nodes:
            assert n.role in ("candidate", "prerequisite")


def _assert_ordered_with_candidate_sinks(g, tree) -> None:
    """Every edge climbs in id, the successor lists the builder appends to equal
    the sorted, deduplicated edge set, and the sinks are the leaf instances' candidates."""
    assert all(a < b for a, b in edge_set(g))
    assert g.successors == _assemble(list(g.nodes), edge_set(g)).successors
    kids = tree_children(tree)
    leaf_candidates = {
        n.node_id for n in g.nodes if n.role == "candidate" and not kids[n.instance]
    }
    assert sinks(g) == leaf_candidates


@pytest.mark.parametrize(("tables", "tree_stem"), FIXTURES)
def test_bundled_subgraphs_are_ordered_with_candidate_sinks(tables, tree_stem, data_dir):
    tree = parse_subtask_tree((data_dir / f"tree_{tree_stem}.json").read_text())
    g = build_tool_subgraph(tree, load_mdt(data_dir / f"mdt_{tables}.json"))
    _assert_ordered_with_candidate_sinks(g, tree)


@pytest.mark.parametrize("unit_quality", [False, True])
def test_random_subgraphs_are_ordered_with_candidate_sinks(unit_quality):
    diamonds = 0
    for seed in range(300):
        g, _, tree, _ = built_instance(seed, unit_quality=unit_quality)
        _assert_ordered_with_candidate_sinks(g, tree)
        diamonds += any(len(parents) > 1 for parents in tree.parents.values())
    assert diamonds > 50  # trees with order diamonds, whose joins have two parent instances


def test_a_parent_listed_twice_is_joined_once(data_dir):
    mdt = load_mdt(data_dir / "mdt_full.json")
    first, second = "Object Detection (Pedestrian)(1)", "Object Removal (Car)(2)"

    def subgraph(parents):
        return build_tool_subgraph(parse_subtask_tree(json.dumps({"subtask_tree": [
            {"subtask": first, "parent": []}, {"subtask": second, "parent": parents},
        ]})), mdt)

    twice = subgraph([first, first])
    assert twice.successors == _assemble(list(twice.nodes), edge_set(twice)).successors
    assert twice == subgraph([first])


def test_synthetic_graphs_climb_in_id():
    """The hand-made graphs the tests search keep a built subgraph's id order."""
    for seed in range(100):
        g, _ = random_plan_graph(seed)
        assert all(a < b for a, b in edge_set(g))
    g, _ = detection_graph({"A": (1.0, 1.0), "B": (1.0, 1.0)}, {(0, 1), (1, 2)})
    assert edge_set(g) == {(0, 1), (1, 2)}
    with pytest.raises(ValueError, match=r"climb in id: \[\(2, 1\)\]"):
        detection_graph({"A": (1.0, 1.0), "B": (1.0, 1.0)}, {(0, 2), (2, 1)})


# ---------------------------------------------------------------- DAG ops


def test_validate_dag_detects_injected_back_edge(detection_fixture):
    g, _ = detection_fixture
    bad = _assemble(list(g.nodes), edge_set(g) | {(3, 0)})
    with pytest.raises(CycleDetected) as err:
        validate_dag(bad)
    assert err.value.cycle


def test_validate_dag_names_cycle_upstream_of_a_sink():
    # A hangs off the B <-> C cycle and has no successor.
    mdt = parse_mdt(json.dumps([
        {"tool": "A", "subtasks": ["Object Detection"], "inputs": ["Y"], "outputs": ["Z"]},
        {"tool": "B", "subtasks": ["Object Detection"], "inputs": ["X"], "outputs": ["Y"]},
        {"tool": "C", "subtasks": ["Object Detection"], "inputs": ["Y"], "outputs": ["X"]},
    ]))
    tdg = build_tdg(mdt)
    with pytest.raises(CycleDetected) as err:
        validate_dag(tdg)
    cycle = err.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"B", "C"}
    assert all(edge in tdg.edges for edge in zip(cycle, cycle[1:]))


def test_validate_dag_accepts_empty_graph():
    mdt = parse_mdt("[]")
    validate_dag(build_tdg(mdt))


def test_enumerate_paths_chain_and_diamond(detection_fixture):
    g, _ = detection_fixture
    paths = enumerate_paths(g)
    assert paths == [(0, 1, 3, 4), (0, 2, 3, 4)]
    assert count_paths(g) == count_paths_dfs(g) == 2


def test_enumerate_paths_cap(detection_fixture):
    g, _ = detection_fixture
    with pytest.raises(PathExplosion):
        enumerate_paths(g, cap=1)


@pytest.mark.parametrize("seed", range(20))
def test_count_paths_matches_dfs(seed):
    g, *_ = built_instance(seed)
    assert count_paths(g) == count_paths_dfs(g)


# ---------------------------------------------------------------- exports


def test_subgraph_json_export_is_deterministic(detection_fixture):
    g, _ = detection_fixture
    a = subgraph_to_json(g)
    b = subgraph_to_json(g)
    assert a == b
    payload = a
    assert {n["id"] for n in payload["nodes"]} == {n.node_id for n in g.nodes}
    assert sorted(tuple(e) for e in payload["edges"]) == sorted(edge_set(g))


def test_dot_exports(data_dir, detection_fixture):
    mdt = load_mdt(data_dir / "mdt_table1.json")
    dot = tdg_to_dot(build_tdg(mdt))
    assert '"YOLO" -> "SAM";' in dot
    g, _ = detection_fixture
    gdot = subgraph_to_dot(g)
    assert gdot.startswith("digraph")
    assert "n0" in gdot and "diamond" in gdot
