"""Seeded random instance generators shared by the test modules.

Two shapes are produced: arbitrary layered DAGs for exercising the
suffix-front recursion, and pipeline-shaped instances (MDT + benchmark +
subtask tree JSON payloads) that go through the real loaders and builder.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from toolpath.graphs import ROOT_ID, PlanNode, ToolSubgraph
from toolpath.planning import SubtaskInstance
from toolpath.registry import PLANNER_SUBTASKS, BenchmarkTable, ExecutionOutcome


def _assemble(nodes: list[PlanNode], edges: set[tuple[int, int]]) -> ToolSubgraph:
    """A subgraph over `nodes` with each node's successors sorted from an edge set."""
    succ: list[list[int]] = [[] for _ in nodes]
    for a, b in edges:
        succ[a].append(b)
    return ToolSubgraph(nodes=tuple(nodes), successors=tuple(tuple(sorted(s)) for s in succ))


def random_plan_graph(
    seed: int, max_nodes: int = 40, zero_time_fraction: float = 0.1
) -> tuple[ToolSubgraph, BenchmarkTable]:
    """Random layered DAG rooted at the virtual node, plus benchmark rows.

    Every node is reachable from the root; sinks are the leaves.  Nodes are
    numbered layer by layer, so every edge climbs in id as in a built
    subgraph; tool names keep the order nodes were drawn in.  A slice of
    the times is exactly zero to exercise the 0**0 convention.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, max_nodes))
    n_layers = int(rng.integers(2, 6))
    layers: list[list[int]] = [[] for _ in range(n_layers)]
    nodes = [PlanNode(node_id=ROOT_ID, tool=None, kind=None, instance=None)]
    inst = SubtaskInstance(kind="Object Detection", argument="synthetic", ordinal=1)
    for i in range(1, n + 1):
        layer = int(rng.integers(0, n_layers))
        layers[layer].append(i)
        nodes.append(
            PlanNode(
                node_id=i,
                tool=f"T{i:03d}",
                kind=PLANNER_SUBTASKS[i % len(PLANNER_SUBTASKS)],
                instance=inst,
            )
        )
    layers = [lay for lay in layers if lay]
    edges: set[tuple[int, int]] = set()
    for li, layer in enumerate(layers):
        earlier = [ROOT_ID] + [j for prev in layers[:li] for j in prev]
        for i in layer:
            k = int(rng.integers(1, min(3, len(earlier)) + 1))
            for j in rng.choice(earlier, size=k, replace=False):
                edges.add((int(j), i))

    rows = {}
    for node in nodes[1:]:
        time = 0.0 if rng.random() < zero_time_fraction else float(rng.uniform(0.001, 20.0))
        quality = float(rng.uniform(0.05, 1.0))
        rows[(node.tool, node.kind)] = ExecutionOutcome(time_seconds=time, quality=quality)

    order = [ROOT_ID] + [i for layer in layers for i in layer]
    new_id = {old: new for new, old in enumerate(order)}
    nodes = [nodes[old]._replace(node_id=new) for new, old in enumerate(order)]
    graph = _assemble(nodes, {(new_id[a], new_id[b]) for a, b in edges})
    return graph, BenchmarkTable(rows=rows)


def random_pipeline_instance(seed: int, unit_quality: bool = False) -> dict:
    """Pipeline-shaped instance as JSON payloads: {"mdt", "benchmark", "tree"}.

    Stages are a chain (sometimes an order-diamond) of distinct subtask
    kinds; each stage has 1..3 candidate tools, some of which require a
    helper-produced resource so the builder must splice prerequisite
    chains.  Qualities stay at or above 0.8 so the default threshold never
    rejects anything; unit_quality pins them all to 1.0.
    """
    rng = np.random.default_rng(seed)
    n_stages = int(rng.integers(2, 5))
    kinds = [PLANNER_SUBTASKS[int(k)] for k in rng.choice(len(PLANNER_SUBTASKS), size=n_stages + 1, replace=False)]
    stage_kinds, helper_kind = kinds[:n_stages], kinds[n_stages]

    mdt: list[dict] = []
    benchmark: list[dict] = []
    helper_count = 0

    def new_helper_chain() -> str:
        """Helper tools producing a fresh resource, grounded at the input image."""
        nonlocal helper_count
        depth = int(rng.integers(1, 3))
        consumed = "Input Image"
        resource = ""
        for _ in range(depth):
            helper_count += 1
            resource = f"artifact-{helper_count}"
            tool = f"SimHelper-{helper_count:02d}"
            mdt.append(
                {"tool": tool, "subtasks": [helper_kind], "inputs": [consumed], "outputs": [resource]}
            )
            benchmark.append(
                {
                    "tool": tool,
                    "subtask": helper_kind,
                    "time_seconds": round(float(rng.uniform(0.01, 15.0)), 4),
                    "quality": 1.0 if unit_quality else round(float(rng.uniform(0.8, 1.0)), 3),
                }
            )
            consumed = resource
        return resource

    for s, kind in enumerate(stage_kinds):
        n_tools = int(rng.integers(1, 4))
        for t in range(n_tools):
            tool = f"SimTool-{s}{chr(97 + t)}"
            if rng.random() < 0.5:
                inputs = ["Input Image"]
            else:
                inputs = [new_helper_chain()]
            mdt.append(
                {"tool": tool, "subtasks": [kind], "inputs": inputs, "outputs": [f"stage-{s}-result"]}
            )
            benchmark.append(
                {
                    "tool": tool,
                    "subtask": kind,
                    "time_seconds": round(float(rng.uniform(0.01, 15.0)), 4),
                    "quality": 1.0 if unit_quality else round(float(rng.uniform(0.8, 1.0)), 3),
                }
            )

    tree_nodes = []
    if n_stages >= 3 and rng.random() < 0.3:
        # Order-diamond over the first two stages, then the remaining chain.
        a, b = stage_kinds[0], stage_kinds[1]
        tree_nodes.append({"subtask": f"{a} (obj)(1)", "parent": []})
        tree_nodes.append({"subtask": f"{b} (obj)(2)", "parent": [f"{a} (obj)(1)"]})
        tree_nodes.append({"subtask": f"{b} (obj)(3)", "parent": []})
        tree_nodes.append({"subtask": f"{a} (obj)(4)", "parent": [f"{b} (obj)(3)"]})
        prev = [f"{b} (obj)(2)", f"{a} (obj)(4)"]
        ordinal = 5
        rest = stage_kinds[2:]
    else:
        prev = []
        ordinal = 1
        rest = stage_kinds
    for kind in rest:
        label = f"{kind} (obj)({ordinal})"
        tree_nodes.append({"subtask": label, "parent": list(prev)})
        prev = [label]
        ordinal += 1

    return {
        "mdt": mdt,
        "benchmark": benchmark,
        "tree": {"task": f"synthetic pipeline {seed}", "subtask_tree": tree_nodes},
    }


def registry_instance(seed: int, distractors: int = 400) -> dict:
    """A short chain tree against a registry of mostly distractor rows, as JSON payloads.

    Shaped like perfbench's registry-wide workload: each of 2-4 stage kinds
    has three candidates, the first of which reads a helper resource that
    two one-step producers and one two-step chain make, all of one other
    kind.  The distractors take the other kinds too, and read and write a
    pool of 30 resources that nothing in the tree needs, so a plan reads
    none of their rows.
    """
    rng = np.random.default_rng(seed)
    order = [PLANNER_SUBTASKS[int(k)] for k in rng.permutation(len(PLANNER_SUBTASKS))]
    n_stages = int(rng.integers(2, 5))
    stage_kinds, other_kinds = order[:n_stages], order[n_stages:]
    mdt: list[dict] = []
    benchmark: list[dict] = []

    def tool(name: str, kind: str, inputs: list[str], output: str) -> None:
        mdt.append({"tool": name, "subtasks": [kind], "inputs": inputs, "outputs": [output]})
        time_s, quality = round(float(rng.uniform(0.5, 10.0)), 4), round(float(rng.uniform(0.9, 1.0)), 4)
        benchmark.append({"tool": name, "subtask": kind, "time_seconds": time_s, "quality": quality})

    tree_nodes: list[dict] = []
    for s, kind in enumerate(stage_kinds):
        helper_kind = other_kinds[int(rng.integers(len(other_kinds)))]
        aux, mid = f"stage-{s}-aux", f"stage-{s}-mid"
        for name in ("a", "b"):
            tool(f"Helper-{s}{name}", helper_kind, ["Input Image"], aux)
        tool(f"Helper-{s}g0", helper_kind, ["Input Image"], mid)
        tool(f"Helper-{s}g1", helper_kind, [mid], aux)
        for c in range(3):
            tool(f"Stage-{s}{c}", kind, [aux] if c == 0 else ["Input Image"], f"stage-{s}-result")
        parent = [tree_nodes[-1]["subtask"]] if tree_nodes else []
        tree_nodes.append({"subtask": f"{kind} (obj)({s + 1})", "parent": parent})
    pool = [f"pool-{i}" for i in range(30)]
    for d in range(distractors):
        inputs = [pool[int(i)] for i in rng.choice(len(pool), size=int(rng.integers(1, 3)), replace=False)]
        tool(f"Distractor-{d:03d}", other_kinds[int(rng.integers(len(other_kinds)))], inputs,
             pool[int(rng.integers(len(pool)))])
    return {
        "mdt": mdt,
        "benchmark": benchmark,
        "tree": {"task": f"synthetic registry {seed}", "subtask_tree": tree_nodes},
    }


def write_instance(payload: dict, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in ("mdt", "benchmark", "tree"):
        p = directory / f"{name}.json"
        p.write_text(json.dumps(payload[name], indent=2), encoding="utf-8")
        paths[name] = p
    return paths


def chain_instance(seed: int, stages: int, tools: int) -> dict:
    """S-stage x K-tool chain as JSON payloads: {"mdt", "benchmark", "tree"}.

    Every tool of stage s reads the result of stage s - 1 (the first stage
    reads the input image), so consecutive stages join completely and the
    subgraph holds K**S paths.  Times are uniform on [0.5, 10] and raw
    qualities on [0.9, 1]; stages take distinct subtask kinds, so S is at
    most the 24 planner subtasks.
    """
    rng = np.random.default_rng(seed)
    kinds = [PLANNER_SUBTASKS[int(k)] for k in rng.permutation(len(PLANNER_SUBTASKS))[:stages]]
    mdt: list[dict] = []
    benchmark: list[dict] = []
    tree_nodes: list[dict] = []
    for s, kind in enumerate(kinds):
        inputs = [f"stage-{s - 1}-result" if s else "Input Image"]
        for t in range(tools):
            tool = f"ChainTool-{s:02d}-{t:02d}"
            mdt.append({"tool": tool, "subtasks": [kind], "inputs": inputs, "outputs": [f"stage-{s}-result"]})
            benchmark.append(
                {
                    "tool": tool,
                    "subtask": kind,
                    "time_seconds": round(float(rng.uniform(0.5, 10.0)), 4),
                    "quality": round(float(rng.uniform(0.9, 1.0)), 4),
                }
            )
        parent = [tree_nodes[-1]["subtask"]] if tree_nodes else []
        tree_nodes.append({"subtask": f"{kind} (obj)({s + 1})", "parent": parent})
    return {
        "mdt": mdt,
        "benchmark": benchmark,
        "tree": {"task": f"synthetic chain {seed}", "subtask_tree": tree_nodes},
    }


def tradeoff_chain_instance(stages: int) -> dict:
    """S-stage x 2-tool chain whose 2**S paths are all Pareto-optimal.

    At stage s, tool 1 takes 1 + 2**s s at quality 1 and tool 0 takes 1 s
    at quality exp(-1e-7 * 2**s).  A path that takes tool 1 at the stages
    of a bit mask x takes S + x s at quality exp(-1e-7 * (2**S - 1 - x)), so
    every faster path is worse and each Pareto pass keeps every prefix:
    the suffix fronts hold 2**(S+1) - 2 points and the playback front
    keeps 2**(S+1) - 1 labels.  Stages take the first S planner subtasks,
    so S is at most 24.
    """
    mdt: list[dict] = []
    benchmark: list[dict] = []
    tree_nodes: list[dict] = []
    for s, kind in enumerate(PLANNER_SUBTASKS[:stages]):
        inputs = [f"stage-{s - 1}-result" if s else "Input Image"]
        rows = ((1.0, math.exp(-1e-7 * 2**s)), (1.0 + 2**s, 1.0))
        for t, (time_seconds, quality) in enumerate(rows):
            tool = f"TradeoffTool-{s:02d}-{t}"
            mdt.append({"tool": tool, "subtasks": [kind], "inputs": inputs, "outputs": [f"stage-{s}-result"]})
            benchmark.append({"tool": tool, "subtask": kind, "time_seconds": time_seconds, "quality": quality})
        parent = [tree_nodes[-1]["subtask"]] if tree_nodes else []
        tree_nodes.append({"subtask": f"{kind} (obj)({s + 1})", "parent": parent})
    return {
        "mdt": mdt,
        "benchmark": benchmark,
        "tree": {"task": f"trade-off chain {stages}", "subtask_tree": tree_nodes},
    }


def deep_chain_instance(depth: int) -> dict:
    """One tool and a subtask tree that is a single chain `depth` nodes deep."""
    kind = "Image Deblurring"
    tree_nodes = [
        {"subtask": f"{kind} (x)({i})", "parent": [f"{kind} (x)({i - 1})"] if i > 1 else []}
        for i in range(1, depth + 1)
    ]
    return {
        "mdt": [{"tool": "Deblur", "subtasks": [kind], "inputs": ["Input Image"], "outputs": ["Input Image"]}],
        "benchmark": [{"tool": "Deblur", "subtask": kind, "time_seconds": 1.0, "quality": 1.0}],
        "tree": {"task": f"deep chain {depth}", "subtask_tree": tree_nodes},
    }


def deep_prerequisite_instance(depth: int) -> dict:
    """A one-subtask tree whose only tool needs a `depth`-long helper chain.

    Helper H_i turns resource R_{i+1} into R_i, H_{depth-1} reads the input
    image, and Deblur needs R0, so resolving Deblur's prerequisites walks
    every helper in turn.
    """
    kind = "Image Deblurring"
    helpers = [
        {
            "tool": f"H{i}",
            "subtasks": ["Object Detection"],
            "inputs": [f"R{i + 1}" if i + 1 < depth else "Input Image"],
            "outputs": [f"R{i}"],
        }
        for i in range(depth)
    ]
    return {
        "mdt": [{"tool": "Deblur", "subtasks": [kind], "inputs": ["R0"], "outputs": ["Sharp Image"]}, *helpers],
        "benchmark": [
            {"tool": "Deblur", "subtask": kind, "time_seconds": 1.0, "quality": 1.0},
            *(
                {"tool": h["tool"], "subtask": "Object Detection", "time_seconds": 0.1, "quality": 1.0}
                for h in helpers
            ),
        ],
        "tree": {"task": "sharpen", "subtask_tree": [{"subtask": f"{kind}(1)", "parent": []}]},
    }


def detection_graph(rows: dict[str, tuple[float, float]], edges):
    """ROOT (id 0) plus one Object Detection candidate per tool of `rows`,
    ids from 1 in order, and the (time, quality) benchmark table of `rows`.

    Raises ValueError for an edge that does not climb in id, which no
    built subgraph has.
    """
    if any(a >= b for a, b in edges):
        raise ValueError(f"edges must climb in id: {sorted(e for e in edges if e[0] >= e[1])}")
    inst = SubtaskInstance(kind="Object Detection", argument="x", ordinal=1)
    nodes = [PlanNode(node_id=ROOT_ID, tool=None, kind=None, instance=None)] + [
        PlanNode(node_id=i, tool=t, kind="Object Detection", instance=inst)
        for i, t in enumerate(rows, start=1)
    ]
    bt = BenchmarkTable(rows={(t, "Object Detection"): ExecutionOutcome(c, q) for t, (c, q) in rows.items()})
    return _assemble(nodes, edges), bt


def built_instance(seed: int, unit_quality: bool = False):
    """Instance materialized through the real parsers and builder."""
    return build_payload(random_pipeline_instance(seed, unit_quality=unit_quality))


def build_payload(payload: dict):
    """(graph, benchmark table, tree, payload) of a JSON-payload instance."""
    from toolpath.graphs import build_tool_subgraph
    from toolpath.planning import parse_subtask_tree
    from toolpath.registry import parse_benchmark, parse_mdt

    mdt = parse_mdt(json.dumps(payload["mdt"]))
    bt = parse_benchmark(json.dumps(payload["benchmark"]), mdt)
    tree = parse_subtask_tree(json.dumps(payload["tree"]))
    graph = build_tool_subgraph(tree, mdt)
    return graph, bt, tree, payload
