"""Seeded instance generators for the benchmark workloads.

Everything here is plain Python and independent of ``toolpath``: the
generators write the MDT, benchmark and subtask-tree JSON files the CLI
reads, and keep for each instance a *model* of how it was built (the
stages of each root-to-leaf ordering and, per stage, the tool sequences a
plan may use there).  ``reference.py`` computes exact optima from that model
and the written tables.

Ops come in *blocks*: a block is a fixed recipe of fresh instances drawn
from ``Random(f"{workload}/{seed}/{block}")``, so every block of a workload
has the same mix of sizes and alphas and the benchmark can stop at a block
boundary without skewing the mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# The planner-facing subtask vocabulary; trees may only use these names.
PLANNER_SUBTASKS = (
    "Object Detection",
    "Object Segmentation",
    "Object Addition",
    "Object Removal",
    "Background Removal",
    "Landmark Detection",
    "Object Replacement",
    "Image Upscaling",
    "Image Captioning",
    "Changing Scenery",
    "Object Recoloration",
    "Outpainting",
    "Depth Estimation",
    "Image Deblurring",
    "Text Extraction",
    "Text Replacement",
    "Text Removal",
    "Text Addition",
    "Text Redaction",
    "Question Answering Based on Text",
    "Keyword Highlighting",
    "Sentiment Analysis",
    "Caption Consistency Check",
    "Text Detection",
)
INPUT_IMAGE = "Input Image"


@dataclass
class Instance:
    """One generated instance: the files the CLI reads for it, and its model.

    Instances of a block share files where they can.  Chains of one block
    share an MDT and a tree and differ only in their benchmark tables; the
    trees of a registry block share its MDT and benchmark.  `files` maps each
    input ("mdt", "benchmark", "tree") to the stem of the file holding it,
    and `payloads` holds the files this instance writes, by the same keys.
    """

    name: str
    files: dict[str, str]
    payloads: dict[str, object]
    # stages[ordinal] = (kind, [tool sequence, ...]); a tool sequence is the
    # spliced helper chain followed by the candidate, as (tool, subtask) pairs.
    stages: dict
    orderings: list

    def write(self, directory: Path) -> None:
        for key, payload in self.payloads.items():
            (directory / f"{self.files[key]}.{key}.json").write_text(json.dumps(payload), encoding="utf-8")


@dataclass
class Op:
    """One workload operation: a plan call, or a sweep plus one verify per alpha."""

    op_id: str
    instance: str
    command: str  # "plan" | "sweep-verify"
    alpha: float | None = None
    sim_seed: int | None = None  # set for `--sim stochastic --seed <sim_seed>`


def _stratified_times(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """One uniform draw per equal-width stratum of [lo, hi], shuffled.

    Each time is marginally uniform on [lo, hi], so near-ties (which make
    the search expand many paths and expose the alpha < 1 gap) still occur,
    but every stage spans the whole range; that keeps the hardness of
    instances drawn from different seeds comparable.
    """
    times = [round(lo + (hi - lo) * (i + rng.random()) / k, 4) for i in range(k)]
    rng.shuffle(times)
    return times


def chain_instances(
    rng: random.Random,
    name: str,
    count: int,
    stages: int,
    tools: int,
    time_range: tuple[float, float],
    quality_range: tuple[float, float],
) -> list[Instance]:
    """`count` S-stage x K-tool chains, each with K**S paths.

    Every tool of stage s reads the result of stage s - 1 (the first stage
    reads the input image), so consecutive stages join completely
    bipartitely in both the dependency graph and the tool subgraph.  The
    chains share tool names, an MDT and a tree; each draws its own times
    and qualities.
    """
    kinds = rng.sample(PLANNER_SUBTASKS, stages)
    mdt, nodes, model = [], [], {}
    prev = None
    for s, kind in enumerate(kinds):
        names = [f"{name}-s{s:02d}-t{k:02d}" for k in range(tools)]
        inputs = [f"stage-{s - 1}-result" if s else INPUT_IMAGE]
        mdt.extend({"tool": t, "subtasks": [kind], "inputs": inputs, "outputs": [f"stage-{s}-result"]} for t in names)
        model[s + 1] = (kind, [[[t, kind]] for t in names])
        label = f"{kind} (obj)({s + 1})"
        nodes.append({"subtask": label, "parent": [prev] if prev else []})
        prev = label
    tree = {"task": f"benchmark chain {name}", "subtask_tree": nodes}
    out = []
    for c in range(count):
        bench = []
        for s, kind in enumerate(kinds):
            for k, time_s in enumerate(_stratified_times(rng, tools, *time_range)):
                bench.append(
                    {
                        "tool": f"{name}-s{s:02d}-t{k:02d}",
                        "subtask": kind,
                        "time_seconds": time_s,
                        "quality": round(rng.uniform(*quality_range), 4),
                    }
                )
        inst = f"{name}c{c:02d}"
        payloads = {"benchmark": bench, **({"mdt": mdt, "tree": tree} if c == 0 else {})}
        files = {"mdt": name, "tree": name, "benchmark": inst}
        out.append(Instance(inst, files, payloads, model, [list(range(1, stages + 1))]))
    return out


def _tree_nodes(kinds: list[str], diamond: bool):
    """Chain over `kinds`, optionally opening with an order diamond over the first two.

    Returns (tree nodes, {ordinal: kind}, root-to-leaf orderings).
    """
    nodes, kind_of = [], {}

    def add(kind, ordinal, parents):
        label = f"{kind} (obj)({ordinal})"
        nodes.append({"subtask": label, "parent": [f"{kind_of[p]} (obj)({p})" for p in parents]})
        kind_of[ordinal] = kind

    if diamond:
        a, b = kinds[0], kinds[1]
        add(a, 1, [])
        add(b, 2, [1])
        add(b, 3, [])
        add(a, 4, [3])
        heads, parents, ordinal, rest = [[1, 2], [3, 4]], [2, 4], 5, kinds[2:]
    else:
        heads, parents, ordinal, rest = [[]], [], 1, kinds
    tails: list[int] = []
    for kind in rest:
        add(kind, ordinal, parents)
        tails.append(ordinal)
        parents = [ordinal]
        ordinal += 1
    orderings = [h + tails for h in heads]
    return nodes, kind_of, orderings


def registry_instances(rng: random.Random, name: str, p: dict, distractors: int) -> list[Instance]:
    """A registry of several hundred tools plus `trees_per_block` short trees.

    Stage kinds get `candidates` tools each.  `helped_candidates` of them read
    a helper resource instead of the input image; every helper resource has
    two one-step producers with identical benchmark rows (so the producer
    tie-break cannot change the optimum) and one two-step producer chain,
    which the expansion must reject as longer.  The remaining tools are
    distractors wired among themselves through a resource pool: they make
    the dependency graph large without being reachable from any tree.
    Returns one instance per tree; the first writes the shared tables.
    """
    kinds = list(PLANNER_SUBTASKS)
    rng.shuffle(kinds)
    stage_kinds, other_kinds = kinds[: p["stage_kinds"]], kinds[p["stage_kinds"] :]
    mdt, bench = [], []

    def tool(tool_name, kind, inputs, outputs, time_s, quality):
        mdt.append({"tool": tool_name, "subtasks": [kind], "inputs": inputs, "outputs": outputs})
        bench.append({"tool": tool_name, "subtask": kind, "time_seconds": time_s, "quality": quality})

    options_of: dict[str, list] = {}
    for ki, kind in enumerate(stage_kinds):
        options = []
        helped = set(rng.sample(range(p["candidates"]), p["helped_candidates"]))
        for c in range(p["candidates"]):
            cand = f"{name}-k{ki:02d}-c{c}"
            time_s = round(rng.uniform(*p["time_range"]), 4)
            quality = round(rng.uniform(*p["quality_range"]), 4)
            if c in helped:
                resource = f"{cand}-aux"
                hkind = rng.choice(other_kinds)
                h_time = round(rng.uniform(*p["helper_time_range"]), 4)
                h_quality = round(rng.uniform(*p["quality_range"]), 4)
                for suffix in ("a", "b"):
                    tool(f"{cand}-h{suffix}", hkind, [INPUT_IMAGE], [resource], h_time, h_quality)
                mid = f"{cand}-mid"
                tool(f"{cand}-g0", hkind, [INPUT_IMAGE], [mid], h_time, h_quality)
                tool(f"{cand}-g1", hkind, [mid], [resource], h_time, h_quality)
                tool(cand, kind, [resource], [f"{kind}-out"], time_s, quality)
                options.append([[f"{cand}-ha", hkind], [cand, kind]])
            else:
                tool(cand, kind, [INPUT_IMAGE], [f"{kind}-out"], time_s, quality)
                options.append([[cand, kind]])
        options_of[kind] = options

    pool = [f"{name}-pool-{i}" for i in range(p["resource_pool"])]
    for d in range(distractors):
        inputs = rng.sample(pool + [INPUT_IMAGE], rng.randint(1, 2))
        tool(
            f"{name}-d{d:03d}",
            rng.choice(other_kinds),
            inputs,
            [rng.choice(pool)],
            round(rng.uniform(*p["time_range"]), 4),
            round(rng.uniform(*p["quality_range"]), 4),
        )

    trees = []
    lo, hi = p["stages"]
    diamonds = 0
    for t in range(p["trees_per_block"]):
        # Stage counts cycle through lo..hi and every other tree of three or
        # more stages starts with an order diamond, so every block has the
        # same mix of tree shapes.
        n_stages = lo + t % (hi - lo + 1)
        diamond = n_stages >= 3 and diamonds % 2 == 0
        diamonds += n_stages >= 3
        nodes, kind_of, orderings = _tree_nodes(rng.sample(stage_kinds, n_stages), diamond)
        stages = {o: (k, options_of[k]) for o, k in kind_of.items()}
        tree = {"task": f"benchmark registry tree {name}-{t}", "subtask_tree": nodes}
        inst = f"{name}t{t:02d}"
        payloads = {"tree": tree, **({"mdt": mdt, "benchmark": bench} if t == 0 else {})}
        trees.append(Instance(inst, {"mdt": name, "benchmark": name, "tree": inst}, payloads, stages, orderings))
    return trees


def make_block(workload: str, params: dict, alphas: list[float], seed: int, index: int):
    """Instances and ops of one block; the same (seed, index) gives the same block."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    name = f"b{index:02d}"
    instances: list[Instance] = []
    ops: list[Op] = []
    if workload in ("plan-deep", "plan-noisy", "sweep-verify"):
        # A block holds `chains` chains of each (stages, tools) shape.
        for shape, (stages, tools) in enumerate(params["shapes"]):
            instances += chain_instances(
                rng,
                f"{name}s{shape}",
                params["chains"],
                stages,
                tools,
                tuple(params["time_range"]),
                tuple(params["quality_range"]),
            )
        for c, inst in enumerate(instances):
            if workload == "sweep-verify":
                ops.append(Op(inst.name, inst.name, "sweep-verify"))
                continue
            # One alpha per instance, cycling, so a block holds the same
            # number of ops at every alpha on independent instances.
            alpha = alphas[c % len(alphas)]
            op = Op(f"{inst.name}-a{alpha:g}", inst.name, "plan", alpha)
            if workload == "plan-noisy":
                op.sim_seed = rng.randrange(2**31)
            ops.append(op)
    elif workload == "registry-wide":
        # Registry sizes spread evenly over the range, in an order that
        # interleaves small and large registries across the blocks (a
        # permutation while 7 does not divide the block count).
        lo, hi = params["distractors"]
        blocks = params["blocks"]
        distractors = round(lo + (hi - lo) * ((index * 7) % blocks) / max(blocks - 1, 1))
        for t, inst in enumerate(registry_instances(rng, name, params, distractors)):
            instances.append(inst)
            ops.append(Op(inst.name, inst.name, "plan", alphas[(index + t) % len(alphas)]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "plan-deep":
        big = params["overflow_chain"]
        (inst,) = chain_instances(
            rng,
            f"{name}big",
            1,
            big["stages"],
            big["tools"],
            tuple(params["time_range"]),
            tuple(params["quality_range"]),
        )
        instances.append(inst)
        alpha = big["alphas"][index % len(big["alphas"])]
        ops.append(Op(f"{inst.name}-a{alpha:g}", inst.name, "plan", alpha))
    return instances, ops
