"""Reference implementations the tests check the package against.

The oracles at the top are deliberately written from scratch against the
same definitions, with different data structures than the production code,
so a shared bug is unlikely to hide.  The helpers at the bottom reuse
package code; besides small views of trees, graphs and traces they hold
the test-only library helpers no command calls:

- `enumerate_paths`: every root-to-leaf path of a tool subgraph, in order;
- `path_objective`: the benchmark-valued objective of one path;
- `merge_every_successor_fronts`: the suffix pass without its sibling
  skip, the reference for `search.suffix_bounds`;
- `playback_front_by_labels`: the forward pass that carries every node's
  own labels and paths, the reference for `search.playback_front`, the
  one forward pass behind the oracle, the deterministic sweep and the
  search's stop target, and for the oracle's `best_path`;
- `lookup_models`: the tools that can perform one subtask;
- `sweep_by_search`: one search per alpha, the reference for a
  deterministic sweep;
- `eager_search`: the search loop without the rules that spare the
  executor, the reference for `search.astar_search`;
- `resource_keys`: the resource keys of a list of resource names.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math

from toolpath.errors import DuplicateEntry, MissingBenchmark, NegativeTime, ParseError, SearchExhausted
from toolpath.evaluation import ParetoPoint
from toolpath.execution import ExecutionTrace, TraceEvent, playback_table, validate_quality
from toolpath.graphs import ROOT_ID, ToolDependencyGraph, ToolSubgraph, count_paths
from toolpath.planning import SubtaskTree, kahn_order
from toolpath.registry import (
    PLANNER_SUBTASKS,
    STRINGS,
    BenchmarkTable,
    ExecutionOutcome,
    ModelDescriptionTable,
    ToolRecord,
    _squash,
    canonical_subtask,
    json_field,
    normalize_quality,
    normalize_resource,
    parse_json,
)
from toolpath import search
from toolpath.search import (
    STATUS_EXHAUSTED,
    STATUS_FOUND,
    PathStep,
    PlanResult,
    SearchConfig,
    SearchStats,
    astar_search,
    benchmark_rows,
    compute_g,
    suffix_bounds,
    validate_alpha,
)

# Most paths `enumerate_paths`, and so `enumerate_then_score`, will list.
DEFAULT_PATH_CAP = 10**6


class PathExplosion(Exception):
    """A subgraph holds more root-to-leaf paths than an enumeration's cap."""


def validate_dag(graph) -> None:
    """Acyclicity check; raises CycleDetected with one cycle."""
    if isinstance(graph, SubtaskTree):
        kahn_order(tree_children(graph))
    elif isinstance(graph, ToolSubgraph):
        kahn_order(dict(enumerate(graph.successors)))
    elif isinstance(graph, ToolDependencyGraph):
        succ: dict[str, list[str]] = {t: [] for t in graph.nodes}
        for u, v in graph.edges:
            succ[u].append(v)
        kahn_order(succ)
    else:
        raise TypeError(f"cannot validate object of type {type(graph).__name__}")


def pairwise_tdg_edges(mdt_payload: list[dict]) -> set[tuple[str, str]]:
    """Brute-force double loop over tool pairs applying the I/O overlap rule."""

    def norm(name: str) -> str:
        key = " ".join(name.split()).lower()
        return key[:-1] if key.endswith("s") else key

    ins: dict[str, set[str]] = {}
    outs: dict[str, set[str]] = {}
    for row in mdt_payload:
        tool = " ".join(row["tool"].split())
        ins.setdefault(tool, set()).update(norm(x) for x in row["inputs"])
        outs.setdefault(tool, set()).update(norm(x) for x in row["outputs"])
    edges = set()
    for a in outs:
        for b in ins:
            if a == b:
                continue
            if outs[a] & ins[b]:
                edges.add((a, b))
    return edges


def reference_fronts(graph, bt) -> list[tuple[tuple[float, float], ...]]:
    """Memoized recursion computing each node's front of (suffix time, suffix quality product).

    A node's candidates are every successor's front shifted by that
    successor's benchmark row; a candidate survives unless another one is
    at least as fast and at least as good.  A sink's front is ((0, 1),).
    Each front is returned in ascending time.
    """
    memo: dict[int, tuple[tuple[float, float], ...]] = {}

    def visit(i: int) -> tuple[tuple[float, float], ...]:
        if i not in memo:
            points = set()
            for j in graph.successors[i]:
                row = bt.row(graph.nodes[j].tool, graph.nodes[j].kind)
                points |= {(row.time_seconds + t, row.quality * q) for t, q in visit(j)}
            kept = [p for p in points if not any(o != p and o[0] <= p[0] and o[1] >= p[1] for o in points)]
            memo[i] = tuple(sorted(kept)) if kept else ((0.0, 1.0),)
        return memo[i]

    return [visit(i) for i in range(len(graph.nodes))]


def dijkstra_min_time(graph, bt) -> float:
    """Shortest root-to-leaf total benchmark time; heap-based, no heuristic."""
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    best_leaf = float("inf")
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist.get(i, float("inf")):
            continue
        if not graph.successors[i]:
            best_leaf = min(best_leaf, d)
            continue
        for j in graph.successors[i]:
            node = graph.nodes[j]
            w = bt.row(node.tool, node.kind).time_seconds
            nd = d + w
            if nd < dist.get(j, float("inf")):
                dist[j] = nd
                heapq.heappush(heap, (nd, j))
    return best_leaf


def enumerate_then_score(graph, bt, alpha: float, cap: int = DEFAULT_PATH_CAP):
    """(best path, best objective, path count) with every path scored alone.

    Each path from `enumerate_paths` is scored from the root by
    `path_objective`; the strict `<` keeps the first of equal objectives.
    The reference for `evaluation.brute_force_optimal`, which reads its
    objective off a label-setting front instead of visiting every path.
    """
    paths = enumerate_paths(graph, cap=cap)
    best_path: tuple[int, ...] = ()
    best_obj = float("inf")
    for path in paths:
        obj = path_objective(graph, bt, path, alpha)
        if obj < best_obj:
            best_path, best_obj = path, obj
    return best_path, best_obj, len(paths)


def count_paths_dfs(graph) -> int:
    """Plain recursive path count, no DP."""

    def walk(i: int) -> int:
        succs = graph.successors[i]
        if not succs:
            return 1
        return sum(walk(j) for j in succs)

    return walk(0)


def expand_reference(tree_payload: dict, mdt_payload: list[dict]):
    """Step-by-step re-execution of the expansion rule on plain dicts.

    Returns (node_keys, edge_count, path_count) where node_keys is the
    sorted list of (instance-label, tool, subtask) triples, including one
    entry for the virtual root.
    """

    def norm(name: str) -> str:
        key = " ".join(name.split()).lower()
        return key[:-1] if key.endswith("s") else key

    records = []
    for row in mdt_payload:
        for sub in row["subtasks"]:
            records.append(
                {
                    "tool": " ".join(row["tool"].split()),
                    "subtask": sub,
                    "in": {norm(x) for x in row["inputs"]},
                    "out": {norm(x) for x in row["outputs"]},
                }
            )

    def resolve(rec, avail: set, stack: frozenset) -> list:
        chain = []
        have = set(avail)
        for res in sorted(rec["in"] - have):
            if res in have:
                continue
            options = []
            for prod in records:
                if res not in prod["out"] or prod["tool"] == rec["tool"]:
                    continue
                key = (prod["tool"], prod["subtask"])
                if key in stack:
                    continue
                try:
                    sub = resolve(prod, have, stack | {(rec["tool"], rec["subtask"])})
                except ValueError:
                    continue
                options.append((len(sub) + 1, prod["tool"], prod["subtask"], sub, prod))
            if not options:
                raise ValueError(f"unsatisfiable {res}")
            options.sort(key=lambda o: o[:3])
            _, _, _, sub, prod = options[0]
            for r in sub + [prod]:
                chain.append(r)
                have |= r["out"]
        return chain

    # Kahn order over the tree, labels sorted.
    nodes = {n["subtask"]: n["parent"] for n in tree_payload["subtask_tree"]}
    children: dict[str, list[str]] = {k: [] for k in nodes}
    for label, parents in nodes.items():
        for p in parents:
            children[p].append(label)
    indeg = {k: len(v) for k, v in nodes.items()}
    ready = sorted(k for k in nodes if indeg[k] == 0)
    order = []
    while ready:
        label = ready.pop(0)
        order.append(label)
        for c in sorted(children[label]):
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
        ready.sort()

    def kind_of(label: str) -> str:
        # Strip trailing "(...)" groups: ordinal then optional argument.
        s = label.strip()
        for _ in range(2):
            if s.endswith(")"):
                depth, i = 0, len(s) - 1
                while i >= 0:
                    if s[i] == ")":
                        depth += 1
                    elif s[i] == "(":
                        depth -= 1
                        if depth == 0:
                            break
                    i -= 1
                s = s[:i].strip()
        return s

    graph_nodes: dict[tuple, int] = {("ROOT", None, None): 0}
    edges: set[tuple[int, int]] = set()
    avail_out: dict[str, set] = {}
    terminals: dict[str, list[int]] = {}
    next_id = 1

    for label in order:
        parents = nodes[label]
        avail = {"input image"}
        if parents:
            common = set(avail_out[parents[0]])
            for p in parents[1:]:
                common &= avail_out[p]
            avail |= common
        kind = kind_of(label)
        cands = sorted(
            (r for r in records if r["subtask"].lower() == kind.lower()),
            key=lambda r: r["tool"],
        )
        assert cands, f"no tool for {kind}"
        trie: dict[tuple, int] = {}
        local_edges = set()
        terms = []
        produced = []
        for cand in cands:
            try:
                seq = resolve(cand, avail, frozenset()) + [cand]
            except ValueError:  # a candidate whose inputs nothing produces is left out
                continue
            prefix = ()
            prev = None
            for rec in seq:
                prefix = prefix + ((rec["tool"], rec["subtask"]),)
                if prefix not in trie:
                    trie[prefix] = next_id
                    graph_nodes[(label, rec["tool"], rec["subtask"])] = next_id
                    next_id += 1
                nid = trie[prefix]
                if prev is not None:
                    local_edges.add((prev, nid))
                prev = nid
            terms.append(prev)
            produced.append(set().union(*(r["out"] for r in seq)))
        if not terms:
            raise ValueError(f"no candidate for {kind} resolves")
        inbound = {b for (_, b) in local_edges}
        entries = sorted(i for i in trie.values() if i not in inbound)
        edges |= local_edges
        if parents:
            for p in parents:
                for t in terminals[p]:
                    for e in entries:
                        edges.add((t, e))
        else:
            for e in entries:
                edges.add((0, e))
        terminals[label] = terms
        guaranteed = produced[0]
        for s in produced[1:]:
            guaranteed &= s
        avail_out[label] = avail | guaranteed

    succ: dict[int, list[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)

    def count(i: int) -> int:
        if i not in succ:
            return 1
        return sum(count(j) for j in succ[i])

    return sorted(graph_nodes), len(edges), count(0)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def dump_json_reference(payload) -> str:
    """The stdlib's indent-2, sorted-key encoding of an output, the reference for `cli._dump_json`."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# Test-side helpers over package types; unlike the oracles above they reuse
# package code, so they are checks of convenience, not independent ones.


def enumerate_paths(graph: ToolSubgraph, cap: int = DEFAULT_PATH_CAP) -> list[tuple[int, ...]]:
    """All root-to-leaf node-id paths in lexicographic node-id order.

    Raises PathExplosion when the DP count exceeds the cap, without
    materializing anything.  Successors are sorted, so a depth-first walk
    yields the paths in order; it keeps its own stack, so the depth of the
    graph is not bounded by recursion.
    """
    total = count_paths(graph)
    if total > cap:
        raise PathExplosion(f"{total} root-to-leaf paths exceed the cap of {cap}")
    paths: list[tuple[int, ...]] = []
    path: list[int] = []
    stack = [iter((ROOT_ID,))]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            if path:
                path.pop()
        elif graph.successors[node]:
            path.append(node)
            stack.append(iter(graph.successors[node]))
        else:
            paths.append((*path, node))
    return paths


def merge_every_successor_fronts(
    graph: ToolSubgraph, bt: BenchmarkTable
) -> list[tuple[tuple[float, float], ...]]:
    """Each node's suffix front, merged from every successor's shifted front.

    The suffix pass without skipping a successor whose row a sibling with
    the same successors weakly dominates: the reference that
    `search.suffix_bounds` must match bit for bit.  Nodes with the same
    successors share one front, built once.  It filters through
    `search._non_dominated`, read from the module at each call, so a test
    that wraps it there counts the shifted points of both passes.
    """
    rows = benchmark_rows(graph, bt)
    fronts: list[tuple[tuple[float, float], ...]] = [((0.0, 1.0),)] * len(graph.nodes)
    shared: dict[tuple[int, ...], tuple[tuple[float, float], ...]] = {}
    for node_id in reversed(range(len(graph.nodes))):
        succs = graph.successors[node_id]
        if not succs:
            continue
        if succs not in shared:
            points = []
            for succ in succs:
                c, r = rows[succ]
                points += [(c + t, -(r * q)) for t, q in fronts[succ]]
            shared[succs] = tuple((t, -neg_q) for t, neg_q in search._non_dominated(points))
        fronts[node_id] = shared[succs]
    return fronts


def playback_front_by_labels(
    graph: ToolSubgraph, rows, threshold: float, paths: bool = False
) -> list[tuple[float, float, tuple[int, ...] | None]]:
    """Pareto front of (total time, quality product, path) over the paths playback completes.

    Deterministic playback returns a node's benchmark row on every attempt,
    so a node whose quality is below `threshold` fails all of them and no
    path through it completes, while every other node passes on its first.
    One pass in ascending node id, a topological order, carries each
    node's non-dominated prefix labels, kept as (time, -quality, path), as
    the multi-objective label-setting of NAMOA* (Mandow & Perez de la Cruz,
    JACM 2010): times add from 0.0 and qualities multiply from 1.0 in path
    order, the search's order, so each point is bit-identical to the totals
    of the search's label for its path.  A label another one at its node
    weakly dominates is dropped, as the search drops it; rounding is
    monotone, so it could never complete better than that label.  Of equal
    labels the one whose path is lexicographically first is kept: a path
    ends in a sentinel above every node id, so a prefix sorts as the paths
    that extend it would.  Paths are built only when `paths` is set, and
    a label's path only once it survives at its node; the entries queued
    for its successors share that tuple.  Otherwise every path is None and
    the points are the same.  More than QUEUE_CAP labels kept over all
    nodes raise QueueOverflow.
    Points come in ascending time and quality.

    Each node merges its own labels here, with no shared fronts and no
    sibling skip: the reference that `search.playback_front` and the
    oracle's tie rule must match bit for bit.  It filters through
    `search._non_dominated`, read from the module at each call, so a test
    that wraps it there counts the labels both passes merge.
    """
    successors = graph.successors
    sentinel = len(successors)
    incoming: list[list | None] = [[] for _ in successors]
    incoming[ROOT_ID].append((0.0, -1.0, (sentinel,) if paths else None))
    ends: list[tuple[float, float, tuple[int, ...] | None]] = []
    labels_kept = 0
    for node_id, succs in enumerate(successors):
        kept = search._non_dominated(incoming[node_id])
        labels_kept += len(kept)
        search._within_capacity(labels_kept, "playback-front pass")
        incoming[node_id] = None  # read once; freeing it keeps only the unread labels alive
        if paths:
            kept = [(t, neg_q, path[:-1] + (node_id, sentinel)) for t, neg_q, path in kept]
        if not succs:
            ends += kept
        for succ in succs:
            c, q = rows[succ]
            if q >= threshold:
                incoming[succ] += [(t + c, neg_q * q, path) for t, neg_q, path in kept]
    return [(t, -neg_q, path and path[:-1]) for t, neg_q, path in search._non_dominated(ends)]


def path_totals(graph: ToolSubgraph, bt: BenchmarkTable, path) -> tuple[float, float]:
    """Benchmark (total time, quality product) of a path or prefix, totalled from the root."""
    total_time = 0.0
    quality = 1.0
    for node_id in path:
        node = graph.nodes[node_id]
        if node.is_root:
            continue
        row = bt.row(node.tool, node.kind)
        total_time += row.time_seconds
        quality *= row.quality
    return total_time, quality


def path_objective(graph: ToolSubgraph, bt: BenchmarkTable, path, alpha: float) -> float:
    """Benchmark-valued objective of one root-to-leaf path."""
    return compute_g(*path_totals(graph, bt, path), alpha)


def pareto_filter_pairwise(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """Points no other point strictly dominates, by comparing every pair.

    A point is dropped when some other point is at least as good on both
    time (lower) and quality (higher) and strictly better on one; exact
    duplicates all survive.  The reference for `evaluation.pareto_filter`.
    """
    return [
        p
        for p in points
        if not any(
            q.total_time <= p.total_time
            and q.quality_product >= p.quality_product
            and (q.total_time < p.total_time or q.quality_product > p.quality_product)
            for q in points  # strictly better on one coordinate, so never p itself
        )
    ]


def sweep_by_search(graph, bt, executor, alphas, base_cfg=None) -> list[ParetoPoint]:
    """One search per alpha, all with `executor`; output sorted by alpha.

    The reference for a deterministic `sweep_alpha`, which runs no search.
    """
    cfg0 = base_cfg if base_cfg is not None else SearchConfig()
    alphas = sorted(validate_alpha(a) for a in alphas)
    bounds = suffix_bounds(graph, bt) if alphas else None
    points = []
    for alpha in alphas:
        result = astar_search(graph, bounds, executor, cfg0.with_alpha(alpha))
        if not result.found:
            raise SearchExhausted(f"search at alpha={alpha} found no valid path")
        points.append(ParetoPoint(alpha, result.path.cum_time, result.path.cum_quality, result.path.g))
    return points


def eager_search(graph: ToolSubgraph, bounds, executor, cfg: SearchConfig) -> PlanResult:
    """`search.astar_search` with every popped live edge run: the reference for its three rules.

    This is the search's loop written out apart from it, so that a change
    to the loop leaves the reference as it is, less the three rules that
    spare the executor at an edge pop: no outcome memo, no dominance check
    before a run and no seen pass queued again at its label's key.  What
    stays is the queue key with its depth-first tie order, the stale-pop
    skip, the retries re-priced with the time spent, `_admit` after each
    pass, and the stop rule with its window and, under playback, its
    target.  It shares the bounds, `_front_bound`, `_admit`, `_path` and
    `playback_front`, which the rules do not touch.
    """
    rows, fronts, successors = bounds.rows, bounds.fronts, graph.successors
    alpha, threshold = cfg.alpha, cfg.quality_threshold
    slack = 1.0 + (8 * len(rows) + 16) * 2.0**-53
    counter = itertools.count()
    stats = dict.fromkeys(SearchStats._fields, 0)
    labels: list[list] = [[] for _ in graph.nodes]
    heap: list[tuple] = []
    events: list[TraceEvent] = []
    best, best_key, limit = None, (math.inf, math.inf, 0.0), math.inf
    playback = playback_table(executor) is not None
    target = None

    def push(node_id: int, time: float, quality: float, neg_progress: int, label, edge=None) -> None:
        key = search._front_bound(fronts[node_id], time, quality, alpha)
        heapq.heappush(heap, (*key, neg_progress, next(counter), label, edge))
        stats["peak_frontier"] = max(stats["peak_frontier"], len(heap))
        search._within_capacity(len(heap), "search queue")

    root = search._admit(labels[ROOT_ID], 0.0, 1.0, PathStep(ROOT_ID, 0.0, 1.0, 0), None)
    push(ROOT_ID, 0.0, 1.0, 0, root)
    while heap and heap[0][0] <= limit:
        *_, neg_progress, _, label, edge = heapq.heappop(heap)
        if not label.alive:
            stats["stale_pops"] += 1
        elif edge is None:
            stats["expanded"] += 1
            node_id = label.step.node_id
            if successors[node_id]:
                for succ in successors[node_id]:
                    c, q = rows[succ]
                    push(succ, label.time + c, label.quality * q, neg_progress - 1, label, (succ, 1, 0.0))
                continue
            key = (compute_g(label.time, label.quality, alpha), label.time, -label.quality)
            if key < best_key:
                best, best_key, limit = label, key, key[0] * slack
            if target is None and playback and heap and heap[0][0] <= limit:
                target = search._front_bound(search.playback_front(graph, rows, threshold)[-1], 0.0, 1.0, alpha)
            if target is None or target == best_key:
                break
        else:
            succ, attempt, spent = edge
            outcome = executor(graph.nodes[succ], attempt)
            stats["executions"] += 1
            stats["generated" if attempt == 1 else "retries"] += 1
            spent += outcome.time_seconds
            if not validate_quality(outcome, threshold):
                events.append(TraceEvent(succ, attempt, outcome.time_seconds, outcome.quality, "fail"))
                if attempt > cfg.max_retries:
                    stats["dropped_after_retries"] += 1
                else:
                    c, q = rows[succ]
                    retry = (succ, attempt + 1, spent)
                    push(succ, label.time + spent + c, label.quality * q, neg_progress, label, retry)
                continue
            time, quality = label.time + spent, label.quality * outcome.quality
            g_path = compute_g(time, quality, alpha) if attempt > 1 else None
            events.append(TraceEvent(succ, attempt, outcome.time_seconds, outcome.quality, "pass", g_path))
            step = PathStep(succ, spent, outcome.quality, attempt)
            new = search._admit(labels[succ], time, quality, step, label)
            if new is None:
                stats["pruned_by_dominance"] += 1
            else:
                push(succ, time, quality, neg_progress - 1, new)
    status, path = (STATUS_EXHAUSTED, None) if best is None else (STATUS_FOUND, search._path(best, alpha))
    return PlanResult(status, alpha, path, ExecutionTrace(tuple(events)), SearchStats(**stats))


def lookup_models(mdt: ModelDescriptionTable, subtask: str) -> set[str]:
    """Tools able to perform the given subtask.  Empty set when none can."""
    return {rec.tool for rec in mdt.by_subtask.get(canonical_subtask(subtask), ())}


def resource_keys(names) -> frozenset[str]:
    """The normalized resource keys of a list of resource names."""
    return frozenset(normalize_resource(n) for n in names)


def tree_roots(tree) -> list:
    """The nodes of a subtask tree without parents, in `tree.nodes` order."""
    return [n for n in tree.nodes if not tree.parents[n]]


def tree_children(tree) -> dict:
    """Each node of a subtask tree mapped to its children, in label order."""
    out: dict = {n: [] for n in tree.nodes}
    for node, parents in tree.parents.items():
        for p in parents:
            out[p].append(node)
    for kids in out.values():
        kids.sort(key=lambda n: n.label())
    return out


def root_to_leaf_orderings(tree) -> list[tuple]:
    """Every root-to-leaf chain of a subtask tree, in deterministic label order.

    A stack of whole chains, the next one to extend on top, so deep trees
    do not hit the recursion limit.
    """
    kids = tree_children(tree)
    stack = [(r,) for r in sorted(tree_roots(tree), key=lambda n: n.label(), reverse=True)]
    out = []
    while stack:
        chain = stack.pop()
        if kids[chain[-1]]:
            stack.extend(chain + (c,) for c in reversed(kids[chain[-1]]))
        else:
            out.append(chain)
    return out


def edge_set(graph) -> set[tuple[int, int]]:
    """Every (node, successor) pair of a tool subgraph."""
    return {(a, b) for a, succs in enumerate(graph.successors) for b in succs}


def sinks(graph) -> set[int]:
    """The node ids with no successors, where every path ends."""
    return {i for i, succs in enumerate(graph.successors) if not succs}


def chain_ends(graph) -> set[int]:
    """The ids of the non-root nodes none of whose successors share their instance.

    These are exactly the candidates: a candidate is never extended within
    its instance, while a prerequisite always is, by the next node of the
    chain it was spliced into.
    """
    nodes = graph.nodes
    return {
        node.node_id
        for node in nodes[1:]
        if all(nodes[succ].instance != node.instance for succ in graph.successors[node.node_id])
    }


def attempts_for(trace, node_id: int) -> int:
    """Number of executions a trace records for one node."""
    return sum(1 for e in trace.events if e.node_id == node_id)


def reference_parse_mdt(text: str) -> tuple[ModelDescriptionTable, tuple[str, ...]]:
    """The MDT parse with every row checked field by field, as before the one-pass parse.

    Returns the table and the subtasks its coverage warning would name.
    """

    def parse_row(i, item):
        tool = json_field(item, "tool", str, "MDT entry", i)
        if not tool.strip():
            raise ParseError(f"MDT entry {i} has an empty tool name")
        subtasks = json_field(item, "subtasks", STRINGS, "MDT entry", i)
        input_keys = resource_keys(json_field(item, "inputs", STRINGS, "MDT entry", i))
        output_keys = resource_keys(json_field(item, "outputs", STRINGS, "MDT entry", i))
        return _squash(tool), tuple(map(canonical_subtask, subtasks)), input_keys, output_keys

    records: dict[tuple[str, str], ToolRecord] = {}
    tool_io: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
    rows = [parse_row(i, item) for i, item in enumerate(parse_json(text, "MDT", list))]
    for tool, subtasks, input_keys, output_keys in rows:
        ins, outs = tool_io.get(tool, (frozenset(), frozenset()))
        tool_io[tool] = (ins | input_keys, outs | output_keys)
        for sub in subtasks:
            key = (tool, sub)
            if key in records:
                raise DuplicateEntry(f"duplicate (tool, subtask) pair {key}")
            records[key] = ToolRecord(tool, sub, input_keys, output_keys)
    by_subtask: dict[str, list[ToolRecord]] = {}
    producers: dict[str, list[ToolRecord]] = {}
    for key in sorted(records):
        rec = records[key]
        by_subtask.setdefault(rec.subtask, []).append(rec)
        for resource in rec.output_keys:
            producers.setdefault(resource, []).append(rec)
    table = ModelDescriptionTable(
        records=records,
        tool_io=tool_io,
        by_subtask={sub: tuple(recs) for sub, recs in by_subtask.items()},
        producers={res: tuple(recs) for res, recs in producers.items()},
    )
    return table, tuple(s for s in PLANNER_SUBTASKS if s not in by_subtask)


def reference_parse_benchmark(text: str, mdt: ModelDescriptionTable) -> BenchmarkTable:
    """The benchmark parse with every row checked field by field, as before the one-pass parse."""
    raw = parse_json(text, "benchmark table", list)
    times: dict[tuple[str, str], float] = {}
    qualities: dict[tuple[str, str], float] = {}
    for i, item in enumerate(raw):
        tool = _squash(json_field(item, "tool", str, "benchmark row", i))
        key = (tool, canonical_subtask(json_field(item, "subtask", str, "benchmark row", i)))
        time_s = json_field(item, "time_seconds", float, "benchmark row", i)
        quality = json_field(item, "quality", float, "benchmark row", i)
        if key not in mdt.records:
            raise ParseError(f"benchmark row {i} references {key}, which is not in the MDT")
        if key in times:
            raise DuplicateEntry(f"duplicate benchmark row for {key}")
        if time_s < 0:
            raise NegativeTime(f"negative time {time_s} for {key}")
        times[key] = time_s
        qualities[key] = quality
    missing = sorted(set(mdt.records) - set(times))
    if missing:
        raise MissingBenchmark(f"MDT pairs without benchmark rows: {missing}")
    norm = normalize_quality(qualities)
    rows = {key: ExecutionOutcome(time_seconds=times[key], quality=norm[key]) for key in times}
    return BenchmarkTable(rows=rows)
