"""Independent reference implementations the tests check the package against.

Everything here is deliberately written from scratch against the same
definitions, with different data structures than the production code, so a
shared bug is unlikely to hide.
"""

from __future__ import annotations

import heapq
import json

from toolpath.graphs import ToolDependencyGraph, ToolSubgraph
from toolpath.planning import SubtaskTree, kahn_order, root_to_leaf_paths, topological_order


def validate_dag(graph) -> None:
    """Acyclicity check; raises CycleDetected with one cycle."""
    if isinstance(graph, SubtaskTree):
        topological_order(graph)
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


def reference_heuristic(graph, bt, alpha: float) -> dict[int, tuple[float, float, float]]:
    """Memoized recursion computing (h, h_C, h_Q) per node.

    Same tie rule as the planner: among equal values the smallest successor
    id provides the propagated components.
    """
    memo: dict[int, tuple[float, float, float]] = {}

    def powz(base, exp):
        return 1.0 if base == 0.0 and exp == 0.0 else base**exp

    def visit(i: int) -> tuple[float, float, float]:
        if i in memo:
            return memo[i]
        succs = graph.successors[i]
        if not succs:
            memo[i] = (0.0, 0.0, 1.0)
            return memo[i]
        best = None
        for j in succs:
            node = graph.nodes[j]
            if node.is_root:
                c, q = 0.0, 1.0
            else:
                row = bt.row(node.tool, node.kind)
                c, q = row.time_seconds, row.quality_norm
            _, hc, hq = visit(j)
            val = powz(hc + c, alpha) * (2.0 - q * hq) ** (2.0 - alpha)
            if best is None or val < best[0]:
                best = (val, hc + c, q * hq)
        memo[i] = best
        return best

    for i in range(len(graph.nodes)):
        visit(i)
    return memo


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
            seq = resolve(cand, avail, frozenset()) + [cand]
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


# Test-side helpers over package types; unlike the oracles above they reuse
# package code, so they are checks of convenience, not independent ones.


def root_to_leaf_orderings(tree) -> list[tuple]:
    """Every root-to-leaf chain of a subtask tree, in deterministic label order."""
    return root_to_leaf_paths(sorted(tree.roots(), key=lambda n: n.label()), tree.children())


def edge_set(graph) -> set[tuple[int, int]]:
    """Every (node, successor) pair of a tool subgraph."""
    return {(a, b) for a, succs in enumerate(graph.successors) for b in succs}


def sinks(graph) -> set[int]:
    """The node ids with no successors, where every path ends."""
    return {i for i, succs in enumerate(graph.successors) if not succs}


def attempts_for(trace, node_id: int) -> int:
    """Number of executions a trace records for one node."""
    return sum(1 for e in trace.events if e.node_id == node_id)
