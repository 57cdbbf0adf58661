"""Tool dependency graph and tool-subgraph construction.

The tool dependency graph (TDG) links tool u to tool v whenever some output
resource of u matches some input resource of v; the `graph` command exports
it.  A subtask tree is expanded into a tool subgraph by replacing each
subtask instance with its candidate tools plus any prerequisite chains
spliced in front of them, so that every root-to-leaf path is an executable
toolpath.  A path ends at a node with no successors, and those sinks are
exactly the candidate nodes of the tree's leaf instances: a candidate's own
node is never shared with the same (tool, subtask) spliced in as another
candidate's prerequisite.  Candidates and prerequisite producers are read
from the registry's `by_subtask` and `producers` indexes; a producer
follows the TDG's own rule (an output of it is a missing input, tools
differ), and the TDG itself is never built for planning.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DependencyTooDeep, NoToolForSubtask, UnsatisfiableDependency
from .planning import SubtaskInstance, SubtaskTree
from .registry import ModelDescriptionTable, ToolRecord, normalize_resource

ROOT_ID = 0
ROOT_TOOL = "ROOT"

# The virtual root stands in for the user-supplied image: it costs nothing,
# has perfect quality, and produces the one resource every pipeline starts from.
ROOT_OUTPUTS = frozenset({normalize_resource("Input Image")})


class ToolDependencyGraph(NamedTuple):
    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]


def build_tdg(mdt: ModelDescriptionTable) -> ToolDependencyGraph:
    """Directed edge (u, v) exactly when an output of u is an input of v.

    Resource comparison uses the registry matching rule; self-edges are
    excluded.  Each output key is looked up among the consumers of that key,
    so only real edges are visited.
    """
    io = mdt.tool_io
    consumers: dict[str, list[str]] = {}
    for tool, (input_keys, _) in io.items():
        for key in input_keys:
            consumers.setdefault(key, []).append(tool)
    edges = {(u, v) for u, (_, outs) in io.items() for key in outs for v in consumers.get(key, ()) if u != v}
    return ToolDependencyGraph(nodes=tuple(sorted(io)), edges=frozenset(edges))


class PlanNode(NamedTuple):
    """One search node: a tool applied for a subtask instance.

    Spliced prerequisite nodes keep their own executable subtask kind (that
    is what benchmark lookups use) but carry the instance they were spliced
    in for.
    """

    node_id: int
    tool: str | None
    kind: str | None
    instance: SubtaskInstance | None

    @property
    def is_root(self) -> bool:
        return self.node_id == ROOT_ID

    def view(self) -> dict:
        """The fields that name this node in plan rows, trace events and graph JSON."""
        inst = self.instance
        return {
            "tool": ROOT_TOOL if self.is_root else self.tool,
            "subtask": self.kind,
            "argument": inst.argument if inst else None,
            "ordinal": inst.ordinal if inst else None,
        }


class ToolSubgraph(NamedTuple):
    """Nodes indexed by id and each node's successor ids in ascending order.

    Ids climb along every edge, so ascending id is a topological order and
    descending id a reverse one.  A node with no successors ends a path.
    """

    nodes: tuple[PlanNode, ...]
    successors: tuple[tuple[int, ...], ...]


def _resolve(
    record: ToolRecord,
    available: frozenset[str],
    mdt: ModelDescriptionTable,
    visiting: frozenset[tuple[str, str]],
) -> list[ToolRecord]:
    """Minimal prerequisite chain making every input of `record` available.

    Walks backwards through the producers of the candidate tool's inputs,
    resolving each missing input resource to a producer chain.  The
    shortest chain wins, and of equal lengths the first in the producer
    index's (tool, subtask) order.  Resources accumulate: once some chain
    element produces a resource, later elements may consume it without a
    direct edge, and no second chain is spliced for it.
    """
    chain: list[ToolRecord] = []
    avail = set(available)
    for resource in sorted(record.input_keys - avail):
        if resource in avail:  # an earlier chain produced it
            continue
        best: list[ToolRecord] | None = None
        for producer in mdt.producers.get(resource, ()):
            # Self-tool producers are never eligible: the TDG carries no self-edges.
            if producer.tool == record.tool or producer.key in visiting:
                continue
            try:
                sub = _resolve(producer, frozenset(avail), mdt, visiting | {record.key}) + [producer]
            except UnsatisfiableDependency:
                continue
            if best is None or len(sub) < len(best):
                best = sub
        if best is None:
            raise UnsatisfiableDependency(
                f"no producer chain for resource {resource!r} required by "
                f"{record.tool!r} ({record.subtask})"
            )
        chain += best
        avail.update(*(rec.output_keys for rec in best))
    return chain


def build_tool_subgraph(tree: SubtaskTree, mdt: ModelDescriptionTable) -> ToolSubgraph:
    """Expand a subtask tree into the tool subgraph searched by the planner.

    Each subtask instance becomes the set of tools able to perform it; a
    candidate whose inputs are not yet available along the incoming path
    gets a prerequisite chain spliced in front of it, and one whose inputs
    nothing produces is left out.  Chains of one
    instance are merged on identical prefixes, so alternatives that share
    prerequisites (e.g. detection then segmentation) fan out only at the
    point they actually diverge; a candidate's own node is keyed apart from
    the same pair spliced in as a prerequisite, so it is never merged with
    one.  Consecutive instances are joined by complete bipartite edges from
    the predecessor's terminal tools to the successor's entry tools; the
    virtual root feeds every entry of the root instances.  Instances come
    in the tree's topological order and a node is numbered when created,
    after every node with an edge into it, so ids climb along every edge.
    Each edge is appended to its tail's successor list as it is made: a
    chain edge when its head is created, a join edge once per terminal of
    each distinct parent instance.  A candidate is never extended, so each
    list comes out ascending and without duplicates, with nothing to sort.
    """
    nodes: list[PlanNode] = [PlanNode(node_id=ROOT_ID, tool=None, kind=None, instance=None)]
    succ: list[list[int]] = [[]]
    avail_out: dict[SubtaskInstance, frozenset[str]] = {}
    terminals_of: dict[SubtaskInstance, list[int]] = {}

    for inst in tree.nodes:
        parents = tree.parents[inst]
        # Every parent's avail_out already holds ROOT_OUTPUTS.
        avail_in = frozenset.intersection(*(avail_out[p] for p in parents)) if parents else ROOT_OUTPUTS

        candidates = mdt.by_subtask.get(inst.kind, ())
        if not candidates:
            raise NoToolForSubtask(f"no tool supports subtask {inst.kind!r}")

        # Keyed by (id of the node it extends, or None at a chain's start,
        # (tool, subtask), whether it is the candidate itself).
        trie: dict[tuple[int | None, tuple[str, str], bool], int] = {}
        entries: list[int] = []
        terminals: list[int] = []
        guaranteed: frozenset[str] | None = None  # what every candidate's sequence produces
        unresolved: list[UnsatisfiableDependency] = []
        for record in candidates:
            try:
                chain = _resolve(record, avail_in, mdt, frozenset())
            except RecursionError:
                raise DependencyTooDeep(
                    f"prerequisite chain of {record.tool!r} ({record.subtask}) is nested "
                    "too deeply to resolve"
                ) from None
            except UnsatisfiableDependency as exc:  # another candidate may still do the subtask
                unresolved.append(exc)
                continue
            seq = chain + [record]
            prev_id: int | None = None
            for rec in seq:
                key = (prev_id, rec.key, rec is record)
                node_id = trie.get(key)
                if node_id is None:
                    node_id = trie[key] = len(nodes)
                    nodes.append(PlanNode(node_id, rec.tool, rec.subtask, inst))
                    succ.append([])
                    if prev_id is None:
                        entries.append(node_id)
                    else:
                        succ[prev_id].append(node_id)
                prev_id = node_id
            terminals.append(prev_id)
            produced = frozenset().union(*(r.output_keys for r in seq))
            guaranteed = produced if guaranteed is None else guaranteed & produced
        if not terminals:
            raise unresolved[0]

        for p in dict.fromkeys(parents):  # a parent listed twice is joined once
            for t in terminals_of[p]:
                succ[t] += entries
        if not parents:
            succ[ROOT_ID] += entries

        terminals_of[inst] = terminals
        avail_out[inst] = avail_in | guaranteed

    return ToolSubgraph(tuple(nodes), tuple(map(tuple, succ)))


def predecessors(graph: ToolSubgraph) -> list[tuple[int, ...]]:
    """Each node's predecessor ids, in ascending order."""
    preds: list[list[int]] = [[] for _ in graph.successors]
    for node_id, succs in enumerate(graph.successors):
        for succ in succs:
            preds[succ].append(node_id)
    return [tuple(near) for near in preds]


def count_paths(graph: ToolSubgraph) -> int:
    """Number of root-to-leaf paths, via DP in ascending node id: `verify`'s `paths_enumerated`."""
    counts = [0] * len(graph.nodes)
    counts[ROOT_ID] = 1
    total = 0
    for i, succs in enumerate(graph.successors):
        if not succs:
            total += counts[i]
        for j in succs:
            counts[j] += counts[i]
    return total


def subgraph_to_json(graph: ToolSubgraph) -> dict:
    """The subgraph as a JSON-ready dict: each node's id and view, and its edges."""
    return {
        "nodes": [{"id": n.node_id, **n.view()} for n in graph.nodes],
        "edges": [[a, b] for a, succs in enumerate(graph.successors) for b in succs],
    }


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def tdg_to_dot(tdg: ToolDependencyGraph) -> str:
    lines = ["digraph tool_dependencies {"]
    for tool in tdg.nodes:
        lines.append(f'  "{_dot_escape(tool)}";')
    for u, v in sorted(tdg.edges):
        lines.append(f'  "{_dot_escape(u)}" -> "{_dot_escape(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def subgraph_to_dot(graph: ToolSubgraph) -> str:
    lines = ["digraph tool_subgraph {"]
    for n in graph.nodes:
        if n.is_root:
            label = ROOT_TOOL
        else:
            label = _dot_escape(n.tool) + "\\n" + _dot_escape(n.kind)
        shape = "diamond" if n.is_root else ("box" if graph.successors[n.node_id] else "doublecircle")
        lines.append(f'  n{n.node_id} [label="{label}", shape={shape}];')
    for a, succs in enumerate(graph.successors):
        lines.extend(f"  n{a} -> n{b};" for b in succs)
    lines.append("}")
    return "\n".join(lines) + "\n"
