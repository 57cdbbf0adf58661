"""Subtask-tree planning front end.

Builds the text prompt handed to an external planner model and parses the
JSON subtask trees it returns.  A subtask tree is a DAG whose nodes are
labeled subtask instances; every root-to-leaf chain is one valid ordering
of the work.
"""

from __future__ import annotations

import heapq
import json
import os
import urllib.request
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TypeVar

from .errors import (
    CycleDetected,
    DanglingParent,
    EmptyTask,
    EndpointUnavailable,
    ParseError,
    TransportError,
    UnknownSubtask,
)
from .registry import PLANNER_SUBTASKS, STRINGS, canonical_subtask, json_field, parse_json

PLANNER_URL_ENV = "COSTA_PLANNER_URL"

Node = TypeVar("Node")


@dataclass(frozen=True, order=True)
class SubtaskInstance:
    """A single labeled occurrence of a subtask within one tree."""

    kind: str
    argument: str
    ordinal: int

    def label(self) -> str:
        if self.argument:
            return f"{self.kind} ({self.argument})({self.ordinal})"
        return f"{self.kind}({self.ordinal})"


@dataclass(frozen=True)
class SubtaskTree:
    """Nodes in Kahn order, ready nodes taken by label, and each node's parents."""

    nodes: tuple[SubtaskInstance, ...]
    parents: dict[SubtaskInstance, tuple[SubtaskInstance, ...]]


def _final_paren_group(text: str) -> tuple[str, str] | None:
    """Split off a trailing balanced "(...)" group; None when there is none."""
    s = text.rstrip()
    if not s.endswith(")"):
        return None
    depth = 0
    for i in range(len(s) - 1, -1, -1):
        if s[i] == ")":
            depth += 1
        elif s[i] == "(":
            depth -= 1
            if depth == 0:
                return s[:i].rstrip(), s[i + 1 : -1]
    return None


def parse_label(label: str) -> tuple[str, str, int | None]:
    """Split a node label into (kind, argument, ordinal).

    The grammar is "<Kind> (<Argument>)(<ordinal>)" with the argument
    optional.  The trailing group counts as the ordinal only when it is all
    decimal digits; a label without one gets an ordinal assigned by the caller.
    """
    rest = label.strip()
    ordinal: int | None = None
    argument = ""
    split = _final_paren_group(rest)
    if split is not None and split[1].strip().isdecimal():
        rest, group = split
        try:
            ordinal = int(group)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"the ordinal of label {rest!r} has too many digits") from None
        split = _final_paren_group(rest)
    if split is not None:
        rest, argument = split
        argument = argument.strip()
    kind = rest.strip()
    if not kind:
        raise ParseError(f"label {label!r} has no subtask name")
    return kind, argument, ordinal


def parse_subtask_tree(json_text: str) -> SubtaskTree:
    """Parse a planner-format JSON subtask tree and verify it is a DAG.

    Raises ParseError for malformed JSON or a label or instance that repeats,
    UnknownSubtask for names outside PLANNER_SUBTASKS, DanglingParent for
    unresolved parent references and CycleDetected when the parent relation
    is cyclic.  An unnumbered label gets the next ordinal after the largest
    explicit one, in input order.
    """
    raw = parse_json(json_text, "subtask tree")
    items = json_field(raw, "subtask_tree", list, "subtask tree")
    if not items:
        raise ParseError('"subtask_tree" must be a non-empty array')
    if "task" in raw:
        json_field(raw, "task", str, "subtask tree")

    rows = []
    for i, item in enumerate(items):
        label = json_field(item, "subtask", str, "tree node", i)
        parents = json_field(item, "parent", STRINGS, "tree node", i)
        kind, argument, ordinal = parse_label(label)
        try:
            kind = canonical_subtask(kind)
            if kind not in PLANNER_SUBTASKS:  # a registry-only helper subtask
                raise UnknownSubtask(kind)
        except UnknownSubtask:
            raise UnknownSubtask(f"tree node {i}: unknown subtask kind in label {label!r}") from None
        rows.append((label, kind, argument, ordinal, parents))

    next_ordinal = max(ordinal or 0 for _, _, _, ordinal, _ in rows) + 1
    by_label: dict[str, SubtaskInstance] = {}  # as written, which parent lists use
    by_name: dict[str, SubtaskInstance] = {}  # by SubtaskInstance.label()
    for label, kind, argument, ordinal, _ in rows:
        if ordinal is None:
            ordinal, next_ordinal = next_ordinal, next_ordinal + 1
        node = SubtaskInstance(kind=kind, argument=argument, ordinal=ordinal)
        if label in by_label or node.label() in by_name:
            raise ParseError(f"duplicate node label {label!r}")
        by_label[label] = by_name[node.label()] = node

    # Keyed by node label, so Kahn's algorithm takes ready nodes in label order.
    successors: dict[str, list[str]] = {name: [] for name in by_name}
    parents_resolved: dict[SubtaskInstance, tuple[SubtaskInstance, ...]] = {}
    for label, *_, parent_labels in rows:
        node = by_label[label]
        for lab in parent_labels:
            if lab not in by_label:
                raise DanglingParent(f"node {node.label()!r} references missing parent {lab!r}")
            successors[by_label[lab].label()].append(node.label())
        parents_resolved[node] = tuple(by_label[lab] for lab in parent_labels)
    if all(parents_resolved.values()):
        raise CycleDetected("subtask tree has no root (every node has a parent)")
    nodes = tuple(by_name[name] for name in kahn_order(successors))
    return SubtaskTree(nodes=nodes, parents=parents_resolved)


def kahn_order(successors: Mapping[Node, Sequence[Node]]) -> list[Node]:
    """Kahn topological order of the graph `successors` maps out.

    Every node is a key.  Among ready nodes the smallest goes first, so the
    order depends on the graph alone.  Raises CycleDetected naming one
    cycle, first node repeated last, when the graph has one.
    """
    indeg = dict.fromkeys(successors, 0)
    for targets in successors.values():
        for node in targets:
            indeg[node] += 1
    ready = [node for node, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for succ in successors[node]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) < len(indeg):
        cycle = _find_cycle(successors, [node for node, d in indeg.items() if d])
        raise CycleDetected(f"graph contains a cycle: {cycle}", cycle)
    return order


def _find_cycle(successors: Mapping[Node, Sequence[Node]], left: list[Node]) -> list[Node]:
    """One cycle among the nodes Kahn's algorithm never freed.

    Each of them keeps a predecessor among them, so a walk along
    predecessors comes back to a node it passed; that loop, reversed, is
    the cycle.
    """
    pred = {}
    for node in left:
        for succ in successors[node]:
            pred.setdefault(succ, node)
    node, walk, seen = min(left), [], set()
    while node not in seen:
        seen.add(node)
        walk.append(node)
        node = pred[node]
    cycle = walk[walk.index(node) :] + [node]
    cycle.reverse()
    return cycle


_PROMPT_TEMPLATE = """You are a planning model that decomposes an image editing request into a
subtask tree.  Each tree node is one atomic operation on the image; an edge
means the child may only run after its parent.

Rules:
1. Use only subtasks from the Supported Subtasks list, spelled exactly.
2. Label each node "<Subtask> (<Object or Detail>)(<n>)" where n numbers the
   node uniquely across the tree; replacements read (Old -> New).
3. When independent subtasks can run in either order, emit both orderings as
   separate branches; a subtask appearing in several branches gets a distinct
   number per occurrence.
4. Every root-to-leaf path must contain all subtasks required to fulfill the
   request, with dependencies ordered parent-before-child.

Supported Subtasks: {subtasks}

Respond with JSON only, shaped as:
{{"task": "<the request>", "subtask_tree": [{{"subtask": "<label>", "parent": ["<label>", ...]}}, ...]}}
Nodes with no prerequisite use an empty parent list.

Image: input_image
Request: {task}
"""


def build_planner_prompt(task_text: str) -> str:
    """Assemble the planner prompt for a task.  Deterministic per input."""
    if not task_text or not task_text.strip():
        raise EmptyTask("task description is empty")
    return _PROMPT_TEMPLATE.format(subtasks=", ".join(PLANNER_SUBTASKS), task=task_text.strip())


class HttpPlannerClient:
    """POSTs {"prompt": ...} to the endpoint and reads {"text": ...} back."""

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def generate(self, prompt_text: str) -> str:
        body = json.dumps({"prompt": prompt_text}).encode("utf-8")
        try:
            headers = {"Content-Type": "application/json"}
            req = urllib.request.Request(self.base_url, data=body, headers=headers)
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = parse_json(resp.read().decode("utf-8"), "planner response")
            return json_field(payload, "text", str, "planner response")
        # URLError is an OSError; a bad URL and UnicodeDecodeError are ValueErrors.
        except (OSError, ValueError, ParseError) as exc:
            raise TransportError(f"planner endpoint request failed: {exc}") from exc


def planner_client_from_env(url: str | None = None) -> HttpPlannerClient:
    endpoint = url or os.environ.get(PLANNER_URL_ENV)
    if not endpoint:
        raise EndpointUnavailable(
            f"no planner endpoint configured; set {PLANNER_URL_ENV} or pass a URL"
        )
    return HttpPlannerClient(endpoint)
