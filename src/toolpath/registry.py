"""Tool registry: the model description table and the benchmark table.

The model description table (MDT) declares, per tool, the subtasks it can
perform and the resource types it consumes and produces.  The benchmark
table (BT) attaches an expected execution time and a per-subtask normalized
quality score to every (tool, subtask) pair.  Both tables are immutable
after loading and safe to share across concurrent searches.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    DuplicateEntry,
    MissingBenchmark,
    NegativeTime,
    NonPositiveQuality,
    ParseError,
    UnknownSubtask,
)

logger = logging.getLogger(__name__)

# Subtask names offered to the planner, verbatim.  Trees and planner prompts
# are validated against this closed list.
PLANNER_SUBTASKS: tuple[str, ...] = (
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

# Helper capabilities that appear in the tool registry but are never offered
# to the planner directly.  Text Style Detection exists so font-style labels
# have a producer when text-editing chains are spliced together.
AUXILIARY_SUBTASKS: tuple[str, ...] = ("Text Style Detection",)

ALL_SUBTASKS: tuple[str, ...] = PLANNER_SUBTASKS + AUXILIARY_SUBTASKS


def _squash(name: str) -> str:
    return " ".join(name.split())


@functools.lru_cache(maxsize=16)
def _lowercase_index(vocabulary: tuple[str, ...]) -> dict[str, str]:
    """Lowercased name -> canonical name; the first of equal spellings wins."""
    return {canon.lower(): canon for canon in reversed(vocabulary)}


def canonical_subtask(name: str, vocabulary: tuple[str, ...] = ALL_SUBTASKS) -> str:
    """Map a subtask name to its canonical spelling, or raise UnknownSubtask.

    Matching is case-insensitive after whitespace collapse, so table
    transcriptions like "Question Answering based on text" resolve to the
    canonical entry.
    """
    canon = _lowercase_index(vocabulary).get(_squash(name).lower())
    if canon is None:
        raise UnknownSubtask(f"unknown subtask {name!r}")
    return canon


def normalize_resource(name: str) -> str:
    """Normalize a resource-type name for matching.

    Lowercase, collapse whitespace, and strip one trailing "s" so that
    singular/plural spellings of the same artifact (e.g. segmentation
    mask(s)) compare equal.
    """
    key = _squash(name).lower()
    if key.endswith("s"):
        key = key[:-1]
    return key


def resource_keys(names) -> frozenset[str]:
    return frozenset(normalize_resource(n) for n in names)


@dataclass(frozen=True)
class MdtEntry:
    """One registry row: a tool with its subtasks and I/O resource types."""

    tool: str
    subtasks: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def input_keys(self) -> frozenset[str]:
        return resource_keys(self.inputs)

    @property
    def output_keys(self) -> frozenset[str]:
        return resource_keys(self.outputs)


@dataclass(frozen=True)
class ToolRecord:
    """An MdtEntry exploded to a single (tool, subtask) pair.

    Rows listing several subtasks share their I/O sets, but each pair gets
    its own record because benchmark values differ per subtask.
    """

    tool: str
    subtask: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    input_keys: frozenset[str]
    output_keys: frozenset[str]

    @property
    def key(self) -> tuple[str, str]:
        return (self.tool, self.subtask)


@dataclass(frozen=True)
class ModelDescriptionTable:
    entries: tuple[MdtEntry, ...]
    records: dict[tuple[str, str], ToolRecord] = field(compare=False)
    coverage_gaps: tuple[str, ...] = ()

    def tools(self) -> list[str]:
        return sorted({e.tool for e in self.entries})

    def tool_input_keys(self, tool: str) -> frozenset[str]:
        keys: set[str] = set()
        for e in self.entries:
            if e.tool == tool:
                keys |= e.input_keys
        return frozenset(keys)

    def tool_output_keys(self, tool: str) -> frozenset[str]:
        keys: set[str] = set()
        for e in self.entries:
            if e.tool == tool:
                keys |= e.output_keys
        return frozenset(keys)


def _build_table(entries: list[MdtEntry]) -> ModelDescriptionTable:
    records: dict[tuple[str, str], ToolRecord] = {}
    for e in entries:
        for sub in e.subtasks:
            key = (e.tool, sub)
            if key in records:
                raise DuplicateEntry(f"duplicate (tool, subtask) pair {key}")
            records[key] = ToolRecord(
                tool=e.tool,
                subtask=sub,
                inputs=e.inputs,
                outputs=e.outputs,
                input_keys=e.input_keys,
                output_keys=e.output_keys,
            )
    covered = {sub for (_, sub) in records}
    gaps = tuple(s for s in PLANNER_SUBTASKS if s not in covered)
    if gaps:
        logger.warning("no tool supports %d subtask(s): %s", len(gaps), ", ".join(gaps))
    return ModelDescriptionTable(entries=tuple(entries), records=records, coverage_gaps=gaps)


def parse_mdt(text: str, vocabulary: tuple[str, ...] = ALL_SUBTASKS) -> ModelDescriptionTable:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"MDT is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ParseError("MDT must be a JSON array of entries")
    entries: list[MdtEntry] = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ParseError(f"MDT entry {i} is not an object")
        try:
            tool = item["tool"]
            subtasks = item["subtasks"]
            inputs = item["inputs"]
            outputs = item["outputs"]
        except KeyError as exc:
            raise ParseError(f"MDT entry {i} missing field {exc}") from exc
        if not isinstance(tool, str) or not tool.strip():
            raise ParseError(f"MDT entry {i} has an empty tool name")
        for fname, val in (("subtasks", subtasks), ("inputs", inputs), ("outputs", outputs)):
            if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
                raise ParseError(f"MDT entry {i} field {fname!r} must be a list of strings")
        canon = tuple(canonical_subtask(s, vocabulary) for s in subtasks)
        entries.append(
            MdtEntry(
                tool=_squash(tool),
                subtasks=canon,
                inputs=tuple(_squash(x) for x in inputs),
                outputs=tuple(_squash(x) for x in outputs),
            )
        )
    return _build_table(entries)


def load_mdt(path: str | Path, vocabulary: tuple[str, ...] = ALL_SUBTASKS) -> ModelDescriptionTable:
    """Load and validate a model description table from a JSON file."""
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"MDT file not found: {p}")
    return parse_mdt(p.read_text(encoding="utf-8"), vocabulary)


def lookup_models(mdt: ModelDescriptionTable, subtask: str) -> set[str]:
    """Tools able to perform the given subtask.  Empty set when none can."""
    canon = canonical_subtask(subtask)
    return {tool for (tool, sub) in mdt.records if sub == canon}


@dataclass(frozen=True)
class BenchmarkRow:
    time_seconds: float
    quality_raw: float
    quality_norm: float


@dataclass(frozen=True)
class BenchmarkTable:
    rows: dict[tuple[str, str], BenchmarkRow] = field(compare=False)

    def row(self, tool: str, subtask: str) -> BenchmarkRow:
        try:
            return self.rows[(tool, subtask)]
        except KeyError:
            raise MissingBenchmark(f"no benchmark row for ({tool!r}, {subtask!r})") from None


def normalize_quality(raw: dict[tuple[str, str], float]) -> dict[tuple[str, str], float]:
    """Divide each raw quality by the maximum over tools within its subtask.

    The result lies in (0, 1] and every subtask has at least one exact 1.0.
    Applying the function twice is a no-op.
    """
    maxima: dict[str, float] = {}
    for (tool, sub), value in raw.items():
        if value <= 0:
            raise NonPositiveQuality(f"quality for ({tool!r}, {sub!r}) must be > 0, got {value}")
        maxima[sub] = max(maxima.get(sub, 0.0), value)
    return {key: value / maxima[key[1]] for key, value in raw.items()}


def parse_benchmark(text: str, mdt: ModelDescriptionTable) -> BenchmarkTable:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"benchmark table is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ParseError("benchmark table must be a JSON array of rows")
    times: dict[tuple[str, str], float] = {}
    qualities: dict[tuple[str, str], float] = {}
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ParseError(f"benchmark row {i} is not an object")
        try:
            tool = _squash(item["tool"])
            subtask = canonical_subtask(item["subtask"])
            time_s = float(item["time_seconds"])
            quality = float(item["quality"])
        except KeyError as exc:
            raise ParseError(f"benchmark row {i} missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"benchmark row {i} has a non-numeric value: {exc}") from exc
        if not (math.isfinite(time_s) and math.isfinite(quality)):
            raise ParseError(f"benchmark row {i} has a non-finite time or quality")
        key = (tool, subtask)
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
    rows = {
        key: BenchmarkRow(time_seconds=times[key], quality_raw=qualities[key], quality_norm=norm[key])
        for key in times
    }
    return BenchmarkTable(rows=rows)


def load_benchmark(path: str | Path, mdt: ModelDescriptionTable) -> BenchmarkTable:
    """Load the benchmark table, checking full coverage of the MDT pairs."""
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"benchmark file not found: {p}")
    return parse_benchmark(p.read_text(encoding="utf-8"), mdt)
