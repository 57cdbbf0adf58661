"""Tool registry: the model description table and the benchmark table.

The model description table (MDT) declares, per tool, the subtasks it can
perform and the resource types it consumes and produces.  The benchmark
table (BT) attaches an expected execution time and a per-subtask normalized
quality score to every (tool, subtask) pair.  Both tables are immutable
after loading and safe to share across concurrent searches.
"""

from __future__ import annotations

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


# Lowercased name -> canonical name, over every subtask the registry knows.
_CANONICAL = {canon.lower(): canon for canon in ALL_SUBTASKS}


def canonical_subtask(name: str) -> str:
    """Map a subtask name to its canonical spelling, or raise UnknownSubtask.

    Matching is case-insensitive after whitespace collapse, so table
    transcriptions like "Question Answering based on text" resolve to the
    canonical entry.
    """
    canon = _CANONICAL.get(_squash(name).lower())
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
class ToolRecord:
    """One (tool, subtask) pair of an MDT row.

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
    """The parsed MDT: its (tool, subtask) records and the indexes over them.

    `tool_io` maps each tool to its (input keys, output keys), unioned over
    all of its rows, rows listing no subtask included.  `by_subtask` maps a
    subtask to its records sorted by tool, and `producers` maps a resource
    key to the records producing it, sorted by (tool, subtask).
    """

    records: dict[tuple[str, str], ToolRecord]
    tool_io: dict[str, tuple[frozenset[str], frozenset[str]]]
    by_subtask: dict[str, tuple[ToolRecord, ...]] = field(compare=False)
    producers: dict[str, tuple[ToolRecord, ...]] = field(compare=False)
    coverage_gaps: tuple[str, ...] = ()


def _parse_row(i: int, item) -> tuple[str, tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """One MDT row as (tool, canonical subtasks, inputs, outputs)."""
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
    return (
        _squash(tool),
        tuple(canonical_subtask(s) for s in subtasks),
        tuple(_squash(x) for x in inputs),
        tuple(_squash(x) for x in outputs),
    )


def _build_table(raw: list) -> ModelDescriptionTable:
    """Parse every row once and index its records."""
    records: dict[tuple[str, str], ToolRecord] = {}
    tool_io: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
    rows = [_parse_row(i, item) for i, item in enumerate(raw)]  # every row is valid before any is indexed
    for tool, subtasks, inputs, outputs in rows:
        input_keys, output_keys = resource_keys(inputs), resource_keys(outputs)
        ins, outs = tool_io.get(tool, (frozenset(), frozenset()))
        tool_io[tool] = (ins | input_keys, outs | output_keys)
        for sub in subtasks:
            key = (tool, sub)
            if key in records:
                raise DuplicateEntry(f"duplicate (tool, subtask) pair {key}")
            records[key] = ToolRecord(tool, sub, inputs, outputs, input_keys, output_keys)
    by_subtask: dict[str, list[ToolRecord]] = {}
    producers: dict[str, list[ToolRecord]] = {}
    for key in sorted(records):
        rec = records[key]
        by_subtask.setdefault(rec.subtask, []).append(rec)
        for resource in rec.output_keys:
            producers.setdefault(resource, []).append(rec)
    gaps = tuple(s for s in PLANNER_SUBTASKS if s not in by_subtask)
    if gaps:
        logger.warning("no tool supports %d subtask(s): %s", len(gaps), ", ".join(gaps))
    return ModelDescriptionTable(
        records=records,
        tool_io=tool_io,
        by_subtask={sub: tuple(recs) for sub, recs in by_subtask.items()},
        producers={res: tuple(recs) for res, recs in producers.items()},
        coverage_gaps=gaps,
    )


def parse_mdt(text: str) -> ModelDescriptionTable:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"MDT is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ParseError("MDT must be a JSON array of entries")
    return _build_table(raw)


def load_mdt(path: str | Path) -> ModelDescriptionTable:
    """Load and validate a model description table from a JSON file."""
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"MDT file not found: {p}")
    return parse_mdt(p.read_text(encoding="utf-8"))


def lookup_models(mdt: ModelDescriptionTable, subtask: str) -> set[str]:
    """Tools able to perform the given subtask.  Empty set when none can."""
    return {rec.tool for rec in mdt.by_subtask.get(canonical_subtask(subtask), ())}


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
