"""Tool registry: the model description table and the benchmark table.

The model description table (MDT) declares, per tool, the subtasks it can
perform and the resource types it consumes and produces.  The benchmark
table (BT) attaches an expected execution time and a per-subtask normalized
quality score to every (tool, subtask) pair.  Both tables are immutable
after loading and safe to share across concurrent searches.

Every input file, the tree and simulator spec included, is read by
`read_text`, decoded by `parse_json` and has its fields checked by
`json_field`, so any malformed input is a ParseError.  A caller that wants
each file's SHA-256 digest passes a `digests` dict to the loader, and
`read_text` records the digest of the bytes it decoded.

Each table is parsed in one loop over its rows, with one reader per
field.  A field of the exact type `json_field` accepts (a string, a finite
float, an array of strings) is taken as it is; any other value goes to
`json_field`, which raises its error with the row index, in field order.
Names are normalized through memos that live for one parse: each distinct
subtasks, inputs or outputs list, each resource name in them, and each
benchmark subtask name, is normalized once.  A list already in its memo is
known to hold only strings, so its elements are not checked again.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from pathlib import Path
from typing import NamedTuple

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

# STRINGS is the `json_field` kind of an array of strings; _KINDS names each
# kind in error messages.
STRINGS = list[str]
_KINDS = {str: "a string", float: "a finite number", int: "an integer", dict: "an object", list: "an array",
          STRINGS: "an array of strings"}
_INF = math.inf


def read_text(path: str | Path, what: str, digests: dict[str, str] | None = None) -> str:
    """The UTF-8 text of the input file `path`, which `what` names in errors.

    When `digests` is given, the SHA-256 of the file's bytes goes into it
    under `str(path)`.
    """
    p = Path(path)
    try:
        data = p.read_bytes()
        text = data.decode("utf-8")
    except FileNotFoundError:
        raise ParseError(f"{what} file not found: {p}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{what} file {p} cannot be read: {exc}") from None
    if digests is not None:
        digests[str(p)] = hashlib.sha256(data).hexdigest()
    return text


def parse_json(text: str, what: str, kind: type = dict):
    """Decode JSON text whose top level is a `kind`; anything else, deep nesting too, is a ParseError."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(value, kind):
        raise ParseError(f"{what} must be {_KINDS[kind]}")
    return value


def json_field(item, key: str, kind, where: str, index: int | None = None):
    """`item[key]`, checked to be of `kind`: str, int, float, list or STRINGS.

    A float field takes a finite JSON number, an integer one as a float; a
    bool or a string is never a number.  Anything else, a missing field or
    an `item` that is not an object is a ParseError naming `where` (and
    `index`, the item's place in its array).
    """
    try:
        value = item[key]
        if type(value) is kind:
            if kind is not float or -_INF < value < _INF:
                return value
        elif kind is float and type(value) is int:
            return float(value)
        elif kind == STRINGS and type(value) is list and all(type(x) is str for x in value):
            return value
    except (KeyError, TypeError, OverflowError):
        pass
    name = where if index is None else f"{where} {index}"
    if not isinstance(item, dict):
        raise ParseError(f"{name} is not an object")
    if key not in item:
        raise ParseError(f"{name} missing field {key!r}")
    raise ParseError(f"{name} field {key!r} must be {_KINDS[kind]}")


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


class ToolRecord(NamedTuple):
    """One (tool, subtask) pair of an MDT row.

    Rows listing several subtasks share their I/O sets, but each pair gets
    its own record because benchmark values differ per subtask.
    """

    tool: str
    subtask: str
    input_keys: frozenset[str]
    output_keys: frozenset[str]

    @property
    def key(self) -> tuple[str, str]:
        return (self.tool, self.subtask)


class ModelDescriptionTable(NamedTuple):
    """The parsed MDT: its (tool, subtask) records and the indexes over them.

    `tool_io` maps each tool to its (input keys, output keys), unioned over
    all of its rows, rows listing no subtask included.  `by_subtask` maps a
    subtask to its records sorted by tool, and `producers` maps a resource
    key to the records producing it, sorted by (tool, subtask).
    """

    records: dict[tuple[str, str], ToolRecord]
    tool_io: dict[str, tuple[frozenset[str], frozenset[str]]]
    by_subtask: dict[str, tuple[ToolRecord, ...]]
    producers: dict[str, tuple[ToolRecord, ...]]


def _names(item: dict, key: str, i: int, memo: dict) -> tuple[str, ...]:
    """Field `key` of MDT row `i` as a tuple of strings; a tuple in `memo` is known to be one."""
    value = item.get(key)
    if type(value) is list:
        names = tuple(value)
        try:
            if names in memo or all(type(x) is str for x in names):
                return names
        except TypeError:  # an unhashable element
            pass
    return tuple(json_field(item, key, STRINGS, "MDT entry", i))


def parse_mdt(text: str) -> ModelDescriptionTable:
    """Parse the MDT in one pass over its rows and index its records."""
    records: dict[tuple[str, str], ToolRecord] = {}
    tool_io: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
    # A subtasks tuple -> its canonical subtasks, a name tuple -> its resource
    # keys, and a name -> its resource key.
    canon: dict[tuple[str, ...], tuple[str, ...]] = {}
    keys: dict[tuple[str, ...], frozenset[str]] = {}
    resources: dict[str, str] = {}
    # A duplicate is raised after the loop, so that an ill-formed later row names the error.
    duplicate = None
    for i, item in enumerate(parse_json(text, "MDT", list)):
        tool = item.get("tool") if type(item) is dict else None
        if type(tool) is not str:
            tool = json_field(item, "tool", str, "MDT entry", i)
        if not tool.strip():
            raise ParseError(f"MDT entry {i} has an empty tool name")
        subtasks = _names(item, "subtasks", i, canon)
        inputs = _names(item, "inputs", i, keys)
        outputs = _names(item, "outputs", i, keys)
        for names in (inputs, outputs):
            if names not in keys:
                for name in names:
                    if name not in resources:
                        resources[name] = normalize_resource(name)
                keys[names] = frozenset(resources[name] for name in names)
        if subtasks not in canon:
            canon[subtasks] = tuple(map(canonical_subtask, subtasks))
        tool, input_keys, output_keys = _squash(tool), keys[inputs], keys[outputs]
        io = tool_io.get(tool)
        tool_io[tool] = (input_keys, output_keys) if io is None else (io[0] | input_keys, io[1] | output_keys)
        for sub in canon[subtasks]:
            key = (tool, sub)
            if key in records and duplicate is None:
                duplicate = key
            records[key] = ToolRecord(tool, sub, input_keys, output_keys)
    if duplicate is not None:
        raise DuplicateEntry(f"duplicate (tool, subtask) pair {duplicate}")
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
    )


def load_mdt(path: str | Path, digests: dict[str, str] | None = None) -> ModelDescriptionTable:
    """Load and validate a model description table from a JSON file."""
    return parse_mdt(read_text(path, "MDT", digests))


class BenchmarkRow(NamedTuple):
    time_seconds: float
    quality_norm: float


class BenchmarkTable(NamedTuple):
    rows: dict[tuple[str, str], BenchmarkRow]

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
    raw = parse_json(text, "benchmark table", list)
    times: dict[tuple[str, str], float] = {}
    qualities: dict[tuple[str, str], float] = {}
    canon: dict[str, str] = {}  # a subtask name -> its canonical name
    for i, item in enumerate(raw):
        row = item if type(item) is dict else {}
        tool, name, time_s, quality = row.get("tool"), row.get("subtask"), row.get("time_seconds"), row.get("quality")
        if not (type(tool) is type(name) is str):
            tool = json_field(item, "tool", str, "benchmark row", i)
            name = json_field(item, "subtask", str, "benchmark row", i)
        subtask = canon.get(name)
        if subtask is None:
            subtask = canon[name] = canonical_subtask(name)
        if not (type(time_s) is type(quality) is float and -_INF < time_s < _INF and -_INF < quality < _INF):
            time_s = json_field(item, "time_seconds", float, "benchmark row", i)
            quality = json_field(item, "quality", float, "benchmark row", i)
        key = (_squash(tool), subtask)
        if key not in mdt.records:
            raise ParseError(f"benchmark row {i} references {key}, which is not in the MDT")
        if key in times:
            raise DuplicateEntry(f"duplicate benchmark row for {key}")
        if time_s < 0:
            raise NegativeTime(f"negative time {time_s} for {key}")
        times[key] = time_s
        qualities[key] = quality
    if len(times) < len(mdt.records):  # every key of `times` is a distinct MDT pair
        missing = sorted(set(mdt.records) - set(times))
        raise MissingBenchmark(f"MDT pairs without benchmark rows: {missing}")
    norm = normalize_quality(qualities)
    rows = {key: BenchmarkRow(times[key], norm[key]) for key in times}
    return BenchmarkTable(rows=rows)


def load_benchmark(
    path: str | Path, mdt: ModelDescriptionTable, digests: dict[str, str] | None = None
) -> BenchmarkTable:
    """Load the benchmark table, checking full coverage of the MDT pairs."""
    return parse_benchmark(read_text(path, "benchmark", digests), mdt)
