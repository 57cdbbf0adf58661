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

The two tables are parsed in one pass over their rows.  A row whose fields
all have the exact types `json_field` accepts (finite floats, strings,
arrays of strings) is taken as it is, and its names are normalized through
memos that live for one parse: each distinct subtasks, inputs or outputs
list, each resource name in them, and each benchmark subtask name, is
normalized once.  Any other row goes through the field-by-field
`json_field` checks, so every error keeps its type, message and row index.
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


def resource_keys(names) -> frozenset[str]:
    return frozenset(normalize_resource(n) for n in names)


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


def _parse_row(i: int, item) -> tuple[str, tuple[str, ...], frozenset[str], frozenset[str]]:
    """One MDT row as (tool, canonical subtasks, input keys, output keys), checked field by field."""
    tool = json_field(item, "tool", str, "MDT entry", i)
    if not tool.strip():
        raise ParseError(f"MDT entry {i} has an empty tool name")
    subtasks = json_field(item, "subtasks", STRINGS, "MDT entry", i)
    input_keys = resource_keys(json_field(item, "inputs", STRINGS, "MDT entry", i))
    output_keys = resource_keys(json_field(item, "outputs", STRINGS, "MDT entry", i))
    return _squash(tool), tuple(map(canonical_subtask, subtasks)), input_keys, output_keys


def _strings(value, memo: dict) -> tuple[str, ...] | None:
    """`value` as a tuple if it is an array of strings, else None; a key of `memo` is one already."""
    if type(value) is list:
        names = tuple(value)
        try:
            if names in memo or all(type(x) is str for x in names):
                return names
        except TypeError:  # an unhashable element
            pass
    return None


def _quick_row(item, canon: dict, keys: dict, resources: dict):
    """`_parse_row`'s result for a row whose every field is well typed, else None.

    `canon` maps a subtasks tuple to its canonical subtasks, `keys` a name
    tuple to its resource keys and `resources` a name to its resource key,
    so each distinct list, and each distinct name in them, is normalized
    once per parse.  The subtasks are resolved after every field has passed,
    as in `_parse_row`.
    """
    try:
        tool, subtasks, inputs, outputs = item["tool"], item["subtasks"], item["inputs"], item["outputs"]
    except (KeyError, TypeError):
        return None
    if type(tool) is not str or not tool.strip():
        return None
    subtasks, inputs, outputs = _strings(subtasks, canon), _strings(inputs, keys), _strings(outputs, keys)
    if subtasks is None or inputs is None or outputs is None:
        return None
    for names in (inputs, outputs):
        if names not in keys:
            for name in names:
                if name not in resources:
                    resources[name] = normalize_resource(name)
            keys[names] = frozenset(resources[name] for name in names)
    if subtasks not in canon:
        canon[subtasks] = tuple(map(canonical_subtask, subtasks))
    return _squash(tool), canon[subtasks], keys[inputs], keys[outputs]


def _build_table(raw: list) -> ModelDescriptionTable:
    """Parse every row once and index its records."""
    records: dict[tuple[str, str], ToolRecord] = {}
    tool_io: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
    canon: dict[tuple[str, ...], tuple[str, ...]] = {}
    keys: dict[tuple[str, ...], frozenset[str]] = {}
    resources: dict[str, str] = {}
    # Every row is valid before any is indexed; an ill-typed row goes through
    # `_parse_row` for its error.
    rows = [_quick_row(item, canon, keys, resources) or _parse_row(i, item) for i, item in enumerate(raw)]
    for tool, subtasks, input_keys, output_keys in rows:
        io = tool_io.get(tool)
        tool_io[tool] = (input_keys, output_keys) if io is None else (io[0] | input_keys, io[1] | output_keys)
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
    gaps = tuple(s for s in PLANNER_SUBTASKS if s not in by_subtask)
    if gaps:
        logger.warning("no tool supports %d subtask(s): %s", len(gaps), ", ".join(gaps))
    return ModelDescriptionTable(
        records=records,
        tool_io=tool_io,
        by_subtask={sub: tuple(recs) for sub, recs in by_subtask.items()},
        producers={res: tuple(recs) for res, recs in producers.items()},
    )


def parse_mdt(text: str) -> ModelDescriptionTable:
    return _build_table(parse_json(text, "MDT", list))


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


def _benchmark_row(i: int, item) -> tuple[str, str, float, float]:
    """One benchmark row as (tool, canonical subtask, time, quality), checked field by field."""
    tool = json_field(item, "tool", str, "benchmark row", i)
    subtask = canonical_subtask(json_field(item, "subtask", str, "benchmark row", i))
    time_s = json_field(item, "time_seconds", float, "benchmark row", i)
    quality = json_field(item, "quality", float, "benchmark row", i)
    return tool, subtask, time_s, quality


def _quick_benchmark_row(item, canon: dict[str, str]):
    """`_benchmark_row`'s result for a row whose every field is well typed, else None.

    A number must be a finite float; an integer takes the checked path,
    which converts it.  `canon` maps each subtask name to its canonical one.
    """
    try:
        tool, name, time_s, quality = item["tool"], item["subtask"], item["time_seconds"], item["quality"]
    except (KeyError, TypeError):
        return None
    if not (type(tool) is type(name) is str and type(time_s) is type(quality) is float
            and -_INF < time_s < _INF and -_INF < quality < _INF):
        return None
    subtask = canon.get(name)
    if subtask is None:
        subtask = canon[name] = canonical_subtask(name)
    return tool, subtask, time_s, quality


def parse_benchmark(text: str, mdt: ModelDescriptionTable) -> BenchmarkTable:
    raw = parse_json(text, "benchmark table", list)
    times: dict[tuple[str, str], float] = {}
    qualities: dict[tuple[str, str], float] = {}
    canon: dict[str, str] = {}
    for i, item in enumerate(raw):
        tool, subtask, time_s, quality = _quick_benchmark_row(item, canon) or _benchmark_row(i, item)
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
