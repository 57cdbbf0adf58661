"""Tool registry: the model description table and the benchmark table.

The model description table (MDT) declares, per tool, the subtasks it can
perform and the resource types it consumes and produces.  The benchmark
table (BT) attaches an expected execution time and a per-subtask normalized
quality score to every (tool, subtask) pair.  Both tables are read-only
after loading and safe to share across concurrent searches: an MDT entry
built on first read is equal whichever reader builds it.

Every input file, the tree and simulator spec included, is read by
`read_text`, decoded by `parse_json` and has its fields checked by
`json_field`, so any malformed input is a ParseError.  A caller that wants
each file's SHA-256 digest passes a `digests` dict to the loader, and
`read_text` records the digest of the bytes it decoded.

Each table is parsed in one loop over its rows, with one reader per
field.  A field of the exact type `json_field` accepts (a string, a finite
float, an array of strings) is taken as it is; any other value goes to
`json_field`, which raises its error with the row index, in field order.
Every row is checked, but the MDT loop keeps per row
only its squashed tool, canonical subtasks and input/output name tuples:
records, resource keys and index entries are built when a plan reads them
(see `ModelDescriptionTable`).  Names are normalized through memos that
live for one table: each distinct subtasks list and benchmark subtask name
once per parse, each distinct resource name at most once, when first read.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from collections.abc import Mapping
from functools import cache, partial
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
    """Decode JSON text whose top level is a `kind`; anything else, deep nesting too, is a ParseError.

    So is a string holding an unpaired surrogate, which JSON's `\\u`
    escapes can spell but no UTF-8 output can write.
    """
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(value, kind):
        raise ParseError(f"{what} must be {_KINDS[kind]}")
    # Text decoded from UTF-8 holds no surrogate, so only a `\u` escape makes one.  The
    # one-character test runs at memchr speed, the two-character one ~70x slower.
    if "\\" in text and "\\u" in text:
        stack = [value]
        while stack:
            item = stack.pop()
            if type(item) is dict:
                stack += item
                stack += item.values()
            elif type(item) is list:
                stack += item
            elif type(item) is str and not item.isascii():
                try:
                    item.encode("utf-8")
                except UnicodeEncodeError as exc:  # UTF-8 encodes every code point but a surrogate
                    raise ParseError(f"{what} holds an unpaired surrogate U+{ord(item[exc.start]):04X}") from None
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


class _Memo(dict):
    """A dict that fills a missing key with `make(key)` when it is first read."""

    __slots__ = ("_make",)

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


class _Index(Mapping):
    """A read-only mapping that builds the value for a key on first read and keeps it.

    `group()`, run on first use, maps each key, in iteration order, to what
    `build(key, group)` makes the key's value from.  `in`, `len` and
    `keys()` build no value; `items()`, `values()` and `==` build them all.
    Two readers racing may both build a value or the groups, but never
    build them differently.
    """

    __slots__ = ("_group", "_build", "_groups", "_values")

    def __init__(self, group, build):
        self._group, self._build = group, build
        self._groups: dict | None = None
        self._values: dict = {}

    def _sources(self) -> dict:
        if self._groups is None:
            self._groups = self._group()
        return self._groups

    def __getitem__(self, key):
        value = self._values.get(key)  # no value is None
        if value is None:
            value = self._values[key] = self._build(key, self._sources()[key])
        return value

    def keys(self):
        return self._sources().keys()

    def __contains__(self, key):
        return key in self._sources()

    def __iter__(self):
        return iter(self._sources())

    def __len__(self):
        return len(self._sources())


class ModelDescriptionTable(NamedTuple):
    """The parsed MDT: its (tool, subtask) records and the indexes over them.

    `tool_io` maps each tool to its (input keys, output keys), unioned over
    all of its rows, rows listing no subtask included.  `by_subtask` maps a
    subtask to its records sorted by tool, and `producers` maps a resource
    key to the records producing it, sorted by (tool, subtask).  A parsed
    table's four fields are read-only mappings that build a record, its
    resource keys or an index entry on first read and keep it, so a plan
    builds only what it reads; iterating a whole index builds it all, in
    the order an eager build had.
    """

    records: Mapping[tuple[str, str], ToolRecord]
    tool_io: Mapping[str, tuple[frozenset[str], frozenset[str]]]
    by_subtask: Mapping[str, tuple[ToolRecord, ...]]
    producers: Mapping[str, tuple[ToolRecord, ...]]


def _names(item: dict, key: str, i: int) -> tuple[str, ...]:
    """Field `key` of MDT row `i` as a tuple of strings."""
    value = item.get(key)
    if type(value) is list:
        try:
            "".join(value)  # a TypeError unless every element is a string, found in C without hashing
            return tuple(value)
        except TypeError:
            pass
    return tuple(json_field(item, key, STRINGS, "MDT entry", i))


def parse_mdt(text: str) -> ModelDescriptionTable:
    """Parse and check the MDT in one pass over its rows; its indexes are built as they are read."""
    # A row is (squashed tool, canonical subtasks, input names, output names).
    rows: list[tuple[str, tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = []
    pairs: dict[tuple[str, str], tuple] = {}  # a (tool, subtask) pair -> its row
    canon = _Memo(lambda subtasks: tuple(map(canonical_subtask, subtasks)))  # a subtasks tuple's canonical names
    # A duplicate is raised after the loop, so that an ill-formed later row names the error.
    duplicate = None
    for i, item in enumerate(parse_json(text, "MDT", list)):
        tool = item.get("tool") if type(item) is dict else None
        if type(tool) is not str:
            tool = json_field(item, "tool", str, "MDT entry", i)
        if not tool.strip():
            raise ParseError(f"MDT entry {i} has an empty tool name")
        subtasks = _names(item, "subtasks", i)
        inputs = _names(item, "inputs", i)
        outputs = _names(item, "outputs", i)
        subs = canon[subtasks]
        tool = _squash(tool)
        row = (tool, subs, inputs, outputs)
        rows.append(row)
        for sub in subs:
            key = (tool, sub)
            if key in pairs and duplicate is None:
                duplicate = key
            pairs[key] = row
    if duplicate is not None:
        raise DuplicateEntry(f"duplicate (tool, subtask) pair {duplicate}")
    covered = {sub for subs in canon.values() for sub in subs}
    gaps = tuple(s for s in PLANNER_SUBTASKS if s not in covered)
    if gaps:
        logger.warning("no tool supports %d subtask(s): %s", len(gaps), ", ".join(gaps))

    resources = _Memo(normalize_resource)  # a name's resource key
    keys = _Memo(lambda names: frozenset(map(resources.__getitem__, names)))  # a name tuple's resource keys

    def tools() -> dict[str, list[tuple]]:
        groups: dict[str, list[tuple]] = {}
        for row in rows:
            groups.setdefault(row[0], []).append(row)
        return groups

    def io(tool: str, tool_rows: list[tuple]) -> tuple[frozenset[str], frozenset[str]]:
        ins, outs = keys[tool_rows[0][2]], keys[tool_rows[0][3]]
        for row in tool_rows[1:]:
            ins, outs = ins | keys[row[2]], outs | keys[row[3]]
        return ins, outs

    # Grouping the sorted pairs meets each index key in an eager build's order and sorts each group.
    @cache
    def ordered() -> list[tuple[str, str]]:
        return sorted(pairs)

    def subtasks() -> dict[str, list[tuple[str, str]]]:
        groups: dict[str, list[tuple[str, str]]] = {}
        for pair in ordered():
            groups.setdefault(pair[1], []).append(pair)
        return groups

    def produced() -> dict[str, list[tuple[str, str]]]:
        groups: dict[str, list[tuple[str, str]]] = {}
        for pair in ordered():
            for resource in keys[pairs[pair][3]]:
                groups.setdefault(resource, []).append(pair)
        return groups

    def gather(_, group: list[tuple[str, str]]) -> tuple[ToolRecord, ...]:
        return tuple(map(records.__getitem__, group))

    records = _Index(lambda: pairs, lambda pair, row: ToolRecord(*pair, keys[row[2]], keys[row[3]]))
    return ModelDescriptionTable(records, _Index(tools, io), _Index(subtasks, gather), _Index(produced, gather))


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
        if value > maxima.get(sub, 0.0):
            maxima[sub] = value
    return {key: value / maxima[key[1]] for key, value in raw.items()}


# A row built by the tuple constructor itself, not by the Python-level `BenchmarkRow.__new__`.
_row = partial(tuple.__new__, BenchmarkRow)


def parse_benchmark(text: str, mdt: ModelDescriptionTable) -> BenchmarkTable:
    raw = parse_json(text, "benchmark table", list)
    pairs = mdt.records.keys()  # tests a pair without building its record
    times: dict[tuple[str, str], float] = {}
    qualities: dict[tuple[str, str], float] = {}
    canon = _Memo(canonical_subtask)  # a subtask name's canonical name
    for i, item in enumerate(raw):
        row = item if type(item) is dict else {}
        tool, name, time_s, quality = row.get("tool"), row.get("subtask"), row.get("time_seconds"), row.get("quality")
        if not (type(tool) is type(name) is str):
            tool = json_field(item, "tool", str, "benchmark row", i)
            name = json_field(item, "subtask", str, "benchmark row", i)
        subtask = canon[name]
        if not (type(time_s) is type(quality) is float and -_INF < time_s < _INF and -_INF < quality < _INF):
            time_s = json_field(item, "time_seconds", float, "benchmark row", i)
            quality = json_field(item, "quality", float, "benchmark row", i)
        key = (_squash(tool), subtask)
        if key not in pairs:
            raise ParseError(f"benchmark row {i} references {key}, which is not in the MDT")
        if key in times:
            raise DuplicateEntry(f"duplicate benchmark row for {key}")
        if time_s < 0:
            raise NegativeTime(f"negative time {time_s} for {key}")
        times[key] = time_s
        qualities[key] = quality
    if len(times) < len(pairs):  # every key of `times` is a distinct MDT pair
        missing = sorted(set(pairs) - set(times))
        raise MissingBenchmark(f"MDT pairs without benchmark rows: {missing}")
    norm = normalize_quality(qualities)
    return BenchmarkTable(rows=dict(zip(times, map(_row, zip(times.values(), norm.values())))))


def load_benchmark(
    path: str | Path, mdt: ModelDescriptionTable, digests: dict[str, str] | None = None
) -> BenchmarkTable:
    """Load the benchmark table, checking full coverage of the MDT pairs."""
    return parse_benchmark(read_text(path, "benchmark", digests), mdt)
