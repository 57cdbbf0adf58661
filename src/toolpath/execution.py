"""Simulated tool execution backends.

Real models are stood in for by three interchangeable executors:
deterministic benchmark playback, seeded stochastic perturbation of the
benchmark values, and a fully scripted mode for failure-injection tests.
Random draws are keyed by (seed, node, attempt) rather than taken from a
shared sequential stream, so a change in search order never perturbs the
outcome of an unrelated node and replays are bit-stable.  A draw reads the
BLAKE2b digest of its key as a Box-Muller pair of standard normals, so it
needs only the standard library and is the same on every Python.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import NamedTuple

from .errors import DuplicateEntry, ParseError, ScriptGap
from .graphs import PlanNode, ToolSubgraph
from .registry import BenchmarkTable, _squash, canonical_subtask, json_field, parse_json, read_text

# The modes a name alone selects; a scripted simulator also needs its script.
NAMED_MODES = ("deterministic", "stochastic")
MODES = NAMED_MODES + ("scripted",)

DEFAULT_SEED = 0xC057A
DEFAULT_TIME_SIGMA = 0.1
DEFAULT_QUALITY_SIGMA = 0.05
# A draw's standard normal z has |z| <= sqrt(-2 ln 2**-53) = sqrt(106 ln 2)
# ~ 8.5717, the Box-Muller radius at the least uniform, and exp is finite
# for exponents up to ln(max float) ~ 709.78 and positive down to ~ -745.13.
# So the time factor exp(sigma * z) is finite and positive for every draw
# while sigma <= 709.78 / 8.5717 ~ 82.8.
MAX_TIME_SIGMA = 80.0


class ExecutionOutcome(NamedTuple):
    time_seconds: float
    quality: float


class Frozen:
    """Base of a settings class whose `__init__` checks its values: no field is set or deleted later."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {type(self).__name__}.{name}")

    __delattr__ = __setattr__


class SimulatorSpec(Frozen):
    """A simulator's mode, noise and script, checked each time one is built."""

    __slots__ = ("mode", "time_noise_sigma", "quality_noise_sigma", "script")

    def __init__(
        self,
        mode: str = "deterministic",
        time_noise_sigma: float = DEFAULT_TIME_SIGMA,
        quality_noise_sigma: float = DEFAULT_QUALITY_SIGMA,
        script: dict[tuple[str, str, int], tuple[float, float]] | None = None,
    ):
        if mode not in MODES:
            raise ParseError(f"unknown simulator mode {mode!r}; expected one of {MODES}")
        for sigma in (time_noise_sigma, quality_noise_sigma):
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ParseError("noise sigmas must be finite and non-negative")
        if time_noise_sigma > MAX_TIME_SIGMA:
            raise ParseError(f"time_noise_sigma must be at most {MAX_TIME_SIGMA:g}, got {time_noise_sigma}")
        if mode == "scripted" and not script:
            raise ParseError("scripted mode requires a script")
        for name, value in zip(self.__slots__, (mode, time_noise_sigma, quality_noise_sigma, script)):
            object.__setattr__(self, name, value)


def simulator_spec_from_json(text: str) -> SimulatorSpec:
    raw = parse_json(text, "simulator spec")
    mode = json_field(raw, "mode", str, "simulator spec")
    script = None
    if raw.get("script") is not None:
        script = {}
        for i, row in enumerate(json_field(raw, "script", list, "simulator spec")):
            key = (
                _squash(json_field(row, "tool", str, "script row", i)),
                canonical_subtask(json_field(row, "subtask", str, "script row", i)),
                json_field(row, "attempt", int, "script row", i),
            )
            time_s = json_field(row, "time", float, "script row", i)
            quality = json_field(row, "quality", float, "script row", i)
            if time_s < 0 or not 0.0 <= quality <= 1.0:
                raise ParseError(f"script row {i} needs a time >= 0 and a quality in [0, 1]")
            if key[2] < 1:
                raise ParseError(f"script row {i} has attempt {key[2]}; attempts count from 1")
            if key in script:
                raise DuplicateEntry(f"duplicate script row for {key}")
            script[key] = (time_s, quality)
    names = ("time_noise_sigma", "quality_noise_sigma")
    sigmas = {key: json_field(raw, key, float, "simulator spec") for key in names if key in raw}
    return SimulatorSpec(mode=mode, script=script, **sigmas)


def load_simulator_spec(path: str | Path, digests: dict[str, str] | None = None) -> SimulatorSpec:
    return simulator_spec_from_json(read_text(path, "simulator spec", digests))


class Simulator:
    """Executor handle binding a spec, benchmark table, and base seed."""

    def __init__(self, spec: SimulatorSpec, bt: BenchmarkTable, seed: int):
        self.spec = spec
        self.bt = bt
        self.seed = seed

    def __call__(self, node: PlanNode, attempt: int) -> ExecutionOutcome:
        """Simulate one invocation of the tool `node`; attempt counts from 1.

        Stochastic time is lognormal around the benchmark time, stochastic
        quality a clamped gaussian around the benchmark quality.
        """
        spec = self.spec
        if spec.mode == "scripted":
            key = (node.tool, node.kind, attempt)
            if key not in spec.script:
                raise ScriptGap(f"script has no entry for {key}")
            time_s, quality = spec.script[key]
            return ExecutionOutcome(time_s, quality)
        row = self.bt.row(node.tool, node.kind)
        if spec.mode == "deterministic":
            return ExecutionOutcome(row.time_seconds, row.quality_norm)
        key = b"%d %d %d" % (self.seed & 0xFFFFFFFFFFFFFFFF, node.node_id, attempt)
        digest = int.from_bytes(hashlib.blake2b(key, digest_size=16).digest(), "little")
        # Two 53-bit uniforms, the first in (0, 1] so that its log is finite.
        radius = math.sqrt(-2.0 * math.log((2**53 - (digest >> 75)) / 2**53))
        angle = 2.0 * math.pi * ((digest & 0xFFFFFFFFFFFFFFFF) >> 11) / 2**53
        factor = math.exp(spec.time_noise_sigma * radius * math.cos(angle))
        quality = min(max(row.quality_norm + spec.quality_noise_sigma * radius * math.sin(angle), 0.0), 1.0)
        return ExecutionOutcome(row.time_seconds * factor, quality)


def validate_quality(outcome: ExecutionOutcome, threshold: float) -> bool:
    """Quality check: pass at or above the threshold (>=, not >)."""
    return outcome.quality >= threshold


class TraceEvent(NamedTuple):
    """One executed attempt as the search observed it; names come from the graph at output."""

    node_id: int
    attempt: int
    time_seconds: float
    quality: float
    decision: str  # "pass" | "fail"
    g_path: float | None = None  # on a passing retry: realized g of the path through it


def add_left_to_right(values) -> float:
    """The values' sum, added left to right on every Python: sum() compensates float rounding from 3.12 on."""
    total = 0
    for value in values:
        total += value
    return total


class ExecutionTrace(NamedTuple):
    events: tuple[TraceEvent, ...]

    @property
    def total_time(self) -> float:
        return add_left_to_right(e.time_seconds for e in self.events)

    def retried_nodes(self) -> set[int]:
        return {e.node_id for e in self.events if e.attempt > 1}

    def to_json_dict(self, graph: ToolSubgraph) -> dict:
        return {
            "events": [
                {
                    "node": e.node_id,
                    **graph.nodes[e.node_id].view(),
                    "attempt": e.attempt,
                    "time_seconds": e.time_seconds,
                    "quality": e.quality,
                    "decision": e.decision,
                    "g_path": e.g_path,
                }
                for e in self.events
            ],
            "totals": {
                "events": len(self.events),
                "time_seconds": self.total_time,
                "retried_nodes": sorted(self.retried_nodes()),
            },
        }
