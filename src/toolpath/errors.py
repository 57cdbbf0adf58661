"""Exception types shared across the toolpath package."""


class ToolpathError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ToolpathError):
    """Input file or JSON payload does not match the expected schema."""


class OutputError(ToolpathError):
    """An output holds a non-finite number or cannot be written."""


class UnknownSubtask(ToolpathError):
    """Subtask name outside the supported vocabulary."""


class DuplicateEntry(ToolpathError):
    """The same (tool, subtask) pair appears more than once."""


class MissingBenchmark(ToolpathError):
    """No benchmark row for a required (tool, subtask) pair."""


class NegativeTime(ToolpathError):
    """Benchmark execution time below zero."""


class NonPositiveQuality(ToolpathError):
    """Raw benchmark quality must be strictly positive."""


class EmptyTask(ToolpathError):
    """Planner invoked with an empty task description."""


class DanglingParent(ToolpathError):
    """Subtask tree node references a parent label that does not exist."""


class CycleDetected(ToolpathError):
    """Graph expected to be acyclic contains a cycle."""

    def __init__(self, message: str, cycle: list | None = None):
        super().__init__(message)
        self.cycle = cycle or []


class NoToolForSubtask(ToolpathError):
    """No registered tool supports a subtask required by the tree."""


class UnsatisfiableDependency(ToolpathError):
    """A required input resource has no producer chain in the dependency graph."""


class DependencyTooDeep(ToolpathError):
    """A prerequisite chain is nested deeper than the resolver can follow."""


class PathExplosion(ToolpathError):
    """Root-to-leaf path count exceeds the configured cap."""


class QueueOverflow(ToolpathError):
    """Search queue grew past the configured capacity."""


class SearchExhausted(ToolpathError):
    """Raised by batch drivers when a search ends with no valid path."""


class InvalidConfig(ToolpathError, ValueError):
    """Search setting outside its valid range."""


class AlphaOutOfRange(ToolpathError):
    """Tradeoff exponent outside [0, 2]."""


class ScriptGap(ToolpathError):
    """Scripted simulator invoked on a (node, attempt) key it does not cover."""


class EndpointUnavailable(ToolpathError):
    """No planner endpoint is configured."""


class TransportError(ToolpathError):
    """Planner endpoint request failed."""


class EmptyRecord(ToolpathError):
    """Accuracy aggregation over an empty score list."""


class InvalidScore(ToolpathError):
    """Accuracy score outside the partial-correctness vocabulary."""
