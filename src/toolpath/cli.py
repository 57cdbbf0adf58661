"""Command-line surface: plan, sweep, verify, and graph export.

Exit codes: 0 success, 1 input/usage or output error, 2 no valid path (or
a verify gap above the tolerance), 4 a search queue or Pareto pass over
capacity, from plan, sweep or verify; 3 is retired.  A command returns
its outputs as text, which `main` writes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from json.encoder import c_make_encoder, encode_basestring_ascii

from . import __version__
from .errors import InvalidConfig, OutputError, ParseError, QueueOverflow, SearchExhausted, ToolpathError
from .evaluation import brute_force_optimal, pareto_csv, sweep_alpha
from .execution import DEFAULT_SEED, NAMED_MODES, Simulator, SimulatorSpec, load_simulator_spec
from .graphs import build_tdg, build_tool_subgraph, subgraph_to_dot, subgraph_to_json, tdg_to_dot
from .planning import ask_planner, build_planner_prompt, parse_subtask_tree
from .registry import load_benchmark, load_mdt, read_text
from .search import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_QUALITY_THRESHOLD,
    SearchConfig,
    astar_search,
    suffix_bounds,
    validate_alpha,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_PATH = 2
EXIT_QUEUE_OVERFLOW = 4

# Exit code of each error that main reports; any other ToolpathError exits 1.
_ERROR_EXITS = (
    (QueueOverflow, EXIT_QUEUE_OVERFLOW),
    (SearchExhausted, EXIT_NO_PATH),
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


# argparse's handler and the options that name a file or an address; input files are
# covered by their digests, and every other option is a setting that the config hash covers.
_NOT_SETTINGS = {"func", "mdt", "benchmark", "tree", "out", "planner_endpoint"}


def _utc_timestamp(seconds: float) -> str:
    """`datetime.fromtimestamp(seconds, timezone.utc).isoformat()` for an instant >= 0, without
    datetime: microseconds rounded half to even, and no fraction when they are 0."""
    fraction, whole = math.modf(seconds)
    micros = round(fraction * 1e6)
    if micros == 1_000_000:
        whole, micros = whole + 1, 0
    text = "%04d-%02d-%02dT%02d:%02d:%02d" % time.gmtime(whole)[:6]
    return f"{text}.{micros:06d}+00:00" if micros else f"{text}+00:00"


def build_manifest(argv: list[str], args: argparse.Namespace, digests: dict[str, str]) -> dict:
    """Provenance record written next to every output artifact.

    `digests` maps each input file, and a planner reply, to the SHA-256 of the bytes parsed.
    """
    settings = {k: v for k, v in vars(args).items() if k not in _NOT_SETTINGS}
    if "sim" in settings and settings["sim"] not in NAMED_MODES:
        settings["sim"] = None  # a spec file, covered by its digest like the other inputs
    return {
        "command": argv,
        "config_hash": hashlib.sha256(json.dumps(settings, sort_keys=True).encode("utf-8")).hexdigest(),
        "inputs": digests,
        "seed": getattr(args, "seed", None),
        "versions": {
            "toolpath": __version__,
            "python": sys.version.split()[0],
        },
        "timestamp": _utc_timestamp(time.time()),
    }


# The types that a one-line encoder writes as JSON scalars; a container holding only these is flat.
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(depth: int):
    """The encoder, called as `encoder(obj, 0)`, of a scalar or a flat container at `depth` of an
    indent-2 document: its chunks join to one line, with each item after the first opening a new
    line at the next depth's indent."""
    item_separator = ",\n" + "  " * (depth + 1)
    if c_make_encoder is None:  # no _json accelerator: the same text from the pure-Python encoder
        return json.JSONEncoder(separators=(item_separator, ": "), sort_keys=True, allow_nan=False).iterencode
    default = json.JSONEncoder().default
    return c_make_encoder(None, default, encode_basestring_ascii, None, ": ", item_separator, True, False, False)


def _indented(obj, depth: int, chunks: list[str]) -> None:
    """Append the JSON of `obj` at `depth` of an indent-2, sorted-key document to `chunks`.

    This equals the stdlib's pure-Python indent encoder: both write floats and ints by their
    `repr` and strings by the same escaper, and an encoded string holds no raw newline, so a
    flat container's one line only needs its first item and closing bracket put on lines of
    their own.
    """
    if isinstance(obj, dict):
        brackets, members = "{}", obj.values()
    elif isinstance(obj, (list, tuple)):
        brackets, members = "[]", obj
    else:
        chunks.extend(_flat_encoder(depth)(obj, 0))
        return
    if not obj:
        chunks.append(brackets)
        return
    outer = "\n" + "  " * depth
    inner = outer + "  "
    if _SCALARS.issuperset(map(type, members)):
        text = "".join(_flat_encoder(depth)(obj, 0))
        chunks += (brackets[0], inner, text[1:-1], outer, brackets[1])
        return
    chunks.append(brackets[0])
    separator = inner
    if brackets == "{}":
        for key, value in sorted(obj.items()):
            if isinstance(key, (int, float)) or key is None:  # json writes such a key as its JSON text
                key = "".join(_flat_encoder(depth)(key, 0))
            chunks += (separator, encode_basestring_ascii(key), ": ")
            _indented(value, depth + 1, chunks)
            separator = "," + inner
    else:
        for value in obj:
            chunks.append(separator)
            _indented(value, depth + 1, chunks)
            separator = "," + inner
    chunks += (outer, brackets[1])


def _dump_json(payload) -> str:
    """Every JSON output's encoding, `json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"`; a non-finite number in it is an OutputError."""
    chunks: list[str] = []
    try:
        _indented(payload, 0, chunks)
    except ValueError:
        # The C encoder's message leaves out the number on some Pythons; the stdlib's names it.
        try:
            json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise OutputError(f"output holds a non-finite number: {exc}") from None
        raise
    chunks.append("\n")
    return "".join(chunks)


def _write(text: str, out: str | None, suffix: str = "") -> None:
    """Write one output to the file `out` + `suffix` as UTF-8 bytes, or to stdout when there is no `out`."""
    if not out:
        if sys.stdout is None:  # the process started with its stdout descriptor closed
            raise OutputError("cannot write to stdout: it is closed")
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # On /dev/null the interpreter's last flush drops what is still buffered.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise OutputError(f"cannot write to stdout: {exc.strerror or exc}") from None
        return
    data = memoryview(text.encode("utf-8"))
    # O_BINARY, where there is one, keeps Windows from turning each "\n" into "\r\n".
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(out + suffix, flags, 0o666)
        try:
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
    except OSError as exc:
        raise OutputError(f"cannot write {out + suffix}: {exc.strerror or exc}") from None


def _sim_spec(value: str, digests: dict[str, str]) -> SimulatorSpec:
    """The --sim simulator, read from its spec file unless it names a mode."""
    if value in NAMED_MODES:
        return SimulatorSpec(mode=value)
    return load_simulator_spec(value, digests)


def _search_config(args) -> SearchConfig:
    """Search settings from whichever of them the command takes; the rest keep their defaults."""
    return SearchConfig(**{name: getattr(args, name) for name in SearchConfig.__slots__ if hasattr(args, name)})


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mdt", required=True, help="model description table JSON")
    parser.add_argument("--benchmark", required=True, help="benchmark table JSON")
    parser.add_argument("--tree", help="subtask tree JSON file")
    parser.add_argument("--quality-threshold", type=float, default=DEFAULT_QUALITY_THRESHOLD)
    parser.add_argument("--max-retries", type=int, default=DEFAULT_MAX_RETRIES)
    parser.add_argument("--out", help="output file (stdout when omitted)")


def _load_tree_text(args, digests: dict[str, str]) -> str:
    """Tree text: from --tree, or else from the planner for plan's --task."""
    if args.tree:
        return read_text(args.tree, "tree", digests)
    text = ask_planner(build_planner_prompt(args.task), args.planner_endpoint)
    digests["planner reply"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return text


def _build_graph(args, digests: dict[str, str]):
    mdt = load_mdt(args.mdt, digests)
    bt = load_benchmark(args.benchmark, mdt, digests)
    graph = build_tool_subgraph(parse_subtask_tree(_load_tree_text(args, digests)), mdt)
    return bt, graph


# Exit code and outputs by file suffix (the main one under "").
Outcome = tuple[int, dict[str, str]]


def cmd_plan(args, digests: dict[str, str]) -> Outcome:
    bt, graph = _build_graph(args, digests)
    cfg = _search_config(args)
    spec = _sim_spec(args.sim, digests)
    result = astar_search(graph, suffix_bounds(graph, bt), Simulator(spec, bt, args.seed), cfg)
    texts = {"": _dump_json(result.to_json_dict(graph))}
    if args.out:
        texts[".trace.json"] = _dump_json(result.trace.to_json_dict(graph))
    return EXIT_OK if result.found else EXIT_NO_PATH, texts


def cmd_sweep(args, digests: dict[str, str]) -> Outcome:
    try:
        alphas = [validate_alpha(float(a)) for a in args.alphas.split(",") if a.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"--alphas must be comma-separated numbers: {exc}") from exc
    if not alphas:
        raise ParseError(f"--alphas names no alpha: {args.alphas!r}")
    cfg = _search_config(args)
    bt, graph = _build_graph(args, digests)
    simulator = Simulator(_sim_spec(args.sim, digests), bt, args.seed)
    points = sweep_alpha(graph, bt, simulator, alphas, base_cfg=cfg)
    return EXIT_OK, {"": pareto_csv(points)}


def cmd_verify(args, digests: dict[str, str]) -> Outcome:
    # A gap is never negative.
    if args.gap_tolerance is not None and not args.gap_tolerance >= 0.0:
        raise InvalidConfig(f"--gap-tolerance must be a number >= 0, got {args.gap_tolerance}")
    cfg = _search_config(args)
    bt, graph = _build_graph(args, digests)
    report = brute_force_optimal(graph, bt, cfg)
    code = EXIT_OK
    if args.gap_tolerance is not None and report.gap > args.gap_tolerance:
        print(f"gap {report.gap} exceeds tolerance {args.gap_tolerance}", file=sys.stderr)
        code = EXIT_NO_PATH
    return code, {"": _dump_json({"alpha": cfg.alpha, **report._asdict()})}


def cmd_graph(args, digests: dict[str, str]) -> Outcome:
    mdt = load_mdt(args.mdt, digests)
    if args.tree:
        graph = build_tool_subgraph(parse_subtask_tree(_load_tree_text(args, digests)), mdt)
        text = _dump_json(subgraph_to_json(graph)) if args.format == "json" else subgraph_to_dot(graph)
    else:
        tdg = build_tdg(mdt)
        if args.format == "json":
            text = _dump_json({"nodes": list(tdg.nodes), "edges": sorted([u, v] for u, v in tdg.edges)})
        else:
            text = tdg_to_dot(tdg)
    return EXIT_OK, {"": text}


def _build_parser() -> _Parser:
    parser = _Parser(prog="toolpath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="search one toolpath")
    _add_common(p_plan)
    p_plan.add_argument("--task", help="plan from a task description via the planner endpoint")
    p_plan.add_argument("--planner-endpoint", help="planner URL (overrides COSTA_PLANNER_URL)")
    p_plan.add_argument("--alpha", type=float, default=1.0)
    p_plan.set_defaults(func=cmd_plan)

    p_sweep = sub.add_parser("sweep", help="emit the path each alpha reaches as one row of a Pareto CSV")
    _add_common(p_sweep)
    p_sweep.add_argument("--alphas", default="0,0.5,1,1.5,2", help="comma-separated alphas")
    p_sweep.add_argument("--csv", dest="out", help="same as --out")
    p_sweep.set_defaults(func=cmd_sweep)

    # verify always replays benchmark values, so only plan and sweep take a simulator and its seed.
    for p in (p_plan, p_sweep):
        p.add_argument(
            "--sim",
            default="deterministic",
            help=f"simulator: {', '.join(map(json.dumps, NAMED_MODES))}, or a spec JSON path",
        )
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="stochastic simulator seed")

    p_verify = sub.add_parser("verify", help="compare the search against the least objective over all paths")
    _add_common(p_verify)
    p_verify.add_argument("--alpha", type=float, default=1.0)
    p_verify.add_argument(
        "--gap-tolerance",
        type=float,
        default=None,
        help="when set, exit non-zero if the gap exceeds this value",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_graph = sub.add_parser("graph", help="export the dependency graph or a tool subgraph")
    p_graph.add_argument("--mdt", required=True)
    p_graph.add_argument("--tree")
    p_graph.add_argument("--format", choices=("dot", "json"), default="dot")
    p_graph.add_argument("--out")
    p_graph.set_defaults(func=cmd_graph)

    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _PARSER.parse_args(argv)
        if args.command != "graph" and not args.tree and not getattr(args, "task", None):
            _PARSER.error("--tree is required (or --task with a planner endpoint for plan)")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        digests: dict[str, str] = {}
        code, texts = args.func(args, digests)
        for suffix, text in texts.items():
            _write(text, args.out, suffix)
        if args.out:
            _write(_dump_json(build_manifest(argv, args, digests)), args.out, ".manifest.json")
        return code
    except ToolpathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _ERROR_EXITS if isinstance(exc, kind)), EXIT_INPUT_ERROR)


if __name__ == "__main__":
    raise SystemExit(main())
