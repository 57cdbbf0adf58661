"""toolpath benchmark: drives `toolpath.cli.main` in-process on seeded instances.

    python3 perfbench/run.py --workload plan-deep --seed 1 --seconds 27 --trace 0

One client runs a closed loop with no threads: each op (one CLI call, or
for sweep-verify one sweep plus one verify per alpha) starts when the
previous one has ended.  Ops come in blocks of fresh seeded instances
(see instances.py); the loop runs whole blocks until --seconds have
passed.  Wall times are reported at a reference host speed (see
calibrate).  Every output is checked against exact optima computed without
toolpath (reference.py), and repeated executions of an op must write
byte-identical plan, trace, CSV and verify files.

--trace 0 prints the end-to-end metrics; --trace 1 runs every op twice,
untraced and then traced, and prints the per-layer metrics (spans.py) and
the tracing overhead.  The last line of stdout is one JSON object; the
exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from instances import make_block
from reference import Reference, check_plan, check_sweep, check_verify
from spans import SELF_TIME, OpCounters, Patch, Tracer, tracing_patch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
# A run stops starting ops after this long, whatever --seconds says, so it
# stays bounded even when toolpath gets many times slower.
HARD_STOP_S = 120.0
# What the CLI prints when the search queue overflows (the known defect).
OVERFLOW = "error: search queue exceeded"
# The tail metric, op_ms_p90, is this percentile of op wall time.
TAIL_PERCENTILE = 90
# setup_s is the median of this many set-ups.
SETUP_REPEATS = 3
# Seconds the calibration loop takes on the reference host (2-vCPU Xeon,
# Python 3.11) when no neighbour slows it down.
CALIBRATION_REF_S = 0.0048


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now, best of three.

    The hosts this benchmark runs on share cores with other tenants, and
    their speed drifts by up to 1.5x over periods of 20-60 seconds, for
    toolpath's code and for this loop alike.  Wall times are reported at
    the reference speed: multiplied by CALIBRATION_REF_S over the loop time
    measured next to them, so that the drift cancels while a change in
    toolpath's own speed shows in full.
    """
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        x = 0
        for i in range(80_000):
            x += i * i
        best = min(best, perf_counter() - start)
    return best


def import_toolpath():
    """Import toolpath from this checkout's src/; returns (cli, evaluation, seconds)."""
    src = ROOT / "src"
    if not (src / "toolpath" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no toolpath sources under {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import toolpath.cli as cli
    import toolpath.evaluation as evaluation

    seconds = perf_counter() - start
    if Path(cli.__file__).resolve().parent != (src / "toolpath").resolve():
        raise SystemExit(f"perfbench: toolpath was imported from {cli.__file__}, not from {src}")
    return cli, evaluation, seconds


def machine_note() -> str:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} numpy={numpy.__version__}"


class Execution:
    """What one execution of an op did."""

    def __init__(self, threshold: float):
        self.ms = 0.0
        self.exits: list[int | None] = []
        self.stderr = ""
        self.outputs: dict[str, bytes] = {}
        self.counters = OpCounters(threshold)

    def returned(self) -> bool:
        """Whether every call returned, rather than raising or stopping at the search queue cap."""
        return None not in self.exits and OVERFLOW not in self.stderr


class Bench:
    """One run of one workload: set-up, the timed loop, the checks and the metrics."""

    def __init__(self, args, cli, evaluation):
        self.args = args
        self.params = CONFIG["workloads"][args.workload]
        self.alphas = CONFIG["alphas"]
        self.threshold = CONFIG["quality_threshold"]
        self.cli = cli
        self.work = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
        self.out_dir = self.work / "out"
        self.tracer = Tracer()
        self.counting = Patch([(m, "Simulator", self.tracer.simulator(m.Simulator)) for m in (cli, evaluation)])
        self.tracing = tracing_patch(self.tracer, (cli, evaluation))
        self.traced_main = self.tracer.wrap("cli.main", cli.main)
        self.refs: dict[str, Reference] = {}
        self.table_cache: dict[str, tuple] = {}
        self.digests: dict[str, tuple] = {}
        self.problems: list[str] = []
        self.stderr_lines = {"coverage": 0, "error": 0, "gap": 0, "other": 0}

    # -- set-up -------------------------------------------------------------

    def setup(self, repeat: int) -> float:
        """Generate and write the first block, then warm up; returns the seconds taken at reference speed.

        Later blocks are generated as the loop reaches them, between ops:
        writing them all here would make set-up time mostly file-system time.
        """
        scale = CALIBRATION_REF_S / calibrate()
        start = perf_counter()
        self.inst_dir = self.work / f"instances-{repeat}"
        self.inst_dir.mkdir(parents=True)
        self.blocks, self.files, self.models = [], {}, {}
        with self.counting:
            self.execute(self.block(0)[0])
        return (perf_counter() - start) * scale

    def block(self, index: int) -> list:
        """Ops of block `index` of the cycle, generating and writing it on first use."""
        index %= self.params["blocks"]
        while len(self.blocks) <= index:
            instances, ops = make_block(self.args.workload, self.params, self.alphas, self.args.seed, len(self.blocks))
            for inst in instances:
                inst.write(self.inst_dir)
                self.files[inst.name] = inst.files
                self.models[inst.name] = (inst.stages, inst.orderings)
            self.blocks.append(ops)
        return self.blocks[index]

    # -- one op -------------------------------------------------------------

    def _paths(self, op) -> list[str]:
        files = self.files[op.instance]
        return [
            "--mdt", self.input_path(files, "mdt"),
            "--benchmark", self.input_path(files, "benchmark"),
            "--tree", self.input_path(files, "tree"),
            "--quality-threshold", repr(self.threshold),
            "--max-retries", str(CONFIG["max_retries"]),
        ]

    def input_path(self, files: dict[str, str], key: str) -> str:
        return str(self.inst_dir / f"{files[key]}.{key}.json")

    def argvs(self, op) -> list[list[str]]:
        paths, out = self._paths(op), self.out_dir
        if op.command == "plan":
            sim = ["--sim", "deterministic"] if op.sim_seed is None else ["--sim", "stochastic", "--seed", str(op.sim_seed)]
            return [["plan", *paths, "--alpha", repr(op.alpha), *sim, "--out", str(out / "plan.json")]]
        alphas = ",".join(f"{a:g}" for a in self.alphas)
        argvs = [["sweep", *paths, "--alphas", alphas, "--csv", str(out / "sweep.csv")]]
        for a in self.alphas:
            argvs.append(["verify", *paths, "--alpha", repr(a), "--gap-tolerance", "0", "--out", str(out / f"verify-{a:g}.json")])
        return argvs

    def execute(self, op, main=None) -> Execution:
        """Run the CLI calls of one op, timing only the calls themselves."""
        main = main or self.cli.main
        run = Execution(self.threshold)
        self.tracer.counters = run.counters
        self.out_dir.mkdir(parents=True, exist_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            for argv in self.argvs(op):
                start = perf_counter()
                try:
                    code = main(argv)
                except Exception:  # an op that raises is a failed op, not a crashed run
                    code = None
                    err.write("raised: " + traceback.format_exc())
                run.ms += (perf_counter() - start) * 1000.0
                run.exits.append(code)
        run.stderr = err.getvalue()
        for path in sorted(self.out_dir.iterdir()):
            run.outputs[path.name] = path.read_bytes()
            path.unlink()
        return run

    # -- checks -------------------------------------------------------------

    def reference(self, name: str) -> Reference:
        """Reference of an instance; the cache holds one block's, to keep the harness small."""
        if name not in self.refs:
            tables = []
            for key in ("mdt", "benchmark"):
                path = self.input_path(self.files[name], key)
                if path not in self.table_cache:
                    self.table_cache[path] = json.loads(Path(path).read_text(encoding="utf-8"))
                tables.append(self.table_cache[path])
            self.refs[name] = Reference(*self.models[name], *tables, self.threshold)
        return self.refs[name]

    def check(self, op, run: Execution) -> tuple[bool, float, int]:
        """Check one execution; returns (solved, summed optimality scores, judgements)."""
        for line in run.stderr.splitlines():
            kind = (
                "coverage" if "no tool supports" in line
                else "error" if line.startswith("error:")
                else "gap" if line.startswith("gap ")
                else "other"
            )
            self.stderr_lines[kind] += 1
        problems: list[str] = []
        solved, optimal, judged = False, 0, 1 if op.command == "plan" else 2 * len(self.alphas)
        if None in run.exits:
            problems.append("raised " + run.stderr.strip().splitlines()[-1])
        else:
            try:
                solved, optimal, judged = self._check(op, run, problems)
                for argv, name in zip(self.argvs(op), self._out_names(op)):
                    manifest = run.outputs.get(name + ".manifest.json")
                    if manifest is not None and json.loads(manifest).get("command") != argv:
                        problems.append(f"manifest of {name} does not record the command")
            except (KeyError, IndexError, TypeError, ValueError) as exc:  # a missing or malformed output
                problems.append(f"malformed output: {exc!r}")
        digest = (tuple(run.exits), tuple(
            (name, hashlib.sha256(data).hexdigest()) for name, data in run.outputs.items() if "manifest" not in name
        ))
        if self.digests.setdefault(op.op_id, digest) != digest:
            problems.append("a repeated execution wrote different bytes or exited differently")
        if problems:
            self.problems.extend(f"{op.op_id}: {p}" for p in problems)
        return solved and not problems, optimal, judged

    def _out_names(self, op) -> list[str]:
        if op.command == "plan":
            return ["plan.json"]
        return ["sweep.csv"] + [f"verify-{a:g}.json" for a in self.alphas]

    def _check(self, op, run: Execution, problems: list[str]) -> tuple[bool, float, int]:
        ref = self.reference(op.instance)
        if op.command == "plan":
            code = run.exits[0]
            if code == 0:
                bad, optimal = check_plan(
                    ref,
                    json.loads(run.outputs["plan.json"]),
                    json.loads(run.outputs["plan.json.trace.json"]),
                    op.alpha,
                    op.sim_seed is None,
                    CONFIG["max_retries"],
                    run.counters.calls,
                    run.counters.sim_time,
                )
                problems.extend(bad)
                return True, optimal, 1
            if OVERFLOW in run.stderr:
                return False, 0, 1
            if code == 2 and json.loads(run.outputs.get("plan.json", b"{}")).get("status") == "exhausted":
                # Noise can make every path fail; deterministic playback cannot.
                if op.sim_seed is None and ref.front():
                    problems.append("no path found although the instance has one")
                return False, 0, 1
            problems.append(f"unexpected exit {code}: {run.stderr.strip()[-200:]}")
            return False, 0, 1
        # sweep-verify
        optimal, judged = 0, 2 * len(self.alphas)
        solved = run.exits[0] == 0
        if solved:
            bad, flags = check_sweep(ref, run.outputs["sweep.csv"].decode("utf-8"), self.alphas)
            problems.extend(bad)
            optimal += sum(flags)
        elif OVERFLOW not in run.stderr:
            problems.append(f"sweep exit {run.exits[0]}")
        for alpha, code in zip(self.alphas, run.exits[1:]):
            if code in (0, 2):
                bad, ok = check_verify(ref, json.loads(run.outputs[f"verify-{alpha:g}.json"]), alpha, code)
                problems.extend(bad)
                optimal += ok
            else:
                solved = False
                if OVERFLOW not in run.stderr:
                    problems.append(f"verify exit {code} at alpha {alpha}")
        return solved, optimal, judged

    # -- the timed loop -----------------------------------------------------

    def record(self, op, run: Execution) -> tuple[bool, float, int]:
        """Check an execution of the timed loop, counting it as failed when a check fails."""
        self.attempted += 1
        before = len(self.problems)
        result = self.check(op, run)
        self.failed += len(self.problems) > before
        return result

    def run(self) -> None:
        self.untraced_ms: list[float] = []  # measured
        self.scaled_ms: list[float] = []  # at reference speed
        self.traced_ms: dict[str, float] = {}  # by traced op id
        self.traced_returned: list[str] = []
        self.bytes_traced: dict[str, int] = {}
        self.counted = {"ops": 0, "returned": 0, "calls": 0, "sim_time": 0.0, "solved": 0, "optimal": 0, "judged": 0}
        self.attempted = self.failed = 0
        # The counts come only from untraced runs, so a traced run need not
        # wait for the blocks they are taken over.
        min_blocks = self.count_blocks = 1 if self.args.trace else self.params["blocks"]
        start = perf_counter()
        block = 0
        calibration = calibrate()
        while True:
            self.refs.clear()
            self.table_cache.clear()
            block_ms: list[float] = []
            for op in self.block(block):
                if perf_counter() - start >= HARD_STOP_S:
                    break
                with self.counting:
                    run = self.execute(op)
                block_ms.append(run.ms)
                solved, optimal, judged = self.record(op, run)
                if block < min_blocks:
                    c = self.counted
                    c["ops"] += 1
                    # An op stopped by the queue cap ran as many executions
                    # as the cap allowed, however well the search prunes:
                    # it shows in solved_share, not in the per-op counts.
                    if run.returned():
                        c["returned"] += 1
                        c["calls"] += run.counters.calls
                        c["sim_time"] += run.counters.sim_time
                    c["solved"] += solved
                    c["optimal"] += optimal
                    c["judged"] += judged
                if self.args.trace:
                    key = f"{op.op_id}#{block}"
                    self.tracer.begin_op(key)
                    with self.counting, self.tracing:
                        run = self.execute(op, self.traced_main)
                    self.tracer.end_op()
                    self.traced_ms[key] = run.ms
                    self.bytes_traced[key] = sum(len(b) for b in run.outputs.values())
                    if run.returned():
                        self.traced_returned.append(key)
                    self.record(op, run)
            block += 1
            before, calibration = calibration, calibrate()
            scale = CALIBRATION_REF_S / ((before + calibration) / 2)
            self.untraced_ms += block_ms
            self.scaled_ms += [ms * scale for ms in block_ms]
            elapsed = perf_counter() - start
            if (block >= min_blocks and elapsed >= self.args.seconds) or elapsed >= HARD_STOP_S:
                break
        self.blocks_run = block
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Replay the first op of the first block once more, untimed: its
        # outputs must be byte-identical to the first execution's.
        op = self.block(0)[0]
        with self.counting:
            self.check(op, self.execute(op))

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        ms = self.scaled_ms
        c = self.counted
        return {
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": percentile(ms, TAIL_PERCENTILE),
            "ops_per_s": len(ms) / (sum(ms) / 1000.0),
            "tool_execs_per_op": c["calls"] / c["returned"],
            "tool_s_per_op": c["sim_time"] / c["returned"],
            "optimal_share": c["optimal"] / c["judged"],
            "solved_share": c["solved"] / c["ops"],
            "setup_s": setup_s,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self, ops) -> dict[str, float]:
        """Per-layer metrics, per op of the traced ops in `ops`."""
        t, ops = self.tracer, set(ops)
        n = len(ops)
        self_times, totals = t.self_times(ops), t.totals(ops)
        out = {metric: sum(self_times[name] for name in names) * 1000.0 / n for metric, names in SELF_TIME.items()}
        for key in ("registry.records", "planning.tree_nodes", "graphs.tdg_edges", "graphs.subgraph_nodes",
                    "graphs.paths_enumerated", "search.expanded", "execution.calls", "execution.retry_calls"):
            out[key] = totals[key] / n
        calls = totals["execution.calls"]
        out["search.searches_per_op"] = t.span_count("search.astar_search", ops) / n
        out["search.useful_exec_ratio"] = totals["search.path_steps"] / calls if calls else 0.0
        out["execution.busy_ms"] = totals["execution.busy_s"] * 1000.0 / n
        out["execution.fail_share"] = totals["execution.failed_calls"] / calls if calls else 0.0
        out["cli.bytes_written"] = sum(self.bytes_traced[op] for op in ops) / n
        out["trace.op_ms_p50"] = statistics.median(self.traced_ms.values())
        out["trace.overhead_ms"] = out["trace.op_ms_p50"] - statistics.median(self.untraced_ms)
        return out

    def split(self, ops) -> str:
        """The mean traced op time over `ops` and the layers' shares of it, largest first."""
        layers = self.per_layer(ops)
        mean_ms = sum(self.traced_ms[op] for op in ops) / len(ops)
        parts = sorted(((layers[m], m) for m in (*SELF_TIME, "execution.busy_ms")), reverse=True)
        return f"mean op {mean_ms:.2f} ms; " + ", ".join(f"{m} {v:.2f} ({v / mean_ms:.0%})" for v, m in parts if v >= 0.005 * mean_ms)

    def write_spans(self) -> Path:
        path = ROOT / ".perfbench_out" / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for op, name, start, end, parent, busy in self.tracer.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end, "parent": parent, "executor_s": busy}) + "\n")
        return path


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import_scale = CALIBRATION_REF_S / calibrate()
    cli, evaluation, import_s = import_toolpath()
    bench = Bench(args, cli, evaluation)
    try:
        setups = [bench.setup(i) for i in range(SETUP_REPEATS)]
        setup_s = import_s * import_scale + statistics.median(setups)
        bench.run()
        if args.trace:
            # Per-layer metrics are taken over the ops that returned, like
            # the per-op counts of the untraced run.
            metrics, wanted = bench.per_layer(bench.traced_returned or bench.traced_ms), spec["per_layer"]
            spans_file = bench.write_spans()
        else:
            metrics, wanted = bench.end_to_end(setup_s), spec["end_to_end"]
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    ms = bench.untraced_ms
    tail = percentile(ms, TAIL_PERCENTILE)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {machine_note()}")
    c = bench.counted
    print(f"# ops={len(ms)} in {bench.blocks_run} blocks (counts over the first {bench.count_blocks},"
          f" per-op counts over the {c['returned']} of {c['ops']} that returned);"
          f" p{TAIL_PERCENTILE} has {sum(m > tail for m in ms)} ops beyond it")
    print(f"# measured op ms: p50 {statistics.median(ms):.3f}, p{TAIL_PERCENTILE} {tail:.3f};"
          f" measured / reference-speed p50: {statistics.median(ms) / statistics.median(bench.scaled_ms):.3f}")
    print(f"# captured stderr lines: {bench.stderr_lines}")
    if args.trace:
        print(f"# spans: {spans_file.relative_to(ROOT)}")
        returned = bench.traced_returned
        if returned:
            print(f"# split over the {len(returned)} traced ops that returned: {bench.split(returned)}")
        if len(returned) < len(bench.traced_ms):
            print(f"# split over all {len(bench.traced_ms)} traced ops: {bench.split(bench.traced_ms)}")
    for m in wanted:
        print(f"{m['name']:<28} {metrics[m['name']]:>14.6f} {m['unit']}")
    for problem in bench.problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    correct = not bench.problems
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
