"""End-to-end and per-module benchmark for the qmlab CLI.

Usage:
    python3 perfbench/run.py --workload {suite,images,prune,all} --seed N \
        --seconds S --trace {0,1}

--seconds defaults to run_seconds in BENCHMARK.json.

Each workload is a fixed sequence of `qmlab ... --json` invocations (see
invocations()).  A pass runs them one after another, each in a fresh
interpreter importing qmlab from this checkout's src/ (child.py), so every
invocation pays interpreter start, imports and cold lru_caches exactly as a
CLI user does.  Passes repeat back to back (a closed loop with one client)
while another one is expected to end within --seconds; at least one pass
always runs.  Repeats are
never timed inside one process, because qmlab's unbounded lru_caches would
turn them into cache hits.

Times are wall times from spawn to reap, scaled to a reference CPU speed:
each child also times a fixed calibration kernel when it starts, every
0.1 s while it works and when it exits (child.SpeedProbe), and its time,
less the kernel's, is multiplied by CAL_REF_S over the median of the
kernel samples the child prints.  The summary line also prints the
unscaled wall time.

--trace 0 prints the end-to-end metrics:
    wall_s       sum over the invocations of each one's median time
    setup_s      median of SETUP_REPEATS fresh children that start the
                 interpreter, import qmlab and build the workload's FieldCtx
                 tables
    peak_rss_mb  median over passes of the largest child peak RSS
and, on the summary line, failed_share (failed / attempted invocations).

--trace 1 alternates untraced passes with traced ones (tracer.py) and runs
the L0 microkernels (microkernel.py) once, then prints the per-module
metrics.  It starts a single setup child, as the isolation check, and
reports no setup time.  Counts come from the traced passes and must repeat
exactly between them; times, scaled by their child's calibration, are
medians over them.  A module the workload never reaches reports 0 calls
and 0 s.  The ratios pqm.pqm_round.calls_per_round and
rscode.bucket_eval.cache_hit_ratio are printed on the summary lines where
their denominator is not 0; they are not metrics.  With --workload all the
microkernels, which do not depend on the workload, run once and their
metrics carry no workload prefix.

Every invocation's output is checked by check.py.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.  The
benchmark exits 2 without a result when qmlab cannot be imported from this
checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import check
import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("suite", "images", "prune")
IMAGE_FIELDS = (49, 64, 81)
PRUNE_FIELDS = (121, 125, 128, 243)
PRUNE_STRATEGIES = ("greedy-halving", "random-set")
# The fields `suite --qmax 64` builds: prime powers in [3, 64], binary only 4..64.
SUITE_FIELDS = (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41,
                43, 47, 49, 53, 59, 61, 64)
SETUP_FIELDS = {"suite": SUITE_FIELDS, "images": IMAGE_FIELDS, "prune": PRUNE_FIELDS}
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
# Reference speed: child.calibration_kernel's time on a 2-CPU x86-64 VM with
# CPython 3.11 when the machine is quiet.  Scaled times are reported as if
# every child had run at that speed.
CAL_REF_S = 0.002
TRACED_SPANS = (
    "residues.build_sqrt_system",
    "rscode.bucket_eval",
    "rscode.bucket",
    "rscode.scalar_evolution",
    "qm.search_min_bandwidth",
    "qm.verify_scheme",
    "qm.convert_eliminator",
    "pqm.pqm_round",
    "pqm.play_game",
    "pqm.replay_transcript",
    "linleak.linear_impossibility_check",
    "linleak.zero_trace_line",
)
TRACED_CALLS = (
    "residues.quadratic_character",
    "rscode.bucket_eval",
    "qm.verify_scheme",
    "qm.transcript",
    "pqm.pqm_round",
    "linleak.linear_impossibility_check",
)
MODULE_SELF = ("residues", "rscode", "charsum", "qm", "pqm", "linleak", "shamir7")


class Abort(Exception):
    """The benchmark cannot measure this checkout."""


def invocations(workload: str, seed: int) -> list:
    """The workload's qmlab argument lists, in the order a pass runs them."""
    if workload == "suite":
        return [["suite", "--qmax", "64", "--seed", str(seed), "--json"]]
    if workload == "images":
        return [["buckets", "--q", str(q), "--json"] for q in IMAGE_FIELDS]
    if workload == "prune":
        return [
            ["game", "--q", str(q), "--strategy", s, "--seed", str(seed), "--json"]
            for q in PRUNE_FIELDS
            for s in PRUNE_STRATEGIES
        ]
    raise ValueError(f"unknown workload {workload!r}")


def child_cmd(mode: str, args) -> list:
    return [sys.executable, str(HERE / "child.py"), mode, *map(str, args)]


def child_env() -> dict:
    """The parent's environment without Python or qmlab settings, plus src/."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("PYTHON") and not k.startswith("QMLAB_")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


class ChildResult(NamedTuple):
    returncode: int
    stdout: bytes
    stderr: bytes  # without the benchmark's marker lines
    elapsed: float  # wall seconds from spawn to reap, calibration excluded
    factor: float | None  # reference speed / this child's speed; None without calibration
    maxrss_kb: int
    trace: dict | None


def _split_markers(stderr: bytes) -> tuple:
    """(stderr without marker lines, kernel samples in seconds or None,
    trace or None)."""
    kept, cal, trace = [], None, None
    for line in stderr.splitlines(keepends=True):
        text = line.decode("utf-8", "replace")
        if text.startswith(child.CAL_MARKER):
            cal = [float(x) for x in text[len(child.CAL_MARKER):].split()]
        elif text.startswith(child.TRACE_MARKER):
            trace = json.loads(text[len(child.TRACE_MARKER):])
        else:
            kept.append(line)
    return b"".join(kept), cal, trace


def run_child(cmd, env) -> ChildResult:
    """Run a child.py command to completion, with its time and peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr, cal, trace = _split_markers(err[0])
    factor = None
    if cal:
        elapsed -= sum(cal)
        factor = CAL_REF_S / statistics.median(cal)
    return ChildResult(proc.returncode, out, stderr, elapsed, factor, usage.ru_maxrss, trace)


def measure_setup(workload: str, env, repeats: int = SETUP_REPEATS) -> float:
    """Median time over `repeats` children to start, import qmlab and build
    the workload's fields.

    Also the isolation gate: every child must import qmlab from src/.
    """
    if not (SRC / "qmlab" / "__init__.py").is_file():
        raise Abort(f"no qmlab package under {SRC}")
    cmd = child_cmd("setup", SETUP_FIELDS[workload])
    times = []
    for _ in range(repeats):
        result = run_child(cmd, env)
        if result.returncode != 0 or result.factor is None:
            raise Abort(f"importing qmlab failed: {result.stderr.decode()[-300:]}")
        where = Path(result.stdout.decode().strip()).resolve()
        if SRC.resolve() not in where.parents:
            raise Abort(f"qmlab imported from {where}, outside {SRC}")
        times.append(result.elapsed * result.factor)
    return statistics.median(times)


class Pass(NamedTuple):
    elapsed: list  # scaled seconds per invocation, in order
    raw: list  # unscaled seconds per invocation
    maxrss_kb: list
    problems: list  # (argv, reason)
    trace: dict | None  # summed trace summary of a traced pass


def _add_trace(total: dict, part: dict, report_bytes: int, factor: float) -> None:
    """Add one child's trace summary, its times scaled by factor."""
    for name, (calls, own, whole) in part["spans"].items():
        acc = total["spans"].setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += own * factor
        acc[2] += whole * factor
    for op, n in part["counts"].items():
        total["counts"][op] = total["counts"].get(op, 0) + n
    for name, (hits, misses) in part["caches"].items():
        acc = total["caches"].setdefault(name, [0, 0])
        acc[0] += hits
        acc[1] += misses
    total["field_setup_s"] += part["field_setup_s"] * factor
    total["rounds_played"] += part["rounds_played"]
    total["report_bytes"] += report_bytes


def run_pass(workload: str, seed: int, env, expected: dict, traced: bool) -> Pass:
    elapsed, raw, rss, problems = [], [], [], []
    trace = {"spans": {}, "counts": {}, "caches": {}, "field_setup_s": 0.0,
             "rounds_played": 0, "report_bytes": 0} if traced else None
    for argv in invocations(workload, seed):
        result = run_child(child_cmd("traced" if traced else "plain", argv), env)
        elapsed.append(result.elapsed * (result.factor or 1.0))
        raw.append(result.elapsed)
        rss.append(result.maxrss_kb)
        reason = check.problem(argv, result.returncode, result.stdout, result.stderr, expected)
        if reason is None and result.factor is None:
            reason = "child printed no calibration"
        if reason is None and traced and result.trace is None:
            reason = "traced child printed no trace"
        if reason:
            problems.append((argv, reason))
        elif traced:
            _add_trace(trace, result.trace, len(result.stdout), result.factor)
    return Pass(elapsed, raw, rss, problems, trace)


def typical_wall(passes, field: str = "elapsed") -> float:
    """Sum over invocations of the median of that invocation's times."""
    columns = zip(*(getattr(p, field) for p in passes))
    return sum(statistics.median(col) for col in columns)


def end_to_end(passes, setup_s: float) -> dict:
    return {
        "wall_s": typical_wall(passes),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(max(p.maxrss_kb) for p in passes) / 1024,
    }


def trace_counts(trace: dict) -> dict:
    """The parts of a traced pass that must repeat exactly."""
    return {
        "calls": {name: row[0] for name, row in trace["spans"].items()},
        "counts": trace["counts"],
        "caches": trace["caches"],
        "rounds_played": trace["rounds_played"],
        "report_bytes": trace["report_bytes"],
    }


def _layer_values(trace: dict) -> dict:
    """Per-module metrics of one traced pass (unit-less numbers)."""
    spans = trace["spans"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    out = {f"galois.{op}.calls": trace["counts"].get(op, 0)
           for op in ("add", "mul", "inv", "pow", "trace")}
    out["galois.field_setup_s"] = trace["field_setup_s"]
    out["galois.calls"] = sum(trace["counts"].values())
    for module in MODULE_SELF:
        rows = [row for name, row in spans.items() if name.startswith(module + ".")]
        out[f"{module}.calls"] = sum(row[0] for row in rows)
        out[f"{module}.self_s"] = sum(row[1] for row in rows)
    for name in TRACED_CALLS:
        out[f"{name}.calls"] = calls(name)
    for name in TRACED_SPANS:
        out[f"{name}.self_s"] = self_s(name)
    out["rscode.bucket_eval.cache_hits"] = trace["caches"].get("rscode.bucket_eval", [0, 0])[0]
    out["pqm.rounds_played"] = trace["rounds_played"]
    out["cli.command.self_s"] = self_s("cli.command")
    out["cli.render_s"] = spans.get("cli.render", [0, 0.0, 0.0])[2]
    out["cli.report_bytes"] = trace["report_bytes"]
    return out


def ratios(values: dict) -> dict:
    """The summary-line ratios whose denominator is not 0 on this workload."""
    out = {}
    if values["pqm.rounds_played"]:
        out["pqm.pqm_round.calls_per_round"] = (
            values["pqm.pqm_round.calls"] / values["pqm.rounds_played"])
    if values["rscode.bucket_eval.calls"]:
        out["rscode.bucket_eval.cache_hit_ratio"] = (
            values["rscode.bucket_eval.cache_hits"] / values["rscode.bucket_eval.calls"])
    return out


def per_layer(traced, untraced) -> dict:
    """Counts from the first traced pass, times as medians over all of them."""
    values = [_layer_values(p.trace) for p in traced]
    merged = {}
    for name in values[0]:
        col = [v[name] for v in values]
        merged[name] = col[0] if isinstance(col[0], int) else statistics.median(col)
    merged["tracing.overhead_ratio"] = typical_wall(traced) / typical_wall(untraced)
    return merged


def run_microkernels(env) -> tuple:
    """(ns metrics, error list) from one microkernel child."""
    result = run_child(child_cmd("microkernel", ()), env)
    if result.returncode != 0 or result.stderr.strip() or result.factor is None:
        return {}, [f"microkernel exit {result.returncode}: {result.stderr.decode()[-300:]}"]
    data = json.loads(result.stdout.decode().strip().splitlines()[-1])
    return {k: v * result.factor for k, v in data["ns"].items()}, data["errors"]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_units(trace: bool) -> dict:
    """Metric name -> unit for the metrics this mode reports."""
    return {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}


def _print_result(label: str, result: dict, extra: dict) -> None:
    print(label)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"  {name} = {value:.6g} (summary only, not a metric)")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    expected = check.load_expected()
    units = load_units(trace)
    setup_s = measure_setup(workload, env, 1 if trace else SETUP_REPEATS)
    deadline = time.perf_counter() + seconds
    untraced, traced, round_s = [], [], []
    while True:
        started = time.perf_counter()
        order = (False, True) if len(untraced) % 2 == 0 else (True, False)
        for is_traced in order if trace else (False,):
            done = run_pass(workload, seed, env, expected, is_traced)
            (traced if is_traced else untraced).append(done)
        round_s.append(time.perf_counter() - started)
        if time.perf_counter() + statistics.median(round_s) > deadline:
            break
    passes = untraced + traced
    problems = [pr for p in passes for pr in p.problems]
    attempted = sum(len(p.elapsed) for p in passes)
    failed = len(problems)
    errors = []
    extra = {}
    if trace:
        first = trace_counts(traced[0].trace)
        if any(trace_counts(p.trace) != first for p in traced[1:]):
            errors.append("traced counts differ between passes")
        values = per_layer(traced, untraced)
        extra = ratios(values)
    else:
        values = end_to_end(untraced, setup_s)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    for argv, reason in problems[:10]:
        print(f"FAILED {' '.join(argv)}: {reason}")
    for err in errors:
        print(f"FAILED {err}")
    result = {"correct": failed == 0 and not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    _print_result(f"{workload} seed={seed}: {len(untraced)} untraced and {len(traced)} traced "
                  f"passes, attempted={attempted} failed={failed} "
                  f"failed_share={failed / attempted:.4f} "
                  f"unscaled_wall_s={typical_wall(untraced, 'raw'):.4f}", result, extra)
    return result


def microkernel_result() -> dict:
    """The L0 microkernel metrics, as one checked attempt."""
    units = load_units(True)
    ns, errors = run_microkernels(child_env())
    for err in errors:
        print(f"FAILED microkernel: {err}")
    result = {"correct": not errors, "attempted": 1, "failed": int(bool(errors)),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in ns.items()}}
    _print_result("microkernels:", result, {})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qmlab end-to-end and per-module benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    parts = [
        {**r, "metrics": {(k if len(names) == 1 else f"{w}.{k}"): v
                          for k, v in r["metrics"].items()}}
        for w, r in results.items()
    ]
    if args.trace:
        parts.append(microkernel_result())
    out = {
        "correct": all(r["correct"] for r in parts),
        "attempted": sum(r["attempted"] for r in parts),
        "failed": sum(r["failed"] for r in parts),
        "metrics": {k: v for r in parts for k, v in r["metrics"].items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
