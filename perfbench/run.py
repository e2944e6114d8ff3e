"""gswf benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of the workload runs in
a fresh interpreter (``child.py``) that imports ``gswf`` from ``src/``,
builds the seeded inputs, runs the workload's commands through
``gswf.cli.main`` and checks every output.  Passes repeat until the next
one would overrun ``--seconds`` (at least ``MIN_PASSES``); times are
per-command medians over passes, as is set-up time.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics instead.

The last stdout line is the JSON result; the full result set (environment,
every pass, every op) is written to ``.perfbench_out/`` in the checkout.
The metric names and units reported are those listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import MODULES, WORK_COUNTERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Passes a run always makes, however short ``--seconds`` is (with
#: tracing: two traced and one untraced).
MIN_PASSES = 3
#: Every child must end within this many seconds of the run's start.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, workload, str(seed), mode, repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["mode"] = mode
    result["elapsed_s"] = time.monotonic() - t0
    return result


def run_passes(workload: str, seed: int, seconds: int, trace: str) -> list[dict]:
    """Passes until the next would overrun ``seconds`` (at least
    ``MIN_PASSES``).  With tracing, passes alternate traced and untraced,
    traced first."""
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        mode = "traced" if trace == "1" and len(passes) % 2 == 0 else "plain"
        same = [p["elapsed_s"] for p in passes if p["mode"] == mode]
        predicted = statistics.median(same or [p["elapsed_s"] for p in passes] or [0.0])
        elapsed = time.monotonic() - start
        if elapsed + predicted > (seconds if len(passes) >= MIN_PASSES else HARD_LIMIT_S):
            break
        passes.append(spawn(workload, seed, mode, HARD_LIMIT_S - elapsed))
    if len(passes) < MIN_PASSES:
        raise BenchError(f"no time left for {MIN_PASSES} passes of {workload}")
    return passes


# ----------------------------------------------------------------------
# metrics


def command_times(passes: list[dict]) -> list[float]:
    """Per-command median wall time over the given passes."""
    return [statistics.median(col) for col in zip(*(p["times"] for p in passes))]


def group_sums(passes: list[dict], groups: list[str]) -> dict:
    """Per command group: summed time and summed work."""
    times = command_times(passes)
    work = passes[0]["work"]
    sums: dict[str, list[float]] = {}
    for group, t, w in zip(groups, times, work):
        acc = sums.setdefault(group, [0.0, 0])
        acc[0] += t
        acc[1] += w
    return sums


def rate(sums: dict, group: str) -> float:
    t, w = sums.get(group, (0.0, 0))
    return w / t if t > 0 else 0.0


def end_to_end(passes: list[dict], groups: list[str]) -> dict:
    plain = [p for p in passes if p["mode"] == "plain"]
    sums = group_sums(plain, groups)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": sum(command_times(plain)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "formula_sym_s": sums.get("formula_sym", (0.0,))[0],
        "formula_dense_s": sums.get("formula_dense", (0.0,))[0],
        "oracle_profiles_per_s": rate(sums, "oracle"),
        "mc_samples_per_s": rate(sums, "simulate"),
        "exhaustive_triples_per_s": rate(sums, "exhaustive"),
        "random_trials_per_s": rate(sums, "random"),
    }


def work_counts(trace: dict) -> dict:
    """Everything a traced pass counted: calls per span and work counters."""
    counts = {f"{name}.calls": s["calls"] for name, s in trace["stats"].items()}
    counts.update(trace["counts"])
    counts["walsh_in_w_formula"] = trace["walsh_in_w_formula"]
    return counts


def per_layer(passes: list[dict], groups: list[str]) -> dict:
    traced = [p for p in passes if p["mode"] == "traced"]
    plain = [p for p in passes if p["mode"] == "plain"]
    first = traced[0]["trace"]
    counts = work_counts(first)
    out: dict[str, float] = {}

    def timed(name: str, stat: str) -> float:
        return statistics.median(p["trace"]["stats"].get(name, {}).get(stat, 0.0) for p in traced)

    for name in first["stats"]:
        out[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
        out[f"{name}.busy_s"] = timed(name, "busy_s")
        out[f"{name}.self_s"] = timed(name, "self_s")
    for key in WORK_COUNTERS:
        out[key] = counts.get(key, 0)
    for module in MODULES:
        out[f"{module}.errors"] = counts.get(f"{module}.errors", 0)
    calls = counts.get("rationality.w_formula.calls", 0)
    out["rationality.spectra_per_w_formula"] = (
        counts["walsh_in_w_formula"] / calls if calls else 0.0
    )
    out["trace.overhead_s"] = sum(command_times(traced)) - sum(command_times(plain))
    out["trace.spans"] = first["spans"]
    # The workload-specific end-to-end figures, from the untraced passes.
    out.update(end_to_end(passes, groups))
    return out


# ----------------------------------------------------------------------
# environment and correctness


def environment(seed: int, passes: list[dict]) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")), None)
    except OSError:
        pass
    env = {
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
        # Recorded as found; the benchmark sets none of these.
        "env_vars": {k: os.environ.get(k) for k in
                     ("GSWF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    env.update(passes[0]["env"])
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None when
    the checkout is not a repository)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        return None
    return None


def gate_ops(passes: list[dict]) -> list[tuple[str, bool, str]]:
    """Every op the children checked, plus the cross-pass ones: identical
    output bytes in every pass, identical work counts in every traced pass."""
    ops = [tuple(op) for p in passes for op in p["ops"]]
    for k, p in enumerate(passes[1:], start=2):
        same = p["digests"] == passes[0]["digests"]
        ops.append((f"pass {k} output bytes equal pass 1", same, ""))
    traced = [p for p in passes if p["mode"] == "traced"]
    for k, p in enumerate(traced[1:], start=2):
        same = work_counts(p["trace"]) == work_counts(traced[0]["trace"])
        ops.append((f"traced pass {k} work counts equal traced pass 1", same, ""))
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gswf", "__init__.py")):
        print(f"perfbench: no gswf sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    commands = WORKLOADS[args.workload](args.seed)
    groups = [c.group for c in commands]
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace)
        if args.trace == "1":
            values = per_layer(passes, groups)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(passes, groups)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    ops = gate_ops(passes)
    failed = sum(not ok for _, ok, _ in ops)
    values["ops_failed_ratio"] = failed / len(ops)
    for label, ok, detail in ops:
        if not ok:
            print(f"perfbench: FAILED {label}: {detail}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"perfbench: metric {m['name']} is not produced", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "environment": environment(args.seed, passes),
        "commands": [[a if len(a) <= 80 else a[:80] + "..." for a in c.argv] for c in commands],
        "groups": groups,
        "passes": [{k: v for k, v in p.items() if k != "env"} for p in passes],
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
