#!/usr/bin/env python3
"""The repository benchmark: `/eval` traffic and `reproduce all`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see perfbench/README.md for why each exists):

    eval_distinct   open-loop Poisson /eval traffic, every query a fresh draw
    eval_batch_hot  open-loop /eval traffic, 64 queries per request from a
                    256-point hot set

Builds `reproduce` and the harness from source (into $CARGO_TARGET_DIR,
default .bench_build), runs the workload, checks every answer, and prints
report lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. A run spends EVAL_SHARE of --seconds
on its /eval traffic and the rest timing `reproduce all` back to back.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

WORKLOADS = ("eval_distinct", "eval_batch_hot")

# The artifacts `reproduce all` prints, each timed in its own process by
# the traced run.
ARTIFACTS = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "fig11", "fig12", "fig13", "revenue", "capacity", "ablation",
    "deadline", "maintenance", "multisite", "ramp", "fit", "fta", "mttf",
)

# Share of --seconds an eval_* run spends on /eval traffic; the rest times
# `reproduce all`.
EVAL_SHARE = 0.65
# Least `reproduce all` processes timed by a run.
MIN_REPRO_RUNS = 5
# Processes per artifact in the traced run.
ARTIFACT_RUNS = 3
# Requests the traced in-process replay pushes through the stages.
REPLAY_REQUESTS = {"eval_distinct": 2000, "eval_batch_hot": 50}

# Pins on the `reproduce all` output: the headline A(WS) and Table 8.
A_WS_PIN = re.compile(r"reproduced = 0\.999995587\b")
TABLE8_PIN = [
    "1 0.84227 0.84235 0.75921 0.76875",
    "2 0.96387 0.96509 0.94230 0.95529",
    "3 0.97732 0.97867 0.96257 0.97593",
    "4 0.97868 0.98004 0.96461 0.97802",
    "5 0.97882 0.98018 0.96482 0.97822",
    "10 0.97883 0.98020 0.96484 0.97825",
]


class BenchError(Exception):
    pass


def report(line):
    print(line, flush=True)


def run_checked(cmd, timeout, env=None):
    """Runs a command with its output on stderr; raises on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")


def build(target_dir, trace):
    """Builds `reproduce` and the harness binaries; returns their paths."""
    for needed in ("Cargo.toml", "crates/bench/Cargo.toml", "crates/serve/Cargo.toml"):
        if not os.path.isfile(needed):
            raise BenchError(f"{needed} not found: run from the root of a uavail checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    run_checked(cargo + ["-p", "uavail-bench", "--bin", "reproduce"], 850, env)
    harness = cargo + ["--manifest-path", "perfbench/harness/Cargo.toml"]
    run_checked(harness + ["--bin", "perfbench-e2e"], 850, env)
    if trace:
        # Built apart: an API change can break only the traced run.
        run_checked(harness + ["--bin", "perfbench-layers"], 850, env)
    release = os.path.join(target_dir, "release")
    return {
        name: os.path.join(release, name)
        for name in ("reproduce", "perfbench-e2e", "perfbench-layers")
    }


def run_harness(cmd, timeout):
    """Runs a harness binary, echoes its report lines, returns its JSON line."""
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        report("  " + line)
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{os.path.basename(cmd[0])} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_e2e(bins, workload, seed, seconds):
    return run_harness(
        [
            bins["perfbench-e2e"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--reproduce", bins["reproduce"],
            "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
        ],
        timeout=seconds + 170,
    )


def time_process(cmd):
    """Runs one process; returns (wall s, user+sys CPU s, exit code, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, proc.returncode, out


def cpu_ticks():
    """(steal, total) jiffies of the whole machine from /proc/stat."""
    with open("/proc/stat", encoding="utf-8") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal; guest time is
    # already inside user.
    return fields[7], sum(fields[:8])


def check_pins(text):
    """Returns the pin violations of one `reproduce all` output."""
    problems = []
    if not A_WS_PIN.search(text):
        problems.append("A(WS) = 0.999995587 pin missing")
    lines = text.splitlines()
    start = next((i for i, l in enumerate(lines) if l.startswith("== Table 8")), None)
    if start is None:
        problems.append("Table 8 missing")
    else:
        rows = [" ".join(l.split()) for l in lines[start + 3:start + 3 + len(TABLE8_PIN)]]
        if rows != TABLE8_PIN:
            problems.append(f"Table 8 rows differ from the pin: {rows}")
    return problems


def repro_phase(reproduce, seconds):
    """Times `reproduce all` back to back, one process at a time, for
    `seconds` and at least MIN_REPRO_RUNS runs.

    One untimed run comes first. Every output must be byte-identical to
    it, and it must hold the pins. Returns (wall ms list, cpu ms list,
    attempted, failed, problems)."""
    _, _, first_code, first = time_process([reproduce, "all"])
    pin_problems = check_pins(first.decode("utf-8", "replace"))
    problems = [] if first_code == 0 else [f"reproduce all exited with {first_code}"]
    problems += pin_problems
    walls, cpus, failed = [], [], 0
    start = time.perf_counter()
    while True:
        if len(walls) + failed >= MIN_REPRO_RUNS and time.perf_counter() - start >= seconds:
            break
        wall, cpu, code, out = time_process([reproduce, "all"])
        if code != 0 or out != first:
            failed += 1
            problems.append("reproduce all output differs between runs" if code == 0
                            else f"reproduce all exited with {code}")
            continue
        walls.append(wall * 1e3)
        cpus.append(cpu * 1e3)
    if not walls:
        problems.append("no successful reproduce all run")
    report(
        f"  reproduce all: {len(walls)} timed runs, {failed} failed; wall median "
        f"{statistics.median(walls) if walls else float('nan'):.1f} ms, CPU median "
        f"{statistics.median(cpus) if cpus else float('nan'):.1f} ms; output "
        f"{len(first)} bytes, pins {'FAILED' if pin_problems else 'ok'}"
    )
    return walls, cpus, len(walls) + failed + 1, failed + (first_code != 0), problems


def repro_layers(reproduce, work_dir):
    """Per-artifact times and the CLI's own loss-cache hit rate."""
    metrics = {}
    parts = 0.0
    for name in ARTIFACTS:
        walls = []
        for _ in range(ARTIFACT_RUNS):
            wall, _, code, _ = time_process([reproduce, name])
            if code != 0:
                raise BenchError(f"reproduce {name} exited with {code}")
            walls.append(wall * 1e3)
        metrics[f"repro.{name}_ms"] = statistics.median(walls)
        parts += metrics[f"repro.{name}_ms"]
    alls = [time_process([reproduce, "all"])[0] * 1e3 for _ in range(ARTIFACT_RUNS)]
    metrics["repro.all_ms"] = statistics.median(alls)
    metrics["repro.sharing_ms"] = parts - metrics["repro.all_ms"]
    path = os.path.join(work_dir, "reproduce-all-metrics.jsonl")
    _, _, code, _ = time_process([reproduce, "all", "--metrics", path])
    if code != 0:
        raise BenchError(f"reproduce all --metrics exited with {code}")
    rate = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            record = json.loads(line)
            if record.get("type") == "derived" and record.get("name") == "travel.loss_cache.hit_rate":
                rate = record["value"]
    if rate is None:
        raise BenchError("reproduce all --metrics wrote no travel.loss_cache.hit_rate record")
    metrics["repro.loss_cache_hit_rate"] = rate
    report(
        f"  per artifact: parts sum {parts:.1f} ms, one `all` process {metrics['repro.all_ms']:.1f} ms, "
        f"loss-cache hit rate {rate:.4f}"
    )
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bins = build(target_dir, args.trace)
    work_dir = os.path.join(target_dir, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)

    steal0, total0 = cpu_ticks()
    eval_seconds = EVAL_SHARE * args.seconds
    report(f"{args.workload} seed {args.seed}: /eval phase ({eval_seconds:g} s)")
    wire = run_e2e(bins, args.workload, args.seed, eval_seconds)
    attempted, failed = wire["attempted"], wire["failed"]
    problems = [] if wire["correct"] else ["an /eval answer or workload check failed"]

    values = {}
    if args.trace:
        values.update(wire["layers"])
        requests = REPLAY_REQUESTS[args.workload]
        report(f"traced replay ({requests} requests)")
        trace_path = os.path.join(work_dir, f"spans-{args.workload}-{args.seed}.json")
        layers = run_harness(
            [
                bins["perfbench-layers"], "--workload", args.workload, "--seed", str(args.seed),
                "--requests", str(requests), "--trace-out", trace_path,
            ],
            timeout=150,
        )
        values.update(layers)
        values["pool.unattributed_us"] = values["pool.service_us"] - layers["trace.worker_stages_us"]
        report(f"  spans written to {trace_path}")
        report("reproduce, one process per artifact")
        values.update(repro_layers(bins["reproduce"], work_dir))
    else:
        values["setup_s"] = wire["setup_s"]
        values["req_p50_us"] = wire["req_p50_us"]
        values["req_p99_us"] = wire["req_p99_us"]
        values["server_cpu_us_per_query"] = wire["server_cpu_us_per_query"]
        repro_seconds = args.seconds - eval_seconds
        report(f"reproduce all phase ({repro_seconds:g} s)")
        walls, cpus, n, bad, repro_problems = repro_phase(bins["reproduce"], repro_seconds)
        attempted += n
        failed += bad
        problems += repro_problems
        if walls:
            values["repro_wall_ms"] = statistics.median(walls)
            values["repro_cpu_ms"] = statistics.median(cpus)

    steal1, total1 = cpu_ticks()
    report(
        f"host: {100 * (steal1 - steal0) / max(total1 - total0, 1):.1f} % of this machine's CPU "
        "time was stolen by the hypervisor during the run"
    )
    metrics = {}
    for m in wanted:
        if m["name"] not in values or values[m["name"]] is None:
            # A latency percentile is infinite when failed requests reach
            # it; the failures are then the result to look at.
            raise BenchError(f"metric {m['name']} was not measured or is infinite")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        report(f"{m['name']:34s} {values[m['name']]:.6g} {m['unit']}")
    for p in problems:
        report(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.SubprocessError, json.JSONDecodeError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
