#!/usr/bin/env python3
"""Served-traffic benchmark for `treeplace serve --listen`.

    python3 perfbench/run.py --workload diurnal_day --seed 1 --seconds 10 --trace 0

Builds the server and the `pbench` tool from this checkout (into
.bench_build/perfbench), generates the workload's record streams from
--seed, drives the server over loopback TCP for --seconds, verifies every
result, and prints a table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of BENCHMARK.json (served-run counters plus an in-process traced
replay, whose Chrome trace is kept under .bench_build/perfbench/traces/).
See perfbench/README.md for the workloads, metrics and framing.
"""

import argparse
import bisect
import itertools
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SERVER = BUILD / "treeplace" / "treeplace"
PBENCH = BUILD / "pbench"
NPROC = max(1, min(4, os.cpu_count() or 1))

# `pbench day` fixes the topology (seed 42's aggregated skew tree, 1e5
# users on 400 internal nodes); the workload seed draws the day itself.
# Modes {5e4, 1e5} place ~8 servers with a multi-point frontier and stay
# feasible through flash crowds; day_serve's {4e6, 8e6} would place one
# root server with a one-point frontier.
POWER = ["--algo", "power-sym", "--modes", "50000,100000",
         "--static", "12.5", "--alpha", "3"]
# A live connection's entry must never be the LRU victim, or its next
# delta fails; 256 entries per shard leave ample room while every publish
# still evicts a closed connection's topology.
CHURN = ["--algo", "update-dp", "--capacity", "10", "--cache", "256"]
# Two clients against two shards with one worker each keep about two
# cores busy.  With four clients and two workers per shard the client and
# server threads filled all four cores, and one busy neighbour process cut
# throughput by 12-26% and raised p90 by 17-33%; at two clients it moved
# neither.
CHURN_CLIENTS = 2
# Each churn connection sends its tree and all its delta records without
# waiting, then reads the results.  With one record in flight the p90 of
# these ~50 us requests was the time to wake an idle core: a neighbour
# whose threads woke every 0.5 ms tripled it and spread it by 30% across
# seeds, against 4% for the pipelined connection.
CHURN_DELTAS = 8
# Set-up samples per run (each relaunches the server).  A churn set-up is
# milliseconds of process start-up and cold publishes, so it takes many;
# the what-if day's single-threaded cold solve takes ~2 s, so it gets few.
SETUPS = {"diurnal_day": 7, "tenant_churn": 25, "what_if_pipeline": 3}
# Workloads whose load is the same every second, so their latency,
# throughput and CPU figures are medians over one-second windows.  A day's
# cost changes tick by tick, so the others take whole days: `diurnal_day`
# the medians of its days' figures, `what_if_pipeline` totals.
WINDOWED = {"tenant_churn"}
DAY_TICKS = 288  # records per day of a `pbench day` stream, after its tree


def run(cmd, **kw):
    return subprocess.run([str(c) for c in cmd], check=True, **kw)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no treeplace sources next to perfbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        run(["cmake", "-S", ROOT / "perfbench", "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
    run(["cmake", "--build", BUILD, "--target", "treeplace_cli", "pbench",
         "-j", NPROC], stdout=sys.stderr)


# ---------------------------------------------------------------------------
# Inputs


def gen_tree(seed, index, nodes, pre):
    return run([SERVER, "gen", "--nodes", nodes, "--seed", seed,
                "--index", index, "--pre", pre],
               stdout=subprocess.PIPE, text=True).stdout


def delta_records(tree_text, rng, records, per_record):
    """Scenario records for a `treeplace gen` tree: request changes on its
    clients (within capacity, so every request stays feasible) and
    pre-existing server edits on its internal nodes."""
    clients, internal = [], []
    for line in tree_text.splitlines():
        parts = line.split()
        if parts and parts[0] == "C":
            clients.append(int(parts[1]))
        elif parts and parts[0] == "I":
            internal.append(int(parts[1]))
    out = []
    for _ in range(records):
        out.append("treeplace-scenario v1 1\n")
        for _ in range(per_record):
            roll = rng.random()
            if roll < 0.7:
                out.append("R %d %d\n" % (rng.choice(clients), rng.randint(1, 6)))
            elif roll < 0.9:
                out.append("E %d\n" % rng.choice(internal))
            else:
                out.append("X %d\n" % rng.choice(internal))
    return "".join(out)


def make_plan(workload, seed, work):
    """Writes the workload's streams and plan; returns (server args,
    replay args)."""
    rng = random.Random("%s/%d" % (workload, seed))
    streams, slots = [], []

    def stream(name, text):
        path = work / name
        path.write_text(text)
        streams.append(path)

    def day():
        return run([PBENCH, "day", "--seed", seed],
                   stdout=subprocess.PIPE, text=True).stdout

    if workload == "diurnal_day":
        stream("day.txt", day())
        slots.append("slot loop 1 day 0")
        server = POWER + ["--threads", 1, "--solver-threads", NPROC]
        replay = POWER + ["--replay-threads", NPROC,
                          "--solver-threads", NPROC, "--spot-checks", 3]
    elif workload == "tenant_churn":
        for i in range(64):
            tree = gen_tree(seed, i, 50, 8)
            stream("tenant%d.txt" % i,
                   tree + delta_records(tree, rng, CHURN_DELTAS, 2))
        for c in range(CHURN_CLIENTS):
            ids = ",".join(str(i) for i in range(c, 64, CHURN_CLIENTS))
            slots.append("slot churn %d - %s" % (1 + CHURN_DELTAS, ids))
        server = CHURN + ["--shards", 2, "--threads", 1]
        replay = CHURN + ["--replay-threads", 1]
    elif workload == "what_if_pipeline":
        stream("day.txt", day())
        slots.append("slot loop 64 whatif 0")
        for j in range(3):
            tree = gen_tree(seed, 100 + j, 20, 4)
            stream("light%d.txt" % j, tree + delta_records(tree, rng, 16, 2))
            slots.append("slot loop 1 light%d %d" % (j, j + 1))
        server = POWER + ["--threads", 4, "--solver-threads", 1]
        replay = POWER + ["--replay-threads", NPROC, "--solver-threads", 1,
                          "--spot-checks", 1, "--pipeline", 4]
    else:
        sys.exit("perfbench: unknown workload %r" % workload)
    plan = work / "plan.txt"
    plan.write_text("pbench-plan v1\n"
                    + "".join("stream %s\n" % p for p in streams)
                    + "".join(s + "\n" for s in slots))
    return plan, server, replay


# ---------------------------------------------------------------------------
# Measurement


def load(plan, out, seconds, setups, server):
    proc = subprocess.run(
        [str(c) for c in [PBENCH, "load", "--plan", plan, "--out", out,
                          "--seconds", seconds, "--setups", setups, "--"]
         + server],
        stdout=subprocess.PIPE, text=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_results(path):
    """The load generator's results file (format in perfbench/load.cc).
    Requests are (slot, stream, record, sent_ns, recv_ns, queue_s,
    solve_s, server_cpu_s), a uniform 1-in-`stride` subsample in completion order;
    marks are (t_ns, server_cpu_s) at each window edge of the phase."""
    served, base, lines, connects, marks, stride = [], [], [], [], [], 1
    with open(path) as f:
        for row in f:
            parts = row.rstrip("\n").split(" ", 4)
            kind = parts[0]
            if kind == "R":
                v = row.split()
                served.append((int(v[1]), int(v[2]), int(v[3]), int(v[4]),
                               int(v[5]), float(v[6]), float(v[7]), float(v[8])))
            elif kind == "L":
                lines.append((int(parts[3]), parts[4]))
            elif kind == "B":
                v = row.split()
                base.append((int(v[1]), float(v[5])))
            elif kind == "C":
                connects.append(int(parts[2]))
            elif kind == "U":
                marks.append((int(parts[1]), float(parts[2])))
            elif kind == "K":
                stride = int(parts[1])
    return served, base, lines, connects, marks, stride


def summary_value(summary, key):
    m = re.search(r"(?:^|[ :])%s=(\d+)" % re.escape(key), summary, re.M)
    return int(m.group(1)) if m else 0


def pct(values, p):
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def day_figures(served, cpu0):
    """(p50 ms, p90 ms, requests/s, server CPU ms/request) of each day of a
    day-stream connection's requests (in completion order).  A day runs
    from the previous day's last result, or the phase start; its p90 has
    28 of its 288 ticks beyond it."""
    figures, t0 = [], 0
    for _, group in itertools.groupby(served, key=lambda r: (r[2] - 1) // DAY_TICKS):
        day = list(group)
        ms = [(r[4] - r[3]) / 1e6 for r in day]
        t1, cpu1 = day[-1][4], day[-1][7]
        figures.append((pct(ms, 0.50), pct(ms, 0.90), len(day) / ((t1 - t0) / 1e9),
                        1e3 * (cpu1 - cpu0) / len(day)))
        t0, cpu0 = t1, cpu1
    return figures


def max_overlap(intervals):
    events = sorted([(a, 1) for a, _ in intervals] + [(b, -1) for _, b in intervals])
    depth = best = 0
    for _, step in events:
        depth += step
        best = max(best, depth)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = BUILD / "work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def measure(args, work):
    plan, server_args, replay_args = make_plan(args.workload, args.seed, work)
    server = [SERVER, "serve"] + server_args + ["--listen", "127.0.0.1:0"]
    results = work / "results.txt"
    loaded = load(plan, results, args.seconds, SETUPS[args.workload], server)
    served, base, lines, connects, marks, stride = read_results(results)

    replay = [PBENCH, "replay", "--plan", plan, "--results", results]
    replay += replay_args
    trace_json = None
    if args.trace:
        (BUILD / "traces").mkdir(exist_ok=True)
        trace_json = BUILD / "traces" / ("%s-seed%d.json" % (args.workload, args.seed))
        replay += ["--trace-json", trace_json]
    proc = subprocess.run([str(c) for c in replay], stdout=subprocess.PIPE,
                          text=True, timeout=170)
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])

    summary = loaded["server_summary"]
    not_ok = sum(n for n, line in lines if " status=ok " not in line)
    attempted = max(1, loaded["attempted"])
    failed = min(attempted, loaded["failed"] + not_ok + verdict["mismatches"])
    problems = []
    if loaded["error"]:
        problems.append("load: " + loaded["error"])
    if verdict["mismatches"]:
        problems.append("verify: " + verdict["first_mismatch"])
    if verdict["reference_not_ok"]:
        problems.append("reference has %d infeasible or failed requests"
                        % verdict["reference_not_ok"])
    if verdict["base_frontier"] == 1:
        problems.append("degenerate day: one-point base frontier")
    if not served:
        problems.append("no request completed")

    completed = loaded["completed"]
    phase = loaded["phase_s"]
    # Latency covers the closed-loop and churn slots; the pipelined what-if
    # connection counts toward throughput only.
    slots = [l.split() for l in plan.read_text().splitlines() if l.startswith("slot ")]
    pipelined = {i for i, s in enumerate(slots) if s[1] == "loop" and int(s[2]) > 1}
    latency = [(r[4] - r[3]) / 1e6 for r in served if r[0] not in pipelined]

    if args.workload in WINDOWED:
        # A steady load: medians over the phase's one-second windows, so
        # a few seconds of a busy neighbour do not move the run's figures.
        windows, recv = [], [r[4] for r in served]  # in completion order
        for (t0, cpu0), (t1, cpu1) in zip(marks, marks[1:]):
            if t1 - t0 < 5e8:
                continue  # the short tail after the deadline
            ms = [(r[4] - r[3]) / 1e6 for r in
                  served[bisect.bisect_left(recv, t0):bisect.bisect_left(recv, t1)]]
            done = stride * len(ms)
            windows.append((pct(ms, 0.50), pct(ms, 0.90), done / ((t1 - t0) / 1e9),
                            1e3 * (cpu1 - cpu0) / max(1, done)))
        if not windows:
            problems.append("no whole window in the measured phase")
            windows = [(0.0, 0.0, 0.0, 0.0)]
        p50, p90, rps, cpu = (statistics.median(w[i] for w in windows)
                              for i in range(4))
        span = "median of %d one-second windows" % len(windows)
    else:
        # Totals over the whole phase, which ends on a day boundary (see
        # load.cc), so a day's near-cold ticks count in full.
        rps = completed / max(1e-9, phase)
        cpu = 1e3 * loaded["server_cpu_s"] / max(1, completed)
        p50, p90 = pct(latency, 0.50), pct(latency, 0.90)
        span = "totals over the phase"
        if args.workload == "diurnal_day" and served:
            # Each day's figures, then their medians over the run's days: a
            # neighbour busy during one day moves that day's figures, not
            # the run's.  A day's throughput and CPU still count every tick
            # of it, near-cold ones included.
            days = day_figures(served, marks[0][1])
            p50, p90, rps, cpu = (statistics.median(d[i] for d in days)
                                  for i in range(4))
            span = "medians over %d days" % len(days)
    e2e = {
        "setup_s": (statistics.median(loaded["setup_s"]), "s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "throughput_rps": (rps, "1/s"),
        "peak_rss_mb": (loaded["vmhwm_kb"] / 1024.0, "MB"),
        "cpu_ms_per_req": (cpu, "ms"),
    }

    report = ["workload %s seed %d: %d requests in %.3f s, %d latency samples "
              "(1 in %d requests), %d failed; %s" % (
                  args.workload, args.seed, completed, phase, len(latency),
                  stride, failed, span)]
    if args.trace:
        metrics = layer_metrics(served, base, connects, loaded, verdict,
                                summary, plan, work, args)
        report.append("trace: %s" % trace_json)
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        report.append("  %-34s %14.6g %s" % (name, value, unit))
    for p in problems:
        report.append("FAIL " + p)
    print("\n".join(report))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(served, base, connects, loaded, verdict, summary, plan,
                  work, args):
    completed = max(1, loaded["completed"])
    solve = [r[6] * 1e3 for r in served]
    queue = [r[5] * 1e3 for r in served]
    overhead = [(r[4] - r[3]) / 1e6 - q - s
                for r, q, s in zip(served, queue, solve)]
    # The set-up base solves: the median of each slot's, and of those the
    # slowest slot's (the day's tree where there is one).
    cold = max((statistics.median(s for slot, s in base if slot == i)
                for i in {slot for slot, _ in base}), default=0.0)
    in_flight = [(r[4] - int(1e6 * (q + s)), r[4])
                 for r, q, s in zip(served, queue, solve)]
    solves = summary_value(summary, "solves")
    hits = summary_value(summary, "hits")
    misses = summary_value(summary, "misses")
    requests = re.search(r"# serve: (\d+) requests", summary)
    requests = max(1, int(requests.group(1)) if requests else 0)

    # Generator headroom: the same slots against a responder that answers
    # every record at once.  A ratio near 1 would mean the client, not the
    # server, bounds the measured rate.
    trivial = load(plan, work / "trivial.txt", min(args.seconds, 2.0), 1,
                   [PBENCH, "respond"])
    trivial_rps = trivial["completed"] / max(1e-9, trivial["phase_s"])
    server_rps = loaded["completed"] / max(1e-9, loaded["phase_s"])

    m = {
        "solver.solve_ms_p50": (pct(solve, 0.50), "ms"),
        "solver.solve_ms_p90": (pct(solve, 0.90), "ms"),
        "solver.warm_ratio": (summary_value(summary, "warm") / max(1, solves), "ratio"),
        "solver.cold_solve_ms": (1e3 * cold, "ms"),
    }
    rm = verdict["metrics"]
    replayed = [("session.resident_mb", "MB"),
                ("core.work_per_req", "count"),
                ("core.merge_steps_per_req", "count"),
                ("core.nodes_recomputed_per_req", "count"),
                ("core.reuse_ratio", "ratio"),
                ("core.lazy_skip_ratio", "ratio"),
                ("core.fallback_ticks", "count"),
                ("wire.parse_us_per_req", "us"),
                ("wire.render_us_per_req", "us"),
                ("cache.get_us", "us"), ("cache.put_us", "us"),
                ("tree.parse_ms_per_tree", "ms"),
                ("tree.apply_delta_us_per_req", "us")]
    replayed += [("self_us_per_req." + layer, "us") for layer in
                 ("wire", "tree", "cache", "solver", "client")]
    replayed += [("trace.overhead_frac", "ratio")]
    m.update({key: (rm[key], unit) for key, unit in replayed})
    m.update({
        "dispatcher.queue_ms_p50": (pct(queue, 0.50), "ms"),
        "dispatcher.queue_ms_p90": (pct(queue, 0.90), "ms"),
        "dispatcher.max_in_flight": (max_overlap(in_flight), "count"),
        "net.backpressure_stalls": (summary_value(summary, "backpressure_stalls"), "count"),
        "net.overhead_ms_p50": (pct(overhead, 0.50), "ms"),
        "net.connect_ms_p50": (pct([c / 1e6 for c in connects], 0.50), "ms"),
        "net.bytes_per_req": ((summary_value(summary, "bytes_in")
                               + summary_value(summary, "bytes_out")) / requests, "B"),
    })
    m["cache.hit_ratio"] = (hits / max(1, hits + misses), "ratio")
    m["cache.evictions"] = (summary_value(summary, "evictions"), "count")
    m["gen.cpu_ms_per_req"] = (1e3 * loaded["gen_cpu_s"] / completed, "ms")
    m["gen.headroom_x"] = (trivial_rps / max(1e-9, server_rps), "ratio")
    return m


if __name__ == "__main__":
    sys.exit(main())
