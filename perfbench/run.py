#!/usr/bin/env python3
"""Concord benchmark: build, run one workload, check it, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_matrix --seed 1 \
        --seconds 30 --trace 0

Builds perfbench (the C++ binary in this directory, linked against the
repository's libraries built from ../src) into .bench_build/perfbench,
runs the workload and prints, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are its per-layer metrics, taken from a traced run whose Chrome trace file
(.bench_build/perfbench/traces/) is checked by check_trace.py. A traced
run reports its wall_s against the untraced runs of the same binary as
trace.overhead_pct; when there is none yet, it makes one first. Exits 1
when any output check, trace check or required metric is missing or wrong.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper_matrix", "compile_storm", "sched_frames")
# A run must end within 180 s once the build is up to date (the first run
# in a checkout also builds); the workload binary runs get this much.
RUN_LIMIT_S = 170

# The per-layer metrics a traced run of each workload must emit. The other
# per-layer metrics belong to layers the workload does not exercise; they
# are reported as 0 and listed.
COMPILE_PROBE = [
    "frontend.ms", "frontend.ir_insts", "transforms.ms",
    "transforms.insts_removed", "codegen.ms", "codegen.bytecode_insts",
    "analysis.footprint_ms", "analysis.pointsto_ms",
    "analysis.valuerange_ms", "analysis.commutativity_ms",
    "analysis.coalescing_ms", "analysis.uniformity_ms",
    "runtime.cold_compile_ms", "runtime.compile_overhead_ratio"]
CACHE_HITS = ["runtime.cache_hit_us.p50", "runtime.cache_hit_us.tail"]
TRACE = ["trace.spans", "trace.overhead_pct"]
REQUIRED_LAYERS = {
    "paper_matrix": [
        "workloads.setup_s", "workloads.verify_s", "gpusim.cpu_cell_s",
        "gpusim.gpu_cell_s", "gpusim.slowest_cell_s",
        "gpusim.cpu_ns_per_warp_inst", "gpusim.gpu_ns_per_warp_inst",
        "gpusim.mem_accesses", "gpusim.llc_hit_ratio",
        "gpusim.modelled_speedup_geomean",
        "gpusim.modelled_energy_saving_geomean", "runtime.jit_s",
        "svm.fragmentation", "svm.peak_bytes", "svm.bad_frees"]
        + COMPILE_PROBE + CACHE_HITS + TRACE,
    "compile_storm": [
        "runtime.jit_s", "runtime.compile_request_ms.p50",
        "runtime.compile_request_ms.tail"]
        + COMPILE_PROBE + CACHE_HITS + TRACE,
    "sched_frames": [
        "sched.submit_us.p50", "sched.submit_us.tail", "sched.queue_ms",
        "sched.task_exec_ms", "sched.task_compile_ms", "sched.hazard_edges",
        "sched.placed_gpu", "sched.placed_cpu", "sched.hybrid_launches",
        "sched.accum_tasks", "sched.shadow_reuse_ratio",
        "sched.max_in_flight", "svm.alloc_us", "svm.free_us",
        "svm.session_end_us", "svm.fragmentation", "svm.peak_bytes",
        "svm.bad_frees"]
        + COMPILE_PROBE + CACHE_HITS + TRACE,
}

sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Keep the checkout free of __pycache__.
import check_trace  # noqa: E402


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("Concord sources (src/) not found beside perfbench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def binary_digest():
    h = hashlib.sha1()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def untraced_walls_path(workload):
    return os.path.join(BUILD, "results",
                        "%s-%s.json" % (workload, binary_digest()))


def untraced_walls(workload):
    """The wall_s of the last untraced runs (tracing overhead base)."""
    path = untraced_walls_path(workload)
    if not os.path.isfile(path):
        return []
    with open(path) as f:
        return json.load(f)


def remember_wall(workload, wall):
    walls = (untraced_walls(workload) + [wall])[-20:]
    path = untraced_walls_path(workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(walls, f)


def run_binary(cmd, deadline):
    """Runs perfbench; returns (exit code, other stdout lines, record)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    records = [l for l in lines if l.startswith("PERFBENCH_RESULT ")]
    rec = (json.loads(records[-1][len("PERFBENCH_RESULT "):])
           if records else None)
    return (proc.returncode,
            [l for l in lines if not l.startswith("PERFBENCH_RESULT ")], rec)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        e2e_spec, layer_spec = load_spec()
        build()
    except (OSError, RuntimeError, subprocess.CalledProcessError,
            ValueError, KeyError) as e:
        log("perfbench: cannot build: %s" % e)
        return 1

    deadline = time.monotonic() + RUN_LIMIT_S
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.workload == "paper_matrix":
        cmd += ["--modelled-ref",
                os.path.join(BUILD, "modelled-%s.txt" % binary_digest())]
    problems = []
    try:
        if args.trace and not untraced_walls(args.workload):
            # Tracing overhead needs an untraced wall_s of this binary to
            # compare with; take one now.
            log("perfbench: no untraced %s run recorded for this build; "
                "running one first" % args.workload)
            code, _, base = run_binary(cmd, deadline)
            if code != 0 or base is None or base["failures"]:
                problems.append("untraced baseline run failed (exit %d)"
                                % code)
            else:
                remember_wall(args.workload,
                              base["end_to_end"]["wall_s"]["value"])
        trace_path = None
        if args.trace:
            trace_dir = os.path.join(BUILD, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(
                trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
            cmd += ["--trace", trace_path]
        code, lines, rec = run_binary(cmd, deadline)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish in time" % args.workload)
        return 1
    for line in lines:
        print(line)
    if rec is None:
        log("perfbench: exited %d without a result" % code)
        return 1

    problems += rec["failures"]
    if code != 0 and not problems:
        problems.append("perfbench exited %d" % code)

    produced = rec["per_layer"] if args.trace else rec["end_to_end"]
    wanted = layer_spec if args.trace else e2e_spec
    metrics = {}
    for name, m in produced.items():
        if name not in wanted:
            problems.append("unknown metric %s" % name)
        elif m["unit"] != wanted[name]["unit"]:
            problems.append("metric %s in %s, expected %s"
                            % (name, m["unit"], wanted[name]["unit"]))
        else:
            metrics[name] = {"value": m["value"], "unit": m["unit"]}

    wall = rec["end_to_end"].get("wall_s", {}).get("value")
    if args.trace:
        trace_problems, summary = check_trace.check(trace_path)
        problems += ["trace: " + p for p in trace_problems]
        print("trace %s: %d spans, run %.3f s, self time by layer: %s"
              % (trace_path, summary["spans"], summary["run_s"],
                 ", ".join("%s %.3f s" % kv
                           for kv in sorted(summary["self_s"].items()))))
        base = untraced_walls(args.workload)
        if wall and base:
            overhead = (wall / statistics.median(base) - 1) * 100
            print("tracing overhead: traced wall_s %.4f s, %+.2f%% against "
                  "the median of %d untraced runs"
                  % (wall, overhead, len(base)))
            metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        required = REQUIRED_LAYERS[args.workload]
        for name in required:
            if name not in metrics:
                problems.append("missing metric %s" % name)
        unexercised = [n for n in wanted if n not in required]
        for name in unexercised:
            if name in metrics:
                problems.append("metric %s of a layer %s does not exercise"
                                % (name, args.workload))
            metrics[name] = {"value": 0.0, "unit": wanted[name]["unit"]}
        print("layers not exercised by %s (reported as 0): %s"
              % (args.workload, ", ".join(unexercised)))
    else:
        for name in wanted:
            if name not in metrics:
                problems.append("missing metric %s" % name)
        if wall and not problems:
            remember_wall(args.workload, wall)

    for key, value in rec["info"].items():
        print("%s: %s" % (key, json.dumps(value)))
    for p in problems:
        log("perfbench: FAILED %s" % p)
    correct = not problems
    failed = rec["failed"] + (0 if correct or rec["failed"] else 1)
    print(json.dumps({"correct": correct,
                      "attempted": max(1, rec["attempted"]),
                      "failed": failed,
                      "metrics": {k: metrics[k] for k in sorted(metrics)}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
