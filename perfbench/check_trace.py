#!/usr/bin/env python3
"""Checks a perfbench Chrome trace file.

Usage: python3 perfbench/check_trace.py TRACE.json [TRACE.json ...]

A valid trace has exactly one "bench.run" span, the only span without a
parent; every span opened (B) and closed (E) once with its end not
before its start; every other span's parent id naming a recorded span
whose interval contains the child's; no two children of a span
overlapping on one thread; non-negative self times; and, per
layer (the span name up to the first '.') and thread, a self-time sum
within the run's wall time.

A span's self time is its duration minus the durations of its children
on the same thread. Children on other threads (matrix cells, storm and
session clients) run in parallel with it and are not subtracted. Spans
of one thread that overlapped other than by nesting would show as a
negative self time or as a layer busier than the run was long.

run.py calls check() on every traced run; exits 1 on any problem.
"""

import json
import sys
from collections import defaultdict

# Timestamps are written in microseconds with three decimals.
SLACK_US = 0.002


def check(path):
    """Returns (problems, summary) for the trace at path."""
    problems = []
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    begins, ends = {}, {}
    for ev in events:
        sid = ev["args"]["id"]
        table = begins if ev["ph"] == "B" else ends
        if ev["ph"] not in ("B", "E"):
            problems.append("unexpected phase %r" % ev["ph"])
        elif sid in table:
            problems.append("span %d has two %s events" % (sid, ev["ph"]))
        else:
            table[sid] = ev
    for sid in begins.keys() - ends.keys():
        problems.append("span %d (%s) is never closed"
                        % (sid, begins[sid]["name"]))
    for sid in ends.keys() - begins.keys():
        problems.append("span %d closes without opening" % sid)

    spans = {}
    for sid, b in begins.items():
        e = ends.get(sid)
        if e is None:
            continue
        if e["ts"] + SLACK_US < b["ts"]:
            problems.append("span %d (%s) ends before it starts"
                            % (sid, b["name"]))
        spans[sid] = {"name": b["name"], "tid": b["tid"],
                      "parent": b["args"]["parent"],
                      "start": b["ts"], "end": e["ts"]}

    roots = [s for s in spans.values() if s["name"] == "bench.run"]
    if len(roots) != 1:
        problems.append("expected one bench.run span, found %d" % len(roots))
    run_us = max((r["end"] - r["start"] for r in roots), default=0.0)

    # Same-thread children per parent span.
    same_thread = defaultdict(list)
    for sid, s in spans.items():
        p = s["parent"]
        if s["name"] == "bench.run":
            if p != 0:
                problems.append("bench.run span %d has parent %d" % (sid, p))
            continue
        if p not in spans:
            problems.append("span %d (%s) has no recorded parent (%d)"
                            % (sid, s["name"], p))
            continue
        parent = spans[p]
        if (s["start"] + SLACK_US < parent["start"]
                or s["end"] > parent["end"] + SLACK_US):
            problems.append("span %d (%s) lies outside its parent %d (%s)"
                            % (sid, s["name"], p, parent["name"]))
        if s["tid"] == parent["tid"]:
            same_thread[p].append((s["start"], s["end"], sid))

    per_thread = defaultdict(float)
    per_layer = defaultdict(float)
    for sid, s in spans.items():
        kids = sorted(same_thread[sid])
        for (_, end, a), (start, _, b) in zip(kids, kids[1:]):
            if start + SLACK_US < end:
                problems.append("spans %d and %d overlap on thread %s"
                                % (a, b, s["tid"]))
        self_us = s["end"] - s["start"] - sum(e - b for b, e, _ in kids)
        if self_us < -SLACK_US * (2 * len(kids) + 2):
            problems.append("span %d (%s) has negative self time %.3f us"
                            % (sid, s["name"], self_us))
        layer = s["name"].split(".", 1)[0]
        per_thread[(layer, s["tid"])] += self_us
        per_layer[layer] += self_us
    for (layer, tid), total in sorted(per_thread.items()):
        if total > run_us + SLACK_US * len(spans):
            problems.append("layer %s on thread %s: self time %.0f us "
                            "exceeds the run's %.0f us"
                            % (layer, tid, total, run_us))
    summary = {"spans": len(spans), "run_s": run_us * 1e-6,
               "self_s": {k: v * 1e-6 for k, v in per_layer.items()}}
    return problems, summary


def main(paths):
    bad = 0
    for path in paths:
        problems, summary = check(path)
        for p in problems:
            print("%s: %s" % (path, p))
        print("%s: %d spans, run %.3f s, %s" % (
            path, summary["spans"], summary["run_s"],
            "ok" if not problems else "%d problems" % len(problems)))
        bad += bool(problems)
    return 1 if bad or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
