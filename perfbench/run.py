#!/usr/bin/env python3
"""perfbench: wall-clock benchmark of the GNNavigator loop.

Builds the library and the benchmark program from source (Release), runs
one or every workload, checks its outputs, and prints each metric by name
and unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json, or its per-layer metrics
when --trace 1 is given. Usage, from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --record FILE

The traced run also writes a Chrome trace of the benchmark's own spans to
.bench_build/perfbench/trace-<workload>-<seed>.json and prints a
self-time table. Exits nonzero when the build fails, the program fails or
any correctness check fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import report  # noqa: E402

WORKLOADS = ("navigate", "train", "serve", "decide")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CORPUS = os.path.join(HERE, "data", "corpus.csv")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench in Release; returns the binary."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: %s" % " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def fingerprint(build_info):
    """Host and build the numbers were measured on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "compiler": build_info["compiler"],
            "build_type": build_info["build_type"],
            "sanitized": build_info["sanitized"], "git_sha": sha}


def run_workload(binary, workload, seed, seconds, trace):
    out = os.path.join(BUILD_DIR, "result-%s-%d-%d.json" %
                       (workload, seed, int(trace)))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--corpus", CORPUS, "--out", out]
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d" %
                         (workload, proc.returncode))
    with open(out) as f:
        return json.load(f)


def print_summary(doc, spec, trace):
    w = doc["workload"]
    print("== %s (seed %d) ==" % (w, doc["seed"]))
    print("  %-28s %d" % ("ops", doc["attempted"]))
    print("  %-28s %d" % ("ops_failed", doc["failed"]))
    for why in doc["failures"]:
        print("  FAILED: %s" % why)
    if trace:
        for m in spec["per_layer"]:
            print("  %-40s %14.6g %s" % (m["name"], doc["layers"][m["name"]],
                                        m["unit"]))
        print_self_times(doc)
        return
    derived = report.derive(doc)
    for m in spec["end_to_end"]:
        print("  %-28s %14.6g %s" % (m["name"], derived[m["name"]], m["unit"]))
    for name, unit, source in report.HEADLINES[w]:
        print("  %-28s %14.6g %s" % (name, derived[source], unit))
    for key in ("latency_s", "setup_s"):
        t = report.timing_summary(doc["samples"][key])
        tail = ("p%g %.6g s" % (t["tail_p"], t["tail"])
                if t["tail_p"] is not None else "no tail (n < 20)")
        print("  %-28s median %.6g s, %s, n=%d" %
              (key, t["median"], tail, t["n"]))


def print_self_times(doc):
    table = report.self_times(doc["spans"])
    print("  self time by span (s):")
    print("    %-40s %10s %10s %7s" % ("span", "self", "total", "count"))
    for name, (own, total, count) in sorted(table.items(),
                                            key=lambda kv: -kv[1][0]):
        print("    %-40s %10.4f %10.4f %7d" % (name, own, total, count))
    path = os.path.join(BUILD_DIR, "trace-%s-%d.json" %
                        (doc["workload"], doc["seed"]))
    with open(path, "w") as f:
        f.write(report.chrome_trace(doc["spans"]))
    print("  chrome trace: %s" % os.path.relpath(path, ROOT))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE",
                    help="also write the results and host fingerprint here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    binary = build()
    build_info = json.loads(subprocess.run(
        [binary, "--build-info"], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    host = fingerprint(build_info)
    log("perfbench: host %s" % json.dumps(host))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in workloads:
        doc = run_workload(binary, w, args.seed, seconds, args.trace)
        print_summary(doc, spec, args.trace)
        results[w] = report.result_line(doc, spec, args.trace)

    if args.record:
        if host["build_type"] != "Release" or host["sanitized"]:
            raise SystemExit("perfbench: not recording a %s build" %
                             host["build_type"])
        with open(args.record, "w") as f:
            json.dump({"host": host, "seed": args.seed, "seconds": seconds,
                       "trace": args.trace, "results": results}, f, indent=1)
            f.write("\n")

    failed = any(not r["correct"] for r in results.values())
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
