#!/usr/bin/env python3
"""End-to-end benchmark of the partial-fault engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalogue|march \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/CMakeLists.txt (the
repository's libraries plus the pf_perfbench program, Release) into
.bench_build/perfbench; later runs only rebuild what changed.

--trace 0 measures the workload untraced and reports every end-to-end metric
of BENCHMARK.json; --trace 1 is the traced run and reports every per-layer
metric (its spans are written to .bench_build/perfbench/traces/).

Output checks, all of which fail the run (exit 1, "correct": false):
  * pf_perfbench's own checks (march search results against the scalar
    oracle, digests repeating across iterations; in the traced run also
    served results against direct sweep_region calls and cold vs resumed
    campaign reports);
  * digests and exact counts against perfbench/references.json: the
    seed-independent ones on every run, the seeded ones at the default seed;
  * the exact-count drift guard: every digest and exact count must equal
    the value an earlier run of the same seed recorded in
    .bench_build/perfbench/exact.json.

Every run appends a record (host fingerprint, arguments, full result) to
.bench_build/perfbench/records.jsonl and prints the fingerprint on stdout.
The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pf_perfbench")
DEFAULT_SEED = 1  # the seed references.json was recorded at
WORKLOADS = ("catalogue", "march")
RUN_TIMEOUT_S = 170
SIMD_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
              "avx512vl", "avx512_vnni", "neon", "asimd", "sve")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def source_digest():
    """SHA-256 over the sources the benchmark builds (a commit stand-in
    where the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_fingerprint(build_info):
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    flags.update(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "simd": sorted(flags.intersection(SIMD_FLAGS)),
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def check_against(errors, what, expected, actual):
    for name, value in actual.items():
        if name in expected and expected[name] != value:
            errors.append("%s: %s is %r, expected %r"
                          % (what, name, value, expected[name]))


def check_outputs(result, seed, errors):
    """References (fixed always, seeded at the default seed) and the drift
    guard against earlier runs of the same seed."""
    fixed = result.get("fixed", {})
    seeded = result.get("seeded", {})
    refs = load_json(os.path.join(HERE, "references.json"), {})
    check_against(errors, "reference", refs.get("fixed", {}), fixed)
    if seed == DEFAULT_SEED:
        check_against(errors, "reference", refs.get("seeded", {}), seeded)

    store_path = os.path.join(BUILD, "exact.json")
    store = load_json(store_path, {"fixed": {}, "seeded": {}})
    per_seed = store["seeded"].setdefault(str(seed), {})
    check_against(errors, "drift since an earlier run", store["fixed"], fixed)
    check_against(errors, "drift since an earlier run", per_seed, seeded)
    if not errors:
        store["fixed"].update(fixed)
        per_seed.update(seeded)
        tmp = store_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(store, f, indent=1, sort_keys=True)
        os.replace(tmp, store_path)


def check_metrics(metrics, trace, errors):
    spec = load_json("BENCHMARK.json", {})
    for m in spec.get("per_layer" if trace else "end_to_end", []):
        got = metrics.get(m["name"])
        if got is None:
            errors.append("metric %s missing" % m["name"])
        elif got.get("unit") != m["unit"]:
            errors.append("metric %s has unit %s, expected %s"
                          % (m["name"], got.get("unit"), m["unit"]))
        elif not math.isfinite(got.get("value", float("nan"))):
            errors.append("metric %s is not finite" % m["name"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the engine's sources (src/) are not in this checkout; nothing "
            "to build or measure")
        return 2
    if os.path.abspath(os.getcwd()) != ROOT:
        log("run from the root of the checkout (%s)" % ROOT)
        return 2

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    work_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        trace_file = os.path.join(work_dir, "trace.json")
        if os.path.exists(trace_file):
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            os.replace(trace_file, os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed)))
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("pf_perfbench exited %d without a result" % proc.returncode)
        return 1

    errors = list(result.get("errors", []))
    if proc.returncode != 0 and not errors:
        errors.append("pf_perfbench exited %d" % proc.returncode)
    check_metrics(result["metrics"], args.trace, errors)
    check_outputs(result, args.seed, errors)
    for e in errors:
        log("CHECK FAILED: " + e)

    host = host_fingerprint(result.get("build", {}))
    record = {"host": host, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "correct": not errors, "errors": errors, "result": result}
    with open(os.path.join(BUILD, "records.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps({"correct": not errors,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}, sort_keys=True))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
