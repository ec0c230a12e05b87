#!/usr/bin/env python3
"""Open-loop serving benchmark of the PQCache server.

Run from the root of a checkout:

  python3 perfbench/run.py --workload chat --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py selftest
  python3 perfbench/run.py compare BASE.txt NEW.txt

A run builds perfbench/ (and the library from the checkout) into
.bench_build/ on first use, runs one measured window of the workload, prints
a table of every metric with its unit, a `perfbench-detail {...}` line with
the full result (host/build fingerprint, counts, validity, every metric),
and, last, the result line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 `metrics` holds the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. `compare` reads the saved output of
runs (several runs may be concatenated in one file), refuses to compare runs
whose host/build fingerprints differ, and prints per-workload medians,
spreads and the change against each end-to-end bound. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETAIL_PREFIX = "perfbench-detail "
# Fingerprint fields that name the code measured rather than the host or
# build; comparing two commits is the point, so they may differ.
SOURCE_FIELDS = ("git_sha", "source_sha256")
RUN_TIMEOUT_SECONDS = 170
# perfbench's invalid-run reason for a window too short for its tails.
TOO_FEW_SAMPLES = "too few samples for the reported tails"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(targets):
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target"] +
                 targets)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def source_identity():
    ident = {}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            ident["git_sha"] = sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    tops = [ROOT / "src", ROOT / "perfbench", ROOT / "CMakeLists.txt"]
    files = []
    for top in tops:
        if top.is_file():
            files.append(top)
        elif top.is_dir():
            files.extend(p for p in top.rglob("*") if p.is_file())
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    ident["source_sha256"] = digest.hexdigest()[:16]
    return ident


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args):
    if not build(["perfbench"]):
        return 1
    cmd = [str(build_dir() / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(ROOT / ".bench_out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_SECONDS, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded", RUN_TIMEOUT_SECONDS, "s")
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        log("perfbench: run failed with exit code", proc.returncode)
        return 1
    detail = json.loads(proc.stdout.strip().splitlines()[-1])
    detail["fingerprint"].update(source_identity())

    spec = benchmark_spec()
    section = "per_layer" if args.trace else "end_to_end"
    measured = detail[section]
    metrics = {}
    correct = bool(detail["correct"])
    for m in spec[section]:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("perfbench: metric", m["name"], "missing or unit differs")
            return 1
        value = got["value"]
        if value is None:
            log("perfbench: metric", m["name"], "was not measured")
            correct = False
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print_table(detail)
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)


def print_table(detail):
    print("perfbench %s seed=%s seconds=%s trace=%s: %s" % (
        detail["workload"], detail["seed"], detail["seconds"], detail["trace"],
        "correct" if detail["correct"] else
        "INVALID (" + "; ".join(detail["invalid"]) + ")"))
    print("  fingerprint: " + json.dumps(detail["fingerprint"], sort_keys=True))
    print("  workload: " + json.dumps(detail["workload_config"], sort_keys=True))
    counts = detail["counts"]
    print("  requests: sent %d, completed %d, failed %d (errors %d, refused "
          "%d, shed %d, cancelled %d, unfinished %d)" % (
              counts["sent"], counts["completed"], detail["failed"],
              counts["errors"], counts["refused"], counts["shed"],
              counts["cancelled"], counts["unfinished"]))
    print("  %-28s %14s %s" % ("error_rate", fmt(counts["error_rate"]),
                               "ratio"))
    print("  %-28s %14s %s" % ("token_mismatches",
                               fmt(counts["token_mismatches"]), "count"))
    print("  %-28s %14s %s" % ("send_lag_p99_ms",
                               fmt(counts["send_lag_p99_ms"]), "ms"))
    for section in ("end_to_end", "per_layer"):
        for name, m in detail.get(section, {}).items():
            print("  %-28s %14s %s" % (name, fmt(m["value"]), m["unit"]))


def read_details(path):
    runs = []
    for line in Path(path).read_text().splitlines():
        if line.startswith(DETAIL_PREFIX):
            runs.append(json.loads(line[len(DETAIL_PREFIX):]))
    return runs


def host_key(detail):
    return {k: v for k, v in detail["fingerprint"].items()
            if k not in SOURCE_FIELDS}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def compare(args):
    base, new = read_details(args.base), read_details(args.new)
    if not base or not new:
        log("compare: no perfbench-detail lines in one of the files")
        return 2
    key = host_key(base[0])
    for detail in base + new:
        if host_key(detail) != key:
            log("compare: refusing to compare runs from different hosts or "
                "builds:\n  %s\n  %s" % (json.dumps(key, sort_keys=True),
                                         json.dumps(host_key(detail),
                                                    sort_keys=True)))
            return 3
    spec = benchmark_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in sorted({d["workload"] for d in base + new}):
        b = [d for d in base if d["workload"] == workload]
        n = [d for d in new if d["workload"] == workload]
        if not b or not n:
            continue
        traced = (sum(d["trace"] for d in b) > 0) != (sum(d["trace"] for d in n) > 0)
        print("%s: %d base run(s), %d new run(s)%s" % (
            workload, len(b), len(n),
            " (traced vs untraced: the change is the tracing overhead)"
            if traced else ""))
        print("  %-28s %12s %12s %9s %9s  %s" % (
            "metric", "base", "new", "change", "spread", "verdict"))
        for name in sorted(b[0]["end_to_end"]):
            bv = [d["end_to_end"][name]["value"] for d in b]
            nv = [d["end_to_end"][name]["value"] for d in n]
            if None in bv or None in nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            m = bounds.get(name)
            verdict = ""
            if m is not None:
                lower = m["better"] == "lower"
                worse = change if lower else -change
                all_better = (max(nv) < min(bv)) if lower else (min(nv) > max(bv))
                if spread(bv) > m["bound"] and not all_better:
                    verdict = "unresolved (spread above bound)"
                elif worse > m["bound"]:
                    verdict = "WORSE than bound %.0f%%" % (100 * m["bound"])
                else:
                    verdict = "within bound"
            print("  %-28s %12.4g %12.4g %+8.1f%% %8.1f%%  %s" % (
                name, bm, nm, 100 * change, 100 * spread(bv), verdict))
    return 0


def selftest(_args):
    if not build(["perfbench", "perfbench_selftest"]):
        return 1
    if subprocess.run([str(build_dir() / "perfbench_selftest")]).returncode:
        return 1
    # Tiny end-to-end run against a loopback server. Two seconds offer too
    # few requests for the reported tails, so that is the one reason the run
    # may be marked invalid; every stream must still complete and verify.
    proc = subprocess.run(
        [str(build_dir() / "perfbench"), "--workload", "chat", "--seed", "1",
         "--seconds", "2", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_SECONDS,
        cwd=ROOT)
    ok = proc.returncode == 0
    if ok:
        detail = json.loads(proc.stdout.strip().splitlines()[-1])
        counts = detail["counts"]
        ok = (set(detail["invalid"]) <= {TOO_FEW_SAMPLES} and
              detail["failed"] == 0 and
              counts["token_mismatches"] == 0 and
              counts["verified_streams"] > 0 and
              counts["protocol_violations"] == 0)
        print("%s  tiny loopback run: %d sent, %d completed, %d verified, "
              "%d token mismatches" % ("ok  " if ok else "FAIL",
                                       counts["sent"], counts["completed"],
                                       counts["verified_streams"],
                                       counts["token_mismatches"]))
    else:
        print("FAIL  tiny loopback run exited with", proc.returncode)
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "selftest":
        return selftest(None)
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        return compare(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["chat", "rag_prefix", "long_doc"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
