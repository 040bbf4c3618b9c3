#!/usr/bin/env python3
"""Build and run the hybrid-pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only re-check the build. The binary measures the workload; this script
prints the report (machine context, every metric with its unit, and with
--trace 1 each per-layer metric next to the end-to-end metric it feeds) and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a layer a workload never enters reports 0
(perfbench/manifest.json says which workloads enter which layer).

Exit status: 0 when every output check passed, 1 when one failed or the
workload could not run, 2 when the benchmark could not be built.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "hia_perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no HIA sources at {ROOT / 'src'}; run from a checkout")
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(2)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
           "hia_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)


def last_level_cache():
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def source_digest():
    """SHA-256 over the program and benchmark sources: names the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt",
                                                  ".py", ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def fmt(value):
    if value is None or value == 0:
        return str(value)
    mag = abs(value)
    if mag >= 1e5 or mag < 1e-3:
        return f"{value:.4e}"
    return f"{value:.6g}"


def report(args, out, bench, manifest, context):
    """Prints the human-readable report; returns (metrics, problems)."""
    wl = manifest["workloads"][args.workload]
    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}): {wl['why']}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in context.items()))
    s = out["samples"]
    tail = s.get("turnaround_tail_permille", 0) / 10
    print(f"repetitions: {out['reps']} ({out['traced_reps']} traced); "
          f"step periods: {s.get('step_s', 0)}; tasks: {s.get('turnaround', 0)}"
          f"; highest percentile with 10 tasks beyond: "
          f"{'p%g' % tail if tail else 'none'}")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    e2e, traced = out["e2e"], out["e2e_traced"]
    print(f"\n{'end-to-end metric':<22}{'value':>14} {'unit':<6}{'bound':>7}"
          + (f"{'traced':>14}" if traced else ""))
    for name, m in e2e.items():
        bound = f"{bounds[name]:.2f}" if name in bounds else "-"
        row = f"{name:<22}{fmt(m['value']):>14} {m['unit']:<6}{bound:>7}"
        if traced:
            row += f"{fmt(traced.get(name, {}).get('value')):>14}"
        print(row)
    attempted, failed = out["attempted"], out["failed"]
    print(f"{'failed_frac':<22}{fmt(failed / max(attempted, 1)):>14} "
          f"({failed} of {attempted} tasks)")
    for f in out["failures"]:
        print(f"  FAILED CHECK: {f}")

    metrics, problems = {}, []
    if args.trace == 0:
        for decl in bench["end_to_end"]:
            m = e2e.get(decl["name"])
            if m is None or m["value"] is None:
                problems.append(f"end-to-end metric {decl['name']} missing")
            else:
                metrics[decl["name"]] = {"value": m["value"],
                                         "unit": decl["unit"]}
        return metrics, problems

    layers = out["layers"]
    print(f"\n{'per-layer metric':<40}{'value':>13} {'unit':<6} "
          f"feeds (traced value on this workload)")
    for decl in bench["per_layer"]:
        name = decl["name"]
        info = manifest["per_layer"][name]
        entered = args.workload in info["workloads"]
        m = layers.get(name)
        if m is None or m["value"] is None:
            if entered:
                problems.append(f"per-layer metric {name} missing")
            m = {"value": 0}
        metrics[name] = {"value": m["value"], "unit": decl["unit"]}
        feeds = ", ".join(f"{f} {fmt(traced.get(f, {}).get('value'))}"
                          for f in info["feeds"])
        note = feeds if entered else "layer not entered on this workload"
        print(f"{name:<40}{fmt(m['value']):>13} {decl['unit']:<6} {note}")
    for name in sorted(set(layers) - set(metrics)):
        m = layers[name]
        print(f"{name:<40}{fmt(m['value']):>13} {m['unit']:<6} "
              f"reported, not gated")
    if out["trace_file"]:
        print(f"\nspans of the last traced repetition: {out['trace_file']}")
    return metrics, problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.self_test:
        sys.exit(subprocess.run([str(BINARY), "--self-test"]).returncode)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    if args.workload not in manifest["workloads"]:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(manifest['workloads'])}")

    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(results)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(1)
    try:
        out = json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: the binary exited {run.returncode} without a result")
        sys.exit(1)

    context = {
        "nproc": len(os.sched_getaffinity(0)),
        "last_level_cache": last_level_cache(),
        "build_type": out["build_type"],
        "commit": commit(),
        "source_sha256": source_digest(),
    }
    metrics, problems = report(args, out, bench, manifest, context)
    record = {"context": context, "args": vars(args), "binary": out}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    for msg in problems:
        log(f"perfbench: {msg}")
    correct = bool(out["correct"]) and not problems
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    sys.exit(0 if correct and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
