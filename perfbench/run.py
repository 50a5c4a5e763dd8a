#!/usr/bin/env python3
"""Run one workload of the benchmark of record and print its verdict.

    python3 perfbench/run.py --workload wiki-bp --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run builds the library, the daemon
and the benchmark from this checkout's sources into $CARGO_TARGET_DIR (or
.bench_build); later runs reuse that build. The benchmark binary prints a
human-readable report; this script adds the checks that need the recorded
references (workloads.json) and prints, as its last line, one JSON object
with `correct`, `attempted`, `failed` and the metrics BENCHMARK.json names:
the end-to-end ones with --trace 0, the per-layer ones with --trace 1.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    for needed in ("src/CMakeLists.txt", "tools/netalign_server.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"missing {needed}: run from a full checkout")
            sys.exit(2)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench", "netalign_server"],
                   check=True, stdout=sys.stderr)


def git_sha():
    """The checkout's commit, or "none" outside a git work tree. Read here on
    every run: the build's own record is the commit it was configured at."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_bench(cmd):
    """Run the benchmark in its own process group; on timeout stop the group
    (the binary and any daemon it started) and wait until it is gone."""
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, start_new_session=True, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s; stopping it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1
    finally:
        for _ in range(1000):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            os.killpg(proc.pid, signal.SIGKILL)
            time.sleep(0.01)


def check_reference(result, config, workload, seed, seconds, trace):
    """Compare against the recorded references: the workload's own, which
    holds for every seed, and the exact one for this seed, if recorded."""
    refs = config.get("references", {}).get(workload, {})
    info = result["info"]
    got = None if trace else result["metrics"]["objective"]["value"]
    failures = []
    common = refs.get("every_seed")
    if common is not None:
        for key in ("instance.el", "instance.nnz_s"):
            if key in info and int(info[key]) != common[key]:
                failures.append(f"{key} {info[key]} != reference {common[key]}")
        # The seed relabels one instance; the objective's sum order follows
        # the labels, so it may differ from the reference in the last bits.
        want = common["objective"]
        if got is not None and abs(got - want) > 1e-9 * abs(want):
            failures.append(f"objective {got!r} != reference {want!r}")
    ref = refs.get(str(seed))
    if ref is None:
        print(f"info reference none recorded for seed {seed}")
        return failures
    for key in ("instance.el", "instance.nnz_s", "instance.file_bytes"):
        if key in ref and key in info and int(info[key]) != ref[key]:
            failures.append(f"{key} {info[key]} != reference {ref[key]}")
    # serve-mix's objective averages the jobs of its schedule, which is as
    # long as the run; its references hold only for runs of that length.
    if "seconds" in ref and ref["seconds"] != seconds:
        print(f"info reference objective recorded for {ref['seconds']} s runs only")
    elif got is not None and got != ref["objective"]:
        failures.append(f"objective {got!r} != reference {ref['objective']!r}")
    return failures


def check_fingerprint(result, config):
    """Flag a run whose host differs from the recorded baseline's."""
    base = config.get("baseline", {}).get("fingerprint", {})
    diff = [f"{k}: {result['info'].get(k)!r} vs baseline {v!r}"
            for k, v in base.items() if k != "host.git_sha"
            and result["info"].get(k) != v]
    if diff:
        print("flag fingerprint differs from the baseline host; do not gate "
              "against its numbers: " + "; ".join(diff))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        log(f"unknown workload {args.workload}")
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)

    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    result_path = os.path.join(run_dir, f"{args.workload}.result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    rc = run_bench([
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--config", os.path.join(HERE, "workloads.json"),
        "--work-dir", os.path.join(run_dir, args.workload),
        "--server-bin", os.path.join(build_dir, "netalign_server"),
        "--result", result_path, "--git-sha", git_sha()])
    if rc != 0 or not os.path.exists(result_path):
        log(f"benchmark failed (exit {rc})")
        return 1
    with open(result_path) as f:
        result = json.load(f)

    # Failures found here, on top of the ones the binary counted.
    failures = check_reference(result, config, args.workload, args.seed,
                               args.seconds, args.trace)
    check_fingerprint(result, config)
    attempted = max(1, int(result["attempted"]))

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            failures.append(f"metric {m['name']} not measured")
            continue
        if got["unit"] != m["unit"]:
            log(f"metric {m['name']} has unit {got['unit']}, expected {m['unit']}")
            return 1
        value = got["value"]
        if value is None or not math.isfinite(value):
            failures.append(f"metric {m['name']} is not finite")
            value = None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for f in failures:
        print(f"failure {f}")
    failed = int(result["failed"]) + len(failures)
    print(f"metric failed_share {failed / attempted:.9g} fraction")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
