#!/usr/bin/env python3
"""Build and run the qkc benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --repeat <N> [--seed <first>] ...
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --figures

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which pulls in the qkc libraries from the tree) in
Release under $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls only rebuild what changed. The benchmark binary's standard output is
passed through; its last line is the result object, checked here against
the metric lists in BENCHMARK.json.

--repeat N is the steadiness report: N runs of one workload on seeds
seed..seed+N-1, then each metric's median, quartiles and their distance as
a share of the median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "qkc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "qkc_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_result(line, trace):
    """The result object must carry exactly the listed metrics and units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra "
                         "%s, units %s" % (
                             sorted(set(want) - set(got)),
                             sorted(set(got) - set(want)),
                             sorted(k for k in got if k in want and got[k] != want[k])))
    return result


def run_once(binary, workload, seed, seconds, trace, echo=True):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit("perfbench: %s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    host = next((json.loads(l)["host"] for l in lines if l.startswith('{"host"')), {})
    try:
        return check_result(lines[-1], trace), host
    except (ValueError, IndexError, KeyError) as e:
        sys.exit("perfbench: bad result line: %s" % e)


def steadiness(binary, args):
    values, failed = {}, []
    for i in range(args.repeat):
        seed = args.seed + i
        result, host = run_once(binary, args.workload, seed, args.seconds,
                                args.trace, echo=False)
        failed.append((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("# run %d seed %d correct=%s attempted=%d failed=%d steal=%s "
              "calibration_ms=%s %s" % (
                  i + 1, seed, result["correct"], result["attempted"],
                  result["failed"], host.get("steal_ticks"),
                  host.get("calibration_ms"),
                  " ".join("%s=%.4g" % (k, m["value"])
                           for k, m in result["metrics"].items()
                           if not args.trace)), flush=True)
        if not result["correct"]:
            sys.exit("perfbench: run %d failed its checks" % (i + 1))
    print("%-34s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3", "spread"))
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print("%-34s %14.6g %14.6g %14.6g %8.4f" % (name, med, q1, q3, spread))
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "failed_attempted": failed, "metrics": summary}))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--figures", action="store_true")
    args = p.parse_args()

    binary = build()
    if args.self_test or args.figures:
        flag = "--selftest" if args.self_test else "--figures"
        sys.exit(subprocess.run([binary, flag], cwd=ROOT).returncode)
    if not args.workload:
        p.error("--workload is required")
    if args.repeat:
        steadiness(binary, args)
    else:
        run_once(binary, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
