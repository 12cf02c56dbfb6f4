"""Write BENCH_<tag>.json: one fixed benchmark spec, run on one checkout.

    python3 scripts/bench_file.py --root CHECKOUT --tag TAG

For each workload in the checkout's BENCHMARK.json, it runs
perfbench/run.py at 5 seeds with --seconds 20 --trace 0, and takes the
median of each end-to-end metric over them. Then it runs perfbench at 3
seeds with --trace 1, and takes the median of each per-layer metric over
those. Each run keeps its "# manifest" line, whose git_commit names the
tree measured, and its JSON result. The file also holds the wall times
of three tier-1 runs and their median, with pytest's summary line, and
the line count of src/. Run it with nothing else running on the
machine.

It writes no file, and exits 1 naming the run, when a perfbench run is
not correct or has a failed operation, or when the tier-1 tests fail.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

SEEDS = (1, 2, 3, 4, 5)
# One traced run's per-layer figures move by 10 % or more with the
# machine; the median of a few runs moves less.
TRACE_SEEDS = (1, 2, 3)
SECONDS = 20
# One tier-1 wall time moves with the machine's speed; the median of a
# few runs moves less.
TIER1_RUNS = 3
# Metrics that perfbench is known to misreport. The bias is the same at
# every commit, so paired numbers stay comparable.
MISREPORTED = {
    "real_file_long obs_per_s": "reads 25 % high: perfbench counts "
    "2*k*n trace observations where `trace --self-concat k` makes k*n, "
    "so a job counts 120,000 method-observations for 96,000",
    "real_file_long harness.self_concat.self_us_per_obs": "reads 0: the "
    "layer wraps run_self_concat, which no longer exists",
    "obs_per_s.ts-queues": "measures queues a second time: ts-queues is "
    "another name for queues",
    "cli.import_ms.numpy": "reads 0: it times only `import smatrack.cli`, "
    "which no longer loads numpy; a seeded spec's numpy.random import "
    "lands in setup_s",
    "cli.import_ms.scipy": "reads 0: the program no longer imports scipy",
    "trace.unattributed_share": "reads about 1e-5: each job runs inside "
    "one layer, whose self time takes all time that no inner layer claims",
    "sd_core.filter_cap.us_per_call": "reads 0: sd_core.filter_cap no "
    "longer exists; evaluation.score filters, caps and scores the raw map "
    "itself, and that time lands in harness.prequential.self_us_per_obs",
    "sd_core.filter_cap.kept_ratio": "reads 0: sd_core.filter_cap no "
    "longer exists; evaluation.score applies the filter-and-cap",
    "sd_core.filter_cap.entries_in_per_call": "reads 0: sd_core.filter_cap "
    "no longer exists; evaluation.score applies the filter-and-cap",
    "binary_oscillate evaluation.dev.us_per_step": "reads 0: the layer "
    "wraps multidev only, and a single-item pass calls dev_ratio; that "
    "time lands in harness.prequential.self_us_per_obs",
}


def perfbench(root, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    manifest = next(json.loads(line.split(" ", 2)[2]) for line in lines
                    if line.startswith("# manifest "))
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit("%s --seed %d --trace %d: correct %r, failed %r; no "
                 "BENCH file written" % (workload, seed, trace,
                                         result["correct"], result["failed"]))
    return {"manifest": manifest, "result": result}


def medians(runs):
    """The runs, and the median of each of their metrics over them."""
    return {"runs": runs,
            "median": {m: statistics.median(
                r["result"]["metrics"][m]["value"] for r in runs)
                for m in runs[0]["result"]["metrics"]}}


def tier1(root):
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    runs = []
    for _ in range(TIER1_RUNS):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors"],
                              cwd=root, env=env, capture_output=True,
                              text=True)
        summary = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode != 0:
            sys.exit("tier-1 tests exited %d: %s; no BENCH file written"
                     % (proc.returncode, summary))
        runs.append(round(time.monotonic() - start, 1))
    return {"wall_s": statistics.median(runs), "runs": runs,
            "summary": summary}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="the checkout to measure (default: this one)")
    ap.add_argument("--tag", required=True)
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    workloads = {}
    for name in names:
        runs = [perfbench(root, name, seed, 0) for seed in SEEDS]
        traced = [perfbench(root, name, seed, 1) for seed in TRACE_SEEDS]
        workloads[name] = dict(medians(runs), traced=medians(traced))
        print("%s: median obs_per_s %.0f" % (
            name, workloads[name]["median"]["obs_per_s"]), file=sys.stderr)
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"),
                          recursive=True):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    bench = {
        "tag": args.tag,
        "spec": {"seeds": SEEDS, "seconds": SECONDS,
                 "trace_seeds": TRACE_SEEDS,
                 "command": "python3 perfbench/run.py --workload W --seed S "
                 "--seconds %d --trace T" % SECONDS},
        "tier1": tier1(root),
        "src_lines": src_lines,
        "misreported": MISREPORTED,
        "workloads": workloads}
    path = "BENCH_%s.json" % args.tag
    with open(path, "w", encoding="utf-8") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")
    print("wrote %s" % path, file=sys.stderr)


if __name__ == "__main__":
    main()
