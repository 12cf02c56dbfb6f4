"""The smatrack benchmark: one workload, one run.

    python3 perfbench/run.py --workload multi_roster --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
src/. Each job is a fresh single-threaded process (job.py) driven by this
closed-loop caller: the next job starts when the previous one has ended.
Jobs run until their timed parts add up to about --seconds (at least
three jobs). Times are reported at a reference speed: the machine's speed
is sampled throughout each job (layers.SpeedSamples).

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
pairs of jobs on the same inputs, untraced then traced, and prints the
per-layer metrics: the traced job times every call into the smatrack
modules (see layers.py), and the untraced one gives the tracing overhead.
Both modes check every trial (see checks.py) and the workload's band,
print a manifest, per-job CSV digests and every metric with its unit,
and end with one JSON line: correct, attempted, failed, metrics.
"""

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 3
# Start no job that would be expected to end past this many seconds after
# the run began, so a run exits well inside three minutes.
BUDGET_S = 150
IMPORT_PACKAGES = ("smatrack", "numpy", "scipy", "click")


class JobFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd, deadline):
    """Run a child to completion (killed and reaped at the deadline)."""
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise JobFailed("%s timed out" % " ".join(cmd[1:3]))
    if proc.returncode != 0:
        raise JobFailed("%s exited %d:\n%s" % (" ".join(cmd[1:3]),
                                               proc.returncode,
                                               proc.stderr[-4000:]))
    return proc


def spawn_job(args, job, out_dir, deadline, traced=False, reference=False):
    cmd = [sys.executable, os.path.join(HERE, "job.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--job", str(job), "--out", out_dir, "--scale", args.scale]
    if traced:
        cmd.append("--trace")
    if reference:
        cmd.append("--reference")
    start = time.monotonic()
    proc = run_child(cmd, deadline)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["setup_end"] - start
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    result["job"] = job
    result["traced"] = traced
    return result


def import_ms(deadline):
    """Cumulative import time of each package when `smatrack.cli` is
    imported in a fresh process (python -X importtime), summed over the
    outermost imports of that package, at the reference speed."""
    speed = layers.SpeedSamples()
    speed.sample()
    start = time.perf_counter()
    proc = run_child([sys.executable, "-X", "importtime", "-c",
                      "import smatrack.cli"], deadline)
    end = time.perf_counter()
    speed.sample()
    scale = speed.seconds(start, end) / speed.seconds(start, end, False)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self_us, cum_us, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, int(cum_us), name.strip()))
    out = {}
    for pkg in IMPORT_PACKAGES:
        total = 0
        stack = []  # (depth, matches) of the enclosing imports
        # importtime prints an import after the ones it triggered.
        for depth, cum, name in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            match = name == pkg or name.startswith(pkg + ".")
            if match and not any(m for _d, m in stack):
                total += cum
            stack.append((depth, match))
        out["cli.import_ms." + pkg] = total / 1000.0 * scale
    return out


def manifest(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                          recursive=True):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions,
            "git_commit": commit, "src_lines": src_lines}


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return [(m["name"], m["unit"])
            for m in bench["per_layer" if trace else "end_to_end"]]


def obs_rate(job, key="ref_wall_s"):
    return job["method_obs"] / job[key]


def end_to_end(jobs):
    """Throughput pools every job of the run: single streams differ in
    cost by a factor of two, so a ratio of sums steadies it more than a
    median of jobs does. Set-up and memory are medians over jobs."""
    m = {"obs_per_s": sum(j["method_obs"] for j in jobs)
         / sum(j["ref_wall_s"] for j in jobs),
         "setup_s": statistics.median(j["setup_s"] for j in jobs),
         "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs)}
    for kind in layers.PREDICTOR_KINDS:
        seconds = sum(j["kind_ref_s"].get(kind, 0.0) for j in jobs)
        m["obs_per_s." + kind] = sum(j["kind_obs"].get(kind, 0)
                                     for j in jobs) / seconds \
            if seconds else 0.0
    return m


def per_layer(pairs, imports):
    traced = [t for _p, t in pairs]
    by_layer, counters = {}, {}
    for job in traced:
        for layer, (n, s, own) in job["layers"].items():
            acc = by_layer.setdefault(layer, [0, 0.0, 0.0])
            acc[0] += n
            acc[1] += s * job["scale"]
            acc[2] += own * job["scale"]
        for layer, cs in job["counters"].items():
            acc = counters.setdefault(layer, {})
            for name, value in cs.items():
                acc[name] = max(acc.get(name, 0), value) \
                    if name.startswith("peak") else acc.get(name, 0) + value
    m = layers.layer_metrics(by_layer, counters, len(traced))
    m.update(imports)
    m["trace.overhead_ratio"] = statistics.median(
        obs_rate(t) / obs_rate(p) for p, t in pairs)
    wall = sum(t["wall_s"] * t["scale"] for t in traced)
    own = sum(acc[2] for acc in by_layer.values())
    m["trace.unattributed_share"] = (wall - own) / wall
    return m, by_layer, wall


def identity_failures(plain, traced):
    """Traced jobs must write exactly what their untraced twin wrote."""
    if plain["digests"] == traced["digests"]:
        return
    differ = sorted(k for k in plain["digests"]
                    if plain["digests"][k] != traced["digests"].get(k))
    for trial in traced["trials"]:
        trial["failures"].append("traced output differs from untraced: %s"
                                 % ", ".join(differ))


def tally(jobs):
    """(trials attempted, trials failed, one line per failed trial)."""
    attempted = sum(len(j["trials"]) for j in jobs)
    lines = ["FAILED job=%d%s seq=%d %s: %s" % (
        job["job"], " traced" if job["traced"] else "", t["seq"],
        t["method"], "; ".join(t["failures"]))
        for job in jobs for t in job["trials"] if t["failures"]]
    return attempted, len(lines), lines


def describe(job):
    return ("job %d%s: %d method-obs in %.3f s (%.1f obs/s; %.1f at the "
            "reference speed), set-up %.3f s (%.3f), peak rss %.1f MB, "
            "%d of %d trials failed"
            % (job["job"], " traced" if job["traced"] else "",
               job["method_obs"], job["wall_s"], obs_rate(job, "wall_s"),
               obs_rate(job), job["raw_setup_s"], job["setup_s"],
               job["peak_rss_mb"],
               sum(1 for t in job["trials"] if t["failures"]),
               len(job["trials"])))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SCALES),
                    default="full", help="tiny only exercises the code")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "smatrack", "cli.py")):
        print("error: no smatrack sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)

    t0 = time.monotonic()
    deadline = t0 + BUDGET_S + 25
    out_root = os.path.join(ROOT, ".perfbench_out", args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    print("# manifest " + json.dumps(manifest(args)))
    # Warm the file cache and the bytecode cache before timing set-up.
    run_child([sys.executable, "-c", "import smatrack.cli"], deadline)

    def out_dir(job, traced=False):
        return os.path.join(out_root, "job%d%s" % (job, "-traced" * traced))

    def affordable(expected):
        return time.monotonic() - t0 + expected < BUDGET_S

    plain, pairs = [], []
    measured = 0.0
    try:
        while True:
            j = len(plain)
            job = spawn_job(args, j, out_dir(j), deadline, reference=j == 0)
            plain.append(job)
            measured += job["wall_s"]
            print(describe(job))
            if args.trace:
                twin = spawn_job(args, j, out_dir(j, True), deadline,
                                 traced=True)
                identity_failures(job, twin)
                pairs.append((job, twin))
                measured += twin["wall_s"]
                print(describe(twin))
            # Start another job only if at least half of it fits.
            last = job["wall_s"] + (twin["wall_s"] if args.trace else 0.0)
            enough = measured + last / 2 >= args.seconds and (
                args.trace or len(plain) >= MIN_JOBS)
            if enough or not affordable(last + job["setup_s"]):
                break
        imports = import_ms(deadline) if args.trace else {}
    except JobFailed as e:
        print("error: %s" % e, file=sys.stderr)
        return 1

    jobs = plain + [t for _p, t in pairs]
    for job in jobs:
        for name, digest in sorted(job["digests"].items()):
            print("digest job=%d%s %s sha256=%s" % (
                job["job"], " traced" if job["traced"] else "", name, digest))
    trials, oracle = {}, {}
    for job in plain:
        for t in job["trials"]:
            trials[((job["job"], t["seq"]), t["method"])] = t["metrics"]
        for o in job["oracle"]:
            oracle[((job["job"], o["seq"]), "optimal")] = o["metrics"]
    band_ok, band_detail = True, "not checked at %s scale" % args.scale
    if args.scale == "full":
        band_ok, band_detail = workloads.make(args.workload).band(trials,
                                                                  oracle)
    print("band %s: %s" % ("PASS" if band_ok else "FAIL", band_detail))

    attempted, failed, lines = tally(jobs)
    for line in lines:
        print(line)

    if args.trace:
        values, by_layer, wall = per_layer(pairs, imports)
        print("self time over %d traced job(s), %.3f s:" % (len(pairs), wall))
        for layer, (n, _s, own) in sorted(by_layer.items(),
                                          key=lambda kv: -kv[1][2]):
            print("  %-34s %9d calls %10.3f ms self %6.2f%%"
                  % (layer, n, 1e3 * own, 100.0 * own / wall))
    else:
        values = end_to_end(plain)
    missing = [name for name, _unit in declared if name not in values]
    if missing:
        print("error: metrics not computed: %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    for name, unit in declared:
        print("%-44s %14.6g %s" % (name, values[name], unit))
    print("%-44s %14.6g share (%d of %d trials)"
          % ("failed_frac", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0 and band_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
