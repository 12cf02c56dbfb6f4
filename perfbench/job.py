"""One job of a workload, in a process of its own.

    PYTHONPATH=src python3 perfbench/job.py --workload multi_roster \\
        --seed 1 --job 0 --out .perfbench_out/multi_roster/job0 \\
        [--trace] [--reference]

Imports smatrack.cli and builds the spec (the set-up `run.py` times from
process start), makes the inputs, runs the timed call into the program,
checks what it wrote, and prints one JSON object as its last line.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_job(wl, spec, traced=False, reference=False):
    """Run one job in this process; returns the result dict `run.py`
    aggregates. Instrumentation is removed again before returning."""
    from smatrack import harness
    speed = layers.SpeedSamples()
    speed.sample()  # right after set-up; scales setup_s
    wl.prepare(spec)
    tracer = layers.Tracer() if traced else None

    def call(layer, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(layer, fn, *args, **kwargs)

    # Sampling would add its time to the traced spans, so traced jobs are
    # scaled by the samples before and after them only.
    speed.sample()
    with layers.Instruments(tracer) as ins, speed.running(not traced):
        start = time.perf_counter()
        wl.run(spec, call)
        end = time.perf_counter()
    speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out_dir = wl.out_dir(spec)
    ecfg = wl.eval_cfg(spec)
    scored, oracle = wl.trials(spec)
    failures = {key: checks.bound_failures(m, ecfg.p_ns)
                for key, m in scored.items() if "avg_quad" in m}
    for key, reasons in checks.ts_plain_failures(scored).items():
        failures[key] += reasons
    failures.update(wl.trace_failures(spec, scored, reference))
    if reference:
        obs = wl.reference_obs(spec, ins.first_pass)
        for label, kind, param in wl.roster:
            failures[(0, label)] += checks.reference_failures(
                scored[(0, label)], harness.make_predictor(kind, param), kind,
                obs, ecfg)

    kind_obs, kind_s = {}, {}
    for kind, n, a, b in ins.passes:
        kind_obs[kind] = kind_obs.get(kind, 0) + n
        kind_s[kind] = kind_s.get(kind, 0.0) + speed.seconds(a, b)
    wall = speed.seconds(start, end, scaled=False)
    ref_wall = speed.seconds(start, end)
    result = {
        "wall_s": wall,
        "ref_wall_s": ref_wall,
        "scale": ref_wall / wall,
        "setup_scale": speed.first_scale(),
        "method_obs": sum(kind_obs.values()) + wl.extra_obs(spec),
        "kind_obs": kind_obs,
        "kind_ref_s": kind_s,
        "peak_rss_mb": peak_rss_mb,
        "digests": {name: sha256(os.path.join(out_dir, name))
                    for name in wl.outputs},
        "trials": [{"seq": seq, "method": label,
                    "metrics": {k: v for k, v in scored[(seq, label)].items()
                                if isinstance(v, float)},
                    "failures": failures[(seq, label)]}
                   for seq, label in sorted(scored)],
        "oracle": [{"seq": seq, "metrics": m}
                   for (seq, _label), m in sorted(oracle.items())],
    }
    if tracer is not None:
        result["layers"] = tracer.by_layer()
        result["counters"] = tracer.counters
        with open(os.path.join(out_dir, "spans.json"), "w") as f:
            json.dump({"spans": tracer.spans,
                       "totals": [[trial, layer] + tot for (trial, layer), tot
                                  in sorted(tracer.totals.items())]}, f)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--job", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args()

    import smatrack.cli  # noqa: F401  (the import set-up is timed)
    wl = workloads.make(args.workload, args.scale)
    spec = wl.spec(args.seed, args.job, args.out)
    setup_end = time.monotonic()

    result = run_job(wl, spec, traced=args.trace, reference=args.reference)
    result["setup_end"] = setup_end
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
