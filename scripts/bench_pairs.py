"""Compare two checkouts on one workload in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W --pairs N [--trace 1]

Before pair 1 it compiles each checkout's bytecode, so that no timed
run pays for writing it; a fresh clone has none.

Pair k runs perfbench on both checkouts at seed k, --trace 0, with the
settings of scripts/bench_file.py; the parent goes first in odd pairs
and the change first in even ones, so that a drift of the machine's
speed does not favour either side. For each pair it prints every
end-to-end metric of the change's BENCHMARK.json, parent -> change.
Then, for each metric, it prints the parent's median and quartile
distance, the change's median, the median of the per-pair changes, and
in how many pairs the change was better. Each such line ends with a
verdict against the metric's bound in the change's BENCHMARK.json:
"worse beyond bound" when the median change is worse than the bound,
else "within bound", followed by "meets the claim rule" when at least
10 pairs ran, the change was better in at least nine tenths of them
(ties count for neither side), and its median is better than the
parent's by more than the parent's quartile distance. Run it with nothing
else running on the machine.

With --trace 1 every run is perfbench's --trace 1 and the metrics are
BENCHMARK.json's per-layer ones; each line then ends after the count of
better pairs, with no verdict, since per-layer metrics have no bound.
Per-layer figures drift with the machine from session to session, so
compare them only within one such run; and perfbench scales each traced
job as a whole, so read a changed layer against the same pair's
unchanged layers, which move with it.

It writes no file, and exits 1 naming the run when a perfbench run is
not correct or has a failed operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from bench_file import perfbench


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the checkout before")
    ap.add_argument("--change", required=True, help="the checkout after")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 compares the per-layer metrics of traced runs")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for root in roots.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                        "perfbench"], cwd=root, check=True)
    with open(os.path.join(roots["change"], "BENCHMARK.json"),
              encoding="utf-8") as f:
        metrics = json.load(f)["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bound = {m["name"]: m.get("bound") for m in metrics}
    values = {side: {m: [] for m in better} for side in roots}
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            metrics = perfbench(roots[side], args.workload, k, args.trace)[
                "result"]["metrics"]
            for m in better:
                values[side][m].append(metrics[m]["value"])
        print("pair %d (seed %d, %s first): %s" % (
            k, k, order[0], ", ".join(
                "%s %.4g -> %.4g" % (m, values["parent"][m][-1],
                                     values["change"][m][-1])
                for m in better)), flush=True)
    for m, direction in better.items():
        old, new = values["parent"][m], values["change"][m]
        changes = [b / a - 1.0 if a else 0.0 for a, b in zip(old, new)]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for c in changes if sign * c > 0.0)
        quartiles = statistics.quantiles(old, n=4) if len(old) > 1 else [0] * 3
        spread = quartiles[2] - quartiles[0]
        change = statistics.median(changes)
        line = ("%s: parent median %.4g (quartile distance %.3g), change "
                "median %.4g, median change %+.1f %%, better in %d of %d "
                "pairs" % (m, statistics.median(old), spread,
                           statistics.median(new), 100 * change, wins,
                           len(old)))
        if bound[m] is not None:
            line += ("; worse beyond bound" if sign * change < -bound[m]
                     else "; within bound")
            if (len(old) >= 10 and 10 * wins >= 9 * len(old) and sign * (
                    statistics.median(new) - statistics.median(old))
                    > spread):
                line += ", meets the claim rule"
        print(line)


if __name__ == "__main__":
    main()
