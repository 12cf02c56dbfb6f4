"""Compare two checkouts on one workload in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W --pairs N

Pair k runs perfbench on both checkouts at seed k, --trace 0, with the
settings of scripts/bench_file.py; the parent goes first in odd pairs
and the change first in even ones, so that a drift of the machine's
speed does not favour either side. For each pair it prints every
end-to-end metric of the change's BENCHMARK.json, parent -> change.
Then, for each metric, it prints the parent's median and quartile
distance, the change's median, the median of the per-pair changes, and
in how many pairs the change was better. Run it with nothing else
running on the machine.

It writes no file, and exits 1 naming the run when a perfbench run is
not correct or has a failed operation.
"""

import argparse
import json
import os
import statistics

from bench_file import perfbench


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the checkout before")
    ap.add_argument("--change", required=True, help="the checkout after")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"),
              encoding="utf-8") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    values = {side: {m: [] for m in better} for side in roots}
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            metrics = perfbench(roots[side], args.workload, k, 0)[
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
        print("%s: parent median %.4g (quartile distance %.3g), change "
              "median %.4g, median change %+.1f %%, better in %d of %d "
              "pairs" % (m, statistics.median(old), quartiles[2] - quartiles[0],
                         statistics.median(new),
                         100 * statistics.median(changes), wins, len(old)))


if __name__ == "__main__":
    main()
