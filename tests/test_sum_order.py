"""Float sums that reach an output file add left to right, so their last
bit does not depend on the interpreter: from Python 3.12 on, sum()
compensates its rounding. The standard deviation rounds once, which
statistics.stdev does from Python 3.11 on only. These tests use the
standard library only, so they also run as a plain script where pytest
is missing:

    PYTHONPATH=src python tests/test_sum_order.py
"""

import math
import random
import statistics
import sys
from fractions import Fraction

from smatrack.evaluation import optimal_logloss
from smatrack.harness import _aggregate, _stdev
from reference_scoring import in_order_sum


def test_aggregate_mean_sums_in_order():
    # sum([0.1] * 10) / 10 is 0.09999999999999999 on 3.11, 0.1 on 3.12
    vals = [0.1] * 10
    rows = [(k, "ema:0.05", "0.05", "avg_logloss_ns", v)
            for k, v in enumerate(vals)]
    [(_m, _p, _k, mu, _sd)] = _aggregate(rows)
    assert mu == in_order_sum(dict(enumerate(vals))) / 10 \
        == 0.09999999999999999


def test_optimal_logloss_noise_mass_sums_in_order():
    # 1 - sum([0.1] * 9) is 0.10000000000000009 on 3.11 and
    # 0.09999999999999998 on 3.12
    sd = {i: 0.1 for i in range(9)}
    u = 1.0 - in_order_sum(sd)
    assert u == 0.10000000000000009
    assert optimal_logloss(["noise"], [sd]) == -math.log(u)


def test_stdev_is_correctly_rounded():
    # The float nearest the root of the exact sample variance: the
    # squares of the midpoints to its neighbours bracket the variance.
    # 3.10's statistics.stdev rounds the variance to a float first.
    rng = random.Random(8)
    lists = [[2.0, 3.0], [0.1, 0.1, 0.1], [7, 7], [5e-324, 0.0, 1e-323],
             [1e-300, 3e-300, 2e-300], [1e308, -1e308], [3, 4.5, 10 ** 20]]
    for _ in range(2000):
        scale = 10.0 ** rng.randint(-300, 300)
        lists.append([rng.gauss(1.0, rng.random()) * scale
                      for _ in range(rng.randint(2, 60))])
    for vals in lists:
        got = _stdev(vals)
        xs = [Fraction(v) for v in vals]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        below, at, above = (Fraction(math.nextafter(got, to))
                            for to in (0.0, got, math.inf))
        assert ((below + at) / 2) ** 2 <= var <= ((at + above) / 2) ** 2, vals
        if sys.version_info >= (3, 11):
            assert got == statistics.stdev(vals), vals


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
