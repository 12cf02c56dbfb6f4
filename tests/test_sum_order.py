"""Float sums that reach an output file add left to right, so their last
bit does not depend on the interpreter: from Python 3.12 on, sum()
compensates its rounding. These tests use the standard library only, so
they also run as a plain script where pytest is missing:

    PYTHONPATH=src python tests/test_sum_order.py
"""

import math

from smatrack.evaluation import optimal_logloss
from smatrack.harness import _aggregate
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


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
