"""Step-at-a-time oracles for smatrack's fused scoring.

These are the earlier forms of the scoring code: filter-and-cap as
`filter_cap`, a filter pass then a scaling pass through `scale_drop`
that builds the capped map; `multidev` as one `deviates` call per
support item, per threshold and per mode; and the bounded log-loss and
quadratic loss as two separate rules that each cap the raw map.
`evaluation.score`, the library's one filter-and-cap, scores in one walk
and builds no map, and the tests compare it with these with `==`. The
one change from the earlier code is the clamp of a noise-marked miss at
-ln p_ns: the cap lets the sum reach 1 - p_ns + SUM_SLACK, so -ln of
the unallocated mass could pass the bound or, for p_ns below SUM_SLACK,
fail on -ln 0.

It also holds `distortion_threshold`, the paper's p0: the probability
below which the bounded log-loss pays a predictor to shift an item's
mass to noise. C9 reproduces the paper's values of p0, and the tests
check its bracket and its equation; the library does not use it.
"""

import bisect
import math

from smatrack.evaluation import Referee
from smatrack.sd_core import SUM_SLACK


def scale_drop(m, alpha, p_min):
    out = {}
    for i, v in m.items():
        s = alpha * v
        if s >= p_min:
            out[i] = s
    return out


def in_order_sum(m):
    """The sum of m's values, added left to right in map order. Python
    3.12's sum() compensates its rounding, which the code in evaluation
    does not; before 3.12 the two are the same."""
    s = 0.0
    for v in m.values():
        s += v
    return s


def filter_cap(m, cfg):
    q = scale_drop(m, 1.0, cfg.p_min)
    s = in_order_sum(q)
    if s <= 1.0 - cfg.p_ns + SUM_SLACK:
        return q
    return scale_drop(q, (1.0 - cfg.p_ns) / s, cfg.p_min)


def logloss_rule_ns(o, q, marked_ns, cfg):
    qp = filter_cap(q, cfg)
    prob = qp.get(o, 0.0)
    if prob >= cfg.p_min and prob > 0.0:
        return -math.log(prob)
    if not marked_ns:
        return -math.log(cfg.p_ns)
    u = 1.0 - in_order_sum(qp)
    return min(-math.log(u), -math.log(cfg.p_ns)) if u > 0.0 \
        else -math.log(cfg.p_ns)


def quad_rule(q, o, cfg):
    qp = filter_cap(q, cfg)
    loss = (1.0 - qp.get(o, 0.0)) ** 2
    for i, v in qp.items():
        if i != o:
            loss += v * v
    return loss


def deviates(p_hat, tp, d):
    if tp <= 0.0:
        raise ValueError("tp must be positive")
    if p_hat == 0.0:
        return 1
    return 1 if max(tp / p_hat, p_hat / tp) > d else 0


def multidev(o, q, p, d, mode, p_min=0.01):
    if mode == "obs":
        if o in p:
            return deviates(q.get(o, 0.0), p[o], d)
        return 1 if q.get(o, 0.0) >= p_min else 0
    if mode == "any":
        return max((deviates(q.get(i, 0.0), p[i], d) for i in p), default=0)
    raise ValueError("mode must be 'obs' or 'any'")


def schedule_at(schedule, t):
    """The SD of step t, by a bisect over the start times: a lookup
    apart from Schedule.per_step's walk."""
    k = bisect.bisect_right(schedule.entries, t, key=lambda e: e[0]) - 1
    if k < 0:
        raise ValueError("time %d precedes the schedule" % t)
    return schedule.entries[k][1]


def noise_marks(obs, ecfg):
    """The referee's mark for each observation, which run_prequential
    takes as its marks."""
    ref = Referee(ecfg.c_ns, ecfg.window)
    return [ref.is_ns(o) for o in obs]


def prequential(pred, obs, ecfg, schedule=None, track_item=None):
    """run_prequential's metrics, recomputed one step and one threshold
    at a time through the references above, with the referee run
    alongside and each step's truth looked up by schedule_at. Sums run
    in the same order as run_prequential's."""
    fc = ecfg.fc()
    ref = Referee(ecfg.c_ns, ecfg.window)
    n = len(obs)
    loss = quad = 0.0
    dev = {}
    for t, o in enumerate(obs, start=1):
        q = pred.predict()
        loss += logloss_rule_ns(o, q, ref.is_ns(o), fc)
        quad += quad_rule(q, o, fc)
        if schedule is not None:
            p = schedule_at(schedule, t)
            for d in ecfg.dev_ds:
                if track_item is not None:
                    keys = [("dev_rate_d%g" % d,
                             deviates(q.get(track_item, 0.0), p[track_item],
                                      d))]
                else:
                    keys = [("dev_rate_%s_d%g" % (mode, d),
                             multidev(o, q, p, d, mode, fc.p_min))
                            for mode in ("obs", "any")]
                for key, hit in keys:
                    dev[key] = dev.get(key, 0) + hit
        pred.update(o)
    out = {"avg_logloss_ns": loss / n, "avg_quad": quad / n}
    out.update({key: count / n for key, count in dev.items()})
    return out


def distortion_threshold(p_ns):
    """The probability level p0 solving p_ns = p0 * (1-p0)^((1-p0)/p0),
    found by bisection to 1e-10. Below p0 an item's mass can be shifted
    to noise profitably under the bounded scoring; p0 is between 2*p_ns
    and e*p_ns for small p_ns."""
    if not (0.0 < p_ns < 0.5):
        raise ValueError("p_ns must be in (0, 0.5)")

    def f(p):
        return p * (1.0 - p) ** ((1.0 - p) / p) - p_ns

    lo, hi = p_ns, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-10:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
