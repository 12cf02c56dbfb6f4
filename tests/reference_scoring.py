"""Threshold-at-a-time references for smatrack's fused scoring.

These are the earlier forms of the scoring code: `filter_cap` as a
filter pass then a scaling pass through `scale_drop`, and `multidev` as
one `deviates` call per support item, per threshold and per mode. The
fused code in `sd_core` and `evaluation` must match them exactly, so the
tests compare with `==`.
"""

from smatrack.evaluation import Referee, logloss_rule_ns, quad_rule
from smatrack.sd_core import SUM_SLACK


def scale_drop(m, alpha, p_min):
    out = {}
    for i, v in m.items():
        s = alpha * v
        if s >= p_min:
            out[i] = s
    return out


def filter_cap(m, cfg):
    q = scale_drop(m, 1.0, cfg.p_min)
    s = sum(q.values())
    if s <= 1.0 - cfg.p_ns + SUM_SLACK:
        return q
    return scale_drop(q, (1.0 - cfg.p_ns) / s, cfg.p_min)


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


def prequential(pred, obs, ecfg, schedule=None, track_item=None):
    """run_prequential's metrics, recomputed one step and one threshold
    at a time through logloss_rule_ns, quad_rule and the references
    above. Sums run in the same order as run_prequential's."""
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
            p = schedule.at(t)
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
