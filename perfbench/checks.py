"""Output checks. A trial is one (sequence, method) result; it fails if

- its avg_logloss_ns leaves [0, -ln p_ns], its avg_quad leaves [0, 2],
  or a deviation rate leaves [0, 1];
- queues:10 and ts-queues:10 disagree on its losses (C8's "ts=plain");
- it differs from a reference recomputation that drives the predictor
  directly and scores it with evaluation.logloss_rule_ns and quad_rule;
  that pass also checks every prediction: entries in (0, 1], and for the
  kinds that keep a semi-distribution, a sum of at most 1.
"""

import math

# A later scoring path may sum in another order; 1e-9 relative is far
# above that rounding and far below any behavioural change.
REL_TOL = 1e-9
SD_SLACK = 1e-9
# Queues and TimestampQueues estimate each item's rate on its own, so
# their maps may sum above 1; filter_cap scales those down when scoring.
SD_KINDS = ("ema", "harmonic-ema", "box", "dyal")


def bound_failures(metrics, p_ns):
    out = []
    if not 0.0 <= metrics["avg_logloss_ns"] <= -math.log(p_ns):
        out.append("avg_logloss_ns %r outside [0, -ln p_ns]"
                   % metrics["avg_logloss_ns"])
    if not 0.0 <= metrics["avg_quad"] <= 2.0:
        out.append("avg_quad %r outside [0, 2]" % metrics["avg_quad"])
    for name, value in metrics.items():
        if name.startswith("dev_rate") and not 0.0 <= value <= 1.0:
            out.append("%s %r outside [0, 1]" % (name, value))
    return out


def ts_plain_failures(trials):
    """{(seq, label): [reason]} for sequences where queues:10 and
    ts-queues:10 report different losses."""
    out = {}
    for (seq, label), m in trials.items():
        if label != "queues:10" or (seq, "ts-queues:10") not in trials:
            continue
        ts = trials[(seq, "ts-queues:10")]
        for loss in ("avg_logloss_ns", "avg_quad"):
            if m[loss] != ts[loss]:
                reason = "ts=plain: queues:10 %s %r != ts-queues:10 %r" % (
                    loss, m[loss], ts[loss])
                out.setdefault((seq, label), []).append(reason)
                out.setdefault((seq, "ts-queues:10"), []).append(reason)
    return out


def close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def map_violation(q, kind):
    if any(not 0.0 < v <= 1.0 for v in q.values()):
        return "map has an entry outside (0, 1]"
    if kind in SD_KINDS and sum(q.values()) > 1.0 + SD_SLACK:
        return "map sums to %r > 1" % sum(q.values())
    return None


def reference_scores(pred, kind, obs, ecfg):
    """(avg log-loss, avg quad loss, first bad map or None) of one
    predict-score-update pass written against the evaluation API."""
    from smatrack.evaluation import Referee, logloss_rule_ns, quad_rule
    fc = ecfg.fc()
    ref = Referee(ecfg.c_ns, ecfg.window)
    loss = quad = 0.0
    bad = None
    for o in obs:
        q = pred.predict()
        if bad is None:
            bad = map_violation(q, kind)
        loss += logloss_rule_ns(o, q, ref.is_ns(o), fc)
        quad += quad_rule(q, o, fc)
        pred.update(o)
    n = len(obs)
    return loss / n, quad / n, bad


def reference_failures(metrics, pred, kind, obs, ecfg):
    loss, quad, bad = reference_scores(pred, kind, obs, ecfg)
    out = [] if bad is None else ["reference: " + bad]
    if not close(metrics["avg_logloss_ns"], loss):
        out.append("reference: avg_logloss_ns %r != %r"
                   % (metrics["avg_logloss_ns"], loss))
    if not close(metrics["avg_quad"], quad):
        out.append("reference: avg_quad %r != %r" % (metrics["avg_quad"],
                                                     quad))
    return out


def trace_failures(trace, obs, k, make_dyal=None, item=0):
    """Row counts and ranges of the Dyal self-concat trace; with
    `make_dyal`, also a direct recomputation: the rate trace from k passes
    of update, the estimate trace from predict-then-update over the
    k-fold sequence."""
    rates, est = trace["rates"], trace["estimates"]
    out = []
    if len(rates) != k * len(obs) or len(est) != k * len(obs):
        return ["trace: %d rate rows and %d estimate rows, want %d"
                % (len(rates), len(est), k * len(obs))]
    if any(not 0.0 <= md <= mx <= 1.0 for mx, md, _deg in rates):
        out.append("trace: a rate leaves 0 <= median <= max <= 1")
    if any(not 0.0 <= v <= 1.0 for v in est):
        out.append("trace: an estimate leaves [0, 1]")
    if make_dyal is None:
        return out
    dyal = make_dyal()
    t = 0
    for _ in range(k):
        for o in obs:
            dyal.update(o)
            want = (dyal.max_rate(), dyal.median_rate(), len(dyal.ema_map))
            if rates[t] != want:
                return out + ["trace: rate row %d is %r, reference %r"
                              % (t + 1, rates[t], want)]
            t += 1
    dyal = make_dyal()
    for t, o in enumerate(obs * k):
        want = dyal.predict().get(item, 0.0)
        if est[t] != want:
            return out + ["trace: estimate row %d is %r, reference %r"
                          % (t + 1, est[t], want)]
        dyal.update(o)
    return out
