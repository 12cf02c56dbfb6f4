"""Sparse moving-average predictors.

All predictors follow the same prequential contract: predict() returns
the current item -> probability map (without mutating state), then
update(o) consumes the observation. predict() at time t never depends
on the observation at t. Each constructor raises ValueError("need
<domain>") for an argument outside its domain, a bool among them.
"""

import math
import numbers
import statistics
from collections import deque


def _need(ok, domain, value):
    # A bool is refused: True would pass as 1.
    if not ok or isinstance(value, bool):
        raise ValueError("need " + domain)


def _is_count(v, low=1):
    return isinstance(v, numbers.Integral) and v >= low


def decay_rate(beta, beta_min):
    """Harmonic decay: 1 -> 1/2 -> 1/3 -> ..., floored at beta_min. Ema
    and Dyal skip the call for a rate equal to its floor, which the call
    returns unchanged for any floor of 2**-53 or more; a rate that starts
    at 1 takes over 9e15 calls to sink below 2**-53. max() is spelled
    out: Ema and Dyal call this on most steps."""
    r = 1.0 / (1.0 / beta + 1.0)
    return beta_min if beta_min > r else r


def binomial_significance(ema_pr, q_pr, q_count):
    """Binomial-tail score q_count * KL2(q_pr || ema_pr). A score of ~5
    corresponds to roughly 99% confidence that the queue proportion and
    the EMA weight disagree."""
    q, e = q_pr, ema_pr
    if q == e:
        return 0.0
    if e <= 0.0 or e >= 1.0:
        return math.inf  # q != e is impossible under a degenerate e
    kl2 = 0.0
    if q > 0.0:
        kl2 += q * math.log(q / e)
    if q < 1.0:
        kl2 += (1.0 - q) * math.log((1.0 - q) / (1.0 - e))
    return q_count * kl2


# Dyal calls binomial_significance(e, q, n) only where n * KL(q || e)
# can reach the threshold, both for o's own test and for every other
# edge in Dyal.update: KL(q || e) <= ln(1 + chi2) <=
# chi2 = (e - q)**2 / (e (1 - e)), so the call is skipped when
# n * (chi2 + CHI2_SLACK) < sig. The slack covers rounding where the two
# nearly meet, chi2 near 0: there a computed KL, a sum of logs of ratios
# near 1, is off by a few ulps of 1, not of itself. Elsewhere the gap
# chi2 - ln(1 + chi2) is far wider than the rounding. So the decision is
# the same as without the test.
CHI2_SLACK = 1e-14


# Ema drops a weight that has sunk below EMA_FLOOR when it folds its
# scale. At most 1 / EMA_FLOOR weights can reach the floor, so a fold
# forced by EMA_CAP entries frees at least half of them.
EMA_FLOOR = 1e-4
EMA_CAP = round(2 / EMA_FLOOR)


class Ema:
    """Sparse EMA over a growing item set: weaken every weight by
    (1 - beta), then boost the observed item by beta. The weight map is
    always a semi-distribution. The rate starts at beta and decays as
    1/(1/beta + 1) down to beta_min after every update: beta_min = beta
    (the default) keeps it fixed, and beta = 1 gives harmonic EMA.

    Forward decay (Cormode et al., ICDE 2009): weights holds w_i / scale,
    where scale is the product of (1 - beta) since the last fold, so an
    update touches one entry. A fold, once scale falls to 1/2 or the map
    grows past EMA_CAP entries, multiplies the scale back in, drops the
    weights below EMA_FLOOR and resets the scale to 1."""

    def __init__(self, beta=0.01, beta_min=None):
        _need(0.0 < beta <= 1.0, "beta in (0, 1]", beta)
        if beta_min is None:
            beta_min = beta
        _need(0.0 <= beta_min <= beta, "beta_min in [0, %g]" % beta,
              beta_min)
        # decay_rate(beta, 0.0) is 0.0 once 1/beta overflows
        _need(beta_min > 0.0 or 1.0 / beta < math.inf,
              "beta_min > 0 when 1/beta overflows", beta_min)
        self.beta_min = beta_min
        self.beta = beta
        self.weights = {}
        self.scale = 1.0

    def predict(self):
        # A plain loop: on maps of a few entries a comprehension's own
        # set-up costs more than the entries.
        g = self.scale
        out = {}
        for i, s in self.weights.items():
            out[i] = s * g
        return out

    def update(self, o):
        b = self.beta
        w = self.weights
        if b >= 1.0:
            w.clear()  # everything else would weaken to exactly 0
            g = 1.0
        else:
            g = self.scale * (1.0 - b)
        s = w.get(o, 0.0) + b / g
        # Rounding can take s * g just past 1; fl(fl(1/g) * g) <= 1.
        # Products round monotonically, so no other weight can pass 1.
        if s * g > 1.0:
            s = 1.0 / g
        w[o] = s
        # Between folds g > 1/2, so no positive s * g rounds to 0.
        if g <= 0.5 or len(w) > EMA_CAP:
            self.weights = {i: v for i, s in w.items()
                            if (v := s * g) >= EMA_FLOOR}
            g = 1.0
        self.scale = g
        if b != self.beta_min:
            self.beta = decay_rate(b, self.beta_min)


class Queues:
    """Per-item queues of clock stamps, newest first. The clock counts
    updates, and an item's queue holds the clock values of its last qcap
    observations. PR = (stamps - 1) / (clock - oldest stamp): the paper's
    count-cell estimate (cells - 1) / (total count - 1), since the cells
    would total clock - oldest + 1. A heart-beat prune keeps the state
    bounded: queues whose newest stamp is s2 or more steps old are
    dropped, and when there are 2*s1 queues they are cut back to the s1
    freshest. The estimate needs two stamps, so qcap is at least 2.

    stamps maps every tracked item to its queue. q_map maps each item
    whose queue holds 2 or more stamps to (stamps - 1, oldest stamp), the
    two fields PR reads. update adds an item to q_map at its second
    sighting and rewrites its entry at each later one; only a prune
    removes it. On an open-ended stream most items are seen once, and
    predict() walks only q_map."""

    def __init__(self, qcap=3, s1=100, s2=100000, prune_every=1000):
        _need(_is_count(qcap, 2), "integer qcap >= 2", qcap)
        _need(_is_count(s1), "integer s1 >= 1", s1)
        _need(_is_count(s2), "integer s2 >= 1", s2)
        _need(_is_count(prune_every), "integer prune_every >= 1",
              prune_every)
        self.qcap = qcap
        self.s1 = s1
        self.s2 = s2
        self.prune_every = prune_every
        self.stamps = {}
        self.q_map = {}
        self.clock = 0

    def predict(self):
        # The PR of every item past its grace period, read from q_map:
        # this runs on every step. A plain loop, as in Ema.predict: on a
        # few entries a comprehension's set-up costs more.
        c = self.clock
        out = {}
        for i, (n, s) in self.q_map.items():
            out[i] = n / (c - s)
        return out

    def update(self, o):
        """Returns the ids a heartbeat prune dropped, or () when none
        ran."""
        c = self.clock = self.clock + 1
        q = self.stamps.get(o)
        if q is None:
            self.stamps[o] = [c]
        else:
            q.insert(0, c)
            if len(q) > self.qcap:
                q.pop()
            self.q_map[o] = (len(q) - 1, q[-1])
        if c % self.prune_every == 0:
            return self.prune()
        return ()

    def prune(self):
        """Returns the set of item ids dropped."""
        stamps = self.stamps
        dropped = {i for i, q in stamps.items()
                   if self.clock - q[0] >= self.s2}
        if len(stamps) - len(dropped) >= 2 * self.s1:
            # Freshest first: newest stamp, ties to smaller id.
            keep = sorted(stamps.keys() - dropped,
                          key=lambda i: (-stamps[i][0], i))
            dropped.update(keep[self.s1:])
        for i in dropped:
            del stamps[i]
            self.q_map.pop(i, None)
        return dropped


class Box:
    """Fixed window of the last K observations with exact counts;
    PR = count in window / window length. Once the window is full, probs
    keeps count / k for each item, in counts' key order, so an update
    rewrites at most two PRs and predict() is a copy."""

    def __init__(self, k=100):
        _need(_is_count(k), "integer k >= 1", k)
        self.k = k
        self.window = deque()
        self.counts = {}
        self.probs = {}

    def predict(self):
        n = len(self.window)
        if n < self.k:
            return {i: c / n for i, c in self.counts.items()}
        return self.probs.copy()

    def update(self, o):
        window = self.window
        counts = self.counts
        k = self.k
        window.append(o)
        counts[o] = counts.get(o, 0) + 1
        n = len(window)
        if n > k:
            probs = self.probs
            old = window.popleft()
            c = counts[old] - 1
            if c:
                counts[old] = c
                probs[old] = c / k
            else:
                del counts[old]
                del probs[old]
            probs[o] = counts[o] / k
        elif n == k:
            self.probs = {i: c / k for i, c in counts.items()}


class Dyal:
    """EMA with a per-edge learning rate and a per-edge queue. The queue
    acts as a change detector: when its proportion disagrees with the
    EMA weight by a significant binomial-tail score, the weight and rate
    are reset from the queue ("listening"); otherwise the edge follows a
    plain EMA step with harmonic rate decay down to beta_min."""

    def __init__(self, beta_min=0.01, qcap=3, sig_thresh=5.0, p_min=0.01,
                 s1=100, s2=100000, prune_every=1000):
        _need(0.0 <= beta_min <= 1.0, "beta_min in [0, 1]", beta_min)
        _need(sig_thresh >= 0.0, "sig_thresh >= 0", sig_thresh)
        _need(0.0 <= p_min <= 1.0, "p_min in [0, 1]", p_min)
        self.beta_min = beta_min
        self.sig_thresh = sig_thresh
        self.p_min = p_min
        self.queues = Queues(qcap=qcap, s1=s1, s2=s2,
                             prune_every=prune_every)
        self.ema_map = {}
        self.rate_map = {}

    def predict(self):
        return self.ema_map.copy()

    def update(self, o):
        """Take one observation in one step. Read o's queue's PR and
        count (the steps since its oldest stamp, inclusive) before the
        queue update, update the queue and drop the ids its prune
        dropped. Then weaken every edge except o's, possibly resetting an
        edge from its queue, and drop edges that have sunk below p_min or
        to 0.0. Last, o takes its own step, unless its queue had no entry
        or one stamp: a reset when the queue's PR is significantly above
        o's weight (always for an unseen o), else a plain EMA step, either
        capped at the free mass, 1 - (surviving weight, including o's
        untouched weight).

        One frame, since it visits every edge on every update: PR and
        count are read from q_map and the significance test is inlined,
        the chi-squared bound skips binomial_significance where it cannot
        reach sig_thresh, and a rate at its floor skips decay_rate. Each
        edge Dyal makes has its (stamps - 1, oldest stamp) in q_map: it
        is made only for a queue of 2 or more stamps, and pruned with it.
        So a reset sets a PR above 0 and a rate of at most 1, and an edge
        is dropped only below p_min or at 0.0. The walk runs over ema_map
        itself, reading a rate only for a plain step; it sets only the
        visited edge and deletes the dropped edges after it."""
        queues = self.queues
        q_map = queues.q_map
        q = q_map.get(o)
        if q is None:
            o_pr = 0.0  # no queue, or one stamp: queue only
        else:
            n, oldest = q
            o_count = queues.clock - oldest + 1
            o_pr = n / (o_count - 1)
        ema_map = self.ema_map
        rate_map = self.rate_map
        for i in queues.update(o):
            ema_map.pop(i, None)
            rate_map.pop(i, None)
        clock = queues.clock
        p_min = self.p_min
        beta_min = self.beta_min
        keep = 1.0 - beta_min
        sig = self.sig_thresh
        slack = CHI2_SLACK
        used = 0.0
        drops = []
        for i, e in ema_map.items():
            if i == o:
                used += e
                continue
            n, oldest = q_map[i]
            span = clock - oldest
            q_pr = n / span
            if e < p_min and q_pr < p_min:
                e = 0.0
            elif e > q_pr and (
                    e >= 1.0
                    or (span + 1) * ((d := e - q_pr) * d / (e * (1.0 - e))
                                     + slack) >= sig) and (
                    binomial_significance(e, q_pr, span + 1) >= sig):
                e = q_pr
                r = 1.0 / (span + 1)
                rate_map[i] = beta_min if beta_min > r else r
            else:
                beta = rate_map[i]
                if beta == beta_min:
                    e *= keep
                else:
                    e *= (1.0 - beta)
                    rate_map[i] = decay_rate(beta, beta_min)
            if e:
                ema_map[i] = e
                used += e
            else:  # below p_min, or weakened to 0.0 (a rate of 1, underflow)
                drops.append(i)
        for i in drops:
            del ema_map[i]
            del rate_map[i]
        if o_pr > 0.0:
            free = 1.0 - used
            if free < 0.0:
                free = 0.0
            ema_pr = ema_map.get(o, 0.0)
            # An unseen o (ema_pr 0.0) always resets: the score is inf
            # there. Otherwise the chi-squared screen comes first.
            if o_pr > ema_pr and (not ema_pr or o_count * (
                    (d := o_pr - ema_pr) * d / (ema_pr * (1.0 - ema_pr))
                    + slack) >= sig) and binomial_significance(
                    ema_pr, o_pr, o_count) >= sig:
                r = 1.0 / o_count
                rate_map[o] = beta_min if beta_min > r else r
                delta = o_pr - ema_pr
            else:
                beta = rate_map[o]
                delta = (1.0 - ema_pr) * beta
                if beta != beta_min:
                    rate_map[o] = decay_rate(beta, beta_min)
            ema_map[o] = ema_pr + (free if free < delta else delta)

    def max_rate(self):
        return max(self.rate_map.values(), default=0.0)

    def median_rate(self):
        rates = self.rate_map.values()
        return statistics.median(rates) if rates else 0.0
