"""Scoring of prediction streams: the noise referee, bounded log-loss,
quadratic loss, deviation rates, the optimal-loss oracle, and paired
sign tests."""

import math
from collections import deque
from math import log  # for score, which logs on every step

from .sd_core import SUM_SLACK, need_int


class Referee:
    """Third-party noise marker: an observation is flagged NS while its
    prior occurrence count is at most c_ns. With a window limit W set,
    counts cover only the last W observations, which it keeps in order
    to evict the oldest."""

    def __init__(self, c_ns=2, window=None):
        need_int("c_ns", c_ns, 0)
        if window is not None:
            need_int("referee window", window, 1)
        self.c_ns = c_ns
        self.window = window
        self.recent_freq = {}
        self._recent = deque()

    def is_ns(self, o):
        freq = self.recent_freq
        count = freq.get(o, 0)
        freq[o] = count + 1
        if self.window is not None:
            recent = self._recent
            recent.append(o)
            if len(recent) > self.window:
                old = recent.popleft()
                c = freq[old] - 1
                if c:
                    freq[old] = c
                else:
                    del freq[old]
        return count <= self.c_ns


def score(o, q, marked_ns, cfg, neg_log_pns):
    """Bounded log-loss and quadratic loss of the raw map q against the
    outcome o, as (loss, quad). This is the one filter-and-cap: q scores
    as if its entries below p_min were dropped, the rest scaled down to
    sum to 1 - p_ns when they sum to more, and the scaled entries below
    p_min dropped. No capped map is built: one walk over q, and a second
    over the scaled weights only when the cap scales. A hit scores -ln of
    its capped weight, which is at least p_min >= p_ns; a miss scores
    neg_log_pns (-ln p_ns), or, if the referee marked it as noise, -ln of
    the unallocated mass clamped at neg_log_pns. The loss lies in
    [0, -ln p_ns]. The quadratic (Brier-style) loss is the squared
    distance to the one-hot outcome, in [0, 2]."""
    p_min = cfg.p_min
    prob = q.get(o, 0.0)
    if prob < p_min:
        prob = 0.0
    quad = (1.0 - prob) ** 2
    s = 0.0
    for i, v in q.items():
        if v >= p_min:
            s += v
            if i != o:
                quad += v * v
    if s > 1.0 - cfg.p_ns + SUM_SLACK:
        # alpha < 1, so a scaled weight at or above p_min was salient
        # before the scaling too.
        alpha = (1.0 - cfg.p_ns) / s
        prob = alpha * q.get(o, 0.0)
        if prob < p_min:
            prob = 0.0
        quad = (1.0 - prob) ** 2
        s = 0.0
        for i, v in q.items():
            v = alpha * v
            if v >= p_min:
                s += v
                if i != o:
                    quad += v * v
    if prob > 0.0:
        loss = -log(prob)
    elif not marked_ns:
        loss = neg_log_pns
    else:
        # The cap leaves the sum up to SUM_SLACK past 1 - p_ns, so the
        # unallocated mass can fall below p_ns, or to 0.
        u = 1.0 - s
        loss = min(-log(u), neg_log_pns) if u > 0.0 else neg_log_pns
    return loss, quad


def logloss_rule_ns(o, q, marked_ns, cfg):
    """Bounded log-loss of the raw map q, in [0, -ln p_ns]: `score`'s
    loss."""
    return score(o, q, marked_ns, cfg, -math.log(cfg.p_ns))[0]


def quad_rule(q, o, cfg):
    """Quadratic loss of the raw map q, in [0, 2]: `score`'s quad."""
    return score(o, q, False, cfg, -math.log(cfg.p_ns))[1]


def dev_ratio(p_hat, tp):
    """How far an estimate is off its true probability, as a factor:
    max(tp / p_hat, p_hat / tp), or inf for a zero estimate."""
    if tp <= 0.0:
        raise ValueError("tp must be positive")
    if p_hat == 0.0:
        return math.inf
    # One division: the ratio on p_hat's side of tp is the larger, since
    # rounding is monotone and keeps each ratio on its side of 1.0. As
    # in multidev.
    return p_hat / tp if p_hat >= tp else tp / p_hat


def multidev(o, q, p, p_min=0.01):
    """Multi-item deviation ratios for one time step, as (worst, obs):
    worst is the largest dev_ratio over the true support (0.0 for an
    empty one), obs the observed item's ratio. A noise observation has
    no ratio; obs is then inf if the predictor gives it salient mass and
    0.0 if not. The step deviates at threshold d in any mode iff
    worst > d, and in obs mode iff obs > d."""
    worst = 0.0
    obs = math.inf if q.get(o, 0.0) >= p_min else 0.0
    for i, tp in p.items():
        # dev_ratio inlined: this runs over the support on every step.
        if tp <= 0.0:
            raise ValueError("tp must be positive")
        est = q.get(i, 0.0)
        if est == 0.0:
            r = math.inf
        else:
            r = est / tp if est >= tp else tp / est
        if r > worst:
            worst = r
        if i == o:
            obs = r
    return worst, obs


class Schedule:
    """Ground-truth SD per time step: a list of (start_t, sd) whose start
    times increase strictly from 1. Each sd is a semi-distribution with
    weights in (0, 1], or ValueError: per_step() reads the start times,
    and optimal_logloss takes the log of every weight."""

    def __init__(self, entries):
        self.entries = list(entries)
        self._starts = starts = [s for s, _ in self.entries]
        if starts and starts[0] != 1 or any(
                b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("need start times increasing strictly from "
                             "1, got %r" % (starts,))
        for start, sd in self.entries:
            if not (all(0.0 < v <= 1.0 for v in sd.values())
                    and sum(sd.values()) <= 1.0 + SUM_SLACK):
                raise ValueError("need weights in (0, 1] summing to at "
                                 "most 1, got %r at t=%r" % (sd, start))

    def per_step(self, n):
        """The SD of each step t = 1..n, one segment at a time."""
        if n >= 1 and not self.entries:
            raise ValueError("time 1 precedes the schedule")
        out = []
        for (start, sd), end in zip(self.entries, self._starts[1:] + [n + 1]):
            out += [sd] * (min(end, n + 1) - start)
        return out


def optimal_logloss(obs, truth):
    """Mean loss of the generating distribution itself, truth[t] being the
    SD at obs[t]: -ln P(o) for salient observations, -ln u(P) for noise."""
    if not obs:
        return 0.0
    total = 0.0
    for o, p in zip(obs, truth, strict=True):
        if o in p:
            total += -math.log(p[o])
        else:
            u = 0.0
            for v in p.values():  # in order: 3.12's sum() compensates
                u += v
            total += -math.log(1.0 - u)
    return total / len(obs)


def sign_test(losses_a, losses_b):
    """Per-sequence paired comparison: (wins_a, wins_b, ties, p_value)
    where a win is a strictly lower loss and the p-value is a two-sided
    exact binomial test with ties dropped: 2 P(X <= min(wins)) for X ~
    Bin(wins_a + wins_b, 1/2), or 1.0 for an even split. The tail sum is
    an integer, and int / int rounds correctly."""
    if len(losses_a) != len(losses_b):
        raise ValueError("paired loss lists must have equal length")
    wins_a = sum(1 for a, b in zip(losses_a, losses_b) if a < b)
    wins_b = sum(1 for a, b in zip(losses_a, losses_b) if b < a)
    ties = len(losses_a) - wins_a - wins_b
    n = wins_a + wins_b
    m = min(wins_a, wins_b)
    if 2 * m == n:
        p_value = 1.0
    else:
        p_value = 2 * sum(math.comb(n, i) for i in range(m + 1)) / 2 ** n
    return wins_a, wins_b, ties, p_value
