"""Reference Dyal for smatrack.predictors.Dyal.

This is Dyal as first written: update and the per-edge pass read each
queue's (PR, count) from the paper's count cells, CountCellQueues, the
one queue oracle, whose counts are the integers the stamps give; the
pass tests for a significantly low weight in its own method, and every
rate decays through decay_rate. The Dyal in src/ takes the whole step
in update, in one frame: it reads each (PR, count) from its Queues'
q_map inline, for o before the queue update and in the walk for every
other edge, walks the edges and then takes o's own step. It must match
this one bit for bit (maps, key order and rates), so
scripts/crossver.py drives both side by side on generated streams, and
tests/test_predictors.py on hand-set states, with dropping_zero_edges
applied to the reference.
"""

import statistics

from count_cell_queues import CountCellQueues as Queues
from smatrack.predictors import binomial_significance, decay_rate


class ReferenceDyal:
    """EMA with a per-edge learning rate and a per-edge queue. The queue
    acts as a change detector: when its proportion disagrees with the
    EMA weight by a significant binomial-tail score, the weight and rate
    are reset from the queue ("listening"); otherwise the edge follows a
    plain EMA step with harmonic rate decay down to beta_min."""

    def __init__(self, beta_min=0.01, qcap=3, sig_thresh=5.0, p_min=0.01,
                 s1=100, s2=100000, prune_every=1000):
        self.beta_min = beta_min
        self.sig_thresh = sig_thresh
        self.p_min = p_min
        self.queues = Queues(qcap=qcap, s1=s1, s2=s2, prune_every=None)
        self.prune_every = prune_every
        self.ema_map = {}
        self.rate_map = {}

    def get_params(self):
        return {"beta_min": self.beta_min, "qcap": self.queues.qcap,
                "sig_thresh": self.sig_thresh, "p_min": self.p_min}

    def predict(self):
        return dict(self.ema_map)

    def _queue_rate(self, q_count):
        return min(1.0, max(1.0 / q_count, self.beta_min))

    def update(self, o):
        q_pr, q_count = self.queues.pr_count(o)  # before the queue update
        self.queues.update(o)
        if self.prune_every and self.queues.clock % self.prune_every == 0:
            for i in self.queues.prune():
                self.ema_map.pop(i, None)
                self.rate_map.pop(i, None)
        free = self.weaken_edges(o)
        if q_pr == 0.0:
            return  # o is currently noise-level; queue only
        ema_pr = self.ema_map.get(o, 0.0)
        if self._significantly_high(ema_pr, q_pr, q_count):
            self.rate_map[o] = self._queue_rate(q_count)
            delta = min(q_pr - ema_pr, free)
        else:
            beta = self.rate_map[o]
            delta = min((1.0 - ema_pr) * beta, free)
            self.rate_map[o] = decay_rate(beta, self.beta_min)
        self.ema_map[o] = ema_pr + delta

    def _significantly_high(self, ema_pr, q_pr, q_count):
        if ema_pr == 0.0:
            return True
        if q_pr <= ema_pr:
            return False
        return binomial_significance(ema_pr, q_pr, q_count) >= self.sig_thresh

    def _significantly_low(self, ema_pr, q_pr, q_count):
        if ema_pr <= q_pr:
            return False
        return binomial_significance(ema_pr, q_pr, q_count) >= self.sig_thresh

    def weaken_edges(self, o):
        """Weaken every edge except o's, possibly resetting an edge from
        its queue, and drop edges that have sunk below p_min. Returns the
        free mass 1 - (surviving weight, including o's untouched weight)."""
        used = 0.0
        for i in list(self.rate_map):
            if i == o:
                used += self.ema_map[i]
                continue
            q_pr, q_count = self.queues.pr_count(i)
            if max(self.ema_map[i], q_pr) < self.p_min:
                del self.ema_map[i]
                del self.rate_map[i]
                continue
            if self._significantly_low(self.ema_map[i], q_pr, q_count):
                if q_pr > 0.0:
                    self.ema_map[i] = q_pr
                else:
                    del self.ema_map[i]
                    del self.rate_map[i]
                    continue
                self.rate_map[i] = self._queue_rate(q_count)
            else:
                beta = self.rate_map[i]
                self.ema_map[i] *= (1.0 - beta)
                self.rate_map[i] = decay_rate(beta, self.beta_min)
            used += self.ema_map[i]
        return max(0.0, 1.0 - used)

    def max_rate(self):
        return max(self.rate_map.values(), default=0.0)

    def median_rate(self):
        if not self.rate_map:
            return 0.0
        return statistics.median(self.rate_map.values())


def dropping_zero_edges(ref):
    """The one change since Dyal as first written: an edge that weakens
    to 0.0 (at a rate of 1, or by underflow) is dropped. Applied to the
    reference's weaken_edges, before o's step, as Dyal's walk drops it."""
    inner = ref.weaken_edges

    def weaken_edges(o):
        free = inner(o)
        for i in [i for i in ref.rate_map if i != o and not ref.ema_map[i]]:
            del ref.ema_map[i]
            del ref.rate_map[i]
        return free
    ref.weaken_edges = weaken_edges
