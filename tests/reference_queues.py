"""Reference Queues for smatrack.predictors.Queues.

This is the stamp-based Queues before its two-tier split: one map holds
every queue, single-stamp ones included, and predict() walks all of them,
skipping those in their grace period. The Queues in src/ keeps every
item's queue in `stamps`, and for each queue of 2 or more stamps it keeps
(stamps - 1, oldest stamp) in `q_map`, which is all that predict() walks.
It must give the same (PR, count) for every item, the same predictions
and the same prune sets, so the tests drive both side by side.
"""


class ReferenceQueues:
    """Per-item queues of clock stamps, newest first. The clock counts
    updates, and an item's queue holds the clock values of its last qcap
    observations. PR = (stamps - 1) / (clock - oldest stamp): the paper's
    count-cell estimate (cells - 1) / (total count - 1), since the cells
    would total clock - oldest + 1. A heart-beat prune keeps the map
    bounded: queues whose newest stamp is s2 or more steps old are
    dropped, and when the map reaches 2*s1 entries it is cut back to the
    s1 freshest."""

    def __init__(self, qcap=3, s1=100, s2=100000, prune_every=1000):
        self.qcap = qcap
        self.s1 = s1
        self.s2 = s2
        self.prune_every = prune_every
        self.q_map = {}
        self.clock = 0

    def pr_count(self, i):
        """(PR, count) for item i, or (0.0, 0) if it has no queue. The
        count is the steps since the oldest stamp, inclusive; PR is 0.0
        while the queue holds a single stamp (grace period)."""
        q = self.q_map.get(i)
        if q is None:
            return 0.0, 0
        count = self.clock - q[-1] + 1
        if len(q) <= 1:
            return 0.0, count
        return (len(q) - 1) / (count - 1), count

    def predict(self):
        # pr_count's PR for every item past its grace period, inlined:
        # this runs over the whole map on every step.
        c = self.clock
        return {i: (len(q) - 1) / (c - q[-1])
                for i, q in self.q_map.items() if len(q) > 1}

    def update(self, o):
        self.clock += 1
        q = self.q_map.setdefault(o, [])
        q.insert(0, self.clock)
        if len(q) > self.qcap:
            q.pop()
        if self.prune_every and self.clock % self.prune_every == 0:
            self.prune()

    def prune(self):
        """Returns the set of item ids dropped."""
        dropped = {i for i, q in self.q_map.items()
                   if self.clock - q[0] >= self.s2}
        for i in dropped:
            del self.q_map[i]
        if len(self.q_map) >= 2 * self.s1:
            # Freshest first: newest stamp, ties to smaller id.
            keep = sorted(self.q_map, key=lambda i: (-self.q_map[i][0], i))
            for i in keep[self.s1:]:
                dropped.add(i)
                del self.q_map[i]
        return dropped
