"""Count-cell reference for smatrack.predictors.Queues, and pr_count, a
reading of a Queues' (PR, count) from its stamps alone.

This is the paper's queue layout, and the one queue oracle: per item, a
list of count cells, newest (cell0) first, where each cell holds one
positive plus the negatives observed while it was the newest cell.
Every update touches every queue. The stamp-based Queues must match it
exactly, prune included: scripts/crossver.py and C8 compare the two step
by step, and ReferenceDyal reads its queues from it. A queue of stamps
s0 > s1 > ... at clock c has the cells c - s0 + 1, s0 - s1, s1 - s2, ...
"""


class CountCellQueues:
    def __init__(self, qcap=3, s1=100, s2=100000, prune_every=1000):
        self.qcap = qcap
        self.s1 = s1
        self.s2 = s2
        self.prune_every = prune_every
        self.cells = {}
        self.clock = 0

    def pr_count(self, i):
        cells = self.cells.get(i)
        if cells is None:
            return 0.0, 0
        count = sum(cells)
        if len(cells) <= 1:
            return 0.0, count
        return (len(cells) - 1) / (count - 1), count

    def predict(self):
        out = {}
        for i in self.cells:
            pr = self.pr_count(i)[0]
            if pr > 0.0:
                out[i] = pr
        return out

    def update(self, o):
        for i, cells in self.cells.items():
            if i != o:
                cells[0] += 1  # negative update
        cells = self.cells.setdefault(o, [])
        cells.insert(0, 1)  # positive update
        del cells[self.qcap:]
        self.clock += 1
        if self.prune_every and self.clock % self.prune_every == 0:
            self.prune()

    def prune(self):
        dropped = {i for i, cells in self.cells.items()
                   if cells[0] > self.s2}
        for i in dropped:
            del self.cells[i]
        if len(self.cells) >= 2 * self.s1:
            # Freshest first: smallest cell0 count, ties to smaller id.
            keep = sorted(self.cells, key=lambda i: (self.cells[i][0], i))
            for i in keep[self.s1:]:
                dropped.add(i)
                del self.cells[i]
        return dropped


def pr_count(queues, i):
    """(PR, count) for item i of a stamp-based Queues, or (0.0, 0) if it
    has no queue, read from its stamps and clock alone, never from q_map.
    The count is the steps since the oldest stamp, inclusive: the total
    of the item's count cells. PR is 0.0 while the queue holds a single
    stamp (grace period)."""
    q = queues.stamps.get(i)
    if q is None:
        return 0.0, 0
    count = queues.clock - q[-1] + 1
    if len(q) <= 1:
        return 0.0, count
    return (len(q) - 1) / (count - 1), count


def matches(queues, cells):
    """True if a stamp-based Queues and a CountCellQueues hold the same
    items with the same (PR, count) and the same prediction."""
    return (queues.stamps.keys() == set(cells.cells)
            and all(pr_count(queues, i) == cells.pr_count(i)
                    for i in cells.cells)
            and queues.predict() == cells.predict())
