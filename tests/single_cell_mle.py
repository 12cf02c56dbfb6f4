"""Single-cell queue estimator, used by the tests only.

The one-cell variant of the paper's queues: PR is the maximum-likelihood
1/c, where c counts the steps since the item was last observed. It is
not a practical predictor (every update touches every item), but its PR
spread has a worst-case bound (fewer than 1/p items above p) that C10
checks next to the qcap=2 queues' bound.
"""


class SingleCellMle:
    """One-cell variant: PR is the maximum-likelihood 1/c where c counts
    the steps since the item was last observed (inclusive). Kept for its
    worst-case PR-spread properties; not a practical predictor."""

    def __init__(self):
        self.c_map = {}

    def predict(self):
        return {i: 1.0 / c for i, c in self.c_map.items()}

    def update(self, o):
        for i in self.c_map:
            if i != o:
                self.c_map[i] += 1
        self.c_map[o] = 1
