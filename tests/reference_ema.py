"""Reference Ema for smatrack.predictors.Ema.

This is Ema as first written: every update weakens every stored weight
and no weight is ever dropped. The Ema in src/ keeps its weights on
forward decay and drops those below EMA_FLOOR when it folds; the tests
drive both side by side and bound how far the two may drift apart.
EMA_CASES lists the Ema arguments they run, each with the ReferenceEma
keywords it must match.
"""

from smatrack.predictors import decay_rate

# Ema arguments -> the ReferenceEma keywords it must match: a fixed
# rate beta, and harmonic EMA, which starts at 1 and decays to beta_min
EMA_CASES = ([((b,), dict(beta=b)) for b in (0.001, 0.01, 0.05, 0.2, 0.5)] +
             [((1.0, m), dict(harmonic=True, beta_min=m))
              for m in (0.0, 0.001, 0.01, 0.1)])


class ReferenceEma:
    """Sparse EMA over a growing item set: weaken every weight by
    (1 - beta), then boost the observed item by beta. The weight map is
    always a semi-distribution. With harmonic=True the rate decays as
    1/(1/beta + 1) down to beta_min after every update."""

    def __init__(self, beta=0.01, harmonic=False, beta_min=0.001, beta0=1.0):
        self.harmonic = harmonic
        self.beta_min = beta_min
        self.beta = beta0 if harmonic else beta
        self.weights = {}

    def predict(self):
        return dict(self.weights)

    def update(self, o):
        b = self.beta
        w = self.weights
        if b >= 1.0:
            w.clear()  # everything else would weaken to exactly 0
        else:
            for i in w:
                w[i] *= (1.0 - b)
        w[o] = w.get(o, 0.0) + b
        if self.harmonic:
            self.beta = decay_rate(b, self.beta_min)
