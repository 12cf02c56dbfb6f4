"""Sparse probability maps, the filter-and-cap transform and the
distortion threshold.

A probability map ("PR map") is a plain dict: item id -> probability
weight. Zero-valued entries are never stored, so membership doubles as
a positivity test. A semi-distribution (SD) is a PR map whose values
sum to at most 1; the remainder u = 1 - sum is implicit noise mass.
"""

from dataclasses import dataclass

# Slack on the SD sum invariant. Violations beyond this are programming
# errors, not data errors.
SUM_SLACK = 1e-12


class ConfigError(ValueError):
    """An option or config value outside its domain (CLI exit code 2)."""


@dataclass(frozen=True)
class FcConfig:
    """The scoring thresholds, in 0 < p_ns <= p_min < 1, so that the
    bounded log-loss lies in [0, -ln p_ns]."""
    p_min: float = 0.01  # filter threshold: entries below this are dropped
    p_ns: float = 0.01   # mass reserved for not-seen/noise items

    def __post_init__(self):
        if not 0.0 < self.p_ns <= self.p_min < 1.0:
            raise ConfigError("scoring thresholds need 0 < p_ns <= p_min "
                              "< 1, got p_ns=%r, p_min=%r"
                              % (self.p_ns, self.p_min))


def filter_cap(m, cfg=FcConfig()):
    """Filter-and-cap: drop sub-p_min entries, then scale down if needed
    so the sum is at most 1 - p_ns, dropping entries the scaling takes
    below p_min. Output is a semi-distribution with min value >= p_min,
    in the input's order; idempotent."""
    # Loops, not comprehensions: before Python 3.12 a comprehension is a
    # function call, which is most of the work on a two-entry map.
    p_min = cfg.p_min
    # An in-order running sum, as evaluation.score's, and not sum(),
    # which compensates its rounding from Python 3.12 on.
    q = {}
    s = 0.0
    for i, v in m.items():
        if v >= p_min:
            q[i] = v
            s += v
    if s <= 1.0 - cfg.p_ns + SUM_SLACK:
        return q
    alpha = (1.0 - cfg.p_ns) / s
    out = {}
    for i, v in q.items():
        v = alpha * v
        if v >= p_min:
            out[i] = v
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

