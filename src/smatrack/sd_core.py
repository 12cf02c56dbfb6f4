"""Sparse probability maps: the slack on their sum, the config error and
the distortion threshold. `evaluation.score` filters and caps a map as
it scores it.

A probability map ("PR map") is a plain dict: item id -> probability
weight. Zero-valued entries are never stored, so membership doubles as
a positivity test. A semi-distribution (SD) is a PR map whose values
sum to at most 1; the remainder u = 1 - sum is implicit noise mass.
"""

# Slack on the SD sum invariant. Violations beyond this are programming
# errors, not data errors.
SUM_SLACK = 1e-12


class ConfigError(ValueError):
    """An option or config value outside its domain (CLI exit code 2)."""


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

