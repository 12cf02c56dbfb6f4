"""Sparse probability maps: the slack on their sum, the config error and
its integer check. `evaluation.score` filters and caps a map as it
scores it.

A probability map ("PR map") is a plain dict: item id -> probability
weight. Zero-valued entries are never stored, so membership doubles as
a positivity test. A semi-distribution (SD) is a PR map whose values
sum to at most 1; the remainder u = 1 - sum is implicit noise mass.
"""

import numbers

# Slack on the SD sum invariant. Violations beyond this are programming
# errors, not data errors.
SUM_SLACK = 1e-12


class ConfigError(ValueError):
    """An option or config value outside its domain (CLI exit code 2)."""


def need_int(name, value, low):
    """ConfigError unless value is an integer >= low. A bool is refused:
    True would pass as 1."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < low):
        raise ConfigError("%s must be an integer >= %d, got %r"
                          % (name, low, value))
