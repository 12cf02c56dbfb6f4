import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smatrack.evaluation import score
from smatrack.harness import EvalConfig
import reference_scoring
from reference_scoring import distortion_threshold

CFG = EvalConfig(0.01, 0.01)


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


def sc(o, m, marked_ns=False, cfg=CFG):
    return score(o, m, marked_ns, cfg, -math.log(cfg.p_ns))


# --- filter-and-cap, as evaluation.score applies it --------------------------

def test_filter_cap_filter_only():
    # an entry at exactly p_min is kept; one below it scores as a miss
    m = {1: 0.6, 2: 0.005, 3: 0.01}
    assert sc(3, m)[0] == -math.log(0.01)
    assert sc(2, m)[0] == -math.log(CFG.p_ns)


def test_filter_cap_empty():
    assert sc(1, {}) == (-math.log(CFG.p_ns), 1.0)
    assert sc(1, {}, True) == (0.0, 1.0)  # all the mass is unallocated


def test_filter_cap_drops_scaled_entry_below_p_min():
    # filtered sum 1.0001 > 0.99; 0.0101 scales to about 0.009998, a miss
    m = {1: 0.99, 2: 0.0101}
    assert sc(2, m)[0] == -math.log(CFG.p_ns)
    assert sc(1, m)[0] == -math.log(0.99 * (0.99 / (0.99 + 0.0101)))


def test_filter_cap_already_capped():
    m = {1: 0.5, 2: 0.2}
    assert sc(1, m) == (-math.log(0.5), 0.5 ** 2 + 0.2 ** 2)
    assert sc(3, m, True)[0] == -math.log(1.0 - (0.5 + 0.2))


def test_filter_cap_scales_down():
    # filtered sum 1.1, alpha = 0.99/1.1 = 0.9; 0.005 is dropped
    m = {1: 0.6, 2: 0.5, 3: 0.005}
    loss, quad = sc(1, m)
    assert close(loss, -math.log(0.54))
    assert close(quad, 0.46 ** 2 + 0.45 ** 2)
    assert sc(3, m)[0] == -math.log(CFG.p_ns)


def test_filter_cap_point_mass():
    assert close(sc(1, {1: 1.0})[0], -math.log(0.99))


def test_filter_cap_equality_is_already_capped():
    # filtered sum exactly 1 - p_ns: no rescaling happens
    m = {1: 0.5, 2: 0.49}
    assert sc(1, m) == (-math.log(0.5), 0.5 ** 2 + 0.49 ** 2)


pr_maps = st.dictionaries(st.integers(min_value=0, max_value=50),
                          st.floats(min_value=0.0, max_value=1.0,
                                    allow_nan=False),
                          max_size=40)


@settings(max_examples=500, deadline=None)
@given(pr_maps)
def test_filter_cap_postconditions(m):
    # the oracle's capped map, which score must equal
    out = reference_scoring.filter_cap(m, CFG)
    assert all(v >= CFG.p_min for v in out.values())
    assert sum(out.values()) <= 1.0 - CFG.p_ns + 1e-12


# p_min at the smallest positive float filters out only zeros; p_ns = 0.2
# scales most maps down. The examples are the worked cases above, and a
# scaling that halves 0.5 to exactly p_min = 0.25.
@settings(max_examples=500, deadline=None)
@given(pr_maps, st.sampled_from([EvalConfig(0.01, 0.01),
                                 EvalConfig(5e-324, 5e-324),
                                 EvalConfig(0.2, 0.2),
                                 EvalConfig(0.05, 0.001)]))
@example({1: 0.6, 2: 0.005, 3: 0.01}, CFG)
@example({1: 0.5, 2: 0.49}, CFG)
@example({1: 0.99, 2: 0.0101}, CFG)
@example({1: 0.6, 2: 0.5, 3: 0.005}, CFG)
@example({}, CFG)
@example({1: 1.0, 2: 0.5}, EvalConfig(0.25, 0.25))
def test_score_matches_two_pass_reference(m, cfg):
    for o in list(m) + [-1]:
        for ns in (False, True):
            assert sc(o, m, ns, cfg) == (
                reference_scoring.logloss_rule_ns(o, m, ns, cfg),
                reference_scoring.quad_rule(m, o, cfg))


@settings(max_examples=300, deadline=None)
@given(pr_maps)
def test_filter_cap_idempotent(m):
    # scoring the capped map charges what scoring the raw map does
    once = reference_scoring.filter_cap(m, CFG)
    for o in list(m) + [-1]:
        for ns in (False, True):
            assert sc(o, once, ns) == sc(o, m, ns)


# --- distortion threshold ---------------------------------------------------

def test_distortion_threshold_reference_values():
    assert close(distortion_threshold(0.01), 0.027, 1e-3)
    assert close(distortion_threshold(0.001), 0.00272, 1e-4)
    assert close(distortion_threshold(0.1), 0.24, 2e-3)


def test_distortion_threshold_bracket():
    import numpy as np
    # The 2p <= p0 <= ep bracket holds in the small-p_ns regime; it
    # degrades as p_ns approaches 0.25 (where p0 hits exactly 0.5).
    for p in np.geomspace(1e-4, 0.2, 100):
        p0 = distortion_threshold(float(p))
        assert 2 * p - 1e-9 <= p0 <= math.e * p + 1e-9


def test_distortion_threshold_solves_equation():
    for p_ns in (0.01, 0.001, 0.1):
        p0 = distortion_threshold(p_ns)
        assert close(p0 * (1 - p0) ** ((1 - p0) / p0), p_ns, 1e-8)


def test_distortion_threshold_rejects_out_of_range():
    for bad in (0.0, 0.5, -0.1, 0.9):
        with pytest.raises(ValueError):
            distortion_threshold(bad)

