import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smatrack.sd_core import FcConfig, distortion_threshold, filter_cap
import reference_scoring

CFG = FcConfig(0.01, 0.01)


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


# --- filter_cap -------------------------------------------------------------

def test_filter_cap_filter_only():
    # an entry at exactly p_min is kept
    out = filter_cap({1: 0.6, 2: 0.005, 3: 0.01}, CFG)
    assert out == {1: 0.6, 3: 0.01}


def test_filter_cap_empty():
    assert filter_cap({}, CFG) == {}


def test_filter_cap_drops_scaled_entry_below_p_min():
    # filtered sum 1.0001 > 0.99; 0.0101 scales to about 0.009998
    out = filter_cap({1: 0.99, 2: 0.0101}, CFG)
    assert list(out) == [1]
    assert out[1] == 0.99 * (0.99 / (0.99 + 0.0101))


def test_filter_cap_keeps_insertion_order():
    m = {5: 0.3, 1: 0.2, 9: 0.001, 3: 0.6}
    assert list(filter_cap(m, CFG)) == [5, 1, 3]       # scaled
    assert list(filter_cap({5: 0.3, 1: 0.2, 9: 0.001}, CFG)) == [5, 1]


def test_filter_cap_already_capped():
    assert filter_cap({1: 0.5, 2: 0.2}, CFG) == {1: 0.5, 2: 0.2}


def test_filter_cap_scales_down():
    # filtered sum 1.1, alpha = 0.99/1.1 = 0.9
    out = filter_cap({1: 0.6, 2: 0.5, 3: 0.005}, CFG)
    assert set(out) == {1, 2}
    assert close(out[1], 0.54) and close(out[2], 0.45)


def test_filter_cap_point_mass():
    out = filter_cap({1: 1.0}, CFG)
    assert close(out[1], 0.99)


pr_maps = st.dictionaries(st.integers(min_value=0, max_value=50),
                          st.floats(min_value=0.0, max_value=1.0,
                                    allow_nan=False),
                          max_size=40)


@settings(max_examples=500, deadline=None)
@given(pr_maps)
def test_filter_cap_postconditions(m):
    out = filter_cap(m, CFG)
    assert all(v >= CFG.p_min for v in out.values())
    assert sum(out.values()) <= 1.0 - CFG.p_ns + 1e-12


# p_min at the smallest positive float filters out only zeros; p_ns = 0.2
# scales most maps down.
@settings(max_examples=500, deadline=None)
@given(pr_maps, st.sampled_from([FcConfig(0.01, 0.01),
                                 FcConfig(5e-324, 5e-324),
                                 FcConfig(0.2, 0.2), FcConfig(0.05, 0.001)]))
def test_filter_cap_matches_two_pass_reference(m, cfg):
    out = filter_cap(m, cfg)
    want = reference_scoring.filter_cap(m, cfg)
    assert out == want and list(out) == list(want)


@settings(max_examples=300, deadline=None)
@given(pr_maps)
def test_filter_cap_idempotent(m):
    once = filter_cap(m, CFG)
    assert filter_cap(once, CFG) == once


def test_filter_cap_equality_is_already_capped():
    # filtered sum exactly 1 - p_ns: no rescaling happens
    m = {1: 0.5, 2: 0.49}
    assert filter_cap(m, CFG) == m


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

