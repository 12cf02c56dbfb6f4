import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smatrack.sd_core import (FcConfig, allocated, augment,
                              distortion_threshold, entropy, filter_cap, kl,
                              kl_bounded, kl_ns, logloss_ns_expected,
                              unallocated)
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
    assert allocated(out) <= 1.0 - CFG.p_ns + 1e-12


@settings(max_examples=500, deadline=None)
@given(pr_maps, st.sampled_from([FcConfig(0.01, 0.01), FcConfig(0.0, 0.2),
                                 FcConfig(0.05, 0.001)]))
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


# --- augment / entropy ------------------------------------------------------

def test_augment_adds_reserved_item():
    out = augment({1: 0.7, 2: 0.1})
    assert close(out[0], 0.2) and out[1] == 0.7 and out[2] == 0.1


def test_augment_full_distribution_omits_zero():
    assert augment({1: 0.5, 2: 0.5}) == {1: 0.5, 2: 0.5}


def test_augment_symmetric_split():
    assert augment({1: 0.5}) == {1: 0.5, 0: 0.5}


def test_augment_empty_rejected():
    with pytest.raises(ValueError):
        augment({})


def test_entropy_point_mass():
    assert entropy({1: 1.0}) == 0.0


def test_entropy_uniform_pair():
    assert close(entropy({1: 0.5, 2: 0.5}), math.log(2))


def test_entropy_derived_value():
    # -(0.78 ln 0.78 + 0.02 ln 0.02)
    assert close(entropy({1: 0.78, 2: 0.02}), 0.2721, 1e-4)


def test_entropy_empty_rejected():
    with pytest.raises(ValueError):
        entropy({})


# --- kl family --------------------------------------------------------------

def test_kl_self_is_zero():
    p = {1: 0.4, 2: 0.3, 3: 0.2}
    assert close(kl(p, p), 0.0)


def test_kl_derived_value():
    v = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
    assert close(kl({1: 0.5, 2: 0.5}, {1: 0.25, 2: 0.75}), v)


def test_kl_disjoint_support_infinite():
    assert kl({1: 0.5}, {2: 0.5}) == math.inf


def test_kl_bounded_reduces_to_kl_at_zero_floor():
    p = {1: 0.6, 2: 0.3}
    assert close(kl_bounded(p, p, 0.0), kl(p, p))


def test_kl_bounded_empty_q():
    assert close(kl_bounded({1: 1.0}, {}, 0.01), -math.log(0.01))


def test_kl_bounded_uniform_self_negative():
    # uniform over k items with k * p_ns > 1 scores -ln(k * p_ns)
    k, p_ns = 200, 0.01
    p = {i: 1.0 / k for i in range(1, k + 1)}
    assert close(kl_bounded(p, p, p_ns), -math.log(k * p_ns), 1e-9)


def test_kl_ns_identity_above_floor():
    # an SD with all entries above p0 and mass within the cap scores 0
    # against itself (filter-and-cap leaves it untouched)
    p = {1: 0.5, 2: 0.3, 3: 0.19}
    assert close(kl_ns(p, p, CFG), 0.0)


def test_kl_ns_empty_q():
    assert close(kl_ns({1: 1.0}, {}, CFG), -math.log(0.01), 1e-9)


def test_logloss_ns_self_worked_example():
    p = {1: 0.78, 2: 0.02}
    assert close(logloss_ns_expected(p, p, CFG), 0.594, 5e-4)


# --- randomized kl properties ----------------------------------------------

def _random_sd(rng, max_items=8, total=None):
    k = rng.integers(1, max_items + 1)
    raw = rng.random(k) + 1e-3
    mass = total if total is not None else rng.uniform(0.2, 1.0)
    raw = raw / raw.sum() * mass
    return {int(i + 1): float(v) for i, v in enumerate(raw)}


def test_kl_nonnegative_when_q_mass_not_larger():
    import numpy as np
    rng = np.random.default_rng(7)
    for _ in range(2000):
        p = _random_sd(rng)
        # Q on the same support with no more total mass than P
        q = _random_sd(rng, total=allocated(p) * rng.uniform(0.1, 1.0))
        while len(q) < len(p):
            q[len(q) + 1] = 1e-9
        q = {i: q[i] for i in p}
        assert kl(p, q) >= -1e-12


def test_kl_scaling_offset_identity():
    import numpy as np
    rng = np.random.default_rng(8)
    for _ in range(500):
        p = _random_sd(rng)
        q = {i: float(rng.uniform(0.01, 1.0 / len(p))) for i in p}
        alpha = rng.uniform(0.1, 1.0)
        qs = {i: alpha * v for i, v in q.items()}
        lhs = kl(p, qs)
        rhs = kl(p, q) + math.log(1.0 / alpha) * allocated(p)
        assert close(lhs, rhs, 1e-9)


def test_entropy_plus_kl_decomposition():
    import numpy as np
    rng = np.random.default_rng(9)
    for _ in range(500):
        p = _random_sd(rng, total=1.0)  # a full distribution
        q = {i: float(rng.uniform(0.01, 1.0 / len(p))) for i in p}
        log_loss = -sum(p[i] * math.log(q[i]) for i in p)
        assert close(log_loss, entropy(p) + kl(p, q), 1e-9)


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


def test_unallocated():
    assert close(unallocated({1: 0.7, 2: 0.1}), 0.2)
