import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smatrack import harness, synth
from smatrack.evaluation import (Referee, Schedule, dev_ratio,
                                 logloss_rule_ns, multidev, optimal_logloss,
                                 quad_rule, sign_test)
from smatrack.harness import EvalConfig, run_prequential
from smatrack.sd_core import SUM_SLACK, ConfigError
import reference_scoring
from reference_scoring import distortion_threshold, schedule_at

CFG = EvalConfig(0.01, 0.01)

# The scoring thresholds' whole domain, 0 < p_ns <= p_min < 1.
fc_configs = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).flatmap(
    lambda p_min: st.builds(EvalConfig, st.just(p_min),
                            st.floats(0.0, p_min, exclude_min=True)))


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


# --- referee ----------------------------------------------------------------

def test_referee_first_occurrences_ns():
    r = Referee(c_ns=2)
    assert r.is_ns(7) is True     # prior count 0
    assert r.is_ns(7) is True     # prior count 1
    assert r.is_ns(7) is True     # prior count 2
    assert r.is_ns(7) is False    # prior count 3


def test_referee_zero_threshold():
    r = Referee(c_ns=0)
    assert r.is_ns(1) is True
    assert r.is_ns(1) is False


def test_referee_window_eviction():
    r = Referee(c_ns=0, window=2)
    r.is_ns(1)
    r.is_ns(2)
    r.is_ns(3)  # evicts the count for item 1
    assert r.recent_freq == {2: 1, 3: 1}
    assert r.is_ns(1) is True  # forgotten, noise again


@pytest.mark.parametrize("c_ns", (0, 2))
@pytest.mark.parametrize("w", (1, 2, 3, 7))
def test_referee_window_matches_brute_force(w, c_ns):
    # small ids, so items leave the window and come back, and an item is
    # often observed on the step that evicts it
    rng = np.random.default_rng(w * 10 + c_ns)
    r = Referee(c_ns=c_ns, window=w)
    seen = []
    for o in rng.integers(0, 5, size=400).tolist():
        assert r.is_ns(o) is (seen[-w:].count(o) <= c_ns)
        seen.append(o)
        assert all(c > 0 for c in r.recent_freq.values())
        assert r.recent_freq == {i: seen[-w:].count(i) for i in seen[-w:]}


def test_referee_rejects_window_below_one():
    # the window counts observations, so a fractional one is out of its
    # domain
    for w in (0, -1, 2.5, True):
        with pytest.raises(ConfigError) as e:
            Referee(window=w)
        assert str(e.value) == ("referee window must be an integer >= 1, "
                                "got %r" % w)
    assert Referee(window=None).window is None
    assert Referee(window=1).is_ns(5) is True


def test_referee_rejects_negative_c_ns():
    # c_ns = -1 would mark nothing as noise, and inf every observation;
    # c_ns counts occurrences, so it is an integer. EvalConfig's check is
    # this one, with the message the CLI prints. A bool, which passed as
    # 1 or 0, is refused
    for c_ns in (-1, math.nan, 2.5, math.inf, True, False):
        with pytest.raises(ConfigError) as e:
            Referee(c_ns=c_ns)
        assert str(e.value) == "c_ns must be an integer >= 0, got %r" % c_ns
    for c_ns in (-1, 2.5, math.inf, True):
        with pytest.raises(ConfigError) as e:
            EvalConfig(c_ns=c_ns)
        assert str(e.value) == "c_ns must be an integer >= 0, got %r" % c_ns
    assert Referee(c_ns=np.int64(0)).is_ns(5)
    with pytest.raises(ConfigError) as e:
        EvalConfig(window=0)
    assert str(e.value) == "referee window must be an integer >= 1, got 0"


def test_referee_window_count_consistency():
    rng = np.random.default_rng(0)
    w = 50
    r = Referee(c_ns=2, window=w)
    for t in range(1, 500):
        r.is_ns(int(rng.integers(0, 10)))
        assert sum(r.recent_freq.values()) == min(t, w)


# --- log-loss rule ----------------------------------------------------------

def test_logloss_hit():
    assert close(logloss_rule_ns(1, {1: 0.5}, False, CFG), math.log(2))


def test_logloss_miss_not_ns():
    assert close(logloss_rule_ns(1, {}, False, CFG), -math.log(0.01))


def test_logloss_miss_marked_ns():
    assert close(logloss_rule_ns(2, {1: 0.5}, True, CFG), math.log(2))


def test_logloss_bounded_fuzz():
    rng = np.random.default_rng(1)
    hi = -math.log(CFG.p_ns)
    for _ in range(5000):
        k = rng.integers(0, 6)
        q = {int(i): float(v) for i, v in
             enumerate(rng.random(k) / max(k, 1))}
        q = {i: v for i, v in q.items() if v > 0}
        o = int(rng.integers(0, 8))
        v = logloss_rule_ns(o, q, bool(rng.random() < 0.5), CFG)
        assert -1e-12 <= v <= hi + 1e-12


def test_logloss_noise_miss_clamped():
    # the cap keeps a sum up to SUM_SLACK past 1 - p_ns, so the
    # unallocated mass can fall below p_ns (here to 0, which made -ln
    # fail); a noise-marked miss still scores at most -ln p_ns
    tiny = EvalConfig(0.01, 1e-13)
    assert logloss_rule_ns(2, {1: 1.0}, True, tiny) == -math.log(1e-13)
    q = {1: 1.0 - CFG.p_ns + SUM_SLACK / 2}
    assert reference_scoring.filter_cap(q, CFG) == q
    assert logloss_rule_ns(2, q, True, CFG) == -math.log(CFG.p_ns)


@settings(max_examples=300, deadline=None)
@given(fc_configs,
       st.dictionaries(st.integers(0, 5),
                       st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                                 st.sampled_from((1.0, 0.99, 0.5))),
                       max_size=5),
       st.integers(0, 6), st.booleans())
def test_logloss_within_bound(cfg, q, o, marked_ns):
    assert 0.0 <= logloss_rule_ns(o, q, marked_ns, cfg) <= \
        -math.log(cfg.p_ns)


def test_fc_config_domain():
    # outside 0 < p_ns <= p_min < 1 a miss would score -ln 0, or a hit
    # on a weight below p_ns would score past -ln p_ns
    nan = float("nan")
    for p_min, p_ns in ((0.01, 0.0), (0.01, -0.1), (0.0, 0.0),
                        (0.005, 0.01), (0.01, 0.5), (1.0, 0.01), (1.0, 1.0),
                        (-0.01, -0.02), (nan, 0.01), (0.01, nan)):
        with pytest.raises(ConfigError, match="0 < p_ns <= p_min < 1"):
            EvalConfig(p_min, p_ns)
    # domain edges
    for p_min, p_ns in ((0.01, 0.01), (5e-324, 5e-324), (0.999, 0.999),
                        (0.999, 5e-324)):
        EvalConfig(p_min, p_ns)
    # one exception class, which the CLI turns into exit code 2
    assert synth.ConfigError is harness.ConfigError is ConfigError
    assert issubclass(ConfigError, ValueError)


def expected_logloss(p, q, cfg):
    """Mean of logloss_rule_ns for predicting q when the SD p draws the
    outcome: a hit on each salient i, not marked as noise, with weight
    p[i], and a noise-marked miss with the unallocated mass u(p)."""
    noise = -1  # an id no map here holds
    hits = sum(v * logloss_rule_ns(i, q, False, cfg) for i, v in p.items())
    u = 1.0 - sum(p.values())
    return hits + u * logloss_rule_ns(noise, q, True, cfg)


def test_expected_logloss_worked_example():
    # -(0.78 ln 0.78 + 0.02 ln 0.02 + 0.2 ln 0.2)
    p = {1: 0.78, 2: 0.02}
    assert close(expected_logloss(p, p, CFG), 0.594, 5e-4)


@pytest.mark.parametrize("p_ns", [0.01, 0.001, 0.1])
def test_distortion_threshold_is_where_noise_pays(p_ns):
    # below p0 an item costs less predicted as noise than at its own
    # probability; above p0 it costs more
    cfg = EvalConfig(p_ns, p_ns)
    p0 = distortion_threshold(p_ns)
    for p, keep_costs_more in ((p0 * (1 - 1e-3), True),
                               (p0 * (1 + 1e-3), False)):
        keep = expected_logloss({1: p}, {1: p}, cfg)
        drop = expected_logloss({1: p}, {}, cfg)
        assert (keep > drop) is keep_costs_more, (p, keep, drop)

class FixedPredictor:
    def __init__(self, q):
        self.q = q

    def predict(self):
        return dict(self.q)

    def update(self, o):
        pass


def avg_logloss(q, obs, c_ns):
    """Mean bounded log-loss of predicting q on every step, from
    run_prequential; asserts it equals the mean of logloss_rule_ns."""
    r = Referee(c_ns=c_ns)
    total = 0.0
    for o in obs:
        total += logloss_rule_ns(o, q, r.is_ns(o), CFG)
    ecfg = EvalConfig(c_ns=c_ns)
    m = run_prequential(FixedPredictor(q), obs, ecfg,
                        reference_scoring.noise_marks(obs, ecfg))
    assert m["avg_logloss_ns"] == total / len(obs)
    return total / len(obs)


def test_avg_logloss_all_ns_empty_predictor():
    assert avg_logloss({}, [1, 1, 1], 2) == 0.0


def test_avg_logloss_fourth_hit_charged():
    assert close(avg_logloss({}, [1, 1, 1, 1], 2), -math.log(0.01) / 4)


def test_avg_logloss_perfect_predictor_pays_cap():
    # every step is a hit, so the referee's marks do not matter
    assert close(avg_logloss({1: 1.0}, [1, 1, 1], 0), -math.log(0.99))


# --- quadratic loss ---------------------------------------------------------

def test_quad_capped_point_mass():
    assert close(quad_rule({1: 1.0}, 1, CFG), 0.01 ** 2)


def test_quad_empty():
    assert quad_rule({}, 1, CFG) == 1.0


def test_quad_miss():
    assert close(quad_rule({1: 0.5}, 2, CFG), 1.0 + 0.25)


def test_quad_equals_distance_to_kronecker():
    # mean quad loss under iid draws from P matches the mean squared
    # distance between Q' and the one-hot vectors
    rng = np.random.default_rng(2)
    p = {1: 0.5, 2: 0.3, 3: 0.2}
    q = {1: 0.4, 2: 0.35, 3: 0.1}
    qp = reference_scoring.filter_cap(q, CFG)
    items = list(p)
    probs = [p[i] for i in items]
    draws = rng.choice(items, p=probs, size=200000)
    losses = np.array([quad_rule(q, int(o), CFG) for o in items])
    emp = np.array([losses[items.index(int(o))] for o in draws[:1000]])
    expect = sum(p[i] * quad_rule(q, i, CFG) for i in items)
    # closed form: sum of squared gaps weighted by outcome probability
    direct = 0.0
    for o in items:
        d = sum((qp.get(i, 0.0) - (1.0 if i == o else 0.0)) ** 2
                for i in set(items) | set(qp))
        direct += p[o] * d
    assert close(expect, direct, 1e-9)
    se = emp.std(ddof=1) / math.sqrt(len(emp))
    assert abs(emp.mean() - expect) <= 3 * se + 1e-9


# --- deviation --------------------------------------------------------------

# An estimate deviates at threshold d iff dev_ratio(p_hat, tp) > d.

def test_deviates_zero_estimate():
    assert (dev_ratio(0.0, 0.1) > 2) == 1


def test_deviates_exact():
    assert (dev_ratio(0.1, 0.1) > 1.5) == 0


def test_deviates_ratio():
    assert (dev_ratio(0.21, 0.1) > 2) == 1
    assert (dev_ratio(0.19, 0.1) > 2) == 0


def test_deviates_bad_tp():
    with pytest.raises(ValueError):
        dev_ratio(0.1, 0.0) > 2


def test_deviates_ratio_equal_to_d_does_not_deviate():
    # 0.5 / 0.25 is exactly 2.0, in both directions
    assert dev_ratio(0.5, 0.25) == dev_ratio(0.25, 0.5) == 2.0
    assert (dev_ratio(0.5, 0.25) > 2.0) == (dev_ratio(0.25, 0.5) > 2.0) == 0
    assert multidev(1, {1: 0.5}, {1: 0.25}) == (2.0, 2.0)
    assert (dev_ratio(0.5, 0.25) > 1.999) == 1


def test_dev_ratio_zero_estimate_is_inf():
    assert dev_ratio(0.0, 0.1) == math.inf
    assert multidev(1, {}, {1: 0.1}) == (math.inf, math.inf)


def test_dev_ratio_takes_the_larger_ratio():
    # one division, on p_hat's side of tp, gives max() of the two ratios
    # bit for bit, in dev_ratio and in multidev's inlined copy: subnormals,
    # neighbours 1 ulp apart, equal values and ratios that overflow
    base = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-10, 0.01,
            1 / 3, 0.5, 0.7, 1.0, 1.5, 1e10, 1e300, 1.7976931348623157e308]
    grid = {y for x in base for y in (
        x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))}
    grid -= {0.0, math.inf}
    for tp in grid:
        for p in grid:
            want = max(tp / p, p / tp)
            assert dev_ratio(p, tp) == want, (p, tp)
            assert multidev(1, {1: p}, {1: tp}) == (want, want), (p, tp)


def test_multidev_any_missing_item():
    p = {1: 0.5, 2: 0.3}
    worst, obs = multidev(1, {1: 0.5}, p)
    assert worst > 1.5 and not obs > 1.5


def test_multidev_obs_noise_agreement():
    p = {1: 0.5}
    assert not multidev(99, {}, p)[1] > 1.5
    assert multidev(99, {99: 0.05}, p)[1] > 1.5
    # a noise observation at exactly p_min deviates, one below does not
    assert multidev(99, {99: 0.01}, p, p_min=0.01)[1] > 1.5
    assert not multidev(99, {99: 0.0099}, p, p_min=0.01)[1] > 1.5


def test_multidev_exact_match():
    p = {1: 0.5, 2: 0.3}
    assert multidev(1, dict(p), p) == (1.0, 1.0)


def test_multidev_empty_maps():
    assert multidev(1, {}, {}) == (0.0, 0.0)
    assert multidev(1, {1: 0.5}, {}) == (0.0, math.inf)


def test_multidev_bad_tp():
    with pytest.raises(ValueError):
        multidev(1, {1: 0.5}, {1: 0.5, 2: 0.0})


@pytest.mark.parametrize("o", [1, 2, 3, 99])
def test_multidev_matches_per_threshold_reference(o):
    rng = np.random.default_rng(o)
    ds = (1.0, 1.25, 1.5, 2.0, 3.0, 1e6)
    for _ in range(300):
        p = {i: float(v) for i, v in zip((1, 2, 3), rng.dirichlet([1] * 4))}
        q = {i: float(rng.choice([0.0, 0.01, p.get(i, 0.2), rng.random()]))
             for i in (1, 2, 3, 99)}
        q = {i: v for i, v in q.items() if v > 0.0}
        worst, obs = multidev(o, q, p, 0.01)
        for d in ds:
            for mode, r in (("any", worst), ("obs", obs)):
                assert int(r > d) == reference_scoring.multidev(
                    o, q, p, d, mode, 0.01)
            for i in p:
                assert (dev_ratio(q.get(i, 0.0), p[i]) > d) == \
                    reference_scoring.deviates(q.get(i, 0.0), p[i], d)


# --- schedule / optimal loss ------------------------------------------------

def test_schedule_lookup():
    s = Schedule([(1, {1: 0.5}), (4, {1: 0.9})])
    assert schedule_at(s, 1) == {1: 0.5}
    assert schedule_at(s, 3) == {1: 0.5}
    assert schedule_at(s, 4) == {1: 0.9}
    assert schedule_at(s, 100) == {1: 0.9}


def test_schedule_per_step_matches_at():
    # n before, at and past the last start
    for s in (Schedule([(1, {1: 0.5})]),
              Schedule([(1, {1: 0.5}), (4, {1: 0.9}), (5, {2: 0.3})])):
        last = s.entries[-1][0]
        for n in (0, 1, last - 1, last, last + 1, 3 * last + 7):
            got = s.per_step(n)
            assert got == [schedule_at(s, t) for t in range(1, n + 1)]
            assert all(g is schedule_at(s, t)
                       for t, g in enumerate(got, start=1))
    empty = Schedule([])
    assert empty.per_step(0) == []
    for probe in (lambda: schedule_at(empty, 1), lambda: empty.per_step(1),
                  lambda: empty.per_step(5)):
        with pytest.raises(ValueError,
                           match="^time 1 precedes the schedule$"):
            probe()


def test_schedule_rejects_entries_outside_its_domain():
    # unsorted starts were bisected as they came, so t = 1, 2, 5 and 6
    # all read the 0.1 entry; a weight of 0 killed optimal_logloss with
    # a math domain error
    for entries in ([(5, {1: 0.9}), (1, {1: 0.1})],
                    [(1, {1: 0.5}), (1, {1: 0.5})],
                    [(0, {1: 0.5})], [(2, {1: 0.5})]):
        with pytest.raises(ValueError, match="^need start times "
                           "increasing strictly from 1, got "):
            Schedule(entries)
    for sd in ({1: 0.0, 2: 0.5}, {1: -0.1}, {1: math.nan}, {1: 1.5},
               {1: 0.6, 2: 0.6}):
        with pytest.raises(ValueError, match=r"^need weights in \(0, 1\] "
                           "summing to at most 1, got "):
            Schedule([(1, {1: 0.5}), (3, sd)])


def test_schedule_accepts_its_domain_edges():
    assert schedule_at(Schedule([(1, {1: 1.0})]), 7) == {1: 1.0}
    for tp in np.linspace(0.001, 0.999, 999).tolist() + [1e-9, 1 - 1e-9]:
        s = Schedule([(1, {1: tp, 0: 1 - tp}), (2, {1: 1 - tp, 0: tp})])
        assert schedule_at(s, 2) == {1: 1 - tp, 0: tp}


def test_optimal_logloss_half():
    rng = np.random.default_rng(3)
    sched = Schedule([(1, {1: 0.5})])
    obs = [1 if rng.random() < 0.5 else 10 ** 9 + t
           for t in range(100000)]
    v = optimal_logloss(obs, sched.per_step(len(obs)))
    assert close(v, math.log(2), 1e-9)  # both branches score -ln 0.5


def test_optimal_logloss_point_mass():
    sched = Schedule([(1, {1: 1.0})])
    assert optimal_logloss([1, 1, 1], sched.per_step(3)) == 0.0
    with pytest.raises(ValueError):  # one truth per step
        optimal_logloss([1, 1, 1, 1], sched.per_step(3))


def test_optimal_logloss_many_small():
    k = 100
    sched = Schedule([(1, {i: 0.01 for i in range(1, k + 1)})])
    obs = list(range(1, k + 1))
    assert close(optimal_logloss(obs, sched.per_step(len(obs))),
                 -math.log(0.01))


# --- sign test --------------------------------------------------------------

def test_sign_test_clean_sweep():
    a = [0.0] * 50
    b = [1.0] * 50
    wa, wb, ties, p = sign_test(a, b)
    assert (wa, wb, ties) == (50, 0, 0)
    assert close(p, 2.0 * 2.0 ** -50, 1e-16)


def test_sign_test_even_split():
    a = [0, 1] * 25
    b = [1, 0] * 25
    wa, wb, ties, p = sign_test(a, b)
    assert wa == wb == 25
    assert p > 0.88


def test_sign_test_lopsided():
    a = [0.0] * 43 + [1.0] * 7
    b = [1.0] * 43 + [0.0] * 7
    wa, wb, ties, p = sign_test(a, b)
    assert (wa, wb) == (43, 7)
    assert p < 1e-6


def test_sign_test_ties_dropped():
    wa, wb, ties, p = sign_test([1.0, 1.0], [1.0, 1.0])
    assert ties == 2 and p == 1.0


def exact_sign_p(k, n):
    """Two-sided exact binomial p-value at 1/2, as a Fraction."""
    m = min(k, n - k)
    tail = sum(Fraction(math.comb(n, i), 2 ** n) for i in range(m + 1))
    return min(Fraction(1), 2 * tail)


def test_sign_test_equals_fraction_oracle():
    for n in range(201):
        for k in range(n + 1):
            # k wins for a, n - k for b, and one tie
            a = [0.0] * k + [1.0] * (n - k) + [0.5]
            b = [1.0] * k + [0.0] * (n - k) + [0.5]
            assert sign_test(a, b) == (k, n - k, 1,
                                       float(exact_sign_p(k, n))), (k, n)
    assert sign_test([], []) == (0, 0, 0, 1.0)
    assert sign_test([2.0] * 7, [2.0] * 7) == (0, 0, 7, 1.0)
    assert sign_test([0.0] * 50, [1.0] * 50)[3] == 1.7763568394002505e-15
    with pytest.raises(ValueError):
        sign_test([0.0, 1.0], [1.0])


def test_sign_test_needs_no_scipy():
    code = ("import sys, smatrack.cli; "
            "from smatrack.evaluation import sign_test; "
            "sign_test([0.0] * 5, [1.0] * 5); "
            "assert 'scipy' not in sys.modules, 'scipy imported'")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr


# --- relative-sensitivity ordering ------------------------------------------

def test_logloss_more_sensitive_to_large_probabilities():
    # halving a large entry hurts more than slashing a small one
    rng = np.random.default_rng(4)
    p = {1: 0.5, 2: 0.05, 3: 0.45}
    q1 = {1: 0.25, 2: 0.05, 3: 0.45}
    q2 = {1: 0.5, 2: 0.001, 3: 0.45}
    items = list(p)
    draws = rng.choice(items, p=[p[i] for i in items], size=1000000)
    l1 = np.array([-math.log(q1[i]) for i in items])
    l2 = np.array([-math.log(q2[i]) for i in items])
    assert l1[draws - 1].mean() > l2[draws - 1].mean()
