import math

import crossver
import numpy as np
import pytest

from count_cell_queues import pr_count
from reference_dyal import ReferenceDyal, dropping_zero_edges
from reference_ema import EMA_CASES, ReferenceEma
from single_cell_mle import SingleCellMle
from smatrack.predictors import (CHI2_SLACK, EMA_CAP, EMA_FLOOR, Box, Dyal,
                                 Ema, Queues, binomial_significance,
                                 decay_rate)


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


# --- EMA --------------------------------------------------------------------

def test_ema_boost_observed():
    e = Ema(beta=0.1)
    for k in range(1, 6):
        e.update(1)
        assert close(e.predict()[1], 1 - 0.9 ** k)


def test_ema_weaken_others():
    e = Ema(beta=0.1)
    for _ in range(3):
        e.update(1)
    e.update(2)
    p = e.predict()
    assert close(p[1], 0.9 * (1 - 0.9 ** 3)) and close(p[2], 0.1)


def test_ema_full_rate_overwrite():
    e = Ema(beta=0.5)
    e.update(1)
    e.update(2)
    assert e.predict() == {1: 0.25, 2: 0.5}
    e.beta = 1.0
    e.update(3)
    assert e.predict() == {3: 1.0}


def test_decay_rate_harmonic_series():
    b = 1.0
    seen = []
    for _ in range(4):
        b = decay_rate(b, 0.001)
        seen.append(b)
    assert all(close(x, y) for x, y in zip(seen, [1 / 2, 1 / 3, 1 / 4, 1 / 5]))


def test_decay_rate_floor():
    assert close(decay_rate(0.5, 0.001), 1 / 3)
    # Ema and Dyal skip decay_rate for a rate equal to its floor; that
    # gives what the call would wherever the call returns the floor
    # unchanged, which holds for every floor from 2**-53 to 1
    floors = np.concatenate([np.logspace(-53 * math.log10(2), 0, 20001),
                             2.0 ** -np.random.default_rng(9).uniform(
                                 0, 53, 20000), [2.0 ** -53, 0.001, 1.0]])
    assert all(decay_rate(m, m) == m for m in floors.tolist())


def test_ema_rate_starts_at_beta_and_decays_to_beta_min():
    e = Ema(1.0, 0.25)
    rates = []
    for o in range(6):
        rates.append(e.beta)
        e.update(o)
    assert all(close(r, w, 1e-15) for r, w in
               zip(rates, [1, 1 / 2, 1 / 3, 1 / 4, 1 / 4, 1 / 4]))
    assert e.beta == 0.25
    e = Ema(0.3)  # beta_min defaults to beta: a fixed rate
    for o in range(6):
        e.update(o)
        assert e.beta == 0.3
    with pytest.raises(ValueError, match=r"^need beta_min in \[0, 0\.1\]$"):
        Ema(0.1, beta_min=0.2)


def test_ema_rate_never_decays_to_zero():
    # Below about 5.6e-309, 1 / beta overflows and decay_rate(beta, 0.0)
    # is 0.0, a rate that gives every new item a weight of 0.0.
    for beta in (5e-324, 1e-309, 5.5e-309):
        with pytest.raises(ValueError,
                           match=r"^need beta_min > 0 when 1/beta overflows$"):
            Ema(beta, 0.0)
    for e in (Ema(5e-324), Ema(5e-324, 5e-324), Ema(1e-309, 5e-324),
              Ema(5.6e-309, 0.0)):
        for o in range(4):
            e.update(o)
            assert e.beta > 0.0
        q = e.predict()
        assert sorted(q) == [0, 1, 2, 3]
        assert all(v > 0.0 for v in q.values())


def test_harmonic_equals_running_average():
    # rate schedule 1, 1/2, 1/3, ... with no floor reproduces the
    # empirical frequency exactly
    rng = np.random.default_rng(0)
    e = Ema(1.0, 0.0)
    count = 0
    for t in range(1, 2001):
        o = int(rng.random() < 0.3)
        e.update(o)
        count += o
        expect = count / t
        got = e.predict().get(1, 0.0)
        assert close(got, expect, 1e-12)


def test_ema_sd_invariant_fuzz():
    rng = np.random.default_rng(1)
    e = Ema(beta=0.2)
    for _ in range(20000):
        e.update(int(rng.integers(0, 30)))
        q = e.predict()
        assert sum(q.values()) <= 1.0 + 1e-9
        assert all(0.0 < v <= 1.0 for v in q.values())


def test_ema_step_size_cap():
    rng = np.random.default_rng(2)
    beta = 0.05
    e = Ema(beta=beta)
    prev = 0.0
    for _ in range(5000):
        e.update(int(rng.random() < 0.3))
        cur = e.predict().get(1, 0.0)
        assert abs(cur - prev) <= beta + 1e-12
        prev = cur


EMA_IDS = [repr(kw) for _, kw in EMA_CASES]


# The exact oracle comparisons on generated streams live in
# scripts/crossver.py; each case runs here as its own test.
@pytest.mark.parametrize("args,kw", EMA_CASES, ids=EMA_IDS)
def test_ema_matches_reference_above_floor(args, kw):
    why = crossver.ema_case(args, kw)
    assert why is None, why


@pytest.mark.parametrize("args,kw", EMA_CASES, ids=EMA_IDS)
def test_ema_tracks_reference_on_open_streams(args, kw):
    # A fold drops a weight below EMA_FLOOR, which the reference keeps.
    # Both then add the same boosts, so the gap only decays. On a stream
    # that never fills EMA_CAP entries every fold follows a halving of
    # the scale, so a gap carried to the item's next drop has at least
    # halved: gap < EMA_FLOOR * (1 + 1/2 + 1/4 + ...) = 2 * EMA_FLOOR.
    # 1e-12 covers rounding.
    bound = 2 * EMA_FLOOR + 1e-12
    rng = np.random.default_rng(6)
    e, ref = Ema(*args), ReferenceEma(**kw)
    for t in range(6000):
        r = rng.random()
        o = 10 ** 6 + t if r < 0.1 else int(rng.integers(0, 3 if r < 0.6
                                                             else 20))
        e.update(o)
        ref.update(o)
        got, want = e.predict(), ref.predict()
        assert set(got) <= set(want)
        assert all(abs(got.get(i, 0.0) - v) <= bound
                   for i, v in want.items())
    # the floor did drop some, except from running averages (no rate
    # floor), which keep every id seen once above 1/6000
    assert len(e.weights) < len(ref.weights) or kw.get("beta_min") == 0.0


def test_ema_state_bounded_at_tiny_rate():
    # At beta 1e-6 the scale takes ~7e5 steps to halve, so only the
    # size trigger folds, and it drops every fresh id's weight
    e = Ema(beta=1e-6)
    for t in range(25000):
        e.update(t)
        assert len(e.weights) <= EMA_CAP
    assert len(e.weights) < 25000 - EMA_CAP


def test_harmonic_ema_repeated_item_at_most_one():
    # rates 1, 1/2, 1/3, ...: the third step's weight rounded to
    # 1.0000000000000002 before the clamp
    e = Ema(1.0, 0.0)
    for _ in range(7):
        e.update(0)
        (v,) = e.predict().values()
        assert 0.0 < v <= 1.0 and close(v, 1.0, 1e-15)


def test_ema_expected_movement():
    # one-step mean movement is (1 - beta) of the remaining gap
    rng = np.random.default_rng(3)
    tp, beta, p_hat = 0.3, 0.1, 0.6
    draws = rng.random(100000) < tp
    nxt = np.where(draws, (1 - beta) * p_hat + beta, (1 - beta) * p_hat)
    gap = tp - nxt.mean()
    se = nxt.std(ddof=1) / math.sqrt(len(nxt))
    assert abs(gap - (1 - beta) * (tp - p_hat)) <= 3 * se


# --- Queue stamps -----------------------------------------------------------
# A queue holds the clock values of the item's last qcap observations,
# newest first; its count is clock - oldest + 1, which is what the
# paper's count cells sum to.

def _queues_with(clock, stamps, **kw):
    """A Queues at `clock` holding `stamps` (item -> its stamps, newest
    first), with q_map derived from them as update writes it."""
    s = Queues(**kw)
    s.clock = clock
    s.stamps = stamps
    s.q_map = {i: (len(q) - 1, q[-1]) for i, q in stamps.items()
               if len(q) > 1}
    return s


def test_queue_positive_update_shifts():
    s = Queues(qcap=3)
    for o in [1, 0, 1]:
        s.update(o)
    assert s.stamps[1] == [3, 1] and s.q_map[1] == (1, 1)  # cells [1, 2]
    assert pr_count(s, 1) == (1 / 2, 3)


def test_queue_positive_update_at_capacity():
    s = Queues(qcap=3)
    for o in [1, 1, 1, 1]:
        s.update(o)
    assert s.stamps[1] == [4, 3, 2]  # cells [1, 1, 1]
    assert s.q_map[1] == (2, 2)
    assert pr_count(s, 1) == (1.0, 3)


def test_queue_fresh_positive():
    s = Queues(qcap=3)
    s.update(1)
    assert s.stamps == {1: [1]} and s.q_map == {}  # cells [1]
    assert pr_count(s, 1) == (0.0, 1)


def test_queue_negative_update():
    s = Queues(qcap=3)
    s.update(1)
    s.update(0)
    assert s.stamps == {1: [1], 0: [2]} and s.q_map == {}  # cells [2], [1]
    assert pr_count(s, 1) == (0.0, 2)
    s = Queues(qcap=3)
    for o in [1, 1, 1, 0, 0, 0, 0]:
        s.update(o)
    assert pr_count(s, 1) == (2 / 6, 7)  # cells [5, 1, 1]
    s.update(0)
    assert s.stamps[1] == [3, 2, 1] and s.q_map[1] == (2, 1)  # stay put
    assert pr_count(s, 1) == (2 / 7, 8)  # cells [6, 1, 1]


def test_queue_negative_update_no_cells():
    s = Queues(qcap=3)
    s.update(0)
    s.update(0)
    assert 1 not in s.stamps and 1 not in s.q_map
    assert pr_count(s, 1) == (0.0, 0)


def test_queue_get_pr():
    assert close(pr_count(_queues_with(3, {1: [2, 1]}), 1)[0], 1 / 2)
    assert close(pr_count(_queues_with(7, {1: [3, 2, 1]}), 1)[0], 2 / 6)
    assert pr_count(_queues_with(3, {1: [1]}), 1) == (0.0, 3)


# --- Queues predictor -------------------------------------------------------

def test_queues_update_allocates():
    # a first sighting makes a one-stamp queue, the second adds the item
    # to q_map
    s = Queues(qcap=3)
    s.update(1)
    assert s.stamps == {1: [1]} and s.q_map == {}
    s.update(2)
    assert s.stamps == {1: [1], 2: [2]} and s.q_map == {}
    assert pr_count(s, 1) == (0.0, 2)  # cells [2]
    assert pr_count(s, 2) == (0.0, 1)  # cells [1]
    assert s.predict() == {}
    s.update(1)
    assert s.stamps == {1: [3, 1], 2: [2]} and s.q_map == {1: (1, 1)}
    assert s.predict() == {1: 1 / 2}
    # with qcap 1 no item would leave its grace period, so it is refused
    with pytest.raises(ValueError, match=r"^need integer qcap >= 2$"):
        Queues(qcap=1)


def test_queues_aaaabbbb():
    s = Queues(qcap=3)
    for o in [1, 1, 1, 1, 2, 2, 2, 2]:
        s.update(o)
    pred = s.predict()
    assert close(pred[1], 2 / 6)
    assert close(pred[2], 1.0)


def test_prune_drops_stale():
    # stale means cell0 > s2, i.e. clock - newest stamp >= s2, whether
    # the queue is in q_map or not
    s = _queues_with(100000, {1: [1], 2: [2, 1]}, qcap=3, s2=100000)
    assert s.prune() == set()
    s.clock += 1
    assert s.prune() == {1}
    assert set(s.stamps) == {2} and set(s.q_map) == {2}
    s.clock += 1
    assert s.prune() == {2}
    assert s.stamps == {} and s.q_map == {}


def test_prune_size_threshold():
    # item i has cell0 i + 1 at clock 200; odd items have a second stamp
    s = _queues_with(200, {i: [200 - i] if i % 2 == 0 else [200 - i, 1]
                           for i in range(199)}, qcap=3, s1=100)
    s.prune()
    assert len(s.stamps) == 199  # below 2*s1: untouched
    s.stamps[199] = [1]  # cell0 200
    s.prune()
    # the 100 freshest queues, one-stamp or not (newest stamps, lowest
    # cell0 counts), survive
    assert set(s.stamps) == set(range(100))
    assert set(s.q_map) == set(range(1, 100, 2))


def test_prune_tie_break_drops_larger_id():
    s = _queues_with(10, {1: [4], 0: [4, 2]}, qcap=3, s1=1)
    assert s.prune() == {1}
    assert set(s.stamps) == {0} and set(s.q_map) == {0}
    s = _queues_with(10, {0: [4], 1: [4, 2]}, qcap=3, s1=1)
    assert s.prune() == {1}
    assert s.stamps == {0: [4]} and s.q_map == {}


def test_queues_heartbeat_runs():
    s = Queues(qcap=3, s1=2, prune_every=10)
    rng = np.random.default_rng(4)
    for t in range(1000):
        s.update(int(rng.integers(0, 50)))
        assert len(s.stamps) <= 2 * s.s1 + s.prune_every


def test_queue_pr_monotone_on_updates():
    # positive updates never lower the PR; negative updates lower it or
    # leave it at zero
    rng = np.random.default_rng(5)
    for _ in range(300):
        s = Queues(qcap=int(rng.integers(2, 6)), prune_every=10 ** 6)
        for _ in range(200):
            before = pr_count(s, 1)[0]
            if rng.random() < 0.3:
                s.update(1)
                assert pr_count(s, 1)[0] >= before - 1e-12
            else:
                s.update(0)
                after = pr_count(s, 1)[0]
                assert after < before or (after == 0.0 and before == 0.0)


# --- estimator statistics ---------------------------------------------------

def test_mvue_unbiased():
    rng = np.random.default_rng(6)
    tp, k = 0.1, 5
    counts = rng.geometric(tp, size=(100000, k)).sum(axis=1)
    est = (k - 1) / (counts - 1)
    assert abs(est.mean() - tp) <= 0.02 * tp


def test_mle_bias_matches_series():
    rng = np.random.default_rng(7)
    for tp in (0.5, 0.1, 0.01):
        c = rng.geometric(tp, size=400000)
        expect = -tp * math.log(tp) / (1 - tp)
        assert abs((1.0 / c).mean() - expect) <= 0.01 * expect


def test_mle_variance_ratio_limit():
    rng = np.random.default_rng(8)
    tp = 0.001
    c = rng.geometric(tp, size=2000000)
    ratio = (1.0 / c).var(ddof=1) / tp
    target = math.pi ** 2 / 6
    assert abs(ratio - target) <= 0.05 * target


# --- PR spread --------------------------------------------------------------

def _spread_traces(rng, n_traces):
    for _ in range(n_traces):
        style = rng.integers(0, 3)
        n_items = int(rng.integers(2, 12))
        length = int(rng.integers(20, 200))
        if style == 0:
            yield rng.integers(0, n_items, size=length).tolist()
        elif style == 1:
            # bursts: AABBCC... style runs
            seq = []
            while len(seq) < length:
                seq += [int(rng.integers(0, n_items))] * \
                    int(rng.integers(1, 10))
            yield seq[:length]
        else:
            # halving allocation: many items pushed above 1/k
            seq = []
            run = length
            item = 0
            while run >= 2:
                seq += [item] * max(2, run // 2)
                run //= 2
                item += 1
            yield seq


def test_single_cell_mle_spread_bound():
    rng = np.random.default_rng(9)
    for seq in _spread_traces(rng, 2000):
        s = SingleCellMle()
        for o in seq:
            s.update(o)
            for p in (0.5, 1 / 3, 0.25, 0.2, 0.15):
                n = sum(1 for v in s.predict().values() if v > p)
                assert n < 1.0 / p


def test_qcap2_spread_bound():
    rng = np.random.default_rng(10)
    for seq in _spread_traces(rng, 2000):
        s = Queues(qcap=2, prune_every=10 ** 6)  # no prune in a trace
        for o in seq:
            s.update(o)
            pred = s.predict()
            for k in (2, 3, 4, 5):
                n = sum(1 for v in pred.values() if v > 1.0 / k)
                assert n <= k - 1


# --- stamps == count cells --------------------------------------------------

def test_timestamp_basic():
    s = Queues(qcap=3)
    s.update(1)
    assert s.predict() == {}
    s.update(0)
    s.update(1)
    s.update(0)
    # item 1 at clocks 1 and 3, queried at clock 4: (2-1)/(4-1)
    assert close(pr_count(s, 1)[0], 1 / 3)


def test_timestamp_equals_plain_queues():
    why = crossver.queues_case("closed")
    assert why is None, why


def test_queues_match_reference_on_open_streams():
    why = crossver.queues_case("open")
    assert why is None, why


# --- Box --------------------------------------------------------------------

def test_box_eviction():
    b = Box(k=2)
    for o in [1, 2, 3]:
        b.update(o)
    assert b.predict() == {2: 0.5, 3: 0.5}


def test_box_ratio():
    b = Box(k=100)
    for o in [1, 1, 2]:
        b.update(o)
    pred = b.predict()
    assert close(pred[1], 2 / 3) and close(pred[2], 1 / 3)


def test_box_empty():
    assert Box(k=10).predict() == {}


def test_box_matches_brute_force():
    rng = np.random.default_rng(12)
    k = 7
    b = Box(k=k)
    seq = rng.integers(0, 5, size=500).tolist()
    for t, o in enumerate(seq):
        b.update(o)
        window = seq[max(0, t + 1 - k):t + 1]
        expect = {i: window.count(i) / len(window) for i in set(window)}
        got = b.predict()
        assert set(got) == set(expect)
        assert all(close(got[i], expect[i]) for i in got)


# --- binomial significance --------------------------------------------------

def test_binomial_significance_values():
    v = binomial_significance(0.1, 0.5, 10)
    expect = 10 * (0.5 * math.log(0.5 / 0.1)
                   + 0.5 * math.log(0.5 / 0.9))
    assert close(v, expect)
    assert close(v, 5.108, 1e-3)


def test_binomial_significance_equal_is_zero():
    for p in (0.0, 0.3, 1.0):
        assert binomial_significance(p, p, 17) == 0.0


def test_binomial_significance_low_side():
    v = binomial_significance(0.5, 0.05, 40)
    expect = 40 * (0.05 * math.log(0.05 / 0.5)
                   + 0.95 * math.log(0.95 / 0.5))
    assert close(v, expect)
    assert close(v, 19.79, 5e-2)


def test_binomial_significance_degenerate_ema():
    assert binomial_significance(0.0, 0.5, 3) == math.inf
    assert binomial_significance(1.0, 0.5, 3) == math.inf


def _gate_cases(rng):
    """(e, queue length n, count c) for one edge, as Dyal.update's walk
    sees it: n >= 2 stamps over c steps give q = (n - 1) / (c - 1). e
    runs from near 0 to 1, q from far below e to within an ulp of it, c
    from 2 to 2**62."""
    while True:
        u = rng.random()
        if u < 0.3:
            e = 10.0 ** -rng.uniform(0.0, 20.0)
        elif u < 0.6:
            e = 1.0 - 10.0 ** -rng.uniform(0.0, 16.0)
        elif u < 0.65:
            e = 1.0
        else:
            e = rng.random()
        if rng.random() < 0.05:
            # once an edge with no queue, which Dyal cannot reach; the
            # draw stays so that the other cases stay as they were
            continue
        c = int(10.0 ** rng.uniform(0.31, 18.6))
        u = rng.random()
        if u < 0.3:
            q = e * rng.random()
        elif u < 0.5:
            q = e * 10.0 ** -rng.uniform(0.0, 18.0)  # KL near chi2
        elif u < 0.8:
            q = e * (1.0 - 10.0 ** -rng.uniform(0.0, 17.0))
        else:
            q = e - int(rng.integers(1, 5)) / (c - 1)
        n = min(max(round(q * (c - 1)) + 1, 2), c)
        yield e, n, c


def _chi2_bound(e, q, n):
    """n * (chi2 + CHI2_SLACK), as Dyal.update spells it for o's own step
    (q > e) and for the other edges (e > q)."""
    d = q - e
    return n * (d * d / (e * (1.0 - e)) + CHI2_SLACK)


def _chi2_screen(e, q, n, sig):
    """The chi-squared screen: False where it skips the call
    binomial_significance(e, q, n)."""
    return _chi2_bound(e, q, n) >= sig


def test_chi2_pretest_never_skips_a_significant_edge(monkeypatch):
    # Dyal.update's walk skips binomial_significance where the
    # chi-squared bound says it cannot reach sig_thresh; every case whose
    # score reaches sig must still be scored, and so reset from its
    # queue. sig is set to the score itself (the tightest case), to the
    # next float below it, to 0 and to 5, and drawn at random; for e < 1
    # also to the bound itself, where the screen must still pass. The
    # clock stands at c - 1, and an update of a fresh item 0 takes it to
    # c: 0 takes no step of its own, and the clock never reaches
    # prune_every. The walk reads only q_map, so the edge's queue is
    # q_map's entry alone.
    import smatrack.predictors as predictors
    calls = []

    def recording(e, q, n):
        calls.append((e, q, n))
        return binomial_significance(e, q, n)
    monkeypatch.setattr(predictors, "binomial_significance", recording)
    rng = np.random.default_rng(19)
    d = Dyal(beta_min=0.01, p_min=0.0, prune_every=2 ** 63)

    def update(e, n, c, sig):
        d.sig_thresh = sig
        d.ema_map, d.rate_map = {1: e}, {1: 0.5}
        d.queues.clock = c - 1
        d.queues.stamps = {}
        d.queues.q_map = {1: (n - 1, 1)}  # n stamps, the oldest 1
        calls.clear()
        d.update(0)
    cases = below = skipped = 0
    for e, n, c in _gate_cases(rng):
        if cases >= 100000:
            break
        q_pr = (n - 1) / (c - 1)
        if not e > q_pr:
            continue
        score = binomial_significance(e, q_pr, c)
        drawn = rng.uniform(0.0, 2.0) * (score if score < math.inf else 20.0)
        for sig in (score, math.nextafter(score, -math.inf), 0.0, 5.0,
                    drawn):
            update(e, n, c, sig)
            cases += 1
            if score >= sig:
                assert calls == [(e, q_pr, c)], (e, n, c, score, sig)
                assert d.ema_map.get(1) == q_pr
            else:
                below += 1
                skipped += not calls
        if e < 1.0:
            update(e, n, c, _chi2_bound(e, q_pr, c))
            assert calls == [(e, q_pr, c)], (e, n, c)
    # the test is not vacuous: the gate skips the call for more than a
    # quarter of the scores below sig (about 35 % here)
    assert 4 * skipped > below


def _screen_pairs():
    """(e, q) on both sides of each other, both in (0, 1): every pair
    from a grid with values within 1e-12 of 0 and 1, and each grid value
    with its neighbours 1 to 3 ulps away on either side."""
    values = [k / 20 for k in range(1, 20)] + [
        5e-324, 1e-300, 1e-14, 1e-13, 1e-12, 1.0 - 1e-12, 1.0 - 1e-13,
        1.0 - 1e-14, math.nextafter(1.0, 0.0)]
    pairs = [(e, q) for e in values for q in values if e != q]
    for v in values:
        for toward in (0.0, 1.0):
            u = v
            for _ in range(3):
                u = math.nextafter(u, toward)
                if 0.0 < u < 1.0:
                    pairs += [(v, u), (u, v)]
    return pairs


SCREEN_COUNTS = (1, 2, 3, 10, 1000, 100000)
SCREEN_SIGS = (0.0, 1e-12, 5.0, 50.0)


def test_chi2_screen_passes_every_score_that_reaches_sig():
    # binomial_significance(e, q, n) >= sig implies the screen passes,
    # so skipping the call never changes a decision; at the tightest
    # pairs only CHI2_SLACK covers the rounding of the computed score
    skipped = 0
    for e, q in _screen_pairs():
        for n in SCREEN_COUNTS:
            for sig in SCREEN_SIGS:
                passes = _chi2_screen(e, q, n, sig)
                if binomial_significance(e, q, n) >= sig:
                    assert passes, (e, q, n, sig)
                skipped += not passes
    assert skipped  # not vacuous


def _queue_prs(n):
    """(k, k / (n - 1)) for a spread of the k that a queue of k + 1
    stamps, the oldest n - 1 steps back, can hold: every k for small n,
    else both ends and twenty steps between."""
    ks = {1, 2, 3, n - 3, n - 2, n - 1} | {
        round(j * (n - 1) / 20) for j in range(1, 20)}
    return [(k, k / (n - 1)) for k in sorted(ks) if 1 <= k <= n - 1]


def _weights_below(q):
    """Weights e in (0, q): q's neighbours 1 to 3 ulps below, a grid,
    and values within 1e-12 of 0 and 1, where the screen's pairs are
    tightest."""
    es = [k / 20 for k in range(1, 20)] + [
        5e-324, 1e-300, 1e-14, 1e-13, 1e-12, 1.0 - 1e-12, 1.0 - 1e-13,
        1.0 - 1e-14, math.nextafter(1.0, 0.0)]
    u = q
    for _ in range(3):
        u = math.nextafter(u, 0.0)
        es.append(u)
    return sorted({e for e in es if 0.0 < e < q})


def test_dyal_update_screens_its_own_test(monkeypatch):
    # o's own step, from o's (PR, count) as its queue gave them before
    # the update, calls binomial_significance on o's own high-side test
    # exactly where the screen passes, and so on every score that reaches
    # sig; an unseen o (weight 0) always calls and resets. o's queue
    # holds k + 1 stamps, the oldest 1, at clock n: count n and PR
    # k / (n - 1), the only PRs a queue can give. Two stamps span at
    # least 2 steps, so n starts at 2.
    import smatrack.predictors as predictors
    calls = []

    def recording(e, q, n):
        calls.append((e, q, n))
        return binomial_significance(e, q, n)
    monkeypatch.setattr(predictors, "binomial_significance", recording)
    cases = [(n, k, q, e) for n in SCREEN_COUNTS if n >= 2
             for k, q in _queue_prs(n) for e in [0.0] + _weights_below(q)]
    for n, k, q, e in cases:
        for sig in SCREEN_SIGS + (math.inf,):
            d = Dyal(beta_min=0.0, sig_thresh=sig, p_min=0.0,
                     prune_every=2 ** 63)
            d.ema_map, d.rate_map = ({7: e}, {7: 0.5}) if e else ({}, {})
            d.queues.clock = n
            d.queues.q_map[7] = (k, 1)
            calls.clear()
            d.update(7)
            if e == 0.0:
                assert calls == [(e, q, n)], (q, n, sig)
                assert d.ema_map[7] == q and d.rate_map[7] == 1.0 / n
                continue
            if sig == math.inf:
                continue  # outside _chi2_screen's finite sig
            assert bool(calls) == _chi2_screen(e, q, n, sig), (e, q, n, sig)
            if binomial_significance(e, q, n) >= sig:
                assert calls == [(e, q, n)], (e, q, n, sig)
                assert d.rate_map[7] == 1.0 / n


# --- DYAL -------------------------------------------------------------------

def test_dyal_first_observation_queue_only():
    d = Dyal()
    d.update(5)
    assert d.queues.stamps == {5: [1]} and d.queues.q_map == {}
    assert d.predict() == {}


def test_dyal_listens_when_ema_zero():
    d = Dyal(beta_min=0.01)
    # build a queue for item 1 with a known proportion, no EMA edge yet
    for o in [1, 0, 1, 0, 1]:
        d.update(o)
    # before the last update the queue for 1 was [2, 2]: q_pr 1/3,
    # count 4; ema 0 always listens, so the edge starts at the queue
    assert close(d.ema_map[1], 1 / 3)
    assert close(d.rate_map[1], 1 / 4)


def test_dyal_plain_step_when_not_significant():
    d = Dyal(beta_min=0.01)
    d.ema_map = {1: 0.5}
    d.rate_map = {1: 0.1}
    d.queues = _queues_with(6, {1: [5, 3, 1]})  # cells [2, 2, 2]
    # q_pr 2/5 <= ema: not significantly high
    assert pr_count(d.queues, 1) == (2 / 5, 6)
    d.update(1)
    # delta = (1 - 0.5) * 0.1, rate decays to 1/11
    assert close(d.ema_map[1], 0.55)
    assert close(d.rate_map[1], 1 / 11)


def test_dyal_update_weakens_other_edge_example():
    # a fresh o takes no step; at clock 5 edge 1's queue gives q_pr
    # 2/4 = ema: no reset
    d = Dyal(beta_min=0.01)
    d.ema_map = {1: 0.5}
    d.rate_map = {1: 0.1}
    d.queues = _queues_with(4, {1: [4, 3, 1], 0: [2]})
    d.update(2)
    assert close(d.ema_map[1], 0.45)
    assert close(d.rate_map[1], 1 / 11)
    assert 2 not in d.ema_map


def test_dyal_update_with_no_edges():
    # 1 seen twice: at the third sighting its queue gives PR 1/1 with no
    # edge to walk, so the free mass is 1 and o's reset takes all of it
    d = Dyal()
    for _ in range(3):
        d.update(1)
    assert d.ema_map == {1: 1.0} and d.rate_map == {1: 1 / 2}


def test_dyal_update_snaps_down_on_significance():
    d = Dyal(beta_min=0.01, qcap=40)
    d.ema_map = {1: 0.5}
    d.rate_map = {1: 0.1}
    # cells [20, 1, 20] once the clock is 41
    d.queues = _queues_with(40, {1: [22, 21, 1]}, qcap=40)
    assert pr_count(d.queues, 1) == (2 / 39, 40)
    d.update(2)
    assert pr_count(d.queues, 1) == (2 / 40, 41)
    assert close(d.ema_map[1], 0.05)
    assert close(d.rate_map[1], 1 / 41)


def test_dyal_update_caps_o_step_at_free_mass():
    # worked by hand over 1, 1, 1, 2, 2, 2 at beta_min 0.01 and sig 5:
    # - t3: 1's queue [2, 1] gives PR 1/1, count 2; unseen, so 1 resets
    #   to 1.0 at rate 1/2.
    # - t4: edge 1 sees [3, 2, 1] at clock 4, q 2/3 below a weight of 1:
    #   a reset to 2/3 at rate 1/4. 2 is new and takes no step.
    # - t5: q 2/4, 5 * chi2 = 5/8 < 5, a plain step to 2/3 * 3/4 = 1/2
    #   at rate 1/5. 2's queue has one stamp: no step.
    # - t6: a plain step to 1/2 * 4/5 = 2/5 at rate 1/6. 2's queue
    #   [5, 4] gives PR 1/1, count 2; unseen, so 2 resets by 1, capped
    #   at the free mass 1 - 2/5.
    d = Dyal(beta_min=0.01)
    for t, o in enumerate([1, 1, 1, 2, 2, 2], 1):
        d.update(o)
        if t == 5:
            assert close(d.ema_map[1], 1 / 2) and 2 not in d.ema_map
    assert close(d.ema_map[1], 2 / 5) and close(d.rate_map[1], 1 / 6)
    assert d.ema_map[2] == 1.0 - d.ema_map[1] and d.rate_map[2] == 1 / 2


def test_dyal_sd_invariant_fuzz():
    rng = np.random.default_rng(13)
    d = Dyal(beta_min=0.01)
    # drifting stream over a moderate alphabet plus one-off noise ids
    for t in range(100000):
        if rng.random() < 0.02:
            o = 1000000 + t  # unique noise
        else:
            base = (t // 20000) * 7
            o = base + int(rng.integers(0, 7))
        d.update(o)
        s = sum(d.ema_map.values())
        assert s <= 1.0 + 1e-9
        assert all(0.0 < v <= 1.0 for v in d.ema_map.values())
        assert set(d.ema_map) == set(d.rate_map)
        assert set(d.ema_map) <= set(d.queues.q_map)


def test_dyal_converges_to_target():
    # occasional listen events keep yanking the weight to a noisy queue
    # estimate, so judge the time average, not a single snapshot
    rng = np.random.default_rng(14)
    d = Dyal(beta_min=0.001)
    tp = 0.3
    total = 0.0
    for t in range(20000):
        d.update(int(rng.random() < tp))
        if t >= 10000:
            total += d.ema_map.get(1, 0.0)
    assert abs(total / 10000 - tp) < 0.03


@pytest.mark.parametrize("sig_thresh", [0.0, 5.0])
@pytest.mark.parametrize("qcap", [2, 3])
@pytest.mark.parametrize("beta_min", [0.0, 0.001, 0.01, 0.5, 1.0])
def test_dyal_matches_reference(beta_min, qcap, sig_thresh):
    why = crossver.dyal_case(beta_min, qcap, sig_thresh)
    assert why is None, why


def test_dyal_update_drops_match_reference():
    # state set by hand at clock 999, each edge with its queue; the
    # update takes the clock to 1000. Edge 2 is below p_min on both and
    # is dropped, edge 5's weight at exactly p_min keeps it though its
    # queue is below p_min, a rate of 1 weakens edge 4 to 0.0, which is
    # dropped, and o = 3's weight of 1 leaves no free mass, so its own
    # step adds nothing.
    for beta_min in (0.0, 0.01, 1.0):
        for o in (3, 4):
            d, ref = Dyal(beta_min=beta_min), ReferenceDyal(beta_min=beta_min)
            for x in (d, ref):
                x.ema_map = {1: 0.5, 2: 0.005, 3: 1.0, 4: 0.2, 5: 0.01}
                x.rate_map = {1: 0.1, 2: 0.5, 3: 0.5, 4: 1.0, 5: 0.1}
            # q_pr 1/2, 1/999, 1/10, 1/3 and 1/111 at clock 1000
            stamps = {1: [999, 998, 996], 2: [2, 1], 3: [995, 990],
                      4: [999, 997], 5: [999, 889]}
            # the reference's count cells: cell0 runs from the newest
            # stamp to the clock, each older cell to the next stamp
            ref.queues.clock = 999
            ref.queues.cells = {i: [999 - q[0] + 1] + [
                a - b for a, b in zip(q, q[1:])] for i, q in stamps.items()}
            d.queues = _queues_with(999, stamps)
            dropping_zero_edges(ref)
            d.update(o)
            ref.update(o)
            assert pr_count(d.queues, 5)[0] < d.p_min
            assert list(d.ema_map.items()) == list(ref.ema_map.items())
            assert list(d.rate_map.items()) == list(ref.rate_map.items())
            assert 5 in d.ema_map and 2 not in d.ema_map
            assert (4 in d.ema_map) == (o == 4)
            if o == 3:
                assert d.ema_map[3] == 1.0


# --- shared contract --------------------------------------------------------

@pytest.mark.parametrize("pred", [Ema(0.1), Ema(1.0, 0.001),
                                  Queues(), SingleCellMle(), Box(10),
                                  Dyal(),
                                  # domain edges
                                  Ema(beta=1),
                                  Ema(1.0, 0),
                                  Ema(1.0, 1.0),
                                  Queues(qcap=2, prune_every=10 ** 6),
                                  Queues(qcap=2, s1=1, s2=1, prune_every=1),
                                  Box(k=1),
                                  Dyal(beta_min=0, p_min=0, sig_thresh=0),
                                  Dyal(beta_min=1, p_min=1,
                                       sig_thresh=math.inf)])
def test_fresh_predictor_predicts_empty(pred):
    assert pred.predict() == {}


# argument -> values outside its domain, per class; Dyal hands its queue
# arguments to Queues. A bool is outside every domain: True would pass
# as 1 and False as 0.
OUT_OF_DOMAIN = {
    Ema: {"beta": (0, -0.1, 1.5, math.inf, math.nan, True, False),
          "beta_min": (-0.1, 1.5, math.inf, math.nan, True, False)},
    Queues: {"qcap": (1, 0, -1, 2.5, 3.0, math.nan, True, False),
             "s1": (0, -1, 2.5, math.nan, True, False),
             "s2": (0, -1, 2.5, math.inf, math.nan, True, False),
             "prune_every": (0, -1, 2.5, math.nan, None, True, False)},
    Box: {"k": (0, -3, 2.5, 100.0, math.nan, True, False)},
    Dyal: {"beta_min": (-0.1, 1.5, math.inf, math.nan, True, False),
           "sig_thresh": (-1, -math.inf, math.nan, True, False),
           "p_min": (-0.1, 1.5, math.nan, True, False),
           "qcap": (1, 0, 2.5, True), "s1": (0, True), "s2": (0, True),
           "prune_every": (0, True)},
}


@pytest.mark.parametrize("cls,arg,value", [
    (cls, arg, v) for cls, args in OUT_OF_DOMAIN.items()
    for arg, values in args.items() for v in values],
    ids=lambda x: getattr(x, "__name__", str(x)))
def test_constructor_rejects_out_of_domain(cls, arg, value):
    # the message names the argument: "need <domain>"
    with pytest.raises(ValueError, match=r"^need (integer )?%s\b" % arg):
        cls(**{arg: value})


def test_predict_does_not_mutate():
    d = Dyal()
    for o in [1, 0, 1, 0, 1]:
        d.update(o)
    snap = dict(d.ema_map)
    p = d.predict()
    p[999] = 1.0
    assert d.ema_map == snap


def test_ema_first_visit_time():
    # empirical first entry into tp +- beta is far below 1/beta^2 and
    # above half of 1/beta
    rng = np.random.default_rng(15)
    for tp, beta in ((0.1, 0.02), (0.1, 0.005)):
        times = []
        for _ in range(500):
            p_hat = 0.0
            t = 0
            while abs(p_hat - tp) > beta:
                t += 1
                p_hat *= (1 - beta)
                if rng.random() < tp:
                    p_hat += beta
            times.append(t)
        mean_t = sum(times) / len(times)
        assert mean_t <= 1.0 / beta ** 2
        assert mean_t >= 0.5 / beta
