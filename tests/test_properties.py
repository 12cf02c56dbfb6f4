"""Property tests over every PREDICTOR_KINDS entry: the predicted map
is a semi-distribution with no zero entries, predict() has no side
effects, a stream gives the same run every time, and the kinds that
prune keep their state bounded on an open-ended stream. The queue-based
kinds keep q_map in step with their stamps, and Box's map matches a
brute-force window exactly, in value and order. run_prequential keeps
every kind's scores in their ranges at every valid (p_min, p_ns)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smatrack.harness import (PREDICTOR_KINDS, EvalConfig, ExperimentSpec,
                              make_predictor, run_prequential)
from smatrack.harness import streams as spec_streams
from smatrack.predictors import EMA_FLOOR, Box, Dyal, Queues
from smatrack.sd_core import SUM_SLACK
from smatrack.synth import GenConfig
from reference_scoring import noise_marks
from test_eval import fc_configs

SD_KINDS = ("ema", "harmonic-ema", "box", "dyal")
PARAMS = {
    "ema": st.floats(0.0, 1.0, exclude_min=True),
    "harmonic-ema": st.floats(0.0, 1.0),
    "queues": st.integers(2, 12),
    "ts-queues": st.integers(2, 12),
    "box": st.integers(1, 30),
    "dyal": st.floats(0.0, 1.0),
}
assert set(PARAMS) == set(PREDICTOR_KINDS)

methods = st.sampled_from(PREDICTOR_KINDS).flatmap(
    lambda kind: st.tuples(st.just(kind), PARAMS[kind].map(repr)))
# runs of one item; small ids recur, large ones are mostly seen once
streams = st.lists(
    st.tuples(st.one_of(st.integers(0, 6), st.integers(0, 10 ** 6)),
              st.integers(1, 5)),
    max_size=120).map(lambda runs: [o for o, n in runs for _ in range(n)])

# Streams that once left a zero entry: an Ema weight left unobserved
# underflowed to 0.0 and stayed, and a Dyal rate of 1, or of 1 - 2**-53
# (by underflow), weakened an edge to 0.0 while its queue PR kept it
# above p_min.
ZERO_ENTRIES = [
    ("ema", "0.999", [0] + [1] * 120),
    ("harmonic-ema", "0.999", [0] + [1] * 120),
    ("dyal", "1.0", [0, 0, 0, 1, 1]),
    ("dyal", "0.9999999999999999", [1] * 3 + [0] * 22),
]


def state(x):
    """Plain-data copy of a predictor's attributes, dict order kept."""
    if isinstance(x, dict):
        return [(k, state(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [state(v) for v in x]
    if hasattr(x, "__dict__"):
        return state(vars(x))
    return x


@settings(max_examples=200, deadline=None)
@given(methods, streams)
def test_map_is_semi_distribution(method, stream):
    kind, param = method
    pred = make_predictor(kind, param)
    for o in stream:
        pred.update(o)
        q = pred.predict()
        assert all(0.0 <= v <= 1.0 for v in q.values()), (kind, param, q)
        if kind in SD_KINDS:
            assert sum(q.values()) <= 1.0 + SUM_SLACK, (kind, param, q)


def _assert_no_zero_entries(kind, param, stream):
    pred = make_predictor(kind, param)
    for o in stream:
        pred.update(o)
        q = pred.predict()
        assert all(v > 0.0 for v in q.values()), (kind, param, q)


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
def test_map_has_no_zero_entries(kind):
    for k, param, stream in ZERO_ENTRIES:
        if k == kind:
            _assert_no_zero_entries(kind, param, stream)

    @settings(max_examples=100, deadline=None)
    @given(PARAMS[kind].map(repr), streams)
    def check(param, stream):
        _assert_no_zero_entries(kind, param, stream)
    check()


@settings(max_examples=100, deadline=None)
@given(methods, streams)
def test_predict_is_pure(method, stream):
    pred = make_predictor(*method)
    for o in stream:
        before = state(pred)
        a = pred.predict()
        b = pred.predict()
        assert list(a.items()) == list(b.items())
        a[-1] = 1.0  # the caller owns the returned map
        assert state(pred) == before
        pred.update(o)


@settings(max_examples=100, deadline=None)
@given(methods, streams)
def test_same_stream_same_run(method, stream):
    one, two = make_predictor(*method), make_predictor(*method)
    for o in stream:
        one.update(o)
        two.update(o)
        assert list(one.predict().items()) == list(two.predict().items())
    assert state(one) == state(two)


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
@settings(max_examples=50, deadline=None)
@given(data=st.data(), fc=fc_configs,
       stream_kind=st.sampled_from(("stationary-single", "nonstat-single",
                                    "multi-item")),
       seed=st.integers(0, 2 ** 32 - 1), c_ns=st.integers(0, 3),
       window=st.one_of(st.none(), st.integers(1, 50)))
def test_prequential_scores_in_range(kind, data, fc, stream_kind, seed,
                                     c_ns, window):
    # stationary-single does not read o_min, and its stream does not
    # depend on it
    gen = {} if stream_kind == "stationary-single" else \
        {"gen": GenConfig(o_min=2, desired_len=150)}
    spec = ExperimentSpec(kind=stream_kind, roster=[], seq_len=150,
                          seed=seed, **gen)
    _, stream = next(spec_streams(spec))
    pred = make_predictor(kind, data.draw(PARAMS[kind].map(repr)))
    obs = stream.observations
    ecfg = EvalConfig(fc.p_min, fc.p_ns, c_ns, window)
    m = run_prequential(pred, obs, ecfg, noise_marks(obs, ecfg),
                        schedule=stream.schedule.per_step(len(obs)),
                        track_item=None if stream_kind == "multi-item" else 1)
    # every step scores at most -ln p_ns; the mean of n such scores may
    # round a few ulps past it
    assert 0.0 <= m["avg_logloss_ns"] <= -math.log(fc.p_ns) * (1 + 1e-12)
    assert 0.0 <= m["avg_quad"] <= 2.0
    rates = [v for k, v in m.items() if k.startswith("dev_rate")]
    assert len(rates) == (4 if stream_kind == "multi-item" else 2)
    assert all(0.0 <= r <= 1.0 for r in rates)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(("ema", "harmonic-ema", "queues", "ts-queues", "box",
                        "dyal")),
       st.integers(0, 2 ** 32 - 1), st.floats(0.2, 1.0))
def test_state_bounded_on_open_ended_stream(kind, seed, fresh):
    # mostly fresh ids, 3000 steps: unpruned, the maps would grow past
    # every bound below
    pred = make_predictor(kind, {"ema": "0.1", "harmonic-ema": "0.1",
                                 "box": "50", "dyal": "0.01"}.get(kind, "3"))
    rng = np.random.default_rng(seed)
    # Every Ema rate is at least 0.1, so a weight last boosted a steps
    # ago is at most 0.9**a: a fold keeps only items seen in the last
    # `recent` steps, and the scale halves within `fold` steps.
    recent = math.floor(math.log(EMA_FLOOR) / math.log(0.9)) + 1
    fold = math.ceil(math.log(0.5) / math.log(0.9))
    for t in range(3000):
        o = 10 ** 6 + t if rng.random() < fresh else int(rng.integers(0, 5))
        pred.update(o)
        if kind in ("ema", "harmonic-ema"):
            assert len(pred.weights) <= recent + fold
            continue
        if kind == "box":
            # only the last k observations are kept and counted
            assert len(pred.counts) <= 50 and len(pred.window) <= 50
            assert len(pred.probs) <= 50
            continue
        queues = pred.queues if kind == "dyal" else pred
        # cut back below 2*s1 at every prune, at most prune_every new
        # queues in between
        assert len(queues.stamps) < 2 * queues.s1 + queues.prune_every
        if kind == "dyal":
            assert len(pred.rate_map) == len(pred.ema_map) \
                <= len(queues.q_map)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("queues", "dyal")), st.integers(2, 6),
       st.integers(1, 5), st.integers(1, 60), st.integers(1, 12), streams)
def test_queue_tiers(kind, qcap, s1, s2, prune_every, stream):
    # pruning on, with a small s1: every item in q_map has a queue, each
    # queue in q_map holds 2 to qcap stamps, each Dyal edge has its queue
    # there, and Queues.update returns exactly the ids its heartbeat prune
    # dropped, () between heartbeats
    kw = dict(qcap=qcap, s1=s1, s2=s2, prune_every=prune_every)
    pred = Dyal(**kw) if kind == "dyal" else Queues(**kw)
    queues = pred.queues if kind == "dyal" else pred
    for o in stream:
        if kind == "dyal":
            pred.update(o)
        else:
            held = queues.stamps.keys() | {o}
            dropped = pred.update(o)
            if queues.clock % prune_every:
                assert dropped == ()
            else:
                assert dropped == held - queues.stamps.keys()
        assert queues.q_map.keys() <= queues.stamps.keys()
        assert all(2 <= len(queues.stamps[i]) <= qcap
                   for i in queues.q_map)
        if kind == "dyal":
            assert pred.ema_map.keys() <= queues.q_map.keys()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("queues", "dyal")), st.integers(2, 6),
       st.integers(1, 5), st.integers(1, 60), st.integers(1, 12), streams)
def test_q_map_follows_stamps(kind, qcap, s1, s2, prune_every, stream):
    # pruning on, with a small s1, after every update: each queue is
    # strictly decreasing and holds 1 to qcap stamps; q_map holds exactly
    # the queues of 2 or more stamps, each as (stamps - 1, oldest stamp);
    # and its keys run in the order in which the items got their second
    # stamp since they were last dropped, the order predict() sums in
    kw = dict(qcap=qcap, s1=s1, s2=s2, prune_every=prune_every)
    pred = Dyal(**kw) if kind == "dyal" else Queues(**kw)
    queues = pred.queues if kind == "dyal" else pred
    order = []
    for o in stream:
        second = len(queues.stamps.get(o, ())) == 1
        pred.update(o)
        order = [i for i in order + [o] * second if i in queues.stamps]
        for q in queues.stamps.values():
            assert 1 <= len(q) <= qcap
            assert all(a > b for a, b in zip(q, q[1:]))
        assert queues.q_map == {i: (len(q) - 1, q[-1])
                                for i, q in queues.stamps.items()
                                if len(q) >= 2}
        assert list(queues.q_map) == order


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(2, 6), st.floats(0.0, 20.0),
       st.floats(0.0, 0.5), st.integers(1, 5), st.integers(1, 60),
       st.integers(1, 12), streams)
def test_dyal_maps_in_lockstep(beta_min, qcap, sig_thresh, p_min, s1, s2,
                               prune_every, stream):
    # Dyal.update walks ema_map and reads each edge's rate from
    # rate_map, so every edge needs its rate. The two maps gain and lose
    # keys together, so they also keep one order. Both hold after every
    # update: through new edges, resets, drops after the walk and the
    # heartbeat prunes that a small s1 and prune_every bring about
    d = Dyal(beta_min, qcap, sig_thresh, p_min, s1, s2, prune_every)
    for o in stream:
        d.update(o)
        assert list(d.ema_map) == list(d.rate_map)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8),
       st.one_of(streams, st.lists(st.integers(0, 4), max_size=60)))
@example(2, [0, 1, 0, 1, 1, 0, 2, 0, 0, 3])
def test_box_map_is_exact(k, stream):
    # a brute-force model: counts over the slice w of the last k
    # observations, each key in the place it took when it last entered.
    # predict() matches it exactly, values and order, while the window
    # fills and after, and probs keeps counts' key order once it is full
    b = Box(k)
    seen, model = [], {}
    for o in stream:
        b.update(o)
        seen.append(o)
        w = seen[-k:]
        model = {i: w.count(i) for i in [*model, o] if i in w}
        assert list(b.predict().items()) == \
            [(i, c / len(w)) for i, c in model.items()]
        if len(w) == k:
            assert list(b.probs) == list(b.counts)
