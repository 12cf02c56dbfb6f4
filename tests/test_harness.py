import csv
import dataclasses
import inspect
import math
import os
import signal
import sys
from itertools import combinations

import numpy as np
import pytest
from click.testing import CliRunner

from smatrack import harness, synth
from smatrack.cli import cli, main
from smatrack.evaluation import Referee, Schedule, sign_test
from smatrack.harness import (ConfigError, EvalConfig, ExperimentSpec,
                              ingest_sequence, make_predictor,
                              run_experiment, run_prequential, self_concat)
from smatrack.predictors import Box, Dyal, Ema, Queues
import reference_scoring
import test_identity
from reference_scoring import noise_marks


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


class EmptyPredictor:
    def predict(self):
        return {}

    def update(self, o):
        pass


# --- ingestion --------------------------------------------------------------

def test_ingest_interning(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("ls\ncat\nls\n")
    assert ingest_sequence(str(p)) == [0, 1, 0]


def test_ingest_empty_and_blank_lines(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("")
    with pytest.raises(ConfigError, match=r"seq\.txt holds no tokens$"):
        ingest_sequence(str(p))
    p.write_text("a\n\n\nb\na\n")
    assert ingest_sequence(str(p)) == [0, 1, 0]


def test_ingest_splits_at_every_line_separator(tmp_path):
    # text mode ends lines at \n, \r and \r\n; str.splitlines also at
    # \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029; blanks around a
    # token go, blanks inside it stay
    p = tmp_path / "seq.txt"
    p.write_text("a\x0bb\r\nc\x0ca\x1cd e\x1d\x1eb\x85c\rd e\u2028"
                 "\u2029 f \n\na", encoding="utf-8", newline="")
    assert ingest_sequence(str(p)) == [0, 1, 2, 0, 3, 1, 2, 3, 4, 0]


def test_ingest_missing_file():
    with pytest.raises(IOError):
        ingest_sequence("/nonexistent/nope.txt")


def test_ingest_names_a_file_that_is_not_utf8(tmp_path):
    # the decode error used to reach the CLI without the file's name
    p = tmp_path / "seq.txt"
    p.write_bytes(b"a\n\xff\n")
    with pytest.raises(OSError) as e:
        ingest_sequence(str(p))
    assert str(e.value).startswith("cannot read %s: 'utf-8' codec can't "
                                   "decode byte 0xff" % p)


def test_ingest_deterministic(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("\n".join("abcab" * 100) + "\n")
    assert ingest_sequence(str(p)) == ingest_sequence(str(p))


# --- run_prequential --------------------------------------------------------

def test_prequential_empty_predictor_all_ns():
    obs, ecfg = [1, 1, 1], EvalConfig()
    res = run_prequential(EmptyPredictor(), obs, ecfg, noise_marks(obs, ecfg))
    assert res["avg_logloss_ns"] == 0.0


def test_prequential_bounded():
    obs, ecfg = [1, 1, 1, 1, 2, 2, 2, 2], EvalConfig()
    res = run_prequential(Dyal(), obs, ecfg, noise_marks(obs, ecfg))
    assert 0.0 <= res["avg_logloss_ns"] <= -math.log(0.01)


def test_prequential_needs_one_mark_and_one_truth_per_step():
    obs, ecfg = [1, 2, 1, 1], EvalConfig()
    marks = noise_marks(obs, ecfg)
    truth = Schedule([(1, {1: 0.5})]).per_step(len(obs))
    for short_marks, short_truth in ((marks[:-1], truth),
                                     (marks, truth[:-1])):
        with pytest.raises(ValueError):
            run_prequential(Dyal(), obs, ecfg, short_marks,
                            schedule=short_truth)


def test_benchmark_bound_names():
    # The benchmark binds the pass's arguments by name (obs for its
    # reference check, schedule for its scheduled-step count) and wraps
    # make_predictor with two arguments.
    params = inspect.signature(run_prequential).parameters
    assert list(params)[:2] == ["pred", "obs"]
    assert "schedule" in params
    inspect.signature(make_predictor).bind("ema", "0.1")
    assert isinstance(make_predictor("ema", "0.1"), Ema)


def test_prequential_agrees_with_reference_scorer():
    # the per-step scorer must match the earlier two-rule code exactly:
    # same rules, same summation order
    rng = np.random.default_rng(0)
    obs = rng.integers(0, 5, size=300).tolist()
    ecfg = EvalConfig()
    pred_a = Ema(beta=0.05)
    res = run_prequential(pred_a, obs, ecfg, noise_marks(obs, ecfg))
    pred_b = Ema(beta=0.05)
    ref = Referee(c_ns=2)
    loss = quad = 0.0
    for o in obs:
        q = pred_b.predict()
        loss += reference_scoring.logloss_rule_ns(o, q, ref.is_ns(o), ecfg)
        quad += reference_scoring.quad_rule(q, o, ecfg)
        pred_b.update(o)
    assert res["avg_logloss_ns"] == loss / len(obs)
    assert res["avg_quad"] == quad / len(obs)


_PARAMS = {"ema": "0.05", "harmonic-ema": "0.01", "queues": "3",
           "ts-queues": "10", "box": "50", "dyal": "0.01"}


@pytest.mark.parametrize("kind", harness.PREDICTOR_KINDS)
@pytest.mark.parametrize("stream", ["multi-item", "nonstat-single"])
def test_prequential_matches_per_step_reference(kind, stream):
    # losses and every dev_rate, recomputed one step and one threshold at
    # a time through logloss_rule_ns, quad_rule and the earlier
    # per-threshold deviates/multidev, must come out equal
    rng = np.random.default_rng(7)
    if stream == "multi-item":
        s = synth.gen_sequence(synth.GenConfig(o_min=10, desired_len=1500),
                               rng)
        track = None
    else:
        s = synth.gen_single_nonstationary(
            "oscillate", synth.GenConfig(o_min=5), 1500, rng)
        track = 1
    ecfg = EvalConfig(dev_ds=(1.0, 1.5, 2.0, 4.0))
    res = run_prequential(make_predictor(kind, _PARAMS[kind]),
                          s.observations, ecfg,
                          noise_marks(s.observations, ecfg),
                          schedule=s.schedule.per_step(len(s.observations)),
                          track_item=track)
    want = reference_scoring.prequential(
        make_predictor(kind, _PARAMS[kind]), s.observations, ecfg,
        schedule=s.schedule, track_item=track)
    assert len(want) == 2 + len(ecfg.dev_ds) * (1 if track else 2)
    assert res == want


def test_prequential_single_item_dev_metrics():
    s = synth.gen_binary_stationary(0.1, 2000, np.random.default_rng(1))
    res = run_prequential(Ema(1.0, 0.001),
                          s.observations, EvalConfig(),
                          noise_marks(s.observations, EvalConfig()),
                          schedule=s.schedule.per_step(len(s.observations)),
                          track_item=1)
    assert "dev_rate_d1.5" in res
    assert 0.0 <= res["dev_rate_d1.5"] <= 1.0


def test_prequential_multi_item_dev_metrics():
    s = synth.gen_sequence(synth.GenConfig(o_min=10, desired_len=2000),
                           np.random.default_rng(2))
    res = run_prequential(Dyal(), s.observations, EvalConfig(),
                          noise_marks(s.observations, EvalConfig()),
                          schedule=s.schedule.per_step(len(s.observations)))
    assert "dev_rate_obs_d1.5" in res
    assert "dev_rate_any_d2" in res
    assert res["dev_rate_obs_d1.5"] <= res["dev_rate_any_d1.5"] + 1e-12


class FixedPredictor(EmptyPredictor):
    def __init__(self, q):
        self.q = q

    def predict(self):
        return dict(self.q)


def test_prequential_ratio_equal_to_d_does_not_deviate():
    # every estimate is off by exactly 2 (powers of two divide exactly);
    # the noise observation 9 gets exactly p_min
    sched = Schedule([(1, {1: 0.25, 2: 0.5})])
    pred = FixedPredictor({1: 0.5, 2: 0.25, 9: 0.01})
    obs = [1, 2, 9, 1]
    ecfg = EvalConfig(dev_ds=(1.5, 2.0))
    marks, truth = noise_marks(obs, ecfg), sched.per_step(len(obs))
    m = run_prequential(pred, obs, ecfg, marks, schedule=truth)
    assert m == reference_scoring.prequential(pred, obs, ecfg,
                                              schedule=sched)
    assert m["dev_rate_any_d1.5"] == m["dev_rate_obs_d1.5"] == 1.0
    assert m["dev_rate_any_d2"] == 0.0
    assert m["dev_rate_obs_d2"] == 0.25   # only the noise step
    m = run_prequential(pred, obs, ecfg, marks, schedule=truth,
                        track_item=2)
    assert m["dev_rate_d1.5"] == 1.0 and m["dev_rate_d2"] == 0.0


def test_eval_config_rejects_out_of_domain():
    # p_min and p_ns need 0 < p_ns <= p_min < 1, also as a pair
    for kw in ({"p_ns": 0.0}, {"p_ns": 1.0}, {"p_ns": -0.1},
               {"p_ns": float("nan")}, {"p_min": -0.01}, {"p_min": 1.0},
               {"p_min": 0.0}, {"p_ns": 0.5}, {"p_min": 0.005},
               {"p_min": 0.02, "p_ns": 0.05},
               {"c_ns": -1}, {"window": 0}, {"window": -3},
               {"dev_ds": (0.5,)}, {"dev_ds": (1.5, 0.99)},
               {"dev_ds": (math.inf,)}, {"dev_ds": (1.5, 2.0, 1.5)},
               {"dev_ds": (1.5, 1.5000001)}):
        with pytest.raises(ConfigError):
            EvalConfig(**kw)
    # a bool is no number: True would pass as the threshold 1
    for bad in (True, False):
        with pytest.raises(ConfigError) as e:
            EvalConfig(dev_ds=(1.5, bad))
        assert str(e.value) == "deviation threshold d must be finite " \
            "and >= 1, got %r" % bad
    # domain edges
    EvalConfig(p_min=0.999, p_ns=0.999, c_ns=0, window=1, dev_ds=(1.0,))
    EvalConfig(p_min=5e-324, p_ns=5e-324)
    # the scoring thresholds are checked once, and fc() hands them on
    ecfg = EvalConfig(p_min=0.05, p_ns=0.02)
    assert ecfg.fc() is ecfg.fc()
    assert (ecfg.fc().p_min, ecfg.fc().p_ns) == (0.05, 0.02)
    # the scoring thresholds lead, and the fields keep their order
    assert EvalConfig(0.05, 0.02, 3, 7, (1.2,)) == EvalConfig(
        p_min=0.05, p_ns=0.02, c_ns=3, window=7, dev_ds=(1.2,))


# --- predictor registry -----------------------------------------------------

def test_make_predictor_kinds():
    for kind, param in [("ema", "0.01"), ("harmonic-ema", "0.001"),
                        ("queues", "3"), ("ts-queues", "3"),
                        ("box", "100"), ("dyal", "0.01"),
                        # domain edges
                        ("ema", "1"), ("harmonic-ema", "0"),
                        ("harmonic-ema", "1"), ("queues", "2"),
                        ("ts-queues", "2"), ("box", "1"), ("dyal", "0"),
                        ("dyal", "1")]:
        p = make_predictor(kind, param)
        assert p.predict() == {}
    # each kind builds its class with the parameter in its place
    for kind, param, cls, attrs in [
            ("ema", "0.25", Ema, {"beta": 0.25, "beta_min": 0.25}),
            ("harmonic-ema", "0.001", Ema, {"beta": 1.0, "beta_min": 0.001}),
            ("queues", "3", Queues, {"qcap": 3}),
            ("ts-queues", "4", Queues, {"qcap": 4}),
            ("box", "100", Box, {"k": 100}),
            ("dyal", "0.02", Dyal, {"beta_min": 0.02}),
            # a number goes to the constructor as it is
            ("queues", 10, Queues, {"qcap": 10}),
            ("ema", 0.25, Ema, {"beta": 0.25, "beta_min": 0.25})]:
        p = make_predictor(kind, param)
        assert type(p) is cls
        assert {a: getattr(p, a) for a in attrs} == attrs, kind


def test_make_predictor_unknown():
    # the CLI prints these messages after "error: "; the domain text
    # comes from the constructor
    for method, message in [
            ("nope:1", "unknown predictor kind: 'nope'"),
            ("bogus:1", "unknown predictor kind: 'bogus'"),
            ("ema:abc", "method ema:abc: need beta in (0, 1]"),
            ("ema:0", "method ema:0: need beta in (0, 1]"),
            ("ema:1.5", "method ema:1.5: need beta in (0, 1]"),
            ("ema:nan", "method ema:nan: need beta in (0, 1]"),
            ("ema:inf", "method ema:inf: need beta in (0, 1]"),
            ("harmonic-ema:-0.1",
             "method harmonic-ema:-0.1: need beta_min in [0, 1]"),
            ("harmonic-ema:2",
             "method harmonic-ema:2: need beta_min in [0, 1]"),
            ("queues:0", "method queues:0: need integer qcap >= 2"),
            ("queues:1", "method queues:1: need integer qcap >= 2"),
            ("queues:2.5", "method queues:2.5: need integer qcap >= 2"),
            ("queues:abc", "method queues:abc: need integer qcap >= 2"),
            ("ts-queues:0", "method ts-queues:0: need integer qcap >= 2"),
            ("box:0", "method box:0: need integer k >= 1"),
            ("box:-3", "method box:-3: need integer k >= 1"),
            ("dyal:-1", "method dyal:-1: need beta_min in [0, 1]"),
            ("dyal:1.5", "method dyal:1.5: need beta_min in [0, 1]"),
            ("dyal:abc", "method dyal:abc: need beta_min in [0, 1]")]:
        with pytest.raises(ConfigError) as e:
            make_predictor(*method.split(":", 1))
        assert str(e.value) == message
    # only text is parsed: int() truncated 10.7 to 10 and 2.9 to 2
    for kind, param, message in [
            ("queues", 2.5, "method queues:2.5: need integer qcap >= 2"),
            ("queues", 10.7, "method queues:10.7: need integer qcap >= 2"),
            ("ts-queues", 3.0, "method ts-queues:3.0: need integer qcap "
             ">= 2"),
            ("box", 2.9, "method box:2.9: need integer k >= 1"),
            ("ema", None, "method ema:None: need beta in (0, 1]"),
            ("dyal", [0.01], "method dyal:[0.01]: need beta_min in [0, 1]"),
            # a bool is no number: True ran as box:1, False as dyal:0
            ("box", True, "method box:True: need integer k >= 1"),
            ("ema", True, "method ema:True: need beta in (0, 1]"),
            ("harmonic-ema", False,
             "method harmonic-ema:False: need beta_min in [0, 1]"),
            ("dyal", False, "method dyal:False: need beta_min in [0, 1]")]:
        with pytest.raises(ConfigError) as e:
            make_predictor(kind, param)
        assert str(e.value) == message


def test_ts_queues_state_bounded():
    # an open vocabulary: most items are seen once, so without the prune
    # the map would grow with the stream
    p = make_predictor("ts-queues", "10")
    rng = np.random.default_rng(16)
    for t in range(20000):
        p.update(int(rng.integers(0, 20)) if rng.random() < 0.5 else 100 + t)
        assert len(p.stamps) < 2 * p.s1 + p.prune_every


# --- self-concat traces -----------------------------------------------------

def test_self_concat_stationary_flat():
    rng = np.random.default_rng(3)
    obs = rng.integers(0, 3, size=400).tolist()
    trace = [mx for _, mx, _, _ in self_concat(obs, 10, Dyal(beta_min=0.01))]
    first_pass = trace[:400]
    rest = trace[2 * 400:]
    # after the first pass the max rate settles near the floor
    assert max(rest) <= 0.2
    assert sum(rest) / len(rest) < sum(first_pass) / len(first_pass)


def test_self_concat_drifting_spikes():
    rng = np.random.default_rng(4)
    # two very different halves: repeating them re-triggers learning
    obs = rng.integers(0, 3, size=200).tolist() + \
        rng.integers(10, 13, size=200).tolist()
    trace = [mx for _, mx, _, _ in self_concat(obs, 10, Dyal(beta_min=0.01))]
    spikes = 0
    for k in range(1, 10):
        seg = trace[k * 400:(k + 1) * 400]
        if max(seg) >= 0.2:
            spikes += 1
    assert spikes >= 8  # a spike in (nearly) every later pass


def test_self_concat_k1_length():
    obs = [1, 2, 3]
    steps = list(self_concat(obs, 1, Dyal()))
    assert len(steps) == 3 and all(e is None for e, *_ in steps)


def test_self_concat_tracks_estimates():
    obs = [1, 2, 1, 1, 3, 1] * 20
    steps = list(self_concat(obs, 2, Dyal(), track_item=1))
    est = [e for e, *_ in steps]
    dyal = Dyal()
    want = []
    for o in obs * 2:
        want.append(dyal.predict().get(1, 0.0))
        dyal.update(o)
    assert est == want
    assert est[0] == 0.0 and est[-1] > 0.5
    # tracking only reads predict(), so the rates are those of an
    # untracked run
    assert [s[1:] for s in steps] == \
        [s[1:] for s in self_concat(obs, 2, Dyal())]


# --- run_experiment ---------------------------------------------------------

def _small_spec(tmp_path, **kw):
    args = dict(kind="stationary-single",
                roster=[("ema:0.05", "ema", "0.05"),
                        ("queues:3", "queues", "3")],
                out_dir=str(tmp_path / "out"), n_seqs=4, seq_len=500,
                seed=7, tp=0.2)
    args.update(kw)
    return ExperimentSpec(**args)


def test_experiment_writes_csvs(tmp_path):
    res = run_experiment(_small_spec(tmp_path))
    out = tmp_path / "out"
    for name in ("per_seq.csv", "aggregate.csv", "sign_tests.csv"):
        assert (out / name).exists()
    assert res["sign_tests"]


def test_experiment_deterministic(tmp_path):
    run_experiment(_small_spec(tmp_path, out_dir=str(tmp_path / "a")))
    run_experiment(_small_spec(tmp_path, out_dir=str(tmp_path / "b")))
    for name in ("per_seq.csv", "aggregate.csv", "sign_tests.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_experiment_roster_isolation(tmp_path):
    full = run_experiment(_small_spec(tmp_path, out_dir=None))
    solo = run_experiment(_small_spec(tmp_path, out_dir=None,
                                      roster=[("ema:0.05", "ema", "0.05")]))
    assert full["losses_by_method"]["ema:0.05"] == \
        solo["losses_by_method"]["ema:0.05"]


def test_experiment_aggregates_recomputable(tmp_path):
    res = run_experiment(_small_spec(tmp_path, out_dir=None))
    by_key = {}
    for _seq, m, p, k, v in res["rows"]:
        by_key.setdefault((m, p, k), []).append(v)
    for m, p, k, mu, sd in res["aggregates"]:
        vals = by_key[(m, p, k)]
        assert close(mu, sum(vals) / len(vals))


def test_experiment_multi_item_has_optimal():
    spec = ExperimentSpec(kind="multi-item",
                          roster=[("ema:0.05", "ema", "0.05"),
                                  ("queues:3", "queues", "3")],
                          n_seqs=2, seq_len=500, seed=7,
                          gen=synth.GenConfig(o_min=10))
    res = run_experiment(spec)
    assert any(m == "optimal" for _s, m, _p, _k, _v in res["rows"])


def _sequence_rng(seed, k):
    """The rng of sequence k: SeedSequence(seed)'s k-th spawned child."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(k + 1)[k])


@pytest.mark.parametrize("gen", [None, synth.GenConfig(o_min=3)])
def test_seq_len_sets_the_multi_item_length(gen):
    # seq_len, not gen.desired_len, sets the length: the stream stops in
    # the first period to reach seq_len (with desired_len it ran past
    # 10,000 observations). None leaves gen at its default.
    kw = {} if gen is None else {"gen": gen}
    spec = ExperimentSpec(kind="multi-item", roster=[], seq_len=500, seed=3,
                          **kw)
    _, stream = next(harness.streams(spec))
    cfg = synth.GenConfig(o_min=spec.gen.o_min, desired_len=500)
    assert stream.observations == \
        synth.gen_sequence(cfg, _sequence_rng(3, 0)).observations
    assert len(stream.observations) >= 500
    assert stream.schedule.entries[-1][0] <= 500


def test_streams_makes_each_stream_when_asked(monkeypatch):
    # run_experiment scores one sequence before the next is drawn: the
    # first of three streams is made by one call to the kind's maker.
    # Sequence k is drawn with the rng of SeedSequence(seed)'s k-th child.
    track, read, make = harness._EXPERIMENTS["stationary-single"]
    made = []
    monkeypatch.setitem(harness._EXPERIMENTS, "stationary-single", (
        track, read, lambda s, rng: made.append(make(s, rng)) or made[-1]))
    spec = ExperimentSpec(kind="stationary-single", roster=[], n_seqs=3,
                          seq_len=50, seed=9)
    seqs = harness.streams(spec)
    assert made == []
    assert next(seqs) == (0, made[0]) and len(made) == 1
    assert list(seqs) == [(1, made[1]), (2, made[2])]
    assert [s.observations for s in made] == \
        [make(spec, _sequence_rng(9, k)).observations for k in range(3)]


# A value other than ExperimentSpec's default for each field of the kind
# table.
_OTHER = {"n_seqs": 3, "seq_len": 700, "seed": 5, "tp": 0.7, "mode": "uniform",
          "o_min": 7, "l_min": 2000, "p_max": 0.3, "recycle": True,
          "input_path": "t.txt"}


@pytest.mark.parametrize("kind, mode, reads", [
    ("stationary-single", "oscillate", 4), ("nonstat-single", "uniform", 6),
    ("nonstat-single", "oscillate", 5), ("multi-item", "oscillate", 7),
    ("real-file", "oscillate", 1)])
def test_each_kind_reads_the_fields_its_table_entry_names(kind, mode, reads):
    # ExperimentSpec refuses a field the table says the kind does not
    # read, set to a value other than its default, and names it; a field
    # it reads moves the first stream of harness.streams, seed among
    # them, and n_seqs sets how many streams there are.
    unread = harness.unread_fields(kind, mode)
    assert unread <= set(_OTHER) and len(_OTHER) - len(unread) == reads
    if kind == "real-file":
        assert unread == set(_OTHER) - {"input_path"}
    other = dict(_OTHER, mode="oscillate") if mode == "uniform" else _OTHER
    base = {"seq_len": 400, "o_min": 5, "input_path": "t.txt"}

    def spec(**changed):
        kw = {"kind": kind, "roster": [], "mode": mode,
              **{f: v for f, v in base.items() if f not in unread},
              **changed}
        gen = {f: kw.pop(f) for f in ("o_min", "l_min", "p_max", "recycle")
               if f in kw}
        return ExperimentSpec(gen=synth.GenConfig(**gen), **kw)

    def stream(**changed):
        _, made = next(harness.streams(spec(**changed)))
        return made.observations, made.schedule.entries

    for f, v in other.items():
        if f in unread:
            with pytest.raises(ConfigError) as e:
                spec(**{f: v})
            assert str(e.value) == "kind %r does not read %s" % (kind, f)
        elif f == "n_seqs":
            assert sum(1 for _ in harness.streams(spec(n_seqs=v))) == v
        elif f != "input_path":
            assert stream(**{f: v}) != stream(), f


def test_experiment_real_file(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("\n".join(["a", "b"] * 200) + "\n")
    spec = ExperimentSpec(kind="real-file", input_path=str(p),
                          roster=[("dyal:0.01", "dyal", "0.01")])
    res = run_experiment(spec)
    assert len(res["losses_by_method"]["dyal:0.01"]) == 1


def test_experiment_rejects_bad_roster(tmp_path):
    # an entry that is not a (label, kind, param) triple used to fail
    # with a bare unpacking ValueError
    for roster, msg in (
            ([("x", "nope", "1")], "unknown predictor kind: 'nope'"),
            ([("x", "ema", "0")], "method ema:0: need beta in (0, 1]"),
            ([("ema:0.1", "ema", "0.1"), ("ema:0.1", "ema", "0.1")],
             "roster label 'ema:0.1' appears twice"),
            ([("ema", "0.1")], "roster entry ('ema', '0.1') is not a "
             "(label, kind, param) triple"),
            (["ema:0.1"], "roster entry 'ema:0.1' is not a (label, kind, "
             "param) triple")):
        with pytest.raises(ConfigError) as e:
            _small_spec(tmp_path, roster=roster)
        assert str(e.value) == msg


def test_experiment_rejects_no_sequences(tmp_path):
    with pytest.raises(ConfigError):
        _small_spec(tmp_path, n_seqs=0)


def test_experiment_rejects_bad_inputs(tmp_path):
    # a real-file run without a file used to die in open() with a bare
    # TypeError, a negative or fractional seed or n_seqs and a
    # fractional seq_len in numpy or a slice, and a mode other than
    # oscillate and uniform at run time; a field the kind does not read
    # was ignored, and so was a gen.desired_len other than seq_len
    for kw, msg in (({"kind": "real-file"},
                     "kind 'real-file' needs an input_path"),
                    ({"kind": "real-file", "input_path": ""},
                     "kind 'real-file' needs an input_path"),
                    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
                    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
                    ({"n_seqs": 1.5},
                     "n_seqs must be an integer >= 1, got 1.5"),
                    ({"n_seqs": "3"},
                     "n_seqs must be an integer >= 1, got '3'"),
                    # a whole float is still no integer, numpy's or not
                    ({"seed": 3.0}, "seed must be an integer >= 0, got 3.0"),
                    ({"n_seqs": np.float64(3.0)}, "n_seqs must be an "
                     "integer >= 1, got %r" % (np.float64(3.0),)),
                    # nor is a bool, which passed as 1 or 0
                    ({"n_seqs": True},
                     "n_seqs must be an integer >= 1, got True"),
                    ({"seq_len": True},
                     "seq_len must be an integer >= 1, got True"),
                    ({"seed": False},
                     "seed must be an integer >= 0, got False"),
                    ({"roster": [("b", "box", True)]},
                     "method box:True: need integer k >= 1"),
                    ({"roster": [("d", "dyal", False)]},
                     "method dyal:False: need beta_min in [0, 1]"),
                    ({"kind": "nonstat-single", "tp": 0.1, "seq_len": 50.5},
                     "seq_len must be an integer >= 1, got 50.5"),
                    ({"kind": "nonstat-single", "tp": 0.1,
                      "mode": "sideways"}, "mode must be 'oscillate' or "
                     "'uniform', got 'sideways'"),
                    ({"mode": "uniform"},
                     "kind 'stationary-single' does not read mode"),
                    # tp at its default, which nonstat-single does not read
                    ({"kind": "nonstat-single", "tp": 0.1,
                      "gen": synth.GenConfig(l_min=2000)},
                     "kind 'nonstat-single' does not read l_min"),
                    ({"kind": "multi-item"},
                     "kind 'multi-item' does not read tp"),
                    ({"gen": synth.GenConfig(desired_len=1000)},
                     "gen.desired_len 1000 differs from seq_len 500, which "
                     "sets the length"),
                    ({"kind": "multi-item", "tp": 0.1,
                      "gen": synth.GenConfig(desired_len=499)},
                     "gen.desired_len 499 differs from seq_len 500, which "
                     "sets the length")):
        with pytest.raises(ConfigError) as e:
            _small_spec(tmp_path, **kw)
        assert str(e.value) == msg


def test_experiment_accepts_numpy_integers():
    # numpy's integers are numbers.Integral: they pass the checks and
    # draw the same streams as Python ints of the same values
    def observations(n_seqs, seq_len, seed):
        spec = ExperimentSpec(kind="stationary-single", roster=[],
                              n_seqs=n_seqs, seq_len=seq_len, seed=seed)
        return [s.observations for _, s in harness.streams(spec)]
    assert observations(np.int64(2), np.int64(40), np.int64(5)) == \
        observations(2, 40, 5)


def test_experiment_spec_is_frozen(tmp_path):
    # an assignment would get past __post_init__'s checks: a roster
    # entry appended twice merged its results and sign-tested the label
    # against itself, and seq_len 0 scored empty streams as 0.0
    spec = _small_spec(tmp_path)
    assert spec.roster == (("ema:0.05", "ema", "0.05"),
                           ("queues:3", "queues", "3"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seq_len = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.roster = [("box:5", "box", "5")] * 2
    with pytest.raises(AttributeError):
        spec.roster.append(("box:5", "box", "5"))


def test_experiment_rejects_bad_kind(tmp_path):
    for kind in ("nope", "self-concat"):
        with pytest.raises(ConfigError):
            _small_spec(tmp_path, kind=kind)


# --- CLI --------------------------------------------------------------------

def test_cli_gen_and_run_roundtrip(tmp_path):
    runner = CliRunner()
    gen_dir = str(tmp_path / "gen")
    r = runner.invoke(cli, ["gen", "--kind", "stationary-single", "--tp",
                            "0.2", "--seq-len", "300", "--seed", "1",
                            "--out", gen_dir])
    assert r.exit_code == 0, r.output
    assert os.path.exists(os.path.join(gen_dir, "stream.txt"))
    assert os.path.exists(os.path.join(gen_dir, "schedule.csv"))

    out_dir = str(tmp_path / "run")
    r = runner.invoke(cli, ["run", "--kind", "stationary-single",
                            "--method", "ema:0.05", "--method", "queues:3",
                            "--n-seqs", "3", "--seq-len", "300",
                            "--out", out_dir])
    assert r.exit_code == 0, r.output
    with open(os.path.join(out_dir, "per_seq.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    assert {row["method"] for row in rows} == \
        {"ema:0.05", "queues:3", "optimal"}


# gen --kind -> (the synth generator it calls, the options of the kind
# that gen's tests give)
_GEN_KINDS = {
    "stationary-single": ("gen_binary_stationary", ["--tp", "0.2"]),
    "nonstat-single": ("gen_single_nonstationary",
                       ["--mode", "uniform", "--o-min", "5", "--l-min", "20"]),
    "multi-item": ("gen_sequence", ["--o-min", "5", "--l-min", "20"])}


def test_cli_gen_and_run_share_stream_options():
    # gen and run declare the same stream options in the same order: each
    # command's params from --kind to --out, less run's roster, sequence
    # count, input file and scoring options. gen's kinds are run's, less
    # real-file, which has no schedule to write.
    def stream_params(command, leave_out=()):
        names = [p.name for p in cli.commands[command].params]
        return [n for n in names[names.index("kind"):names.index("out")]
                if n not in leave_out]

    assert stream_params("gen") == stream_params(
        "run", {"methods", "n_seqs", "input_path", "p_min", "p_ns", "c_ns",
                "referee_window", "dev"})
    kinds = {c: cli.commands[c].params[0] for c in ("gen", "run")}
    assert kinds["gen"].name == kinds["run"].name == "kind"
    assert list(kinds["gen"].type.choices) == [
        k for k in kinds["run"].type.choices if k != "real-file"]


@pytest.mark.parametrize("kind", list(_GEN_KINDS))
def test_cli_gen_writes_sequence_0_of_run(tmp_path, monkeypatch, kind):
    # gen writes the stream and schedule that run, given the same stream
    # options, scores as its sequence 0; the synth generator is wrapped
    # to keep what each command drew
    name, opts = _GEN_KINDS[kind]
    stream = ["--kind", kind, *opts, "--seq-len", "400", "--seed", "3"]
    made = []
    draw = getattr(synth, name)
    monkeypatch.setattr(synth, name,
                        lambda *a: made.append(draw(*a)) or made[-1])
    runner = CliRunner()
    r = runner.invoke(cli, ["run", *stream, "--method", "ema:0.1",
                            "--n-seqs", "2", "--out", str(tmp_path / "run")])
    assert r.exit_code == 0, r.output
    assert len(made) == 2
    harness.write_stream(str(tmp_path / "want"), made[0])
    r = runner.invoke(cli, ["gen", *stream, "--out", str(tmp_path / "gen")])
    assert r.exit_code == 0, r.output
    for f in ("stream.txt", "schedule.csv"):
        assert (tmp_path / "gen" / f).read_bytes() == \
            (tmp_path / "want" / f).read_bytes(), f


@pytest.mark.parametrize("kind", list(_GEN_KINDS))
def test_cli_gen_matches_generator(tmp_path, kind):
    # gen writes sequence 0 of harness.streams: the stream and schedule
    # of the matching synth generator, drawn with the rng of the first
    # child of SeedSequence(seed); each kind is given only the options it
    # reads
    out = tmp_path / "gen"
    r = CliRunner().invoke(cli, ["gen", "--kind", kind, *_GEN_KINDS[kind][1],
                                 "--seq-len", "400", "--seed", "7",
                                 "--out", str(out)])
    assert r.exit_code == 0, r.output
    rng = _sequence_rng(7, 0)
    gcfg = synth.GenConfig(o_min=5, l_min=20, desired_len=400)
    stream = {
        "stationary-single": lambda: synth.gen_binary_stationary(0.2, 400,
                                                                 rng),
        "nonstat-single": lambda: synth.gen_single_nonstationary(
            "uniform", gcfg, 400, rng),
        "multi-item": lambda: synth.gen_sequence(gcfg, rng),
    }[kind]()
    assert (out / "stream.txt").read_bytes() == \
        "".join("%d\n" % o for o in stream.observations).encode()
    assert (out / "schedule.csv").read_bytes() == "".join(
        ["start_t,item_id,prob\n"] +
        ["%d,%d,%r\n" % (t, i, sd[i]) for t, sd in stream.schedule.entries
         for i in sorted(sd)]).encode()


def test_sign_tests_cover_every_metric(tmp_path):
    # run sign-tests every roster pair on every metric of per_seq.csv, in
    # its metric order and then in roster order, with each method's
    # values in seq order. The runs are the identity spec's run-multi
    # and run-config; run-config sets --d 1.2 --d 3.
    spec = dict(test_identity.SPEC)
    runner = CliRunner()
    got = {}
    with runner.isolated_filesystem(temp_dir=tmp_path):
        for name in ("run-multi", "run-config"):
            r = runner.invoke(cli, spec[name] + ["--out", name])
            assert r.exit_code == 0, r.output
            values = {}
            with open(os.path.join(name, "per_seq.csv"), newline="") as f:
                for row in csv.DictReader(f):
                    values.setdefault(row["metric"], {}).setdefault(
                        row["method"], []).append(float(row["value"]))
            with open(os.path.join(name, "sign_tests.csv"), newline="") as f:
                got[name] = list(csv.reader(f))
            want = [["metric", "method_a", "method_b", "wins_a", "wins_b",
                     "ties", "p_value"]]
            for metric, by in values.items():
                for a, b in combinations(test_identity.ROSTER, 2):
                    wa, wb, t, p = sign_test(by[a], by[b])
                    want.append([metric, a, b, str(wa), str(wb), str(t),
                                 repr(p)])
            assert got[name] == want
    assert {row[0] for row in got["run-config"][1:]} == {
        "avg_logloss_ns", "avg_quad", "dev_rate_obs_d1.2",
        "dev_rate_any_d1.2", "dev_rate_obs_d3", "dev_rate_any_d3"}
    # What the removed compare command printed for these runs:
    # "ema:0.05 vs dyal:0.01: wins 1, losses 2, ties 0, p=1", and with
    # --metric avg_quad, "box:50 vs queues:3: wins 2, losses 1, ties 0,
    # p=1".
    assert ["avg_logloss_ns", "ema:0.05", "dyal:0.01", "1", "2", "0",
            "1.0"] in got["run-multi"]
    assert ["avg_quad", "queues:3", "box:50", "1", "2", "0",
            "1.0"] in got["run-config"]


def test_cli_trace(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("\n".join(["a", "b", "c"] * 50) + "\n")
    out_dir = str(tmp_path / "trace")
    runner = CliRunner()
    r = runner.invoke(cli, ["trace", "--input", str(p), "--method",
                            "dyal:0.01", "--self-concat", "3",
                            "--track-item", "0", "--out", out_dir])
    assert r.exit_code == 0, r.output
    with open(os.path.join(out_dir, "rate_trace.csv"), newline="") as f:
        rates = [(float(row["max_rate"]), float(row["median_rate"]),
                  int(row["out_degree"])) for row in csv.DictReader(f)]
    with open(os.path.join(out_dir, "estimate_trace.csv"), newline="") as f:
        est = [float(row["estimate"]) for row in csv.DictReader(f)]
    # both files come from one pass; each must equal its own fresh run
    dyal = Dyal(beta_min=0.01)
    want = []
    for _ in range(3):
        for o in [0, 1, 2] * 50:
            dyal.update(o)
            want.append((dyal.max_rate(), dyal.median_rate(),
                         len(dyal.ema_map)))
    assert rates == want
    dyal = Dyal(beta_min=0.01)
    want = []
    for o in [0, 1, 2] * 150:
        want.append(dyal.predict().get(0, 0.0))
        dyal.update(o)
    assert est == want and len(est) == 450
    # the largest id in the file may be tracked too
    r = runner.invoke(cli, ["trace", "--input", str(p), "--track-item", "2",
                            "--out", str(tmp_path / "trace2")])
    assert r.exit_code == 0, r.output


def test_cli_trace_memory_does_not_grow_with_k(tmp_path):
    # trace writes each step's rows as they come, so its peak memory is
    # the interned input plus Dyal's state, whatever --self-concat is
    import tracemalloc
    rng = np.random.default_rng(0)
    p = tmp_path / "seq.txt"
    p.write_text("".join("w%d\n" % i for i in rng.integers(0, 5, 1000)))
    peaks = {}
    tracemalloc.start()
    try:
        for k in (5, 50):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            r = CliRunner().invoke(cli, [
                "trace", "--input", str(p), "--self-concat", str(k),
                "--track-item", "0", "--out", str(tmp_path / str(k))])
            assert r.exit_code == 0, r.output
            peaks[k] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # 45,000 more steps; holding each row took about 100 bytes a step
    assert peaks[50] <= peaks[5] + 256 * 1024, peaks


def test_cli_ingest_check(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("a\nb\na\n")
    runner = CliRunner()
    r = runner.invoke(cli, ["ingest-check", str(p)])
    assert r.exit_code == 0
    assert "3 observations, 2 unique" in r.output


@pytest.fixture
def main_exit(monkeypatch, capfd):
    """A function of argv that runs cli.main() in-process and returns its
    exit code and its stderr. A run still going after 5 s fails the
    test: every case exits within a second, and a generator looping
    forever on an empty period fills memory at about 160 MB/s."""
    def timed_out(signum, frame):
        pytest.fail("no exit within 5 s")

    def run(*argv):
        monkeypatch.setattr(sys, "argv", ["smatrack", *argv])
        signal.alarm(5)
        try:
            with pytest.raises(SystemExit) as e:
                main()
        finally:
            signal.alarm(0)
        return e.value.code, capfd.readouterr().err

    old = signal.signal(signal.SIGALRM, timed_out)
    yield run
    signal.signal(signal.SIGALRM, old)


def test_token_file_commands_need_no_numpy(tmp_path):
    # run --kind real-file, trace and ingest-check draw no
    # random number, so they never load numpy. A spec of a kind that
    # reads seed loads numpy.random when it is made, so that no scored
    # pass pays for the import.
    import subprocess
    params = {"ema": "0.05", "harmonic-ema": "0.01", "queues": "3",
              "ts-queues": "3", "box": "10", "dyal": "0.01"}
    assert set(params) == set(harness.PREDICTOR_KINDS)
    tokens, out = str(tmp_path / "tokens.txt"), str(tmp_path / "run")
    with open(tokens, "w") as f:
        f.write("a\nb\na\nc\n" * 50)
    methods = [a for k, v in params.items() for a in ("--method", k + ":" + v)]
    argvs = [["ingest-check", tokens],
             ["run", "--kind", "real-file", "--input", tokens, "--out", out]
             + methods,
             ["trace", "--input", tokens, "--self-concat", "2",
              "--track-item", "0", "--out", str(tmp_path / "trace")]]
    code = ("import sys, smatrack.cli\n"
            "for argv in %r:\n"
            "    smatrack.cli.cli.main(argv, standalone_mode=False)\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "smatrack.cli.ExperimentSpec(kind='stationary-single', "
            "roster=[], seed=1)\n"
            "assert 'numpy.random' in sys.modules, 'numpy.random not "
            "imported'\n" % (argvs,))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("200 observations, 3 unique items\n")
    with open(os.path.join(out, "sign_tests.csv")) as f:
        assert f.readline() == \
            "metric,method_a,method_b,wins_a,wins_b,ties,p_value\n"
    assert os.path.exists(tmp_path / "trace" / "estimate_trace.csv")


def test_cli_exit_codes(tmp_path, main_exit):
    import subprocess
    env = dict(os.environ)
    # Each row is (argv, exit code, message): cli.main(), run in-process,
    # exits with that code, "error: " + message is its whole stderr, and
    # it makes no --out. First the config errors of run: an unknown
    # method kind, out-of-domain parameters, a duplicated label, no
    # sequences, out-of-domain scoring and generator options and a
    # negative seed; then gen's generator options, length and seed, and
    # two kinds gen does not take: binary, which no command takes, and
    # real-file, which has no schedule. A zero o_min that got through
    # would make the generators loop forever, so each run has a timeout.
    # Next, a stream option the kind does not read: the first one
    # given, in --help order, is named. The three cases after those ran
    # with an option their kind does not read (the base --seq-len 500
    # for real-file), so they moved to a kind that reads it and still
    # fail for their own reason. Then run refuses --config: its scoring
    # options are flags only.
    # A token file with no tokens, empty or blank lines only, is refused
    # by run, trace and ingest-check (run used to score a perfect 0.0,
    # and trace to write a header-only trace). trace refuses a
    # self-concat below 1, a method that is not dyal, a bad dyal
    # parameter, and a tracked id outside the file's ids (0 and 1 here).
    # Last, a token file that is not UTF-8 is a runtime error (exit 1) in
    # run, trace and ingest-check. ingest-check takes no --out. The last
    # three cases run python -m smatrack.cli, one for each exit code.
    out = tmp_path / "x"
    run_ss = ["run", "--kind", "stationary-single", "--seq-len", "500"]
    ema = [*run_ss, "--method", "ema:0.1"]
    thresholds = "scoring thresholds need 0 < p_ns <= p_min < 1, got "
    gen_kinds = "Invalid value for '--kind': '%s' is not one of " \
        "'stationary-single', 'nonstat-single', 'multi-item'."
    decode = "cannot read %s: 'utf-8' codec can't decode byte 0xff in " \
        "position %d: invalid start byte"

    def write(name, data):
        path = tmp_path / name
        if isinstance(data, str):
            data = data.encode()
        path.write_bytes(data)
        return str(path)

    tok = write("tok.txt", "a\nb\na\n")
    run_tok = ["run", "--kind", "real-file", "--input", tok, "--method",
               "ema:0.1"]
    trace = ["trace", "--input", tok]
    empty, blank = write("empty.txt", ""), write("blank.txt", "\n  \n\n")
    bad = write("bad.txt", b"a\n\xff\n")
    for args, code, msg in (
            ([*run_ss, "--method", "bogus:1"], 2,
             "unknown predictor kind: 'bogus'"),
            ([*run_ss, "--method", "ema:abc"], 2,
             "method ema:abc: need beta in (0, 1]"),
            ([*run_ss, "--method", "queues:0"], 2,
             "method queues:0: need integer qcap >= 2"),
            ([*run_ss, "--method", "ema:0"], 2,
             "method ema:0: need beta in (0, 1]"),
            ([*run_ss, "--method", "dyal:-1"], 2,
             "method dyal:-1: need beta_min in [0, 1]"),
            ([*ema, "--method", "ema:0.1"], 2,
             "roster label 'ema:0.1' appears twice"),
            ([*ema, "--method", "box:10", "--n-seqs", "0"], 2,
             "n_seqs must be an integer >= 1, got 0"),
            ([*ema, "--p-ns", "0"], 2, thresholds + "p_ns=0.0, p_min=0.01"),
            ([*ema, "--p-min", "0"], 2, thresholds + "p_ns=0.01, p_min=0.0"),
            ([*ema, "--p-ns", "0.5"], 2,
             thresholds + "p_ns=0.5, p_min=0.01"),
            ([*ema, "--referee-window", "0"], 2,
             "referee window must be an integer >= 1, got 0"),
            ([*ema, "--c-ns", "-1"], 2,
             "c_ns must be an integer >= 0, got -1"),
            ([*ema, "--d", "0.5"], 2,
             "deviation threshold d must be finite and >= 1, got 0.5"),
            ([*ema, "--kind", "multi-item", "--seq-len", "-5"], 2,
             "seq_len must be an integer >= 1, got -5"),
            ([*ema, "--tp", "0"], 2, "tp must be in (0, 1], got 0.0"),
            ([*ema, "--kind", "nonstat-single", "--o-min", "0"], 2,
             "o_min must be an integer >= 1, got 0"),
            ([*ema, "--kind", "nonstat-single", "--mode", "uniform",
              "--l-min", "-1"], 2, "l_min must be an integer >= 0, got -1"),
            ([*ema, "--seed", "-1"], 2,
             "seed must be an integer >= 0, got -1"),
            (["gen", "--kind", "multi-item", "--o-min", "0"], 2,
             "o_min must be an integer >= 1, got 0"),
            (["gen", "--kind", "stationary-single", "--tp", "0"], 2,
             "tp must be in (0, 1], got 0.0"),
            (["gen", "--kind", "multi-item", "--p-max", "0"], 2,
             "p_max must be in (0.01, 1], got 0.0"),
            (["gen", "--kind", "multi-item", "--seq-len", "0"], 2,
             "seq_len must be an integer >= 1, got 0"),
            (["gen", "--kind", "stationary-single", "--seq-len", "-5"], 2,
             "seq_len must be an integer >= 1, got -5"),
            (["gen", "--kind", "stationary-single", "--seed", "-1"], 2,
             "seed must be an integer >= 0, got -1"),
            (["gen", "--kind", "binary"], 2, gen_kinds % "binary"),
            (["gen", "--kind", "real-file"], 2, gen_kinds % "real-file"),
            (["run", "--kind", "real-file", "--input", tok, "--method",
              "box:10", "--tp", "0.7", "--o-min", "3", "--mode", "uniform",
              "--n-seqs", "9", "--seed", "4"], 2,
             "--n-seqs is not read by --kind real-file"),
            (["run", "--kind", "multi-item", "--input", tok, "--method",
              "box:10", "--tp", "0.7", "--mode", "uniform"], 2,
             "--tp is not read by --kind multi-item"),
            (["gen", "--kind", "stationary-single", "--o-min", "3",
              "--recycle", "--p-max", "0.5"], 2,
             "--o-min is not read by --kind stationary-single"),
            (["run", "--kind", "nonstat-single", "--method", "box:10",
              "--l-min", "50"], 2,
             "--l-min is not read by --kind nonstat-single"),
            (["run", "--kind", "multi-item", "--method", "box:10",
              "--input", tok], 2,
             "--input is not read by --kind multi-item"),
            (["run", "--kind", "real-file", "--input", tok, "--method",
              "box:10", "--tp", "0.7"], 2,
             "--tp is not read by --kind real-file"),
            (["run", "--kind", "multi-item", "--seq-len", "500", "--method",
              "ema:0.1", "--p-max", "0"], 2,
             "p_max must be in (0.01, 1], got 0.0"),
            (["run", "--kind", "real-file", "--method", "ema:0.1"], 2,
             "kind 'real-file' needs an input_path"),
            (["gen", "--kind", "nonstat-single", "--mode", "uniform",
              "--l-min", "-1"], 2, "l_min must be an integer >= 0, got -1"),
            ([*run_tok, "--config", "x"], 2, "No such option '--config'."),
            ([*run_tok[:4], empty, *run_tok[5:]], 2,
             "%s holds no tokens" % empty),
            (["trace", "--input", empty], 2, "%s holds no tokens" % empty),
            (["ingest-check", empty], 2, "%s holds no tokens" % empty),
            ([*run_tok[:4], blank, *run_tok[5:]], 2,
             "%s holds no tokens" % blank),
            (["trace", "--input", blank], 2, "%s holds no tokens" % blank),
            (["ingest-check", blank], 2, "%s holds no tokens" % blank),
            ([*trace, "--self-concat", "0"], 2,
             "Invalid value for '--self-concat': 0 is not in the range "
             "x>=1."),
            ([*trace, "--self-concat", "-2"], 2,
             "Invalid value for '--self-concat': -2 is not in the range "
             "x>=1."),
            ([*trace, "--method", "ema:0.01"], 2,
             "rate traces require a dyal method"),
            ([*trace, "--method", "dyal:abc"], 2,
             "method dyal:abc: need beta_min in [0, 1]"),
            ([*trace, "--track-item", "-1"], 2,
             "--track-item -1: the file's ids are 0 to 1"),
            ([*trace, "--track-item", "2"], 2,
             "--track-item 2: the file's ids are 0 to 1"),
            ([*run_tok[:4], bad, *run_tok[5:]], 1, decode % (bad, 2)),
            (["trace", "--input", bad], 1, decode % (bad, 2)),
            (["ingest-check", bad], 1, decode % (bad, 2))):
        if args[0] in ("gen", "run", "trace"):
            args = [*args, "--out", str(out)]
        assert main_exit(*args) == (code, "error: %s\n" % msg), args
        assert not out.exists(), args
    # trace checks the kind before it builds the predictor, so a method
    # that is not dyal is named as such whatever its parameter
    r = subprocess.run([sys.executable, "-m", "smatrack.cli", "trace",
                        "--input", tok, "--method", "ema:5",
                        "--out", str(out)], capture_output=True, env=env)
    assert r.returncode == 2
    assert r.stderr.decode() == "error: rate traces require a dyal method\n"
    assert not out.exists()
    # runtime error: unreadable input file
    r = subprocess.run([sys.executable, "-m", "smatrack.cli",
                        "ingest-check", "/nonexistent/nope.txt"],
                       capture_output=True, env=env)
    assert r.returncode == 1
    # success
    p = tmp_path / "ok.txt"
    p.write_text("a\n")
    r = subprocess.run([sys.executable, "-m", "smatrack.cli",
                        "ingest-check", str(p)],
                       capture_output=True, env=env)
    assert r.returncode == 0


def test_run_scoring_flags_reach_eval_config(tmp_path):
    # run's scoring flags build the EvalConfig of its spec: per_seq.csv
    # is what run_experiment writes for the same spec with that
    # EvalConfig, and not what run writes with no scoring flags
    stream = ["--kind", "stationary-single", "--tp", "0.05", "--n-seqs",
              "2", "--seq-len", "400", "--method", "ema:0.05", "--method",
              "dyal:0.01"]
    outs = []

    def per_seq(*args):
        outs.append(tmp_path / ("run%d" % len(outs)))
        r = CliRunner().invoke(cli, ["run", *stream, *args,
                                     "--out", str(outs[-1])])
        assert r.exit_code == 0, r.output
        return (outs[-1] / "per_seq.csv").read_bytes()

    flags = per_seq("--p-min", "0.05", "--p-ns", "0.02", "--c-ns", "3",
                    "--referee-window", "50", "--d", "1.2")
    run_experiment(ExperimentSpec(
        kind="stationary-single", tp=0.05, n_seqs=2, seq_len=400,
        roster=[("ema:0.05", "ema", "0.05"), ("dyal:0.01", "dyal", "0.01")],
        eval_cfg=EvalConfig(0.05, 0.02, 3, 50, (1.2,)),
        out_dir=str(tmp_path / "spec")))
    assert flags == (tmp_path / "spec" / "per_seq.csv").read_bytes()
    assert flags != per_seq()
