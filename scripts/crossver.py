"""Exactness checks on the interpreter that runs this script, with the
standard library only (no numpy, click or pytest):

    PYTHONPATH=src:tests python scripts/crossver.py

It checks two things and prints one line per check:
- The identity spec's numpy-free runs (run-real, run-short, trace and
  trace-item in tests/test_identity.py), rerun through harness, write
  CSVs whose sha256 digests equal tests/identity_digests.json.
- Dyal, Queues, Ema and evaluation.score equal their oracles in tests/
  on random.Random streams: ReferenceDyal, ReferenceQueues and
  CountCellQueues, ReferenceEma, and reference_scoring. Every
  comparison is ==, apart from Ema's weights: forward decay rounds them
  apart from the reference's, so they must lie within 1e-12 of it,
  relatively, as in tests/test_predictors.py.

It exits 1 if any check fails. tests/test_crossver.py runs the same
checks in the tier-1 suite.
"""

import hashlib
import json
import math
import os
import random
import sys
import tempfile

import reference_scoring
from count_cell_queues import CountCellQueues, matches, pr_count
from identity_inputs import ROSTER, SHORT, TOKENS
from reference_dyal import ReferenceDyal, dropping_zero_edges
from reference_ema import ReferenceEma
from reference_queues import ReferenceQueues
from smatrack import harness
from smatrack.evaluation import score
from smatrack.harness import EvalConfig, ExperimentSpec
from smatrack.predictors import Dyal, Ema, Queues

DIGESTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "identity_digests.json")
IDENTITY_RUNS = ("run-real", "run-short", "trace", "trace-item")


def write_identity_runs(tmp):
    """The identity spec's four numpy-free runs, written under tmp as
    its CLI commands write them."""
    paths = {}
    for name, text in (("tokens.txt", TOKENS), ("short.txt", SHORT)):
        paths[name] = os.path.join(tmp, name)
        with open(paths[name], "w") as f:
            f.write(text)
    roster = [(m, *m.split(":", 1)) for m in ROSTER]
    for name, path, ecfg in (("run-real", "tokens.txt", EvalConfig()),
                             ("run-short", "short.txt", EvalConfig(c_ns=0))):
        harness.run_experiment(ExperimentSpec(
            "real-file", roster, out_dir=os.path.join(tmp, name),
            eval_cfg=ecfg, input_path=paths[path]))
    obs = harness.ingest_sequence(paths["tokens.txt"])
    for name, param, k, item in (("trace", "0.01", 2, None),
                                 ("trace-item", "0.05", 1, 1)):
        pred = harness.make_predictor("dyal", param)
        harness.write_trace(os.path.join(tmp, name),
                            harness.self_concat(obs, k, pred, item), item)


def check_identity():
    """[(check name, None or what differs)], one per identity run."""
    with open(DIGESTS) as f:
        want = json.load(f)["digests"]
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        write_identity_runs(tmp)
        for name in IDENTITY_RUNS:
            got = {}
            for fname in os.listdir(os.path.join(tmp, name)):
                with open(os.path.join(tmp, name, fname), "rb") as f:
                    got[name + "/" + fname] = hashlib.sha256(
                        f.read()).hexdigest()
            wanted = {k: v for k, v in want.items()
                      if k.startswith(name + "/") and k.endswith(".csv")}
            moved = sorted(k for k in got.keys() | wanted.keys()
                           if got.get(k) != wanted.get(k))
            out.append(("digests " + name,
                        "moved: " + ", ".join(moved) if moved else None))
    return out


def drifting_stream(rng, n):
    """Periods of random length over a few items with random weights,
    one-off noise ids, and runs of one item."""
    out = []
    while len(out) < n:
        base = rng.randrange(20)
        items = range(base, base + rng.randint(1, 5))
        weights = [rng.random() for _ in items]
        for _ in range(rng.randrange(5, 200)):
            u = rng.random()
            if u < 0.05:
                out.append(1000 + len(out))
            elif u < 0.1:
                out += [base] * rng.randrange(2, 8)
            else:
                out += rng.choices(items, weights)
    return out[:n]


def check_dyal(rng):
    """Dyal against ReferenceDyal, pruning on: both maps in key order,
    the prediction and the trace row after every update."""
    for beta_min in (0.0, 0.001, 0.01, 0.5, 1.0):
        for qcap in (2, 3):
            for sig_thresh in (0.0, 5.0):
                kw = dict(beta_min=beta_min, qcap=qcap,
                          sig_thresh=sig_thresh,
                          p_min=rng.choice((0.0, 0.001, 0.01, 0.05)),
                          s1=rng.randint(2, 5), s2=rng.randint(10, 59),
                          prune_every=rng.randint(3, 14))
                d, ref = Dyal(**kw), ReferenceDyal(**kw)
                dropping_zero_edges(ref)
                for t, o in enumerate(drifting_stream(rng, 500), 1):
                    d.update(o)
                    ref.update(o)
                    got, want = ((list(x.ema_map.items()),
                                  list(x.rate_map.items()),
                                  list(x.predict().items()), x.max_rate(),
                                  x.median_rate()) for x in (d, ref))
                    if got != want:
                        return "%r, step %d" % (kw, t)
    return None


def check_queues(rng):
    """Queues against ReferenceQueues and CountCellQueues, pruning on
    with a small s1: every (PR, count), the prediction and the items
    held after every update."""
    for _ in range(40):
        kw = dict(qcap=rng.randint(2, 5), s1=rng.randint(1, 5),
                  s2=rng.randint(5, 59), prune_every=rng.randint(1, 11))
        s, ref, cells = (Queues(**kw), ReferenceQueues(**kw),
                         CountCellQueues(**kw))
        fresh = rng.random()
        for t in range(400):
            o = 1000 + t if rng.random() < fresh else rng.randrange(8)
            for x in (s, ref, cells):
                x.update(o)
            if not (matches(s, cells) and s.predict() == ref.predict()
                    and s.stamps.keys() == ref.q_map.keys()
                    and all(pr_count(s, i) == ref.pr_count(i)
                            for i in list(ref.q_map) + [-1])):
                return "%r, step %d" % (kw, t + 1)
    return None


def check_ema(rng):
    """Ema against ReferenceEma at fixed rates and as harmonic EMA, over
    four items in shuffled blocks, so that no weight nears the floor:
    the same keys in the same order, and weights within 1e-12."""
    cases = [((b,), dict(beta=b)) for b in (0.001, 0.01, 0.05, 0.2, 0.5)]
    cases += [((1.0, m), dict(harmonic=True, beta_min=m))
              for m in (0.0, 0.001, 0.01, 0.1)]
    for args, kw in cases:
        e, ref = Ema(*args), ReferenceEma(**kw)
        block = list(range(4))
        for t in range(500):
            rng.shuffle(block)
            for o in block:
                e.update(o)
                ref.update(o)
                got, want = e.predict(), ref.predict()
                if list(got) != list(want) or any(
                        abs(got[i] - v) > 1e-12 * v for i, v in want.items()):
                    return "%r, block %d" % (kw, t + 1)
    return None


def check_score(rng):
    """evaluation.score against reference_scoring's two rules, on maps of
    up to 150 entries summing to 0.2 to 3, for a salient o, an absent o
    and o near p_min, noise-marked or not."""
    for cfg in (EvalConfig(0.01, 0.01), EvalConfig(5e-324, 5e-324),
                EvalConfig(0.2, 0.2), EvalConfig(0.05, 0.001)):
        neg_log_pns = -math.log(cfg.p_ns)
        for _ in range(400):
            k = rng.randrange(151)
            w = [rng.expovariate(1.0) ** 3 for _ in range(k)]
            mass = rng.uniform(0.2, 3.0) / max(math.fsum(w), 1e-300)
            q = {i: v * mass for i, v in zip(rng.sample(range(400), k), w)
                 if v * mass > 0.0}
            near = [i for i, v in q.items() if cfg.p_min <= v < 2 * cfg.p_min]
            for o in [max(q, key=q.get, default=-1), -1] + near[:2]:
                for ns in (False, True):
                    want = (reference_scoring.logloss_rule_ns(o, q, ns, cfg),
                            reference_scoring.quad_rule(q, o, cfg))
                    if score(o, q, ns, cfg, neg_log_pns) != want:
                        return "p_min %r, p_ns %r, %d entries, o %r, ns %r" % (
                            cfg.p_min, cfg.p_ns, len(q), o, ns)
    return None


def run_checks():
    """[(check name, None if it holds, else what differs)] for every
    check, each oracle check on its own seeded random.Random."""
    out = check_identity()
    for seed, (name, check) in enumerate((
            ("Dyal == ReferenceDyal", check_dyal),
            ("Queues == ReferenceQueues == CountCellQueues", check_queues),
            ("Ema ~ ReferenceEma", check_ema),
            ("score == reference_scoring", check_score))):
        out.append((name, check(random.Random(seed))))
    return out


def main():
    print("Python %d.%d.%d" % sys.version_info[:3])
    results = run_checks()
    for name, why in results:
        print("ok  " if why is None else "FAIL",
              name if why is None else "%s (%s)" % (name, why))
    return 1 if any(why is not None for _, why in results) else 0


if __name__ == "__main__":
    sys.exit(main())
