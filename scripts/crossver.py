"""Exactness checks on the interpreter that runs this script, with the
standard library only (no numpy, click or pytest):

    PYTHONPATH=src:tests python scripts/crossver.py

It prints one line per check, with the check's wall time, and exits 1
if any check fails or raises. CHECKS is the table of checks:
- digests: the identity spec's token-file runs (run-real, run-short,
  trace and trace-item in tests/test_identity.py), rerun through
  harness, write CSVs whose sha256 digests equal
  tests/identity_digests.json.
- seeded: so do its seeded runs (the gen-* streams and run-stationary,
  run-nonstat, run-multi and run-config), whose streams synth.PCG64
  draws. Only the CLI's stdout, which needs click, is left out.
- dyal, queues, ema and score: Dyal, Queues, Ema and evaluation.score
  equal their oracles in tests/ (ReferenceDyal, CountCellQueues,
  ReferenceEma and reference_scoring) on random.Random streams and maps.
  This is the one place where the tests drive each of them against its
  oracle on generated streams. Every comparison is ==, apart from Ema's
  weights: forward decay rounds them apart from the reference's, so
  they must lie within 1e-12 of it, relatively.

In tier 1, tests/test_crossver.py runs digests and score, and
tests/test_predictors.py runs each Dyal case, Queues grid and Ema case
as its own test.
"""

import hashlib
import itertools
import json
import math
import os
import random
import sys
import tempfile
import time

import reference_scoring
from count_cell_queues import CountCellQueues, matches, pr_count
from identity_inputs import ROSTER, SHORT, TOKENS
from reference_dyal import ReferenceDyal, dropping_zero_edges
from reference_ema import EMA_CASES, ReferenceEma
from smatrack import harness, synth
from smatrack.evaluation import logloss_rule_ns, quad_rule, score
from smatrack.harness import EvalConfig, ExperimentSpec
from smatrack.predictors import EMA_FLOOR, Dyal, Ema, Queues
from smatrack.sd_core import SUM_SLACK

DIGESTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "identity_digests.json")
IDENTITY_RUNS = ("run-real", "run-short", "trace", "trace-item")
IDENTITY_ROSTER = [(m, *m.split(":", 1)) for m in ROSTER]
# The identity spec's seeded entries as ExperimentSpec fields, with the
# CLI's defaults for the options their argv does not give.
SEEDED_RUNS = {
    "gen-binary": dict(kind="stationary-single", seq_len=500, tp=0.3,
                       seed=1),
    "gen-nonstat": dict(kind="nonstat-single", seq_len=500, seed=2,
                        gen=synth.GenConfig(o_min=10)),
    "gen-nonstat-uniform": dict(kind="nonstat-single", mode="uniform",
                                seq_len=500, seed=3,
                                gen=synth.GenConfig(o_min=10, l_min=50)),
    "gen-multi": dict(kind="multi-item", seq_len=500, seed=4,
                      gen=synth.GenConfig(o_min=5)),
    "gen-multi-recycle": dict(kind="multi-item", seq_len=500, seed=5,
                              gen=synth.GenConfig(o_min=5, recycle=True,
                                                  p_max=0.5)),
    "run-stationary": dict(kind="stationary-single", tp=0.2, n_seqs=3,
                           seq_len=1000),
    "run-nonstat": dict(kind="nonstat-single", n_seqs=3, seq_len=1000,
                        gen=synth.GenConfig(o_min=10)),
    "run-multi": dict(kind="multi-item", n_seqs=3, seq_len=1000, seed=6,
                      gen=synth.GenConfig(o_min=5)),
    "run-config": dict(kind="multi-item", n_seqs=3, seq_len=1000, seed=7,
                       gen=synth.GenConfig(o_min=5),
                       eval_cfg=EvalConfig(0.02, 0.005, 1, 50, (1.2, 3.0))),
}


def file_digests(tmp, names):
    """{name/file: sha256} of every file in the directories names."""
    got = {}
    for name in names:
        for fname in os.listdir(os.path.join(tmp, name)):
            with open(os.path.join(tmp, name, fname), "rb") as f:
                got[name + "/" + fname] = hashlib.sha256(f.read()).hexdigest()
    return got


def moved_digests(names, got):
    """What differs between got and the recorded digests of the runs
    names, their stdout aside."""
    with open(DIGESTS) as f:
        want = {k: v for k, v in json.load(f)["digests"].items()
                if k.split("/")[0] in names and not k.endswith("/stdout")}
    moved = sorted(k for k in got.keys() | want.keys()
                   if got.get(k) != want.get(k))
    return "moved: " + ", ".join(moved) if moved else None


def write_identity_runs(tmp):
    """The identity spec's four token-file runs, written under tmp as
    its CLI commands write them."""
    paths = {}
    for name, text in (("tokens.txt", TOKENS), ("short.txt", SHORT)):
        paths[name] = os.path.join(tmp, name)
        with open(paths[name], "w") as f:
            f.write(text)
    for name, path, ecfg in (("run-real", "tokens.txt", EvalConfig()),
                             ("run-short", "short.txt", EvalConfig(c_ns=0))):
        harness.run_experiment(ExperimentSpec(
            "real-file", IDENTITY_ROSTER, out_dir=os.path.join(tmp, name),
            eval_cfg=ecfg, input_path=paths[path]))
    obs = harness.ingest_sequence(paths["tokens.txt"])
    for name, param, k, item in (("trace", "0.01", 2, None),
                                 ("trace-item", "0.05", 1, 1)):
        pred = harness.make_predictor("dyal", param)
        harness.write_trace(os.path.join(tmp, name),
                            harness.self_concat(obs, k, pred, item), item)


def check_digests():
    """Every CSV of the four token-file runs has its recorded digest."""
    with tempfile.TemporaryDirectory() as tmp:
        write_identity_runs(tmp)
        return moved_digests(IDENTITY_RUNS, file_digests(tmp, IDENTITY_RUNS))


def check_seeded():
    """Every file of the seeded runs has its recorded digest: a gen
    entry writes sequence 0 of its spec, a run entry its three CSVs."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, kw in SEEDED_RUNS.items():
            out = os.path.join(tmp, name)
            if name.startswith("gen-"):
                _, made = next(harness.streams(ExperimentSpec(roster=[], **kw)))
                harness.write_stream(out, made)
            else:
                harness.run_experiment(ExperimentSpec(
                    roster=IDENTITY_ROSTER, out_dir=out, **kw))
        return moved_digests(SEEDED_RUNS, file_digests(tmp, SEEDED_RUNS))


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


# Dyal's (beta_min, qcap, sig_thresh) cases, Queues' stream grids (ids
# 0 to 11 only, or ids 0 to 7 mixed with fresh ids) and Ema's cases
# (EMA_CASES). Each case seeds its own generator, so that it runs alone:
# tests/test_predictors.py runs each as its own tier-1 test.
DYAL_CASES = tuple(itertools.product((0.0, 0.001, 0.01, 0.5, 1.0), (2, 3),
                                     (0.0, 5.0)))
QUEUE_GRIDS = ("closed", "open")


def dyal_case(beta_min, qcap, sig_thresh):
    """Dyal, whose update takes the whole step in one frame, against
    Dyal as first written, which reads o's queue before its queue update,
    pruning on: 6 streams of 800 steps, and each stream draws its p_min
    (which the walk's drop rule reads), s1, s2 and prune_every. Both
    maps (values and key order), the prediction and the trace row must
    be equal after every update."""
    rng = random.Random("dyal %r %r %r" % (beta_min, qcap, sig_thresh))
    for _ in range(6):
        kw = dict(beta_min=beta_min, qcap=qcap, sig_thresh=sig_thresh,
                  p_min=rng.choice((0.0, 0.001, 0.01, 0.05)),
                  s1=rng.randint(2, 5), s2=rng.randint(10, 59),
                  prune_every=rng.randint(3, 14))
        d, ref = Dyal(**kw), ReferenceDyal(**kw)
        dropping_zero_edges(ref)
        for t, o in enumerate(drifting_stream(rng, 800), 1):
            d.update(o)
            ref.update(o)
            got, want = ((list(x.ema_map.items()), list(x.rate_map.items()),
                          list(x.predict().items()), x.max_rate(),
                          x.median_rate()) for x in (d, ref))
            if got != want:
                return "%r, step %d" % (kw, t)
    return None


def queues_case(grid):
    """Queues against the count cells, pruning on with small s1 and s2,
    so that both the stale drop and the size cut fire: the "closed" grid
    runs 100 streams of 1,000 steps on ids 0 to 11, the "open" one 60
    streams of 600 steps on ids 0 to 7 mixed with fresh ids. After every
    update both hold the same items with the same (PR, count), an unseen
    id included, and the same prediction, which lists q_map's items in
    order, since evaluation.score sums in map order and dict == ignores
    it. Every 7 steps an extra prune() drops the same items from both."""
    streams, steps, ids, open_ids = {"closed": (100, 1000, 12, False),
                                     "open": (60, 600, 8, True)}[grid]
    rng = random.Random("queues " + grid)
    for _ in range(streams):
        kw = dict(qcap=rng.randint(2, 5), s1=rng.randint(1, 5),
                  s2=rng.randint(5, 59), prune_every=rng.randint(1, 11))
        s, cells = Queues(**kw), CountCellQueues(**kw)
        fresh = rng.random() if open_ids else 0.0
        for t in range(steps):
            o = 1000 + t if rng.random() < fresh else rng.randrange(ids)
            s.update(o)
            cells.update(o)
            if not (matches(s, cells)
                    and all(pr_count(s, i) == cells.pr_count(i)
                            for i in (-1, 1000 + t + 1))
                    and list(s.predict().items())
                    == [(i, pr_count(s, i)[0]) for i in s.q_map]
                    and (t % 7 or s.prune() == cells.prune())):
                return "%r, step %d" % (kw, t + 1)
    return None


def ema_case(args, kw):
    """Ema(*args) against ReferenceEma(**kw), over four items in 1,500
    shuffled blocks: each item recurs within 7 steps, so no weight nears
    EMA_FLOOR and no fold drops one. After every update the reference's
    weights are all at least EMA_FLOOR, and the two maps hold the same
    keys in the same order, with weights within 1e-12."""
    rng = random.Random("ema %r" % (kw,))
    e, ref = Ema(*args), ReferenceEma(**kw)
    block = list(range(4))
    for t in range(1500):
        rng.shuffle(block)
        for o in block:
            e.update(o)
            ref.update(o)
            got, want = e.predict(), ref.predict()
            if min(want.values()) < EMA_FLOOR or list(got) != list(
                    want) or any(abs(got[i] - v) > 1e-12 * v
                                 for i, v in want.items()):
                return "%r, block %d" % (kw, t + 1)
    return None


def first_failure(case, cases):
    """What the first failing case reports, or None if all hold."""
    return next((why for why in itertools.starmap(case, cases)
                 if why is not None), None)


def check_dyal():
    """Every Dyal case."""
    return first_failure(dyal_case, DYAL_CASES)


def check_queues():
    """Both Queues grids."""
    return first_failure(queues_case, ((g,) for g in QUEUE_GRIDS))


def check_ema():
    """Ema at each fixed rate and as harmonic EMA."""
    return first_failure(ema_case, EMA_CASES)


def score_cases(rng):
    """(o, q, marked_ns, cfg) cases for check_score."""
    cfg = EvalConfig(0.01, 0.01)
    # Small maps with entries at and around p_min, some summing above 1.
    for small in (cfg, EvalConfig(5e-324, 5e-324), EvalConfig(0.2, 0.2)):
        levels = (small.p_min, 0.005, 0.3, 0.6, 1.0)
        for _ in range(2000):
            q = {}
            for i in rng.sample(range(8), rng.randrange(6)):
                v = rng.choice(levels) if rng.random() < 0.5 else rng.random()
                if v > 0.0:
                    q[i] = v
            yield rng.randrange(8), q, rng.random() < 0.5, small
    # Maps of up to 150 entries, most below p_min, as multi_roster's
    # predictors make, summing to 0.2 to 3, as Queues' maps can; o is a
    # salient entry, one near p_min, or no entry.
    for big in (cfg, EvalConfig(5e-324, 5e-324), EvalConfig(0.2, 0.2),
                EvalConfig(0.05, 0.001)):
        for _ in range(400):
            k = rng.randrange(151)
            w = [rng.expovariate(1.0) ** 3 for _ in range(k)]
            mass = rng.uniform(0.2, 3.0) / max(math.fsum(w), 1e-300)
            q = {i: v * mass for i, v in zip(rng.sample(range(400), k), w)
                 if v * mass > 0.0}
            near = [i for i, v in q.items() if big.p_min <= v < 2 * big.p_min]
            for o in [max(q, key=q.get, default=-1), -1] + near[:2]:
                for ns in (False, True):
                    yield o, q, ns, big
    # The scale pushes o below p_min: a miss, noise-marked or not.
    for ns in (False, True):
        for o, q in ((2, {1: 2.0, 2: 0.011, 3: 0.5}),
                     (4, {1: 2.0, 2: 0.011, 3: 0.5}), (1, {})):
            yield o, q, ns, cfg


def check_score():
    """evaluation.score, and the two rules that wrap it, against
    reference_scoring's two rules, which cap the raw map step by step.
    The cases must run every branch: a cap that scales, a salient o
    that the scaling drops, a noise-marked miss on a scaled map, an
    absent o and an empty map."""
    seen = dict.fromkeys(("scaled", "scaled below p_min",
                          "scaled noise miss", "absent", "empty"), 0)
    for o, q, ns, cfg in score_cases(random.Random(3)):
        want = (reference_scoring.logloss_rule_ns(o, q, ns, cfg),
                reference_scoring.quad_rule(q, o, cfg))
        if (score(o, q, ns, cfg, -math.log(cfg.p_ns)) != want
                or (logloss_rule_ns(o, q, ns, cfg), quad_rule(q, o, cfg))
                != want):
            return "p_min %r, p_ns %r, %d entries, o %r, ns %r" % (
                cfg.p_min, cfg.p_ns, len(q), o, ns)
        salient = reference_scoring.scale_drop(q, 1.0, cfg.p_min)
        scaled = (reference_scoring.in_order_sum(salient)
                  > 1.0 - cfg.p_ns + SUM_SLACK)
        capped = reference_scoring.filter_cap(q, cfg)
        seen["scaled"] += scaled
        seen["scaled below p_min"] += o in salient and o not in capped
        seen["scaled noise miss"] += scaled and ns and o not in capped
        seen["absent"] += o not in q
        seen["empty"] += not q
    cfg = EvalConfig(0.01, 0.01)
    if logloss_rule_ns(2, {1: 2.0, 2: 0.011}, False, cfg) != -math.log(0.01):
        return "a hit scaled below p_min does not score -ln p_ns"
    unseen = sorted(k for k, n in seen.items() if not n)
    return "branches not run: " + ", ".join(unseen) if unseen else None


# (name, check): each check returns None if it holds, else what differs.
CHECKS = (("digests", check_digests), ("seeded", check_seeded),
          ("dyal", check_dyal), ("queues", check_queues),
          ("ema", check_ema), ("score", check_score))


def main():
    print("Python %d.%d.%d" % sys.version_info[:3])
    failed = 0
    for name, check in CHECKS:
        start = time.perf_counter()
        try:
            why = check()
        except Exception as e:  # the later checks still run and report
            why = "%s: %s" % (type(e).__name__, e)
        print("%s %-8s %6.2f s%s" % (
            "ok  " if why is None else "FAIL", name,
            time.perf_counter() - start, "" if why is None else " (%s)" % why))
        failed += why is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
