"""Experiment runner: wires generators or ingested files to predictors
and the scoring stack, and writes every output file: generated streams,
per-sequence, aggregate, sign-test and trace CSVs."""

import csv
import math
import numbers
import os
import statistics
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields, replace
from itertools import combinations, repeat

from . import predictors, synth
from .evaluation import (Referee, dev_ratio, multidev, optimal_logloss,
                         score, sign_test)
from .sd_core import ConfigError, need_int


# kind -> (parameter type, constructor); the constructor checks the
# parameter's domain. ts-queues is another name for queues, kept for
# existing rosters and result files.
_PREDICTORS = {
    "ema": (float, predictors.Ema),
    "harmonic-ema": (float, lambda v: predictors.Ema(1.0, v)),
    "queues": (int, predictors.Queues),
    "ts-queues": (int, predictors.Queues),
    "box": (int, predictors.Box),
    "dyal": (float, predictors.Dyal),
}
PREDICTOR_KINDS = tuple(_PREDICTORS)


def make_predictor(kind, param):
    """The kind:param predictor; ConfigError for an unknown kind or a
    parameter outside its constructor's domain."""
    if kind not in _PREDICTORS:
        raise ConfigError("unknown predictor kind: %r" % (kind,))
    parse, make = _PREDICTORS[kind]
    # Text is parsed; a number goes to make as it is (int() would
    # truncate 10.7), and anything else is outside every domain. Every
    # constructor refuses a bool.
    value = param if isinstance(param, numbers.Real) else math.nan
    if isinstance(param, str):
        try:
            value = parse(param)
        except ValueError:
            pass  # nan, which make names
    try:
        return make(value)
    except ValueError as e:
        raise ConfigError("method %s:%s: %s" % (kind, param, e))


@dataclass(frozen=True)
class EvalConfig:
    """The scoring thresholds, in 0 < p_ns <= p_min < 1 so that the
    bounded log-loss lies in [0, -ln p_ns], the noise referee's c_ns and
    window, and the deviation thresholds d."""
    p_min: float = 0.01  # filter threshold: entries below this are dropped
    p_ns: float = 0.01   # mass reserved for not-seen/noise items
    c_ns: int = 2
    window: int = None
    dev_ds: tuple = (1.5, 2.0)

    def __post_init__(self):
        if not 0.0 < self.p_ns <= self.p_min < 1.0:
            raise ConfigError("scoring thresholds need 0 < p_ns <= p_min "
                              "< 1, got p_ns=%r, p_min=%r"
                              % (self.p_ns, self.p_min))
        Referee(self.c_ns, self.window)
        for d in self.dev_ds:
            if isinstance(d, bool) or not 1.0 <= d < math.inf:
                raise ConfigError("deviation threshold d must be finite "
                                  "and >= 1, got %r" % (d,))
        # Metric names show d as %g; two thresholds with one name would
        # double-count or overwrite that metric.
        if len({"%g" % d for d in self.dev_ds}) != len(self.dev_ds):
            raise ConfigError("two deviation thresholds in %r share a "
                              "metric name" % (self.dev_ds,))

    def fc(self):
        """The scoring thresholds, which an EvalConfig holds itself."""
        return self


def run_prequential(pred, obs, ecfg, marks, schedule=None, track_item=None):
    """One predict-score-update pass over a sequence, with marks[t] the
    referee's noise mark for obs[t]. Log-loss and quad loss are always
    reported; deviation metrics require schedule, the true SD of each
    step (Schedule.per_step), against the tracked item in the single-item
    setting, or all salient items otherwise. Returns the metrics as a dict."""
    n = len(obs)
    loss_sum = 0.0
    quad_sum = 0.0
    ratios = []  # per step: the tracked or the observed item's ratio
    worsts = []  # per step, multi-item: the worst ratio over the support
    neg_log_pns = -math.log(ecfg.p_ns)
    truth = schedule if schedule is not None else repeat(None, n)
    # Bound once per pass, from the module globals at call time, so that a
    # wrapper bound there before the pass still runs.
    predict, update, sc = pred.predict, pred.update, score
    for o, marked_ns, p in zip(obs, marks, truth, strict=True):
        q = predict()
        loss, quad = sc(o, q, marked_ns, ecfg, neg_log_pns)
        loss_sum += loss
        quad_sum += quad
        if p is not None:
            if track_item is not None:
                ratios.append(dev_ratio(q.get(track_item, 0.0),
                                        p[track_item]))
            else:
                worst, r = multidev(o, q, p, ecfg.p_min)
                ratios.append(r)
                worsts.append(worst)
        update(o)
    metrics = {"avg_logloss_ns": loss_sum / n if n else 0.0,
               "avg_quad": quad_sum / n if n else 0.0}
    if schedule is not None and n:
        for d in ecfg.dev_ds:
            past = sum(1 for r in ratios if r > d) / n
            if track_item is not None:
                metrics["dev_rate_d%g" % d] = past
            else:
                metrics["dev_rate_obs_d%g" % d] = past
                metrics["dev_rate_any_d%g" % d] = sum(
                    1 for r in worsts if r > d) / n
    return metrics


def self_concat(obs, k, dyal, track_item=None):
    """Run dyal over the sequence repeated k times, yielding per step the
    tracked item's estimate before the update (None with no track_item),
    then the max rate, median rate and out-degree after it. Max-rate spikes
    recurring past the first pass show that the distribution drifts."""
    for _ in range(k):
        for o in obs:
            est = None if track_item is None else \
                dyal.ema_map.get(track_item, 0.0)
            dyal.update(o)
            yield est, dyal.max_rate(), dyal.median_rate(), len(dyal.ema_map)


# kind -> (the item a single-item kind tracks, the fields it reads, gen's
# by their own names, and its stream maker). A maker looks up its synth
# generator or ingest_sequence when called, so a wrapper bound there runs.
_SEEDED = ("n_seqs", "seq_len", "seed")
_EXPERIMENTS = {
    "stationary-single": (1, _SEEDED + ("tp",), lambda s, rng:
        synth.gen_binary_stationary(s.tp, s.seq_len, rng)),
    "nonstat-single": (1, _SEEDED + ("mode", "o_min", "l_min"), lambda s, rng:
        synth.gen_single_nonstationary(s.mode, s.gen, s.seq_len, rng)),
    "multi-item": (None, _SEEDED + ("o_min", "l_min", "p_max", "recycle"),
        lambda s, rng: synth.gen_sequence(
            replace(s.gen, desired_len=s.seq_len), rng)),
    "real-file": (None, ("input_path",), lambda s, rng:
        synth.GeneratedStream(ingest_sequence(s.input_path), None)),
}
EXPERIMENT_KINDS = tuple(_EXPERIMENTS)


def unread_fields(kind, mode):
    """The fields other kinds read that a spec of this kind and mode does
    not. A kind that reads mode reads l_min in uniform mode only."""
    read = _EXPERIMENTS[kind][1]
    oscillate = "mode" in read and mode != "uniform"
    return {f for _, fields, _ in _EXPERIMENTS.values() for f in fields
            if f not in read or oscillate and f == "l_min"}


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str                      # one of EXPERIMENT_KINDS
    roster: tuple                  # of (label, predictor kind, param)
    out_dir: str = None
    n_seqs: int = 50
    seq_len: int = 10000           # generated length, or a lower bound on it
    seed: int = 0
    tp: float = 0.1
    mode: str = "oscillate"
    gen: synth.GenConfig = field(default_factory=synth.GenConfig)
    eval_cfg: EvalConfig = field(default_factory=EvalConfig)
    input_path: str = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError("unknown experiment kind: %r" % (self.kind,))
        for name, low in (("n_seqs", 1), ("seq_len", 1), ("seed", 0)):
            need_int(name, getattr(self, name), low)
        if self.mode not in ("oscillate", "uniform"):
            raise ConfigError("mode must be 'oscillate' or 'uniform', got %r"
                              % (self.mode,))
        # seq_len sets every generated length: gen.desired_len repeats it
        if self.gen.desired_len not in (synth.GenConfig.desired_len,
                                        self.seq_len):
            raise ConfigError("gen.desired_len %r differs from seq_len %r, "
                              "which sets the length"
                              % (self.gen.desired_len, self.seq_len))
        if self.kind == "real-file" and not self.input_path:
            raise ConfigError("kind 'real-file' needs an input_path")
        if "seed" in _EXPERIMENTS[self.kind][1]:
            import numpy.random  # noqa: F401  (here, not in a scored pass)
        unread = unread_fields(self.kind, self.mode)
        for obj, f in ((o, f) for o in (self, self.gen) for f in fields(o)):
            if f.name in unread and getattr(obj, f.name) != f.default:
                raise ConfigError("kind %r does not read %s"
                                  % (self.kind, f.name))
        object.__setattr__(self, "roster", tuple(self.roster))
        seen = set()
        for entry in self.roster:
            if not isinstance(entry, (tuple, list)) or len(entry) != 3:
                raise ConfigError("roster entry %r is not a (label, kind, "
                                  "param) triple" % (entry,))
            label, pkind, param = entry
            if label in seen:
                raise ConfigError("roster label %r appears twice" % (label,))
            seen.add(label)
            make_predictor(pkind, param)


def ingest_sequence(path):
    """Read a one-token-per-line file, interning tokens to ids in
    first-seen order; empty lines are skipped. Every separator that
    str.splitlines knows ends a line, form feed and U+2028 among them.
    ConfigError for a file that holds no tokens."""
    ids = {}
    obs = []
    try:
        with open(path, encoding="utf-8") as f:
            # whole lines, about 64 KB at a time, so that memory does not
            # grow with the text
            while lines := f.readlines(1 << 16):
                for tok in "".join(lines).splitlines():
                    tok = tok.strip()
                    if not tok:
                        continue
                    if tok not in ids:
                        ids[tok] = len(ids)
                    obs.append(ids[tok])
    except (OSError, UnicodeDecodeError) as e:
        raise IOError("cannot read %s: %s" % (path, e))
    if not obs:
        raise ConfigError("%s holds no tokens" % (path,))
    return obs


def streams(spec):
    """Yield (seq_id, stream) for each of the spec's sequences, making
    each stream only when asked. Sequence k is drawn with the rng of
    SeedSequence(spec.seed, spawn_key=(k,)), which is
    SeedSequence(spec.seed).spawn(n)[k] for any n > k. real-file reads
    neither n_seqs nor seed: it yields one stream and never loads numpy."""
    _, read, make = _EXPERIMENTS[spec.kind]
    if "seed" in read:
        from numpy.random import SeedSequence, default_rng
    for k in range(spec.n_seqs if "n_seqs" in read else 1):
        rng = default_rng(SeedSequence(
            spec.seed, spawn_key=(k,))) if "seed" in read else None
        yield k, make(spec, rng)


def run_experiment(spec):
    """Run every roster entry over every sequence. Returns a dict with
    per-sequence rows, aggregates, and a sign test of every roster pair
    on every metric, a win being a strictly lower value; writes the
    corresponding CSVs when spec.out_dir is set."""
    rows = []  # (seq_id, method, param, metric, value)
    values = {}  # metric -> label -> one value per sequence
    ecfg = spec.eval_cfg
    for seq_id, stream in streams(spec):
        # Noise marks and per-step truth depend only on the stream.
        obs = stream.observations
        ref = Referee(ecfg.c_ns, ecfg.window)
        marks = [ref.is_ns(o) for o in obs]
        truth = None
        if stream.schedule is not None:
            truth = stream.schedule.per_step(len(obs))
            opt = optimal_logloss(obs, truth)
            rows.append((seq_id, "optimal", "", "avg_logloss_ns", opt))
        for label, pkind, param in spec.roster:
            pred = make_predictor(pkind, param)
            metrics = run_prequential(pred, obs, ecfg, marks, schedule=truth,
                                      track_item=_EXPERIMENTS[spec.kind][0])
            for metric, value in metrics.items():
                rows.append((seq_id, label, param, metric, value))
                values.setdefault(metric, {}).setdefault(label, []).append(
                    value)

    aggregates = _aggregate(rows)
    tests = [(metric, a, b, *sign_test(by[a], by[b]))
             for metric, by in values.items()
             for (a, _, _), (b, _, _) in combinations(spec.roster, 2)]

    if spec.out_dir:
        _write_csv(os.path.join(spec.out_dir, "per_seq.csv"),
                   ["seq_id", "method", "param", "metric", "value"],
                   ((s, m, p, k, repr(v)) for s, m, p, k, v in rows))
        _write_csv(os.path.join(spec.out_dir, "aggregate.csv"),
                   ["method", "param", "metric", "mean", "std"],
                   [(m, p, k, repr(mu), repr(sd))
                    for m, p, k, mu, sd in aggregates])
        _write_csv(os.path.join(spec.out_dir, "sign_tests.csv"),
                   ["metric", "method_a", "method_b", "wins_a", "wins_b",
                    "ties", "p_value"],
                   [(m, a, b, wa, wb, t, repr(p))
                    for m, a, b, wa, wb, t, p in tests])
    return {"rows": rows, "aggregates": aggregates, "sign_tests": tests,
            "losses_by_method": values.get("avg_logloss_ns", {})}


def _aggregate(rows):
    by_key = {}
    for _seq, method, param, metric, value in rows:
        by_key.setdefault((method, param, metric), []).append(value)
    out = []
    for (method, param, metric), vals in sorted(by_key.items(),
                                                key=lambda kv: repr(kv[0])):
        total = 0
        for v in vals:  # in order: 3.12's sum() compensates
            total += v
        sd = statistics.stdev(vals) if len(vals) > 1 else 0.0
        out.append((method, param, metric, total / len(vals), sd))
    return out


@contextmanager
def _csv_out(path, header=None):
    """A csv writer on a new file at path, in UTF-8 with "\n" line ends,
    its directory made if need be; header, if given, is the first row."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        if header:
            w.writerow(header)
        yield w


def _write_csv(path, header, rows):
    with _csv_out(path, header) as w:
        w.writerows(rows)


def write_stream(out_dir, stream):
    """stream.txt, one observation per line, and schedule.csv."""
    with _csv_out(os.path.join(out_dir, "stream.txt")) as w:
        w.writerows((o,) for o in stream.observations)
    _write_csv(os.path.join(out_dir, "schedule.csv"),
               ["start_t", "item_id", "prob"],
               ((t, i, repr(sd[i])) for t, sd in stream.schedule.entries
                for i in sorted(sd)))


def write_trace(out_dir, steps, track_item):
    """Write rate_trace.csv and, with track_item set, estimate_trace.csv
    from self_concat's steps as they come. Returns the rate trace's path."""
    path = os.path.join(out_dir, "rate_trace.csv")
    with ExitStack() as files:
        rates = files.enter_context(_csv_out(
            path, ["t", "max_rate", "median_rate", "out_degree"]))
        if track_item is not None:
            est = files.enter_context(_csv_out(os.path.join(
                out_dir, "estimate_trace.csv"), ["t", "estimate"]))
        for t, (e, mx, md, deg) in enumerate(steps, 1):
            rates.writerow((t, repr(mx), repr(md), deg))
            if track_item is not None:
                est.writerow((t, repr(e)))
    return path
