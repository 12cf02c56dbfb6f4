"""Instrumentation the benchmark installs around the calls into each
smatrack module.

Nothing here edits the program's files: `Instruments` rebinds module
attributes and class methods for the duration of one job and restores
them afterwards. Untraced jobs only time each prequential pass (one
timing per (sequence, method) trial). Traced jobs also open a span
around every call into a layer; spans are folded into per-(trial, layer)
totals and only the first `keep` of them are stored whole.
"""

import contextlib
import inspect
import signal
import sys
import time

perf_counter = time.perf_counter

PREDICTOR_KINDS = ("ema", "harmonic-ema", "queues", "ts-queues", "box",
                   "dyal")

# The vCPUs this benchmark runs on change speed by up to 2x within a
# minute, for programs like this one as much as for any other code. So a
# fixed calibration kernel is timed every CAL_PERIOD_S while a job runs,
# and every timing is reported at the reference speed: each stretch
# between two samples counts CAL_REF_S / (the mean of those two samples'
# times) seconds per second. A change to the program does not touch the
# kernel, so it moves the scaled figures as it moves the raw ones.
CAL_STEPS = 20000
CAL_REF_S = 0.0026  # the kernel's median time on the baseline machine
CAL_PERIOD_S = 0.05


def calibration_kernel():
    """Dict reads and writes and float arithmetic in an interpreted loop,
    as in the predictors."""
    w = {}
    acc = 0.0
    for i in range(CAL_STEPS):
        k = i % 97
        v = w.get(k, 0.0) * 0.99 + 0.01
        w[k] = v
        acc += v
    return acc


class SpeedSamples:
    """(start, end) times of calibration kernel runs. Samples taken
    before and after a timed region bracket it; `running()` adds one
    every CAL_PERIOD_S in between, from a SIGALRM handler, so they
    interrupt the program's own loop in this one thread."""

    def __init__(self):
        self.samples = []

    def sample(self, *_signal_args):
        start = perf_counter()
        calibration_kernel()
        self.samples.append((start, perf_counter()))

    @contextlib.contextmanager
    def running(self, on=True):
        if not on:
            yield
            return
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def seconds(self, a, b, scaled=True):
        """Time within [a, b] outside the samples; with `scaled`, at the
        reference speed. [a, b] must lie between the first and last
        sample."""
        total = 0.0
        for (s0, e0), (s1, e1) in zip(self.samples, self.samples[1:]):
            lo, hi = max(a, e0), min(b, s1)
            if hi > lo:
                total += (hi - lo) * (2 * CAL_REF_S / (e0 - s0 + e1 - s1)
                                      if scaled else 1.0)
        return total

    def first_scale(self):
        s, e = self.samples[0]
        return CAL_REF_S / (e - s)


# A call from one of these modules into itself stays inside the caller's
# span (multidev -> deviates, optimal_logloss -> Schedule.at): their
# layers are leaves, and per-item spans there would swamp the timings.
# Harness layers nest (run_experiment -> run_prequential).
LEAF_MODULES = ("evaluation", "sd_core", "synth")

# (layer, module, attribute): free functions, rebound wherever smatrack
# modules hold a reference to them. Missing names are skipped, so a layer
# a later version removes reads as zero calls instead of breaking the run.
# deviates is not rebound inside evaluation itself: multidev calls it once
# per support item, and a wrapper there would cost more than the call.
FUNCTION_LAYERS = (
    ("synth.gen", "synth", "gen_sequence"),
    ("synth.gen", "synth", "gen_single_nonstationary"),
    ("synth.gen", "synth", "gen_binary_stationary"),
    ("sd_core.filter_cap", "sd_core", "filter_cap"),
    ("evaluation.dev", "evaluation", "multidev"),
    ("evaluation.dev", "evaluation", "deviates"),
    ("evaluation.score", "evaluation", "logloss_rule_ns"),
    ("evaluation.score", "evaluation", "quad_rule"),
    ("evaluation.optimal_logloss", "evaluation", "optimal_logloss"),
    ("evaluation.sign_test", "evaluation", "sign_test"),
    ("harness.ingest", "harness", "ingest_sequence"),
    ("harness.self_concat", "harness", "run_self_concat"),
    ("harness.trace", "harness", "run_trace"),
    ("harness.write_csv", "harness", "_write_csv"),
    ("harness.run_experiment", "harness", "run_experiment"),
)

# (layer, module, class, method)
METHOD_LAYERS = (
    ("evaluation.dev", "evaluation", "Schedule", "at"),
    ("evaluation.referee", "evaluation", "Referee", "is_ns"),
)


class Tracer:
    """Open spans on a stack; a closed span adds its duration to its
    parent's child time, so self time = duration - child time."""

    def __init__(self, keep=2000):
        self.keep = keep
        self.stack = []     # open spans: [id, layer, child seconds, module]
        self.totals = {}    # (trial, layer) -> [calls, seconds, self seconds]
        self.counters = {}  # layer -> {counter: value}
        self.spans = []     # (id, parent id, trial, layer, start, end)
        self.next_id = 0
        self.trial = "job"

    def call(self, layer, fn, *args, **kwargs):
        stack = self.stack
        module = layer[:layer.index(".")]
        if stack and stack[-1][3] == module and module in LEAF_MODULES:
            return fn(*args, **kwargs)
        frame = [self.next_id, layer, 0.0, module]
        self.next_id += 1
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dt = end - start
            if stack:
                stack[-1][2] += dt
            key = (self.trial, layer)
            tot = self.totals.get(key)
            if tot is None:
                tot = self.totals[key] = [0, 0.0, 0.0]
            tot[0] += 1
            tot[1] += dt
            tot[2] += dt - frame[2]
            if len(self.spans) < self.keep:
                self.spans.append((frame[0], stack[-1][0] if stack else None,
                                   self.trial, layer, start, end))

    def count(self, layer, name, value):
        c = self.counters.setdefault(layer, {})
        c[name] = c.get(name, 0) + value

    def peak(self, layer, name, value):
        c = self.counters.setdefault(layer, {})
        if value > c.get(name, 0):
            c[name] = value

    def by_layer(self):
        """Totals summed over trials: layer -> [calls, seconds, self]."""
        out = {}
        for (_trial, layer), (n, s, own) in self.totals.items():
            acc = out.setdefault(layer, [0, 0.0, 0.0])
            acc[0] += n
            acc[1] += s
            acc[2] += own
        return out


class TracedPredictor:
    """Stands in for a predictor so that its predict/update calls are
    spans of their own kind; Dyal's inner Queues stays untraced."""

    def __init__(self, inner, kind, tracer):
        self._inner = inner
        self._tracer = tracer
        self._predict_layer = "predictors.predict." + kind
        self._update_layer = "predictors.update." + kind

    def predict(self):
        out = self._tracer.call(self._predict_layer, self._inner.predict)
        self._tracer.peak(self._predict_layer, "peak_entries", len(out))
        return out

    def update(self, o):
        return self._tracer.call(self._update_layer, self._inner.update, o)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Instruments:
    """Installs the wrappers on enter and restores the originals on exit.

    Always: one timing per prequential pass, `passes` = [(kind, n_obs,
    start, end)], and the arguments of the first pass in `first_pass`.
    With a tracer: a span around every call into a layer.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.passes = []
        self.first_pass = None
        self._kinds = {}
        self._saved = []

    def __enter__(self):
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("smatrack.") and mod is not None}
        self._mods = mods
        harness = mods["harness"]
        self._rebind(harness.make_predictor, self._make_predictor(
            harness.make_predictor))
        self._rebind(harness.run_prequential, self._run_prequential(
            harness.run_prequential))
        if self.tracer is not None:
            for layer, mod, attr in FUNCTION_LAYERS:
                orig = getattr(mods[mod], attr, None)
                if orig is not None:
                    skip = mod if attr == "deviates" else None
                    self._rebind(orig, self._span(layer, orig), skip)
            for layer, mod, cls, attr in METHOD_LAYERS:
                owner = getattr(mods[mod], cls, None)
                if owner is not None and hasattr(owner, attr):
                    orig = getattr(owner, attr)
                    self._saved.append((owner, attr, orig))
                    setattr(owner, attr, self._span(layer, orig))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []
        return False

    def _rebind(self, orig, wrapper, skip=None):
        """Point every smatrack module reference to `orig` at `wrapper`,
        except those in the module named `skip`."""
        for name, mod in self._mods.items():
            if name == skip:
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _span(self, layer, orig):
        tracer = self.tracer
        if layer == "sd_core.filter_cap":
            def wrapper(m, *args, **kwargs):
                out = tracer.call(layer, orig, m, *args, **kwargs)
                tracer.count(layer, "entries_in", len(m))
                tracer.count(layer, "entries_out", len(out))
                return out
        elif layer in ("synth.gen", "harness.ingest", "harness.self_concat",
                       "harness.trace"):
            def wrapper(*args, **kwargs):
                out = tracer.call(layer, orig, *args, **kwargs)
                tracer.count(layer, "obs", len(getattr(out, "observations",
                                                       out)))
                return out
        elif layer == "evaluation.optimal_logloss":
            def wrapper(obs, *args, **kwargs):
                tracer.count(layer, "obs", len(obs))
                return tracer.call(layer, orig, obs, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(layer, orig, *args, **kwargs)
        return wrapper

    def _make_predictor(self, orig):
        def make_predictor(kind, param):
            if self.tracer is None:
                pred = orig(kind, param)
            else:
                pred = TracedPredictor(
                    self.tracer.call("harness.make_predictor", orig, kind,
                                     param), kind, self.tracer)
            # Keyed by id: each trial asks for its predictor right before
            # its pass, so a reused id is always overwritten first.
            self._kinds[id(pred)] = kind
            return pred
        return make_predictor

    def _run_prequential(self, orig):
        signature = inspect.signature(orig)
        tracer = self.tracer

        def run_prequential(pred, obs, *args, **kwargs):
            kind = self._kinds[id(pred)]
            if self.first_pass is None:
                self.first_pass = signature.bind(pred, obs, *args, **kwargs)
            if tracer is None:
                start = perf_counter()
                res = orig(pred, obs, *args, **kwargs)
                self.passes.append((kind, len(obs), start, perf_counter()))
                return res
            bound = signature.bind(pred, obs, *args, **kwargs)
            tracer.count("harness.prequential", "obs", len(obs))
            if bound.arguments.get("schedule") is not None:
                tracer.count("harness.prequential", "scheduled_obs", len(obs))
            tracer.trial = "pass%d:%s" % (len(self.passes), kind)
            start = perf_counter()
            try:
                res = tracer.call("harness.prequential", orig, pred, obs,
                                  *args, **kwargs)
            finally:
                tracer.trial = "job"
            self.passes.append((kind, len(obs), start, perf_counter()))
            return res
        return run_prequential


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(by_layer, counters, jobs):
    """Per-layer figures from traced totals summed over `jobs` jobs.
    A layer a workload never calls reads 0."""
    def seconds(layer, own=False):
        return by_layer.get(layer, [0, 0.0, 0.0])[2 if own else 1]

    def calls(layer):
        return by_layer.get(layer, [0, 0.0, 0.0])[0]

    def counter(layer, name):
        return counters.get(layer, {}).get(name, 0)

    m = {}
    for kind in PREDICTOR_KINDS:
        for op in ("update", "predict"):
            layer = "predictors.%s.%s" % (op, kind)
            m["predictors.%s.us_per_call.%s" % (op, kind)] = \
                1e6 * _ratio(seconds(layer), calls(layer))
    for kind in PREDICTOR_KINDS:
        m["predictors.map_entries.peak." + kind] = counter(
            "predictors.predict." + kind, "peak_entries")
    fc = "sd_core.filter_cap"
    m[fc + ".us_per_call"] = 1e6 * _ratio(seconds(fc), calls(fc))
    m[fc + ".kept_ratio"] = _ratio(counter(fc, "entries_out"),
                                   counter(fc, "entries_in"))
    m[fc + ".entries_in_per_call"] = _ratio(counter(fc, "entries_in"),
                                            calls(fc))
    m["evaluation.dev.us_per_step"] = 1e6 * _ratio(
        seconds("evaluation.dev"),
        counter("harness.prequential", "scheduled_obs"))
    m["evaluation.referee.us_per_call"] = 1e6 * _ratio(
        seconds("evaluation.referee"), calls("evaluation.referee"))
    m["evaluation.optimal_logloss.us_per_obs"] = 1e6 * _ratio(
        seconds("evaluation.optimal_logloss"),
        counter("evaluation.optimal_logloss", "obs"))
    m["evaluation.sign_test.ms"] = 1e3 * seconds("evaluation.sign_test") / jobs
    m["synth.gen.us_per_obs"] = 1e6 * _ratio(seconds("synth.gen"),
                                             counter("synth.gen", "obs"))
    m["harness.prequential.self_us_per_obs"] = 1e6 * _ratio(
        seconds("harness.prequential", own=True),
        counter("harness.prequential", "obs"))
    m["harness.ingest.us_per_obs"] = 1e6 * _ratio(
        seconds("harness.ingest"), counter("harness.ingest", "obs"))
    m["harness.self_concat.self_us_per_obs"] = 1e6 * _ratio(
        seconds("harness.self_concat", own=True),
        counter("harness.self_concat", "obs"))
    m["harness.write_csv.ms"] = 1e3 * seconds("harness.write_csv") / jobs
    return m
