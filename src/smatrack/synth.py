"""Synthetic stream generators with known ground truth.

All randomness comes from numpy's default_rng (PCG64); identical seed
and config give byte-identical streams. Salient items use small integer
ids; noise observations get globally unique ids offset by 2**32 so
tests can tell the two apart cheaply.
"""

import itertools
import math
from dataclasses import dataclass

from .evaluation import Schedule
from .sd_core import ConfigError, need_int

NOISE_BASE = 2 ** 32
# gen_sd's floor on each salient probability, and the mass it leaves
# unallocated for noise; not the scoring thresholds p_min and p_ns.
SALIENT_MIN = 0.01
NOISE_MASS = 0.01


@dataclass(frozen=True)
class GenConfig:
    p_max: float = 1.0
    o_min: int = 50      # min occurrences of every salient item per period
    l_min: int = 0       # min length of a stable period
    recycle: bool = False
    desired_len: int = 10000

    def __post_init__(self):
        if isinstance(self.p_max, bool) or not (
                SALIENT_MIN < self.p_max <= 1.0):
            raise ConfigError("p_max must be in (%g, 1], got %r"
                              % (SALIENT_MIN, self.p_max))
        # With no occurrences asked of a period, oscillate mode (which
        # ignores l_min) would append empty periods forever, as would a
        # count that is NaN or infinite.
        for name, low in (("o_min", 1), ("l_min", 0), ("desired_len", 1)):
            need_int(name, getattr(self, name), low)


@dataclass
class GeneratedStream:
    observations: list
    schedule: Schedule


def gen_binary_stationary(tp, n, rng):
    """n iid draws of item 1 with probability tp, else item 0."""
    if isinstance(tp, bool) or not (0.0 < tp <= 1.0):
        raise ConfigError("tp must be in (0, 1], got %r" % (tp,))
    obs = (rng.random(n) < tp).astype(int).tolist()
    sd = {1: tp}
    if tp < 1.0:
        sd[0] = 1.0 - tp
    sched = Schedule([(1, sd)])
    return GeneratedStream(obs, sched)


def gen_single_nonstationary(mode, cfg, n, rng):
    """Binary stream whose item-1 probability changes between stable
    periods. A period may end only once item 1 has been seen at least
    o_min times and the period is long enough: o_min/0.025 steps in
    oscillate mode (rates alternate 0.25 <-> 0.025, starting at 0.25),
    l_min in uniform mode (each new rate drawn from U(0.01, 1.0))."""
    if mode not in ("oscillate", "uniform"):
        raise ValueError("mode must be 'oscillate' or 'uniform'")
    obs = []
    entries = []
    high = True
    while len(obs) < n:
        if mode == "oscillate":
            tp = 0.25 if high else 0.025
            high = not high
            min_len = math.ceil(cfg.o_min / 0.025)
        else:
            tp = rng.uniform(0.01, 1.0)
            min_len = cfg.l_min
        entries.append((len(obs) + 1, {1: tp, 0: 1.0 - tp}))
        seen = 0
        plen = 0
        while (seen < cfg.o_min or plen < min_len) and len(obs) < n:
            o = 1 if rng.random() < tp else 0
            obs.append(o)
            plen += 1
            seen += o
    return GeneratedStream(obs, Schedule(entries))


def gen_sd(cfg, rng, fresh):
    """Draw a fresh SD: probabilities drawn uniformly from the remaining
    mass (capped at p_max, floored at SALIENT_MIN) until less than
    NOISE_MASS + SALIENT_MIN is left. recycle reassigns a shuffled
    permutation to items 1..k; otherwise each item takes the next id
    from fresh."""
    probs = []
    left = 1.0
    while left > NOISE_MASS + SALIENT_MIN:
        pmax = min(left - NOISE_MASS, cfg.p_max)
        p = rng.uniform(SALIENT_MIN, pmax)
        probs.append(p)
        left -= p
    if cfg.recycle:
        order = rng.permutation(len(probs))
        return {i + 1: probs[order[i]] for i in range(len(probs))}
    return {next(fresh): p for p in probs}


def draw_item(p, rng, noise):
    """Sample a salient item proportional to its probability, or, with
    the unallocated probability, the next id of the iterator noise."""
    x = rng.random()
    acc = 0.0
    for i, pr in p.items():
        acc += pr
        if x < acc:
            return i
    return next(noise)


def gen_subseq(p, cfg, rng, noise):
    """Draw iid from p until every salient item has at least o_min
    occurrences and the length is at least l_min."""
    if not p:
        raise ValueError("cannot draw from an empty SD")
    counts = dict.fromkeys(p, 0)
    seq = []
    while min(counts.values()) < cfg.o_min or len(seq) < cfg.l_min:
        o = draw_item(p, rng, noise)
        seq.append(o)
        if o in counts:
            counts[o] += 1
    return seq


def gen_sequence(cfg, rng):
    """Concatenate stable subsequences, regenerating the SD each time,
    until the stream reaches desired_len. The last subsequence is not
    cut, so desired_len is a lower bound on the length."""
    fresh = itertools.count(1)
    noise = itertools.count(NOISE_BASE)
    obs = []
    entries = []
    while len(obs) < cfg.desired_len:
        p = gen_sd(cfg, rng, fresh)
        entries.append((len(obs) + 1, p))
        obs.extend(gen_subseq(p, cfg, rng, noise))
    return GeneratedStream(obs, Schedule(entries))

