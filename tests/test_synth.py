import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest

from smatrack.synth import (NOISE_BASE, NOISE_MASS, SALIENT_MIN, PCG64,
                            ConfigError, GenConfig, draw_item,
                            gen_binary_stationary, gen_sd, gen_sequence,
                            gen_single_nonstationary, gen_subseq)


# --- PCG64 against numpy -----------------------------------------------------

def _draws(rng):
    """Every kind of draw synth makes, interleaved, so that the 32-bit
    half a permutation keeps carries over the floats drawn after it."""
    out = []
    for n in range(1, 41):
        out += [rng.random(), *rng.random(n), rng.uniform(0.01, n / 40),
                *rng.permutation(n)]
    return out


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3,
                                  2 ** 130 + 12345])
def test_pcg64_draws_what_numpy_draws(seed):
    # Keys of one word, of two (one of them past 32 bits) and one key
    # word past 32 bits.
    for key in [(0,), (1,), (7,), (0, 1), (5, 2 ** 32), (2 ** 32 + 1,)]:
        want = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=key)))
        assert _draws(PCG64(seed, key)) == _draws(want), key


# --- binary stationary ------------------------------------------------------

def test_binary_all_ones_at_tp_one():
    s = gen_binary_stationary(1.0, 100, np.random.default_rng(0))
    assert s.observations == [1] * 100


def test_binary_frequency():
    s = gen_binary_stationary(0.1, 10000, np.random.default_rng(1))
    ones = sum(s.observations)
    assert abs(ones - 1000) <= 3 * 30


def test_binary_schedule_single_entry():
    s = gen_binary_stationary(0.1, 10, np.random.default_rng(2))
    assert s.schedule.entries == [(1, {1: 0.1, 0: 0.9})]


def test_binary_rejects_bad_tp():
    # True would pass as tp = 1 and write the schedule {1: True}
    for tp in (0.0, True, False):
        with pytest.raises(ConfigError) as e:
            gen_binary_stationary(tp, 10, np.random.default_rng(0))
        assert str(e.value) == "tp must be in (0, 1], got %r" % tp


# --- single-item non-stationary ---------------------------------------------

def _period_count(stream):
    return len(stream.schedule.entries)


def test_oscillate_period_count_omin10():
    cfg = GenConfig(o_min=10)
    counts = [_period_count(gen_single_nonstationary(
        "oscillate", cfg, 10000, np.random.default_rng(s)))
        for s in range(20)]
    mean = sum(counts) / len(counts)
    assert 20 <= mean <= 30  # about 25 periods of >= 400 steps each


def test_oscillate_min_period_length_omin50():
    cfg = GenConfig(o_min=50)
    s = gen_single_nonstationary("oscillate", cfg, 30000,
                                 np.random.default_rng(3))
    starts = [t for t, _ in s.schedule.entries]
    lengths = [b - a for a, b in zip(starts, starts[1:])]
    assert all(ln >= 2000 for ln in lengths)


def test_oscillate_alternates_and_starts_high():
    cfg = GenConfig(o_min=10)
    s = gen_single_nonstationary("oscillate", cfg, 5000,
                                 np.random.default_rng(4))
    tps = [sd[1] for _, sd in s.schedule.entries]
    assert tps[0] == 0.25
    assert all(a != b for a, b in zip(tps, tps[1:]))
    assert set(tps) == {0.25, 0.025}


def test_uniform_period_count_omin10():
    cfg = GenConfig(o_min=10)
    counts = [_period_count(gen_single_nonstationary(
        "uniform", cfg, 10000, np.random.default_rng(s)))
        for s in range(20)]
    mean = sum(counts) / len(counts)
    assert 150 <= mean <= 250  # around 200


def test_uniform_period_count_omin50():
    cfg = GenConfig(o_min=50)
    counts = [_period_count(gen_single_nonstationary(
        "uniform", cfg, 10000, np.random.default_rng(s)))
        for s in range(20)]
    mean = sum(counts) / len(counts)
    assert 30 <= mean <= 60  # around 50


def test_uniform_l_min_respected():
    cfg = GenConfig(o_min=10, l_min=1000)
    s = gen_single_nonstationary("uniform", cfg, 30000,
                                 np.random.default_rng(6))
    starts = [t for t, _ in s.schedule.entries]
    lengths = [b - a for a, b in zip(starts, starts[1:])]
    assert all(ln >= 1000 for ln in lengths)


def test_nonstat_rejects_bad_mode():
    with pytest.raises(ValueError):
        gen_single_nonstationary("nope", GenConfig(), 10,
                                 np.random.default_rng(0))


@pytest.mark.parametrize("n", [1, 399, 400, 401, 5000])
def test_single_item_generators_return_n_observations(n):
    # with o_min=10 the shortest oscillate period is 400 steps, so n = 399,
    # 400 and 401 cut the stream just before, at and just past the end of
    # a first period that is that short; no period starts past n
    cfg = GenConfig(o_min=10)
    for seed in range(3):
        for s in (gen_binary_stationary(0.1, n, np.random.default_rng(seed)),
                  *(gen_single_nonstationary(mode, cfg, n,
                                             np.random.default_rng(seed))
                    for mode in ("oscillate", "uniform"))):
            assert len(s.observations) == n
            assert all(t <= n for t, _ in s.schedule.entries)


# --- gen_sd -----------------------------------------------------------------

def test_gen_sd_mass_and_min():
    rng = np.random.default_rng(7)
    cfg = GenConfig()
    for _ in range(200):
        sd = gen_sd(cfg, rng, itertools.count(1))
        assert sum(sd.values()) <= 1.0 - NOISE_MASS + 1e-12
        assert all(v >= SALIENT_MIN for v in sd.values())


def test_gen_sd_support_size_around_five():
    rng = np.random.default_rng(8)
    cfg = GenConfig(p_max=1.0)
    sizes = [len(gen_sd(cfg, rng, itertools.count(1))) for _ in range(1000)]
    mean = sum(sizes) / len(sizes)
    assert 3 <= mean <= 7


def test_gen_sd_p_max_cap():
    rng = np.random.default_rng(9)
    cfg = GenConfig(p_max=0.1)
    sd = gen_sd(cfg, rng, itertools.count(1))
    assert all(v <= 0.1 for v in sd.values())
    assert len(sd) >= 9  # at least ~0.98/0.1 items needed


def test_gen_sd_recycle_support():
    rng = np.random.default_rng(10)
    cfg = GenConfig(recycle=True)
    sd = gen_sd(cfg, rng, itertools.count(1))
    assert set(sd) == set(range(1, len(sd) + 1))


def test_gen_sd_new_items_are_fresh():
    rng = np.random.default_rng(11)
    cfg = GenConfig(recycle=False)
    fresh = itertools.count(1)
    a = gen_sd(cfg, rng, fresh)
    b = gen_sd(cfg, rng, fresh)
    assert not (set(a) & set(b))


def test_gen_config_validation():
    # a bool is no number: True would pass as p_max = 1
    for bad in (0.001, True, False):
        with pytest.raises(ConfigError) as e:
            GenConfig(p_max=bad)
        assert str(e.value) == "p_max must be in (0.01, 1], got %r" % bad


def test_gen_config_is_frozen():
    # o_min set to 0 after the checks would make the generators hang
    cfg = GenConfig(o_min=2, desired_len=300)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.o_min = 0
    assert cfg.o_min == 2


def test_gen_config_rejects_empty_periods():
    # o_min = 0 lets a period end before it starts, so the generators
    # would append empty periods forever; l_min cannot be negative. A
    # count that is NaN or infinite would loop forever too, so each count
    # must be an integer; numpy integers pass, and a bool, which passed as
    # 1 or 0, does not.
    for kw in ({"o_min": 0}, {"o_min": -3}, {"o_min": 0, "l_min": 100},
               {"l_min": -1}):
        with pytest.raises(ConfigError):
            GenConfig(**kw)
    for name, low in (("o_min", 1), ("l_min", 0), ("desired_len", 1)):
        for bad in (math.nan, math.inf, -math.inf, 1.5, 2.0, True):
            with pytest.raises(ConfigError) as e:
                GenConfig(**{name: bad})
            assert str(e.value) == "%s must be an integer >= %d, got %r" \
                % (name, low, bad)
        assert getattr(GenConfig(**{name: np.int64(3)}), name) == 3
    with pytest.raises(ConfigError) as e:
        GenConfig(l_min=False)
    assert str(e.value) == "l_min must be an integer >= 0, got False"
    # domain edges
    cfg = GenConfig(o_min=1, l_min=0, desired_len=50)
    rng = np.random.default_rng(0)
    assert len(gen_single_nonstationary("oscillate", cfg, 50, rng)
               .observations) == 50
    assert len(gen_sequence(cfg, rng).observations) >= 50


# --- draw_item / gen_subseq -------------------------------------------------

def test_draw_item_point_mass():
    rng = np.random.default_rng(12)
    noise = itertools.count(NOISE_BASE)
    assert all(draw_item({5: 1.0}, rng, noise) == 5 for _ in range(100))


def test_draw_item_empty_is_noise():
    rng = np.random.default_rng(13)
    noise = itertools.count(NOISE_BASE)
    ids = {draw_item({}, rng, noise) for _ in range(10)}
    assert len(ids) == 10
    assert all(i >= NOISE_BASE for i in ids)


def test_draw_item_frequency():
    rng = np.random.default_rng(14)
    noise = itertools.count(NOISE_BASE)
    n = 100000
    hits = sum(draw_item({1: 0.5}, rng, noise) == 1 for _ in range(n))
    sigma = math.sqrt(n * 0.25)
    assert abs(hits - n / 2) <= 3 * sigma


def test_gen_subseq_point_mass():
    cfg = GenConfig(o_min=3)
    seq = gen_subseq({1: 1.0}, cfg, np.random.default_rng(15),
                     itertools.count(NOISE_BASE))
    assert seq == [1, 1, 1]


def test_gen_subseq_counts_met():
    cfg = GenConfig(o_min=10)
    p = {1: 0.5, 2: 0.5}
    seq = gen_subseq(p, cfg, np.random.default_rng(16),
                     itertools.count(NOISE_BASE))
    assert len(seq) >= 20
    assert seq.count(1) >= 10 and seq.count(2) >= 10


def test_gen_subseq_expected_length():
    cfg = GenConfig(o_min=20)
    p = {1: 0.8, 2: 0.1}
    lengths = [len(gen_subseq(p, cfg, np.random.default_rng(s),
                              itertools.count(NOISE_BASE)))
               for s in range(50)]
    mean = sum(lengths) / len(lengths)
    # dominated by the rarest item: about o_min / 0.1
    assert 150 <= mean <= 300


def test_gen_subseq_empty_rejected():
    with pytest.raises(ValueError):
        gen_subseq({}, GenConfig(), np.random.default_rng(0),
                   itertools.count(NOISE_BASE))


# --- gen_sequence -----------------------------------------------------------

def test_gen_sequence_sd_changes_omin50():
    cfg = GenConfig(o_min=50, desired_len=10000)
    counts = [len(gen_sequence(cfg, np.random.default_rng(s))
                  .schedule.entries) for s in range(15)]
    mean = sum(counts) / len(counts)
    assert 2.5 <= mean <= 5.5  # just under 4 on average


def test_gen_sequence_sd_changes_omin10():
    cfg = GenConfig(o_min=10, desired_len=10000)
    counts = [len(gen_sequence(cfg, np.random.default_rng(s))
                  .schedule.entries) for s in range(15)]
    mean = sum(counts) / len(counts)
    assert 13 <= mean <= 21  # just under 17 on average


def test_gen_sequence_noise_ids_unique():
    cfg = GenConfig(o_min=10, desired_len=5000)
    s = gen_sequence(cfg, np.random.default_rng(17))
    noise = [o for o in s.observations if o >= NOISE_BASE]
    assert len(noise) == len(set(noise))


def test_gen_sequence_salient_frequencies():
    cfg = GenConfig(o_min=200, desired_len=1)  # one long stable period
    s = gen_sequence(cfg, np.random.default_rng(18))
    p = s.schedule.entries[0][1]
    n = len(s.observations)
    for i, tp in p.items():
        cnt = s.observations.count(i)
        sigma = math.sqrt(n * tp * (1 - tp))
        assert abs(cnt - n * tp) <= 4 * sigma + 1


def test_gen_sequence_noise_fraction():
    cfg = GenConfig(o_min=500, desired_len=1)
    s = gen_sequence(cfg, np.random.default_rng(19))
    p = s.schedule.entries[0][1]
    u = 1.0 - sum(p.values())
    n = len(s.observations)
    noise = sum(1 for o in s.observations if o >= NOISE_BASE)
    sigma = math.sqrt(n * u * (1 - u))
    assert abs(noise - n * u) <= 4 * sigma + 1


# --- determinism / serialization --------------------------------------------

def test_generation_deterministic():
    cfg = GenConfig(o_min=10, desired_len=3000)
    a = gen_sequence(cfg, np.random.default_rng(20))
    b = gen_sequence(cfg, np.random.default_rng(20))
    assert a.observations == b.observations
    assert a.schedule.entries == b.schedule.entries


def test_stream_roundtrip(tmp_path):
    from smatrack.harness import write_stream
    cfg = GenConfig(o_min=10, desired_len=1000)
    s = gen_sequence(cfg, np.random.default_rng(21))
    write_stream(str(tmp_path / "gen"), s)
    obs = [int(line) for line in
           (tmp_path / "gen" / "stream.txt").read_text().splitlines()]
    with open(tmp_path / "gen" / "schedule.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["start_t", "item_id", "prob"]
    entries = {}
    for start, item, prob in rows[1:]:
        entries.setdefault(int(start), {})[int(item)] = float(prob)
    assert obs == s.observations
    assert sorted(entries.items()) == s.schedule.entries
