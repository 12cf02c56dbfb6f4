"""The identity spec's roster and input files, in the standard library
only, so that tests/test_identity.py and scripts/crossver.py run the
same spec."""

ROSTER = ["ema:0.05", "harmonic-ema:0.01", "queues:3", "ts-queues:5",
          "box:50", "dyal:0.01"]

# A token file whose 7 words w0-w6 give way to w3-w7 halfway.
TOKENS = "".join("w%d\n" % (i % 7 if i < 300 else 3 + i % 5)
                 for i in range(600))
# Three steps, so that one step's loss moves the run's averages: a
# first sight, a second one, and with --c-ns 0 a miss not marked noise.
SHORT = "a\nb\na\n"
