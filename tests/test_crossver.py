"""scripts/crossver.py's digests and score checks in the tier-1 suite,
one test per check, so that the script runs on every change and a
failing check shows by name. Its Dyal, Queues and Ema checks run case by
case in test_predictors.py. CI also runs the script alone on each
Python leg, before anything but the standard library is installed."""

import crossver
import pytest

CHECKS = [(name, check) for name, check in crossver.CHECKS
          if name in ("digests", "score")]


@pytest.mark.parametrize("check", [c for _, c in CHECKS],
                         ids=[name for name, _ in CHECKS])
def test_crossver_check(check):
    why = check()
    assert why is None, why
