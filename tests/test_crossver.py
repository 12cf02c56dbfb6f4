"""scripts/crossver.py's digests, seeded and score checks in the tier-1
suite, one test per check, so that the script runs on every change and a
failing check shows by name. Its Dyal, Queues and Ema checks run case by
case in test_predictors.py. CI also runs the script alone on each
Python leg, before anything but the standard library is installed."""

import crossver
import pytest

CHECKS = [(name, check) for name, check in crossver.CHECKS
          if name in ("digests", "seeded", "score")]


@pytest.mark.parametrize("check", [c for _, c in CHECKS],
                         ids=[name for name, _ in CHECKS])
def test_crossver_check(check):
    why = check()
    assert why is None, why


def test_crossver_reports_a_raising_check(monkeypatch, capsys):
    # The first check raises; every check still prints its line, and the
    # script exits 1. The others are stubbed out, as they pass above.
    def raising():
        raise ZeroDivisionError("division by zero")

    names = [name for name, _ in crossver.CHECKS]
    monkeypatch.setattr(crossver, "CHECKS", [(names[0], raising)] + [
        (name, lambda: None) for name in names[1:]])
    assert crossver.main() == 1
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[:2] for line in lines] == \
        [["FAIL", names[0]]] + [["ok", name] for name in names[1:]]
    assert lines[0].endswith("(ZeroDivisionError: division by zero)")
