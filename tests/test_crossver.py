"""scripts/crossver.py's checks in the tier-1 suite, so that the script
runs on every change. CI also runs the script alone on each Python leg,
before anything but the standard library is installed."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "crossver.py")


def test_crossver_checks_pass():
    spec = importlib.util.spec_from_file_location("crossver", SCRIPT)
    crossver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(crossver)
    results = crossver.run_checks()
    assert len(results) == len(crossver.IDENTITY_RUNS) + 4
    failed = {name: why for name, why in results if why is not None}
    assert not failed, failed
