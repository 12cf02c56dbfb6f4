"""Byte-identity gate: a fixed spec of CLI runs, in-process, whose every
output must keep the sha256 digest recorded in identity_digests.json.

A refactor that keeps the program's behaviour leaves all of them
byte-identical. On a mismatch the test names every output whose digest
moved. After a change that is meant to move them, record new digests
with

    PYTHONPATH=src python tests/test_identity.py --write
"""

import hashlib
import json
import os
import sys
from importlib.metadata import version

import pytest
from click.testing import CliRunner

from identity_inputs import ROSTER, SHORT, TOKENS
from smatrack.cli import cli

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "identity_digests.json")

METHODS = [a for m in ROSTER for a in ("--method", m)]

# (name, argv): each run's stdout is recorded as <name>/stdout, and
# every file it writes under the directory <name>.
SPEC = [("help", ["--help"])] + [
    ("help-" + sub, [sub, "--help"])
    for sub in ("gen", "run", "trace", "ingest-check")] + [
    ("gen-binary", ["gen", "--kind", "stationary-single", "--seq-len", "500",
                    "--tp", "0.3", "--seed", "1"]),
    ("gen-nonstat", ["gen", "--kind", "nonstat-single", "--seq-len", "500",
                     "--o-min", "10", "--seed", "2"]),
    ("gen-nonstat-uniform", ["gen", "--kind", "nonstat-single", "--mode",
                             "uniform", "--l-min", "50", "--o-min", "10",
                             "--seq-len", "500", "--seed", "3"]),
    ("gen-multi", ["gen", "--kind", "multi-item", "--seq-len", "500",
                   "--o-min", "5", "--seed", "4"]),
    ("gen-multi-recycle", ["gen", "--kind", "multi-item", "--seq-len", "500",
                           "--o-min", "5", "--recycle", "--p-max", "0.5",
                           "--seed", "5"]),
    ("run-stationary", ["run", "--kind", "stationary-single", "--tp", "0.2",
                        "--n-seqs", "3", "--seq-len", "1000", *METHODS]),
    ("run-nonstat", ["run", "--kind", "nonstat-single", "--o-min", "10",
                     "--n-seqs", "3", "--seq-len", "1000", *METHODS]),
    ("run-multi", ["run", "--kind", "multi-item", "--o-min", "5",
                   "--n-seqs", "3", "--seq-len", "1000", "--seed", "6",
                   *METHODS]),
    ("run-real", ["run", "--kind", "real-file", "--input", "tokens.txt",
                  *METHODS]),
    ("run-config", ["run", "--kind", "multi-item", "--o-min", "5",
                    "--n-seqs", "3", "--seq-len", "1000", "--seed", "7",
                    "--p-min", "0.02", "--p-ns", "0.005", "--c-ns", "1",
                    "--referee-window", "50", "--d", "1.2", "--d", "3",
                    *METHODS]),
    ("run-short", ["run", "--kind", "real-file", "--input", "short.txt",
                   "--c-ns", "0", *METHODS]),
    ("trace", ["trace", "--input", "tokens.txt", "--self-concat", "2"]),
    ("trace-item", ["trace", "--input", "tokens.txt", "--method",
                    "dyal:0.05", "--track-item", "1"]),
    ("ingest-check", ["ingest-check", "tokens.txt"]),
]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def spec_digests():
    """{output name: sha256} for every output of SPEC, run in a fresh
    directory."""
    runner = CliRunner()
    out = {}
    with runner.isolated_filesystem():
        for path, text in (("tokens.txt", TOKENS), ("short.txt", SHORT)):
            with open(path, "w") as f:
                f.write(text)
        for name, argv in SPEC:
            if argv[0] in ("gen", "run", "trace") and "--help" not in argv:
                argv = argv + ["--out", name]
            r = runner.invoke(cli, argv, terminal_width=80)
            assert r.exit_code == 0, (name, r.output, r.exception)
            out[name + "/stdout"] = sha256(r.stdout_bytes)
            if os.path.isdir(name):
                for fname in sorted(os.listdir(name)):
                    with open(os.path.join(name, fname), "rb") as f:
                        out[name + "/" + fname] = sha256(f.read())
    return out


def versions():
    return {"python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": version("numpy"), "click": version("click")}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the digests come from Python 3.11; 3.12's "
                    "compensated sum() moves the last bits of float sums")
def test_outputs_byte_identical():
    with open(DIGESTS) as f:
        want = json.load(f)
    got = spec_digests()
    moved = sorted(k for k in set(want["digests"]) | set(got)
                   if want["digests"].get(k) != got.get(k))
    assert not moved, (
        "%d output digests moved: %s (recorded with %s; running %s)"
        % (len(moved), ", ".join(moved),
           {k: want[k] for k in ("python", "numpy", "click")}, versions()))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_identity.py --write")
    with open(DIGESTS, "w") as f:
        json.dump(dict(versions(), digests=spec_digests()), f, indent=1,
                  sort_keys=True)
        f.write("\n")
    print("wrote", DIGESTS)
