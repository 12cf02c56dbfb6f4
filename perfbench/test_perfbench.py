"""Fast checks of the benchmark itself, at the tiny scale.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import job  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from smatrack import harness  # noqa: E402


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def tiny_job(name, out_dir, traced=False):
    wl = workloads.make(name, "tiny")
    result = job.run_job(wl, wl.spec(5, 0, str(out_dir)), traced=traced,
                         reference=not traced)
    result.update(job=0, traced=traced, setup_s=1.0)
    return result


@pytest.fixture(scope="module")
def pairs(tmp_path_factory):
    """An untraced and a traced tiny job on the same inputs, per workload."""
    return {name: tuple(tiny_job(name, tmp_path_factory.mktemp(name),
                                 traced=traced)
                        for traced in (False, True))
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_computed(pairs, name):
    plain, traced = pairs[name]
    assert set(declared("end_to_end")) <= set(run.end_to_end([plain]))
    imports = {"cli.import_ms." + pkg: 1.0 for pkg in run.IMPORT_PACKAGES}
    values, _by_layer, _wall = run.per_layer([(plain, traced)], imports)
    assert set(declared("per_layer")) <= set(values)
    assert run.tally([plain, traced])[:2] == (
        len(plain["trials"]) + len(traced["trials"]), 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_match(pairs, name):
    plain, traced = pairs[name]
    assert plain["digests"] == traced["digests"]
    assert plain["trials"] == traced["trials"]


class Inflated:
    """A predictor whose map is scaled by 3, so it sums above 1."""

    def __init__(self, inner):
        self.inner = inner

    def predict(self):
        return {i: min(1.0, 3 * v) for i, v in self.inner.predict().items()}

    def update(self, o):
        self.inner.update(o)


@pytest.mark.parametrize("faulty,caught_by", [("dyal", "reference"),
                                              ("queues", "ts=plain")])
def test_planted_fault_counts_as_failed(tmp_path, monkeypatch, faulty,
                                        caught_by):
    make = harness.make_predictor

    def make_faulty(kind, param):
        pred = make(kind, param)
        return Inflated(pred) if kind == faulty else pred

    monkeypatch.setattr(harness, "make_predictor", make_faulty)
    result = tiny_job("binary_oscillate", tmp_path)
    attempted, failed, lines = run.tally([result])
    assert attempted == len(result["trials"])
    assert 0 < failed < attempted
    bad = {t["method"].split(":")[0] for t in result["trials"]
           if t["failures"]}
    assert faulty in bad
    assert any(caught_by in line for line in lines)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace),
         "--scale", "tiny"], cwd=cwd, capture_output=True, text=True,
        timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, section):
    proc = run_bench(ROOT, "binary_oscillate", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = declared(section)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                   for line in lines[:-1]), name
    assert any(line.startswith("failed_frac") for line in lines)
    assert any(line.startswith("digest job=0 per_seq.csv") for line in lines)
    assert lines[0].startswith("# manifest ")


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, "multi_roster", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
