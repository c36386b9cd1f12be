"""The benchmark's own tests, at a tiny size (run: ``python -m pytest perfbench -q``).

* Traced runs do not perturb answers: the wrappers are installed and
  removed, traced and untraced passes answer bit-identically, and the
  layer self times leave at most 10% of the busy time unattributed.
* Counts repeat exactly: the same seed gives the same count metrics, and
  another seed gives other inputs, so a claim can be re-checked on a
  held-out seed.
* Each workload runs end to end through the command-line entry point, and
  the entry point fails without printing a result when the program's
  sources are missing or an output check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from layertrace import measure_layers
from repro.federation.aggregator import Aggregator
from repro.federation.transport import serialize

HERE = Path(__file__).resolve().parent
NAMES = sorted(workloads.WORKLOADS)
OPS = {"analytics-batch": 4, "tenant-serving": 60, "live-ingest": 6}
COUNTS = (
    "transport.bytes",
    "transport.frames",
    "transport.codec.calls",
    "cache.summary_hit_rate",
    "cache.answer_hit_rate",
    "cache.invalidations",
    "storage.pairs_scanned",
    "storage.qc_kernel.calls",
    "ingest.compactions",
    "aggregator.batches",
)


def traced_twice(name: str, seed: int = 5):
    runs = []
    for _ in range(2):
        workload = workloads.WORKLOADS[name](seed, workloads.TINY)
        traced, plain, metrics = measure_layers(workload, ops=OPS[name], clock="virtual")
        runs.append((workload, traced, plain, metrics))
    return runs


@pytest.fixture(scope="module", params=NAMES)
def twice(request):
    return request.param, traced_twice(request.param)


def test_traced_run_does_not_perturb_answers(twice):
    name, runs = twice
    workload, traced, plain, metrics = runs[0]
    # measure_layers raises CheckFailed unless both passes answered alike;
    # assert it here too, and that every wrapper came off again.
    assert traced.answers == plain.answers and traced.answered > 0
    assert Aggregator.begin_batch.__module__ == "repro.federation.aggregator"
    assert not hasattr(Aggregator.begin_batch, "__wrapped__")
    assert not hasattr(serialize, "__wrapped__")
    assert metrics["trace.unattributed_fraction"][0] <= 0.10, name


def test_counts_repeat_exactly(twice):
    name, runs = twice
    (first, traced_a, _, metrics_a), (second, traced_b, _, metrics_b) = runs
    for metric in COUNTS:
        assert metrics_a[metric] == metrics_b[metric], metric
    assert traced_a.epsilon == traced_b.epsilon
    assert first.exact_pairs(traced_a) == second.exact_pairs(traced_b)
    assert traced_a.answers == traced_b.answers


def test_layers_separate(twice):
    name, runs = twice
    metrics = runs[0][3]
    if name == "analytics-batch":
        assert metrics["transport.codec.s"][0] == 0.0
        assert metrics["storage.qc_kernel.s"][0] > 0.0
    if name == "tenant-serving":
        assert metrics["transport.codec.s"][0] > 0.0
        assert metrics["cache.answer_hit_rate"][0] > 0.0
    ingest = sum(metrics[f"ingest.{part}.s"][0] for part in ("append", "delta_read", "compact"))
    assert (ingest > 0.0) == (name == "live-ingest")
    if name == "live-ingest":
        assert metrics["ingest.compactions"][0] > 0


@pytest.mark.parametrize("name", NAMES)
def test_another_seed_changes_inputs(name):
    make = workloads.WORKLOADS[name]
    assert make(5, workloads.TINY).inputs_digest() == make(5, workloads.TINY).inputs_digest()
    assert make(5, workloads.TINY).inputs_digest() != make(6, workloads.TINY).inputs_digest()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_entry_point_tiny(name, trace, capsys):
    seconds = "5" if trace == "0" else "2"  # untraced runs need 10 samples beyond the tail
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", seconds, "--trace", trace,
         "--scale", "tiny"]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    group = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {metric["name"] for metric in declared[group]}
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    def broken(self, state, record):
        raise workloads.CheckFailed("deliberately broken")

    monkeypatch.setattr(workloads.AnalyticsBatch, "check", broken)
    code = run.main(
        ["--workload", "analytics-batch", "--seed", "3", "--seconds", "0.2", "--scale", "tiny"]
    )
    assert code != 0
    assert "{" not in capsys.readouterr().out


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "analytics-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
