"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py

Each run uses ``seconds=0``, which measures exactly one operation.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = run.spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def work():
    """A scratch directory inside the checkout, removed afterwards."""
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.ROOT / ".bench_work"))
    yield path
    shutil.rmtree(path)


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(name, seed=1, trace=False):
        key = (name, seed, trace)
        if key not in cache:
            cache[key] = run.run_workload(name, seed, 0, trace)
        return cache[key]
    return get


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(results, name, trace):
    result = results(name, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    json.dumps(result)


def _tamper(name, pins):
    pins = copy.deepcopy(pins)
    if name == "walk_short":
        protocol, walker_seed = run._workloads()[name].schedule(1, 0)
        pins["sentences"][protocol][walker_seed] = "0" * 16
    else:
        variant = str(1 % run._workloads()[name].VARIANTS)
        key = "graph_hash" if name == "analytics" else "coloring.json"
        pins[variant][key] = "0" * 16
    return pins


@pytest.mark.parametrize("name", WORKLOADS)
def test_tampered_digest_counts_as_failure(name):
    pins = _tamper(name, run.load_pins()[name])
    result = run.run_workload(name, 1, 0, False, pins=pins)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_different_seed_gives_different_inputs_same_metric_names(results, work):
    workloads = run._workloads()
    analytics, cli_seq, walk = workloads["analytics"], workloads["cli"], workloads["walk_short"]
    sms = (run.ROOT / "data" / "sms-spam.csv").read_text(encoding="utf-8")
    stop = frozenset({"the"})
    assert analytics.replica_csv(sms, stop, 1) != analytics.replica_csv(sms, stop, 2)
    assert analytics.replica_csv(sms, stop, 1) == analytics.replica_csv(sms, stop, 1)
    shards = [cli_seq.setup(run.ROOT, work / str(seed), seed, run.NullTracer())
              for seed in (1, 2)]
    assert ((shards[0]["work"] / "shard0.csv").read_bytes()
            != (shards[1]["work"] / "shard0.csv").read_bytes())
    assert ([walk.schedule(1, i) for i in range(8)] != [walk.schedule(2, i) for i in range(8)])
    for name in WORKLOADS:
        assert results(name, seed=2)["metrics"].keys() == results(name)["metrics"].keys()


def test_refuses_to_run_without_the_program(work):
    shutil.copytree(run.BENCH_DIR, work / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "walk_short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=work, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_jobs_are_fixed_and_do_not_load_the_program():
    code = ("import sys, calibrate; "
            "print(calibrate.reference(), any(m.startswith('chromagraph') for m in sys.modules))")
    outputs = {subprocess.run([sys.executable, "-c", code], cwd=run.BENCH_DIR, check=True,
                              capture_output=True, text=True, timeout=60,
                              env={"PYTHONHASHSEED": str(seed)}).stdout
               for seed in (1, 2)}
    assert len(outputs) == 1
    assert outputs.pop().split()[1] == "False"
