"""Tests of the benchmark itself: quick passes, input fingerprints, and
checks that catch a corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import workloads
from tracer import metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_pass(workload):
    proc = _run(["--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", "0", "--quick"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"] for m in _benchmark_json()["end_to_end"]}
    assert set(result["metrics"]) == wanted
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_traced_pass_reports_every_layer_metric():
    proc = _run(["--workload", "thomason", "--seed", "0", "--seconds", "1",
                 "--trace", "1", "--quick"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    wanted = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(result["metrics"]) == wanted == set(metric_names())
    metrics = result["metrics"]
    assert metrics["homology.smith_normal_form.calls"]["value"] > 0
    assert metrics["sset.exponential.built"]["value"] == 0


def test_benchmark_json_names_match_the_code():
    spec = _benchmark_json()
    units = metric_names()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    mods = run.load_relnerve()
    first = workloads.random_diagrams(mods, workload, 5, 20)
    again = workloads.random_diagrams(mods, workload, 5, 20)
    other = workloads.random_diagrams(mods, workload, 6, 20)
    assert oracle.fingerprint(first) == oracle.fingerprint(again)
    assert oracle.fingerprint(first) != oracle.fingerprint(other)


def _first(items, kind):
    return next(i for i in items if i.kind == kind)


CORRUPTIONS = [
    ("identity", "identity",
     lambda obs: obs["relnerve"].__setitem__(0, obs["relnerve"][0] + 1)),
    ("identity", "identity",
     lambda obs: obs["bar"].__setitem__(2, obs["bar"][2] - 1)),
    ("thomason", "thomason",
     lambda obs: obs["h_groth"].__setitem__(
         0, (obs["h_groth"][0][0] + 1, obs["h_groth"][0][1]))),
    ("thomason", "thomason-span",
     lambda obs: obs["h_bar"].__setitem__(1, (2, []))),
    ("cocartesian", "cocartesian",
     lambda obs: obs.__setitem__("components", obs["components"] + 1)),
    ("cocartesian", "c7-negative",
     lambda obs: obs.__setitem__("verdict", "PASS")),
    ("cocartesian", "counit",
     lambda obs: obs["vertex_image"].pop()),
]


@pytest.mark.parametrize("workload,kind,corrupt", CORRUPTIONS)
def test_corrupted_output_fails_its_check(workload, kind, corrupt):
    mods = run.load_relnerve()
    item = _first(workloads.make_items(mods, workload, 0, quick=True), kind)
    obs = workloads.compute(mods, item)
    assert workloads.check(item, obs) == []
    corrupt(obs)
    assert workloads.check(item, obs) != []


def test_oracle_counts_match_known_nerves():
    mods = run.load_relnerve()
    fc = mods.fincat
    assert oracle.nerve_counts(fc.arrow_category(), 3) == [2, 3, 4, 5]
    assert oracle.nerve_counts(fc.cyclic_group_category(2), 2) == [1, 2, 4]
    G = workloads._span_cat_diagram(mods)
    assert oracle.grothendieck_components(G) == 1


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "bench")
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), tmp_path / "bench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "identity", "--seed",
         "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
