"""The benchmark's own tests: smoke profile, negative checks, bare dir.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload at the ``PERFBENCH_PROFILE=smoke``
scale (about a minute in all) and assert that every workload emits
every metric of ``BENCHMARK.json`` with its declared unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from run import expected_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int, cwd: Path = ROOT, seconds: int = 1):
    env = dict(os.environ, PERFBENCH_PROFILE="smoke")
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def test_declared_metrics_are_the_measured_ones():
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        assert {m["name"] for m in SPEC[key]} == expected_metrics(trace), key


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_profile_emits_every_metric_with_its_unit(workload, trace):
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert set(metrics) == expected_metrics(bool(trace))
    for name, entry in metrics.items():
        assert entry["unit"] == units[name], name
        assert isinstance(entry["value"], float), name


def test_corrupted_verify_score_trips_the_check():
    from repro.api import BioEngineMatcher, Population, SeedTree, StudyConfig
    from repro.api import build_sensor

    subject = Population(StudyConfig(n_subjects=2)).subject(0)
    tree = SeedTree(1)
    gallery = build_sensor("D0").acquire(
        subject, "right_index", tree.generator("g"), set_index=0).template
    probe = build_sensor("D1").acquire(
        subject, "right_index", tree.generator("p"), set_index=1).template
    oracle = BioEngineMatcher().match(probe, gallery)
    honest = {"score": round(oracle, 4),
              "decision": "accept" if oracle >= 7.5 else "reject"}
    assert checks.check_verify([honest], [oracle], 7.5) == []
    corrupted = dict(honest, score=honest["score"] + 0.0001)
    assert checks.check_verify([corrupted], [oracle], 7.5)
    flipped = dict(honest, decision="reject" if oracle >= 7.5 else "accept")
    assert checks.check_verify([flipped], [oracle], 7.5)


def test_corrupted_study_score_trips_the_check():
    counts = {"DMG": 4, "DDMG": 20}
    good = [("DMG[0]", 12.5, 12.5)]
    assert checks.check_study(counts, counts, good) == []
    bad = [("DMG[0]", 12.5, 12.500000000000002)]
    assert checks.check_study(counts, counts, bad)
    assert checks.check_study({"DMG": 3, "DDMG": 20}, counts, good)


def test_wrong_identify_answer_trips_the_check():
    response = {"best": {"identity": "id-1"},
                "candidates": [{"identity": "id-1", "score": 20.0}]}
    rescore = {"id-1": 20.0}.__getitem__
    assert checks.check_identify([response], ["id-1"], [0],
                                 lambda i, ident: rescore(ident)) == []
    assert checks.check_identify([response], ["id-2"], [], None)
    assert checks.check_identify([response], ["id-1"], [0],
                                 lambda i, ident: 19.0)


def test_fails_without_a_result_in_a_bare_directory(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
