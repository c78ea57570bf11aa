"""Toy-size runs of every workload, the metric names against
BENCHMARK.json, and the checks catching tampered answers."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from memvec import search  # noqa: E402
from perfbench import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy_run(name, tmp_path, trace=False):
    return workloads.run(name, seed=5, seconds=0.2, trace=trace, toy=True, workdir=tmp_path)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.SPECS)
    assert list(workloads.TOY) == list(workloads.SPECS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_toy_run_is_correct_and_prints_declared_metrics(name, trace, tmp_path):
    report, result = toy_run(name, tmp_path, trace)
    assert result["correct"], report["checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert report["metrics"]["error_rate"]["value"] == 0.0
    assert len(report["inputs"]["dataset_sha256"]) == 64
    json.dumps(result)
    json.dumps(report)


def test_inputs_depend_only_on_seed(tmp_path):
    a, _ = toy_run("paper-d1000", tmp_path)
    b, _ = toy_run("paper-d1000", tmp_path)
    c, _ = workloads.run("paper-d1000", seed=6, seconds=0.2, trace=False, toy=True,
                         workdir=tmp_path)
    assert a["inputs"] == b["inputs"] != c["inputs"]


def _swap_top_two(res):
    c = list(res.candidates)
    c[0], c[1] = c[1], c[0]
    return dataclasses.replace(res, candidates=tuple(c))


def _nudge_similarity(res):
    (i, s), *rest = res.candidates
    return dataclasses.replace(res, candidates=((i, s + 1e-6), *rest))


def _drop_candidate(res):
    return dataclasses.replace(res, candidates=res.candidates[:-1])


def _drop_unit(res):
    return dataclasses.replace(res, positive_units=res.positive_units[1:])


def _raise(res):
    raise RuntimeError("tampered")


@pytest.mark.parametrize("tamper, check", [
    (_swap_top_two, "order"),
    (_nudge_similarity, "similarity"),
    (_drop_candidate, "members"),
    (_drop_unit, "units"),
    (_raise, None),
])
def test_tampered_answer_is_caught_and_counted(tamper, check, tmp_path, monkeypatch):
    real = search.query
    done = []

    def query(*args, **kwargs):
        res = real(*args, **kwargs)
        if not done and len(res.candidates) >= 2:
            done.append(True)
            return tamper(res)
        return res

    monkeypatch.setattr(search, "query", query)
    report, result = toy_run("uniform-d128", tmp_path)
    assert done
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["metrics"]["error_rate"]["value"] > 0
    if check is None:
        assert report["checks"]["errors"]
    else:
        assert report["checks"]["failed"].get(check, 0) >= 1


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform-d128",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
