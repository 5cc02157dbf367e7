"""Smoke test of the benchmark at tiny sizes (about half a minute).

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
compare = _load("compare")
SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _measure(workload: str, trace: bool, tamper: bool = False) -> dict:
    return run.measure(workload, seed=1, seconds=0, trace=trace, scale="tiny", tamper=tamper,
                       results_dir=None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_every_answer_holds(workload):
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        result = _measure(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            value = result["metrics"][m["name"]]
            assert value["unit"] == m["unit"]
            assert isinstance(value["value"], (int, float))
            if not trace:
                assert value["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_tampered_expected_answer_is_counted_as_failed(workload):
    result = _measure(workload, trace=False, tamper=True)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_compare_verdicts():
    parent = {s: 10.0 + 0.01 * s for s in range(10)}
    faster = {s: 8.0 + 0.01 * s for s in range(10)}
    slower = {s: 12.0 + 0.01 * s for s in range(10)}
    noisy = {s: 10.0 + (5.0 if s % 2 else -4.0) for s in range(10)}
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, dict(parent), "lower", 0.1)[0] == "no worse"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, slower, "higher", 0.1)[0] == "improved"
