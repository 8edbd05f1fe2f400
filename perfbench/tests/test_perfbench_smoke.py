"""Smoke tests for the benchmark: every workload at tiny size, traced and not.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_tiny(name, trace, tmp_path):
    result, lines = run.run_workload(name, 0, 0.0, trace, ROOT, tiny=True, state_dir=tmp_path)
    assert result["correct"], lines
    assert result["attempted"] > 0 and result["failed"] == 0
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert all(result["metrics"][k]["unit"] == units[k] for k in expected)


def test_rerun_with_other_digest_fails(tmp_path):
    first, _ = run.run_workload("nilpotent", 3, 0.0, False, ROOT, tiny=True, state_dir=tmp_path)
    assert first["correct"]
    store = tmp_path / "digests.json"
    seen = json.loads(store.read_text())
    seen["nilpotent:3:tiny"] = "0" * 64
    store.write_text(json.dumps(seen))
    second, lines = run.run_workload("nilpotent", 3, 0.0, False, ROOT, tiny=True, state_dir=tmp_path)
    assert not second["correct"]
    assert any("differs from an earlier run" in line for line in lines)


def test_layer_mapping_names_every_per_layer_metric():
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}


def test_oracle_bareiss_and_witness():
    assert oracle.bareiss([[2, 1], [1, 1]]) == (2, 1)
    assert oracle.bareiss([[0, 1], [1, 0]]) == (2, -1)
    assert oracle.bareiss([[1, 2, 3], [2, 4, 6]]) == (1, 0)
    assert oracle.rank_mod_p([[1, 1], [1, 3]], 2) == 1
    assert oracle.check_witness([2, -1], [[1, 2, 3], [2, 4, 6]]) == []
    assert oracle.check_witness([1, 1], [[1, 2, 3], [2, 4, 6]]) != []
    assert oracle.check_witness([2, 0], [[1, 2], [3, 4]], p=2) != []


def test_oracle_rejects_a_wrong_classification():
    rows = [[2, 0], [0, 3]]
    good = {
        "nonsingular": True,
        "witness": None,
        "elementary_divisors": [1, 6],
        "unimodular": False,
        "p_nonsingular": {"2": False, "3": False},
        "p_witnesses": {"2": [1, 0], "3": [0, 1]},
    }
    assert oracle.check_classification(rows, (2, 3), good, {}) == []
    bad = dict(good, elementary_divisors=[2, 3])
    assert oracle.check_classification(rows, (2, 3), bad, {}) != []
    bad = dict(good, p_nonsingular={"2": True, "3": False})
    assert oracle.check_classification(rows, (2, 3), bad, {}) != []
    # A wide matrix has no determinant to check the divisors against; the
    # ranks mod p still expose an all-ones chain that claims unimodularity.
    wide = [[2, 0, 0], [0, 2, 0]]
    good = {
        "nonsingular": True,
        "witness": None,
        "elementary_divisors": [2, 2],
        "unimodular": False,
        "p_nonsingular": {"2": False, "3": True},
        "p_witnesses": {"2": [1, 0]},
    }
    assert oracle.check_classification(wide, (2, 3), good, {}) == []
    bad = dict(good, elementary_divisors=[1, 1], unimodular=True)
    assert oracle.check_classification(wide, (2, 3), bad, {}) != []


def test_oracle_rejects_a_wrong_solution():
    group = {"summands": [{"kind": "cyclic", "p": 2, "e": 3}, {"kind": "prufer", "p": 3}]}
    system = {"vars": ["x"], "equations": [{"coeffs": {"x": 3}, "rhs": ["1", "1/3"]}]}
    assert oracle.check_abelian_solution(group, system, {"x": ["3", "1/9"]}) == []
    assert oracle.check_abelian_solution(group, system, {"x": ["3", "1/3"]}) != []
    word = [("var", "x", 2), ("const", (0, 0, 1))]
    assert oracle.check_heisenberg_solution(9, [word], {"x": ["0", "0", "4"]}) == []
    assert oracle.check_heisenberg_solution(9, [word], {"x": ["0", "0", "1"]}) != []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
