"""tools/contract.py: the run plan and how byte differences are reported."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from blochdyn.central_equation import _K_BLOCK

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "contract.py"
spec = importlib.util.spec_from_file_location("contract", TOOL)
contract = importlib.util.module_from_spec(spec)
spec.loader.exec_module(contract)

CSV = "# a note\nk,energy,label\n0.5,1.25,a\n1.5,2.0,b\n"


def test_the_plan_runs_every_shipped_scenario_three_validate_seeds_and_five_band_sweeps(tmp_path):
    plan = contract.runs(tmp_path)
    names = [name for name, _ in plan]
    assert len(names) == len(set(names)) == 8 + 3 + 10 + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"band-sweep-{seed}-{kind}.json"
         for seed in range(1, 6) for kind in ("bands", "conduction")]
        + ["adiabatic-sweep-ragged.json"])
    assert ("validate-12345", ["validate", "--seed", "12345"]) in plan
    assert ("validate-7", ["validate", "--seed", "7"]) in plan
    assert [(name, argv[0], argv[2]) for name, argv in plan[:len(contract.SHIPPED)]] == [
        (stem, cmd, str(ROOT / "scenarios" / f"{stem}.json")) for cmd, stem in contract.SHIPPED]


def test_the_ragged_sweep_ends_in_a_partial_block_and_samples_off_block_edges(tmp_path):
    # the shipped sweep, 65 536 steps at stride 1024, is a multiple of every block size
    plan = dict(contract.runs(tmp_path))
    path = tmp_path / "adiabatic-sweep-ragged.json"
    assert plan["adiabatic-sweep-ragged"] == ["adiabatic", "--scenario", str(path)]
    ragged = json.loads(path.read_text())
    shipped = json.loads((ROOT / "scenarios" / "adiabatic_sweep.json").read_text())
    dyn = ragged["dynamics"]
    assert round(dyn["T_internal"] / dyn["dt_internal"]) == 5003
    assert ragged["output"]["sample_stride"] == 997
    assert {**ragged, "dynamics": shipped["dynamics"], "output": shipped["output"]} == shipped
    assert {**dyn, "dt_internal": shipped["dynamics"]["dt_internal"]} == shipped["dynamics"]
    assert 5003 % _K_BLOCK and all(step % _K_BLOCK for step in range(997, 5003, 997))


def test_every_run_is_a_fresh_python_w_error_process_with_one_blas_thread(tmp_path, monkeypatch):
    (tmp_path / "inputs").mkdir()
    plan = contract.runs(tmp_path / "inputs")
    calls = []

    def record(cmd, **kwargs):
        calls.append((cmd, kwargs))
        return subprocess.CompletedProcess(cmd, 0, "out", "")

    monkeypatch.setattr(contract.subprocess, "run", record)
    done = contract.run_tree(ROOT, tmp_path / "side", plan)
    assert done == {name: (0, "out", "") for name, _ in plan}
    assert len(calls) == len(plan)
    for (name, argv), (cmd, kwargs) in zip(plan, calls):
        assert cmd == [sys.executable, "-W", "error", "-m", "blochdyn", *argv, "--out", name]
        assert kwargs["env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert kwargs["env"]["PYTHONPATH"] == str(ROOT / "src")
        assert kwargs["cwd"] == tmp_path / "side"


def test_identical_texts_report_nothing():
    assert contract.compare_csv(CSV, CSV) == []
    assert contract.compare_json('{"a": [1, 2]}', '{"a": [1, 2]}') == []


def test_a_changed_csv_column_reports_its_largest_differences():
    moved = CSV.replace("1.25", "1.5").replace(",b", ",c")
    assert contract.compare_csv(CSV, moved) == [
        "  energy: 1 of 2 values differ, max abs 2.500e-01, max rel 2.000e-01",
        "  label: 1 of 2 differ, first 'b' -> 'c'",
    ]
    assert contract.compare_csv(CSV, CSV + "2.5,3.0,d\n") == [
        "  structure differs (header or row count)"]


def test_numbers_inside_json_text_are_compared_token_by_token():
    old = '{"results": [{"detail": "sum = 1.013e-11 (limit 2.56e-06)"}, {"detail": "ok"}]}'
    new = old.replace("1.013e-11", "4.059e-12")
    [line] = contract.compare_json(old, new)
    assert line.startswith("  results[].detail: 1 of 2 texts differ in numbers only, "
                           "1 of 2 values differ, max abs 6.071e-12")
    assert line.endswith("(1.013e-11 -> 4.059e-12)")
    assert contract.compare_json(old, old.replace("limit", "bound")) == [
        "  results[].detail: 1 of 2 differ, first 'sum = 1.013e-11 (limit 2.56e-06)' -> "
        "'sum = 1.013e-11 (bound 2.56e-06)'"]
