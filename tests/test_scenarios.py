"""The scenario schema: shipped scenarios, mutated scenarios and the README table."""

import copy
import importlib.util
import json
import re
from pathlib import Path

import pytest

from blochdyn.cli import HEADER, SCHEMAS, load_scenario, main, parse_scenario
from blochdyn.units import UnitSystem

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# shipped scenario -> its SCHEMAS entry
SHIPPED = {
    "adiabatic_si_probe": ("adiabatic", "probe"),
    "adiabatic_sweep": ("adiabatic", "sweep"),
    "bands_weak_cosine": "bands",
    "compare_eom": "compare-eom",
    "conduction_fillings": "conduction",
    "cyclotron": "cyclotron",
    "solenoid_reference": "solenoid",
    "wavepacket_free": "wavepacket",
}
# adiabatic_sweep takes seconds per run, so only the others are mutated
MUTATED = sorted(set(SHIPPED) - {"adiabatic_sweep"})
NON_FINITE = re.compile(r"\b(nan|-?inf|-?infinity)\b", re.IGNORECASE)


def _user(entry) -> str:
    return entry if isinstance(entry, str) else " ".join(entry)


@pytest.mark.parametrize("stem", sorted(SHIPPED))
def test_schemas_accept_every_shipped_scenario(stem):
    scn = load_scenario(SCENARIOS / f"{stem}.json")
    units = UnitSystem(scn["units"]["a_ref_m"])
    values = parse_scenario(scn, {**HEADER, **SCHEMAS[SHIPPED[stem]]}, units)
    assert values["name"] == scn["name"]
    assert set(values) >= set(scn)
    if "coefficients_eV" in scn.get("potential", {}):
        l, re_v, im_v = scn["potential"]["coefficients_eV"][0]
        assert (values["potential"]["coefficients_internal"][l]
                == complex(re_v, im_v) * (1.0 / units.energy_eV))


def test_shipped_lists_name_the_same_scenarios():
    # scenarios/*.json, SHIPPED and tools/contract.py's list, which runs each one twice
    spec = importlib.util.spec_from_file_location("contract", ROOT / "tools" / "contract.py")
    contract = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(contract)
    runs = {stem: cmd for cmd, stem in contract.SHIPPED}
    assert len(runs) == len(contract.SHIPPED)
    assert {path.stem for path in SCENARIOS.glob("*.json")} == set(SHIPPED) == set(runs)
    assert runs == {stem: _user(entry).split()[0] for stem, entry in SHIPPED.items()}


def _edit(scn, block, change):
    new = copy.deepcopy(scn)
    change(new if block is None else new[block])
    return new


def _mutants(scn):
    """(label, scenario) for each replaced value, deleted key and added key."""
    for block in [None] + [name for name, val in scn.items() if isinstance(val, dict)]:
        where = "" if block is None else f"{block}."
        for key in list(scn if block is None else scn[block]):
            for value in (0, -1, 1e300, 1e-310, None, "x", [], True):
                yield (f"{where}{key} = {value!r}",
                       _edit(scn, block, lambda b: b.__setitem__(key, value)))
            yield f"del {where}{key}", _edit(scn, block, lambda b: b.pop(key))
        yield f"{where}unknown_key added", _edit(
            scn, block, lambda b: b.__setitem__("unknown_key", 1))


@pytest.mark.parametrize("stem", MUTATED)
def test_mutated_scenarios_exit_cleanly(tmp_path, stem):
    """Every mutant exits 0, 2 or 3, and a run that exits 0 writes finite numbers."""
    entry = SHIPPED[stem]
    command = entry if isinstance(entry, str) else entry[0]
    scn = json.loads((SCENARIOS / f"{stem}.json").read_text())
    faults = []
    for i, (label, mutant) in enumerate(_mutants(scn)):
        path, out = tmp_path / f"{i}.json", tmp_path / f"out{i}"
        path.write_text(json.dumps(mutant))
        try:
            code = main([command, "--scenario", str(path), "--out", str(out)])
        except Exception as exc:   # a traceback is the fault being looked for
            faults.append(f"{label}: raised {exc!r}")
            continue
        if code not in (0, 2, 3):
            faults.append(f"{label}: exit {code}")
        elif code == 0:
            faults += [f"{label}: non-finite value in {f.name}"
                       for f in out.iterdir() if NON_FINITE.search(f.read_text())]
    assert not faults


def _readme_table():
    """(user, block, key) for every key the README's block table lists."""
    text = (ROOT / "README.md").read_text()
    rows = text.split("| block ", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    users = {_user(entry) for entry in SCHEMAS}
    listed = set()
    for row in rows:
        block, keys, used_by = (cell.strip() for cell in row.strip("|").split("|"))
        block = block.strip("`") if block.startswith("`") else ""
        names = users if used_by == "all" else {u.strip() for u in used_by.split(",")}
        listed |= {(user, block, key) for user in names
                   for key in re.findall(r"`([^`]+)`", keys)}
    return listed


def _schema_table():
    """(user, block, key) for every key SCHEMAS and HEADER admit."""
    admitted = set()
    for entry, schema in SCHEMAS.items():
        for top, kind in {**HEADER, **schema}.items():
            block, keys = (top, kind) if isinstance(kind, dict) else ("", {top: kind})
            for key in keys:
                admitted |= {(_user(entry), block, name)
                             for name in (key if isinstance(key, tuple) else (key,))}
    return admitted


def test_readme_block_table_matches_schemas():
    listed, admitted = _readme_table(), _schema_table()
    assert sorted(admitted - listed) == []
    assert sorted(listed - admitted) == []
