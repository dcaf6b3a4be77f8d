"""Command line: exit codes, strict parsing, and deterministic outputs."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blochdyn import (BandFilling, ConfigError, FourierPotential, UnitSystem, acceptance,
                      band_derivatives, band_sweep, cli, compare_fundamental_lorentz,
                      conduction, evolve_fundamental, evolve_general_V, evolve_lorentz,
                      evolve_periodic_B, evolve_periodic_E, fillings, gaussian_packet,
                      integrate_basis, random_symmetric, reduce_to_zone, single_cosine,
                      split_step_free)
from blochdyn.acceptance import AcceptanceResult
from blochdyn.cli import main
from blochdyn.semiclassical import _time_grid

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def _write(tmp_path, obj, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _packet_scenario(**field):
    return {
        "version": 1,
        "name": "packet",
        "units": {"a_ref_m": 2e-10},
        "field": field or {"E_internal": 0.05},
        "dynamics": {"domain_internal": 400.0, "grid_points": 1024,
                     "x0_internal": -30.0, "k0_internal": 1.0,
                     "sigma_internal": 10.0, "T_internal": 2.0,
                     "dt_internal": 0.01},
        "output": {"sample_stride": 20},
    }


# --------------------------------------------------------------------------
# happy paths on the shipped scenarios


def test_help_runs_as_module():
    res = subprocess.run([sys.executable, "-m", "blochdyn", "--help"],
                         capture_output=True)
    assert res.returncode == 0
    assert b"usage" in res.stdout


def test_cli_import_leaves_scipy_integrate_out():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c",
                          "import sys, blochdyn.cli; print('scipy.integrate' in sys.modules)"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


# every shipped scenario but adiabatic_sweep, with the subcommand that runs it
SHORT_RUNS = [("adiabatic", "adiabatic_si_probe"), ("bands", "bands_weak_cosine"),
              ("compare-eom", "compare_eom"), ("conduction", "conduction_fillings"),
              ("cyclotron", "cyclotron"), ("solenoid", "solenoid_reference"),
              ("wavepacket", "wavepacket_free")]


def test_short_scenarios_never_import_scipy(tmp_path):
    # the package runs on numpy alone: no subcommand, the grid oracle's
    # criterion 4 included, may import scipy
    argvs = [[cmd, "--scenario", str(SCENARIOS / f"{stem}.json"), "--out", str(tmp_path / stem)]
             for cmd, stem in SHORT_RUNS]
    argvs.append(["validate", "--only", "4", "--out", str(tmp_path / "validate")])
    script = f"""
import sys
from blochdyn import cli
print([cli.main(argv) for argv in {argvs!r}])
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env)
    assert res.returncode == 0, res.stderr
    codes, scipy_modules = res.stdout.splitlines()[-2:]
    assert codes == repr([0] * len(argvs))
    assert scipy_modules == "[]"


def test_bands_rows_and_byte_determinism(tmp_path, work):
    scn = str(SCENARIOS / "bands_weak_cosine.json")
    for d in ("one", "two"):
        work.clear()
        assert main(["bands", "--scenario", scn,
                     "--out", str(tmp_path / d)]) == 0
        # each run's work, counted at numpy's solvers (the work fixture, conftest.py):
        # its 101 k points in blocks of 32
        assert work == {("eigh", 21): (4, 101)}
    first = (tmp_path / "one" / "bands.csv").read_bytes()
    assert first == (tmp_path / "two" / "bands.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "k,band,energy_eV,v_g_SI,m_star_ratio"
    # 101 k points by 3 bands
    assert len(lines) == 2 + 303


@pytest.mark.parametrize("coefficients, code", [
    ([], 0),                                   # empty lattice: uncoupled crossings
    ([[-1, 1e-6, 0.0], [1, 1e-6, 0.0]], 3),    # coupled gap of 1e-13 at k = 0
])
def test_bands_degenerate_points(tmp_path, coefficients, code):
    scn = _write(tmp_path, {
        "version": 1, "name": "near-empty lattice", "units": {"a_ref_m": 1e-10},
        "potential": {"a_internal": 1.0, "coefficients_internal": coefficients},
        "sweep": {"n_waves": 10, "k_points": 11, "n_bands": 3},
    })
    assert main(["bands", "--scenario", scn, "--out", str(tmp_path / "out")]) == code


def test_wavepacket_norm_column(tmp_path, work):
    # the shipped run, and 10^7 steps of h sampled at both ends: one Strang step,
    # and two rows ending at t = 20. The work of each run is frozen: an FFT per
    # row and per step, and an inverse FFT per step
    scn_obj = json.loads((SCENARIOS / "wavepacket_free.json").read_text())
    scn_obj["dynamics"]["dt_internal"] = 2e-6
    scn_obj["output"]["sample_stride"] = 10 ** 7
    wide = _write(tmp_path, scn_obj, "wide-stride.json")
    for scn, rows, steps in ((str(SCENARIOS / "wavepacket_free.json"), 201, 200), (wide, 2, 1)):
        work.clear()
        out = tmp_path / Path(scn).stem
        assert main(["wavepacket", "--scenario", scn, "--out", str(out)]) == 0
        assert work == {("fft", 4096): (rows + steps, rows + steps),
                        ("ifft", 4096): (steps, steps)}
        table = np.loadtxt(out / "wavepacket.csv", delimiter=",", skiprows=2, ndmin=2)
        np.testing.assert_allclose(table[:, 4], 1.0, atol=1e-10)
        assert table.shape[0] == rows
        assert (table[0, 0], table[-1, 0]) == (0.0, 20.0)


def test_cyclotron_writes_tagged_trajectory(tmp_path):
    scn = str(SCENARIOS / "cyclotron.json")
    assert main(["cyclotron", "--scenario", scn, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert "FUNDAMENTAL" in lines[0]
    assert lines[1].split(",")[:2] == ["t", "kx"]


def test_cyclotron_field_in_tesla_equals_the_internal_field(tmp_path):
    scn_obj = json.loads((SCENARIOS / "cyclotron.json").read_text())
    b_si = UnitSystem(scn_obj["units"]["a_ref_m"]).to_si(scn_obj["field"]["B_internal"],
                                                         "magnetic_field")
    scn_obj["field"] = {"B_tesla": b_si}
    tesla = _write(tmp_path, scn_obj, "tesla.json")
    internal = str(SCENARIOS / "cyclotron.json")
    for name, scn in (("internal", internal), ("tesla", tesla)):
        assert main(["cyclotron", "--scenario", scn, "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "tesla" / "trajectory.csv").read_bytes()
            == (tmp_path / "internal" / "trajectory.csv").read_bytes())


def test_compare_eom_reports_divergence(tmp_path):
    scn = str(SCENARIOS / "compare_eom.json")
    assert main(["compare-eom", "--scenario", scn, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "compare.json").read_text())
    assert rep["max_position_divergence"] == pytest.approx(
        11.465010899107085, rel=1e-9)
    assert rep["max_velocity_divergence"] == pytest.approx(
        1.7320507980397548, rel=1e-9)
    assert (tmp_path / "compare.csv").exists()


def _csv_values(path):
    return [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[2:]]


@pytest.mark.parametrize("equation", ["fundamental", "lorentz"])
def test_cyclotron_writes_the_library_trajectory_bit_for_bit(tmp_path, equation):
    # the subcommand writes planar's rows without numpy; the library wraps the same
    # rows into arrays, and the radius is numpy's 2-norm of x
    scn_obj = json.loads((SCENARIOS / "cyclotron.json").read_text())
    scn_obj["field"]["E_internal"] = [0.3, -0.1]
    scn_obj["dynamics"]["equation"] = equation
    assert main(["cyclotron", "--scenario", _write(tmp_path, scn_obj),
                 "--out", str(tmp_path)]) == 0
    dyn = scn_obj["dynamics"]
    traj = {"fundamental": evolve_fundamental, "lorentz": evolve_lorentz}[equation](
        dyn["k0_internal"], dyn["x0_internal"], [0.3, -0.1], 1.0, dyn["T_internal"],
        dyn["dt_internal"])
    want = np.column_stack([traj.times, traj.k, traj.x, traj.v_g,
                            np.linalg.norm(traj.x, axis=1)])
    np.testing.assert_array_equal(_csv_values(tmp_path / "trajectory.csv"), want)


def test_compare_eom_writes_the_library_report_bit_for_bit(tmp_path):
    scn = str(SCENARIOS / "compare_eom.json")
    assert main(["compare-eom", "--scenario", scn, "--out", str(tmp_path)]) == 0
    rep = compare_fundamental_lorentz([1.0, 0.0], [0.0, -1.0], [1.0, 0.0], 1.0, 10.0, 1e-3)
    f, lz = rep.fundamental, rep.lorentz
    want = np.column_stack([f.times, f.x, lz.x, f.v_g, lz.v_g, rep.position_divergence,
                            rep.velocity_divergence])
    np.testing.assert_array_equal(_csv_values(tmp_path / "compare.csv"), want)
    assert json.loads((tmp_path / "compare.json").read_text()) == {
        "version": 1, "max_position_divergence": rep.max_position_divergence,
        "max_velocity_divergence": rep.max_velocity_divergence}


def test_adiabatic_probe_json(tmp_path, work):
    scn = str(SCENARIOS / "adiabatic_si_probe.json")
    assert main(["adiabatic", "--scenario", scn, "--out", str(tmp_path)]) == 0
    assert work == {("eigh", 21): (1, 1)}
    rep = json.loads((tmp_path / "adiabatic.json").read_text())
    assert rep["chain_holds"] is True
    assert rep["omega_bar_star_eV"] == pytest.approx(
        2.3721514041481407e-08, rel=1e-9)
    assert rep["gap_eV"] > 0.9


def test_adiabatic_sweep_csv(tmp_path):
    scn = _write(tmp_path, {
        "version": 1,
        "name": "short sweep",
        "units": {"a_ref_m": 2e-10},
        "potential": {"a_internal": 1.0,
                      "coefficients_internal": [[1, 0.05, 0], [-1, 0.05, 0]]},
        "field": {"E_internal": 0.01},
        "dynamics": {"mode": "sweep", "k0_internal": 0.3, "n_waves": 6,
                     "T_internal": 1.0, "dt_internal": 0.005},
        "output": {"sample_stride": 50},
    })
    assert main(["adiabatic", "--scenario", scn, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "adiabatic.csv").read_text().splitlines()
    assert lines[1] == ("t,gap_eV,hdot_norm_eV,omega_bar_star_eV,"
                       "bound_rhs_eV,fidelity,comm_norm_eV")
    table = np.loadtxt(tmp_path / "adiabatic.csv", delimiter=",", skiprows=2,
                       ndmin=2)
    assert len(table) >= 2
    assert np.all(table[:, 5] > 0.99)


def test_conduction_classifications(tmp_path, work):
    scn = str(SCENARIOS / "conduction_fillings.json")
    assert main(["conduction", "--scenario", scn, "--out", str(tmp_path)]) == 0
    # the shifted pass solves its 256 states, the unshifted one their 128 |k|
    assert work == {("eigh", 21): (12, 384)}
    rep = json.loads((tmp_path / "conduction.json").read_text())
    tags = [e["classification"] for e in rep["fillings"]]
    assert tags == ["insulator", "conductor", "insulator"]
    full = rep["fillings"][-1]
    assert abs(full["velocity_sum_shifted"]) < 1e-8 * rep["n_k"]


def test_conduction_uses_the_lattice_constant(tmp_path):
    scn_obj = json.loads((SCENARIOS / "conduction_fillings.json").read_text())
    scn_obj["potential"]["a_internal"] = 2.0
    scn = _write(tmp_path, scn_obj)
    assert main(["conduction", "--scenario", scn, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "conduction.json").read_text())
    tags = [e["classification"] for e in rep["fillings"]]
    assert tags == ["insulator", "conductor", "insulator"]


def test_conduction_json_equals_the_per_filling_calls(tmp_path):
    # the CLI's two shared band passes against a library pass per fraction and shift
    pot = random_symmetric(1.0, np.random.default_rng(5))
    shift = 0.21 * 2.0 * math.pi
    fractions = [0.75, 0.25, 1.0, 0.5]
    scn = _write(tmp_path, {
        "version": 1, "name": "random fillings", "units": {"a_ref_m": 1e-10},
        "potential": {"a_internal": 1.0,
                      "coefficients_internal": [[l, v.real, v.imag] for l, v in pot.items()]},
        "dynamics": {"band": 1, "n_k": 128, "n_waves": 6, "shift_internal": shift,
                     "fractions": fractions}})
    assert main(["conduction", "--scenario", scn, "--out", str(tmp_path)]) == 0
    want = {"version": 1, "band": 1, "n_k": 128, "shift_internal": shift, "fillings": [
        {"fraction": frac,
         "velocity_sum_unshifted": fillings(pot, 6, 1, 128, 0.0, [frac])[0].velocity_sum,
         "velocity_sum_shifted": fillings(pot, 6, 1, 128, shift, [frac])[0].velocity_sum,
         "classification": fillings(pot, 6, 1, 128, 0.0, [frac])[0].label}
        for frac in fractions]}
    assert json.loads((tmp_path / "conduction.json").read_text()) == want


def test_conduction_computes_each_velocity_sum_once(tmp_path, monkeypatch):
    # one band pass per gauge shift serves all three fractions: two passes over
    # the 256 states of the largest (full) filling, not one per fraction and shift.
    # The shifted pass runs first; the unshifted one solves each of its 128 mirror
    # pairs once, at |k|
    calls = []

    def counted(*args):
        calls.append(args)
        return band_derivatives(*args)

    monkeypatch.setattr(conduction, "band_derivatives", counted)
    scn = str(SCENARIOS / "conduction_fillings.json")
    assert main(["conduction", "--scenario", scn, "--out", str(tmp_path)]) == 0
    assert len(calls) == 2
    assert [len(ks) for ks, *_ in calls] == [256, 128]


def test_solenoid_json_values(tmp_path):
    scn = str(SCENARIOS / "solenoid_reference.json")
    for d in ("one", "two"):
        assert main(["solenoid", "--scenario", scn,
                     "--out", str(tmp_path / d)]) == 0
    assert ((tmp_path / "one" / "solenoid.json").read_bytes()
            == (tmp_path / "two" / "solenoid.json").read_bytes())
    rep = json.loads((tmp_path / "one" / "solenoid.json").read_text())
    assert rep["shift_per_m"] == pytest.approx(303853.48992731253, rel=1e-12)
    assert rep["fractional_displacement"] == pytest.approx(
        1.934391395906209e-05, rel=1e-12)
    assert rep["reference_fractional_displacement"] == pytest.approx(
        6.366197723675814e-07, rel=1e-12)


# --------------------------------------------------------------------------
# configuration errors (exit 2)


def test_syntax_error_reports_line_and_column(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"version": 1,\n  "name" oops\n}')
    assert main(["bands", "--scenario", str(p), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_missing_file_and_wrong_version(tmp_path):
    assert main(["bands", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    scn = _write(tmp_path, {"version": 2, "name": "x"})
    assert main(["bands", "--scenario", scn, "--out", str(tmp_path)]) == 2


def test_nan_rejected(tmp_path, capsys):
    p = tmp_path / "nan.json"
    p.write_text('{"version": 1, "name": "x", "units": {"a_ref_m": NaN}}')
    assert main(["bands", "--scenario", str(p), "--out", str(tmp_path)]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400])
def test_numbers_beyond_float_range_rejected(tmp_path, capsys, literal):
    text = (SCENARIOS / "wavepacket_free.json").read_text()
    p = tmp_path / "huge.json"
    p.write_text(text.replace('"E_internal": 0.05', f'"E_internal": {literal}'))
    assert main(["wavepacket", "--scenario", str(p), "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_unknown_keys_rejected(tmp_path, capsys):
    scn_obj = _packet_scenario()
    scn_obj["dynamics"]["bogus"] = 1
    scn = _write(tmp_path, scn_obj)
    assert main(["wavepacket", "--scenario", scn, "--out", str(tmp_path)]) == 2
    assert "dynamics.bogus" in capsys.readouterr().err

    scn_obj = _packet_scenario()
    scn_obj["stray_block"] = {}
    scn = _write(tmp_path, scn_obj, "stray.json")
    assert main(["wavepacket", "--scenario", scn, "--out", str(tmp_path)]) == 2
    assert "stray_block" in capsys.readouterr().err


@pytest.mark.parametrize("stem, command, old, new, key", [
    # the solenoid used to run the later current, 5.0 A, and exit 0
    ("solenoid_reference", "solenoid", '"current_A": 0.001',
     '"current_A": 0.001, "current_A": 5.0', "current_A"),
    ("solenoid_reference", "solenoid", '"version": 1', '"version": 1, "version": 1', "version"),
    ("conduction_fillings", "conduction", '"a_ref_m": 1e-10',
     '"a_ref_m": 1e-10, "extra": {"x": 1, "x": 2}', "x"),
], ids=["block", "top", "depth_2"])
def test_duplicate_keys_rejected(tmp_path, capsys, stem, command, old, new, key):
    text = (SCENARIOS / f"{stem}.json").read_text()
    assert text.count(old) == 1
    p = tmp_path / "dup.json"
    p.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(p), "--out", str(out)]) == 2
    # worded as a duplicate key, not wrapped as a scenario that cannot be decoded
    assert capsys.readouterr().err.startswith(f"config error: duplicate key {key!r}")
    assert not out.exists()


def test_field_must_pick_one_unit_form(tmp_path):
    scn = _write(tmp_path, _packet_scenario(E_internal=0.05, E_V_per_m=1e7))
    assert main(["wavepacket", "--scenario", scn, "--out", str(tmp_path)]) == 2
    scn_obj = _packet_scenario()
    del scn_obj["field"]
    scn = _write(tmp_path, scn_obj, "nofield.json")
    assert main(["wavepacket", "--scenario", scn, "--out", str(tmp_path)]) == 2


def test_equation_tag_validation(tmp_path):
    base = {
        "version": 1,
        "name": "orbit",
        "units": {"a_ref_m": 2e-10},
        "field": {"B_internal": 1.0},
        "dynamics": {"k0_internal": [1.0, 0.0], "x0_internal": [0.0, -1.0],
                     "T_internal": 1.0, "dt_internal": 0.01},
    }
    # cyclotron requires a tag, compare-eom forbids one
    scn = _write(tmp_path, base)
    assert main(["cyclotron", "--scenario", scn, "--out", str(tmp_path)]) == 2
    base["dynamics"]["equation"] = "weird"
    scn = _write(tmp_path, base, "weird.json")
    assert main(["cyclotron", "--scenario", scn, "--out", str(tmp_path)]) == 2
    base["dynamics"]["equation"] = "lorentz"
    scn = _write(tmp_path, base, "tagged.json")
    assert main(["compare-eom", "--scenario", scn, "--out", str(tmp_path)]) == 2


def test_potential_coefficient_validation(tmp_path):
    scn_obj = {
        "version": 1,
        "name": "bands",
        "units": {"a_ref_m": 2e-10},
        "potential": {"a_internal": 1.0,
                      "coefficients_eV": [[1, 0.1, 0]],
                      "coefficients_internal": [[1, 0.1, 0]]},
        "sweep": {"n_waves": 4, "k_points": 5, "n_bands": 1},
    }
    scn = _write(tmp_path, scn_obj)
    assert main(["bands", "--scenario", scn, "--out", str(tmp_path)]) == 2
    del scn_obj["potential"]["coefficients_eV"]
    scn_obj["potential"]["coefficients_internal"] = [[1, 0.1, 0], [1, 0.2, 0]]
    scn = _write(tmp_path, scn_obj, "dup.json")
    assert main(["bands", "--scenario", scn, "--out", str(tmp_path)]) == 2


# a cosine lattice whose band energies lie past float range
HUGE = [[-1, 1e308, 0.0], [1, 1e308, 0.0]]


@pytest.mark.parametrize("stem, command, block, key, value", [
    ("wavepacket_free", "wavepacket", "output", "sample_stride", 0),
    ("wavepacket_free", "wavepacket", "dynamics", "grid_points", 0),
    ("wavepacket_free", "wavepacket", "dynamics", "domain_internal", 0),
    ("wavepacket_free", "wavepacket", "dynamics", "domain_internal", -1),
    ("conduction_fillings", "conduction", "dynamics", "band", -1),
    ("bands_weak_cosine", "bands", "sweep", "k_points", -1),
    ("bands_weak_cosine", "bands", "sweep", "k_points", 0),
    ("bands_weak_cosine", "bands", "sweep", "n_bands", 0),
    ("cyclotron", "cyclotron", "dynamics", "dt_internal", 1e-320),
    ("cyclotron", "cyclotron", "dynamics", "T_internal", 1e20),
    ("wavepacket_free", "wavepacket", "dynamics", "x0_internal", 1e6),
    ("wavepacket_free", "wavepacket", "dynamics", "sigma_internal", 1e-300),
    # k0 past the grid's k window ±π/dx = ±32.2 would alias to k0 ∓ 2π/dx
    ("wavepacket_free", "wavepacket", "dynamics", "k0_internal", 40),
    ("wavepacket_free", "wavepacket", "dynamics", "k0_internal", -40),
    # edits across blocks: <k> would run from 1 to -65, past the k window ±π/dx = ±32.2
    *(pytest.param("wavepacket_free", "wavepacket", None, None,
                   {"field": {"E_internal": 330}, "dynamics": {"T_internal": 0.2},
                    "output": {"sample_stride": stride}},
                   id=f"wavepacket_free-k_window-stride_{stride}") for stride in (5, 20)),
    # a lattice whose band energies eigh returns as ±inf: the gaps overflow, and
    # both runs used to exit 0 with a -inf energy or a half filling labelled "insulator"
    pytest.param("bands_weak_cosine", "bands", None, None,
                 {"potential": {"coefficients_eV": None, "coefficients_internal": HUGE},
                  "sweep": {"n_waves": 3}}, id="bands-energy_past_float_range"),
    # finite band energies of ±7.4e307 that overflow in eV
    pytest.param("bands_weak_cosine", "bands", None, None,
                 {"potential": {"coefficients_eV": None,
                                "coefficients_internal": [[-1, 4e307, 0.0], [1, 4e307, 0.0]]},
                  "sweep": {"n_waves": 3}}, id="bands-energy_past_float_range_in_eV"),
    pytest.param("conduction_fillings", "conduction", None, None,
                 {"potential": {"coefficients_internal": HUGE},
                  "dynamics": {"n_k": 64, "n_waves": 3, "fractions": [0.5]}},
                 id="conduction-energy_past_float_range"),
])
def test_out_of_range_values_exit_2(tmp_path, stem, command, block, key, value):
    scn_obj = json.loads((SCENARIOS / f"{stem}.json").read_text())
    for name, edits in ({block: {key: value}} if block else value).items():
        # an edit to None removes the key
        scn_obj[name] = {k: v for k, v in {**scn_obj[name], **edits}.items() if v is not None}
    scn = _write(tmp_path, scn_obj)
    assert main([command, "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_conduction_band_out_of_range_names_the_band(tmp_path, capsys):
    # the message used to name n_bands=26, the band count the pass would need
    scn_obj = json.loads((SCENARIOS / "conduction_fillings.json").read_text())
    scn_obj["dynamics"]["band"] = 25
    out = tmp_path / "out"
    assert main(["conduction", "--scenario", _write(tmp_path, scn_obj), "--out", str(out)]) == 2
    assert "band 25 out of range 0..20 for truncation n=10" in capsys.readouterr().err
    assert not out.exists()


def test_conduction_refuses_a_shift_too_large_for_the_k_grid(tmp_path, capsys, monkeypatch):
    # at 1e17 every label used to land on one reduced k, every shifted sum read 0.0,
    # and the run exited 0. The refusal comes before any band pass
    calls = []

    def counted(*args):
        calls.append(args)
        return band_derivatives(*args)

    monkeypatch.setattr(conduction, "band_derivatives", counted)
    scn_obj = json.loads((SCENARIOS / "conduction_fillings.json").read_text())
    scn_obj["dynamics"]["shift_internal"] = 1e17
    out = tmp_path / "out"
    assert main(["conduction", "--scenario", _write(tmp_path, scn_obj), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "too large for the k grid" in err
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("n_waves, coefficients, message", [
    (0, None, "truncation half-width must be >= 1, got 0"),
    (1, [[-3, 0.25, 0.0], [3, 0.25, 0.0]], "truncation n=1 smaller than potential cutoff L=3"),
], ids=["n0", "below-cutoff"])
def test_conduction_with_no_occupied_k_refuses_a_bad_truncation(tmp_path, capsys, n_waves,
                                                                coefficients, message):
    # an empty filling used to exit 0 and write conduction.json; fraction 0.5 exits 2
    scn_obj = json.loads((SCENARIOS / "conduction_fillings.json").read_text())
    scn_obj["dynamics"].update(n_waves=n_waves, fractions=[0.0])
    if coefficients:
        scn_obj["potential"]["coefficients_internal"] = coefficients
    out = tmp_path / "out"
    assert main(["conduction", "--scenario", _write(tmp_path, scn_obj), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stem, command, block, key, value, message", [
    # past int64, where numpy would raise a bare ValueError
    ("conduction_fillings", "conduction", "dynamics", "n_k", 10 ** 19, "int64 range"),
    ("bands_weak_cosine", "bands", "sweep", "k_points", 10 ** 19, "int64 range"),
    # in range, but each asks for petabytes at its first allocation: MemoryError
    ("conduction_fillings", "conduction", "dynamics", "n_k", 10 ** 15, "Unable to allocate"),
    ("conduction_fillings", "conduction", "dynamics", "n_waves", 10 ** 7, "Unable to allocate"),
], ids=["n_k-1e19", "k_points-1e19", "n_k-1e15", "n_waves-1e7"])
def test_a_size_no_machine_can_allocate_exits_2(tmp_path, capsys, stem, command, block, key,
                                                value, message):
    out = tmp_path / "out"
    scn = _shipped_with(tmp_path, stem, block, **{key: value})
    assert main([command, "--scenario", scn, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


COSINE = single_cosine(1.0, 0.05)


@pytest.mark.parametrize("call", [
    lambda: _time_grid(1.0, 2.0),
    lambda: _time_grid(1.0, 1e-320),
    lambda: _time_grid(1e20, 1.0),
    lambda: band_sweep(single_cosine(1.0, 0.05), 4, 0, 1, 1.0, 1.0),
    lambda: band_sweep(single_cosine(1.0, 0.05), 4, 5, 0, 1.0, 1.0),
    lambda: band_derivatives([0.0], single_cosine(1.0, 0.05), 4, 10),
    lambda: FourierPotential(1.0, {1: 0.1}),
    lambda: BandFilling(band=0, n_k=8, fraction=0.5),
    lambda: evolve_fundamental([1.0, 0.0], [0.0, 0.0], [0.0, 0.0], 0.0, 1.0, 0.1),
    lambda: split_step_free(gaussian_packet(400.0, 256, 0.0, 1.0, 10.0), 0.0, 1.0, 0.1,
                            sample_stride=0),
    lambda: gaussian_packet(400.0, 4096, -30.0, 40.0, 10.0),
    lambda: evolve_lorentz([1.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 1.0, 1.0, 0.1),
    lambda: evolve_lorentz([0.7], [0.3, 0.0], [0.0, 0.0], 1.0, 1.0, 0.1),
    lambda: evolve_fundamental([0.7, 0.0], 0.3, [0.0, 0.0], 1.0, 1.0, 0.1),
    # a component that is an array (float() of it only warns on numpy 2.0), and a
    # vector that is a string
    lambda: evolve_fundamental(np.ones((2, 1)), [0.0, 0.0], [0.0, 0.0], 1.0, 1.0, 0.1),
    lambda: compare_fundamental_lorentz([0.7, 0.0], np.ones((2, 1)), [0.0, 0.0], 1.0, 1.0, 0.1),
    lambda: evolve_lorentz([0.7, 0.0], [0.0, 0.0], "ab", 1.0, 1.0, 0.1),
    lambda: evolve_periodic_B("ab", 0, single_cosine(1.0, 0.3), 4, 1.0, 1.0, 0.1),
    # a run length past float range, refused before T / dt is formed
    lambda: evolve_lorentz([1.0, 0.0], [0.0, 0.0], [0.0, 0.0], 1.0, 10 ** 400, 1.0),
    lambda: evolve_general_V(0.1, 0.0, np.zeros_like, 10 ** 400, 1.0, lambda x: 0.0),
    lambda: split_step_free(gaussian_packet(400.0, 256, 0.0, 1.0, 10.0), 0.0, 10 ** 400, 1.0),
    lambda: integrate_basis(0.3, single_cosine(1.0, 0.3), 2, 0.05, 10 ** 400, 1.0),
    # inputs that are not finite, each refused before its arithmetic warns or asserts
    lambda: COSINE.evaluate(math.nan),
    lambda: COSINE.derivative(math.inf),
    lambda: evolve_general_V(0.1, math.nan, COSINE.evaluate, 1.0, 0.1, COSINE.derivative),
    lambda: evolve_general_V(0.1, math.inf, COSINE.evaluate, 1.0, 0.1, COSINE.derivative),
    lambda: evolve_periodic_B([math.nan, 0.0], 0, COSINE, 3, 1.0, 1.0, 0.1),
    lambda: evolve_periodic_B([math.inf, 0.0], 0, COSINE, 3, 1.0, 1.0, 0.1),
    lambda: evolve_periodic_E(math.inf, 0, COSINE, 3, 0.1, 1.0, 0.1),
    lambda: reduce_to_zone(math.inf),
    # k0 - E·t past float range
    lambda: evolve_periodic_E(0.0, 0, COSINE, 3, 1e308, 10.0, 1.0),
    # band energies, or their eV values, past float range
    lambda: band_sweep(FourierPotential(1.0, {1: 1e308, -1: 1e308}), 3, 11, 3, 1.0, 1.0),
    lambda: band_sweep(FourierPotential(1.0, {1: 4e307, -1: 4e307}), 3, 11, 3, 7.62, 1.0),
], ids=["time_grid", "time_grid_infinite_steps", "time_grid_too_many_steps",
        "band_sweep", "band_sweep_no_bands", "band_derivatives", "potential", "filling",
        "fundamental", "split_step", "packet_k0_past_k_window",
        "lorentz_three_components", "lorentz_one_component", "fundamental_scalar_x0",
        "fundamental_array_component", "compare_array_component", "lorentz_string_E",
        "periodic_B_string_k0", "lorentz_T_past_float_range", "general_V_T_past_float_range",
        "split_step_T_past_float_range", "basis_T_past_float_range", "evaluate_nan",
        "derivative_inf", "general_V_nan_x0", "general_V_inf_x0", "periodic_B_nan_k0",
        "periodic_B_inf_k0", "periodic_E_inf_k0", "reduce_to_zone_inf",
        "periodic_E_path_past_float_range", "band_sweep_energy_past_float_range",
        "band_sweep_energy_past_float_range_in_eV"])
def test_library_input_checks_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


def test_unexpected_value_error_is_not_exit_2(tmp_path, monkeypatch):
    # only ConfigError (and OSError) mean bad input; anything else is a fault
    def broken(scn, units, out):
        raise ValueError("a fault in the runner")

    monkeypatch.setitem(cli.COMMANDS, "solenoid", (cli.COMMANDS["solenoid"][0], broken))
    scn = str(SCENARIOS / "solenoid_reference.json")
    with pytest.raises(ValueError, match="a fault in the runner"):
        main(["solenoid", "--scenario", scn, "--out", str(tmp_path)])


# --------------------------------------------------------------------------
# physics errors (exit 3)


def test_packet_boundary_guard_exits_3(tmp_path, capsys):
    scn_obj = _packet_scenario(E_internal=0.5)
    scn_obj["dynamics"].update(domain_internal=40.0, grid_points=256,
                               x0_internal=0.0, k0_internal=2.0,
                               sigma_internal=1.0, T_internal=10.0)
    scn = _write(tmp_path, scn_obj)
    assert main(["wavepacket", "--scenario", scn, "--out", str(tmp_path)]) == 3
    assert "physics error" in capsys.readouterr().err


def test_closed_gap_probe_exits_3(tmp_path):
    scn = _write(tmp_path, {
        "version": 1,
        "name": "degenerate probe",
        "units": {"a_ref_m": 2e-10},
        "potential": {"a_internal": 1.0, "coefficients_internal": [[0, 0, 0]]},
        "field": {"E_internal": 1e-4},
        "dynamics": {"mode": "probe", "k0_internal": math.pi, "n_waves": 6,
                     "t_probe_internal": 0.0},
    })
    assert main(["adiabatic", "--scenario", scn, "--out", str(tmp_path)]) == 3


# --------------------------------------------------------------------------
# validate


def test_validate_single_criterion(tmp_path, capsys):
    assert main(["validate", "--out", str(tmp_path), "--only", "9"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] criterion 9" in out
    rep = json.loads((tmp_path / "validate.json").read_text())
    assert rep["results"][0]["cid"] == 9
    assert rep["results"][0]["passed"] is True


def test_validate_json_does_not_depend_on_the_clock(tmp_path, monkeypatch):
    # criteria 1 and 4 check their runtime; the clock runs 1 s, then 7 s, per reading
    written = []
    for tick in (1.0, 7.0):
        clock = itertools.count(tick, tick)
        monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(clock))
        out = tmp_path / str(tick)
        assert main(["validate", "--out", str(out), "--only", "1,4"]) == 0
        written.append((out / "validate.json").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("tick, passed", [(45.0, [False, True]), (75.0, [False, False])])
def test_validate_fails_a_criterion_over_its_runtime_limit(tmp_path, monkeypatch, tick, passed):
    # each reading advances the clock by tick, so each criterion takes tick seconds;
    # criterion 1 is limited to 30 s and criterion 4 to 60 s
    clock = itertools.count(tick, tick)
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(clock))
    assert main(["validate", "--out", str(tmp_path), "--only", "1,4"]) == 4
    results = json.loads((tmp_path / "validate.json").read_text())["results"]
    assert [r["cid"] for r in results] == [1, 4]
    assert [r["passed"] for r in results] == passed
    assert results[0]["detail"].endswith("; runtime (limit 30s)")
    assert results[1]["detail"].endswith("; runtime (limit 60s)")


def test_validate_rejects_unknown_selection(tmp_path, capsys):
    assert main(["validate", "--out", str(tmp_path), "--only", "99"]) == 2
    assert main(["validate", "--out", str(tmp_path), "--only", "abc"]) == 2
    # a known id beside an unknown one runs nothing
    assert main(["validate", "--out", str(tmp_path), "--only", "5,99"]) == 2
    assert "[99]" in capsys.readouterr().err
    # separators alone name nothing, and nothing is run
    assert main(["validate", "--out", str(tmp_path), "--only", ","]) == 2
    assert "selected no criterion" in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


def test_validate_rejects_a_negative_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("blochdyn.acceptance.run_all", lambda seed, only: pytest.fail("ran"))
    assert main(["validate", "--out", str(tmp_path), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def _shipped_with(tmp_path, stem, block, **change):
    scn_obj = json.loads((SCENARIOS / f"{stem}.json").read_text())
    scn_obj[block].update(change)
    return _write(tmp_path, scn_obj, f"{stem}-{'-'.join(change)}.json")


def test_rejected_runs_leave_no_out_directory(tmp_path):
    scn_obj = _packet_scenario()
    scn_obj["dynamics"]["bogus"] = 1
    unknown_key = _write(tmp_path, scn_obj)
    # the last four would write NaN or Infinity, so they are refused before --out is made
    for i, argv in enumerate([["validate", "--seed", "-1"],
                              ["bands", "--scenario", "/nonexistent.json"],
                              ["wavepacket", "--scenario", unknown_key],
                              ["solenoid", "--scenario", _write(tmp_path, [1], "list.json")],
                              ["cyclotron", "--scenario",
                               _shipped_with(tmp_path, "cyclotron", "field", B_internal=1e300)],
                              ["compare-eom", "--scenario", _shipped_with(
                                  tmp_path, "compare_eom", "field", E_internal=[1e300, 0.0])],
                              ["solenoid", "--scenario", _shipped_with(
                                  tmp_path, "solenoid_reference", "solenoid", current_A=1e300)],
                              ["solenoid", "--scenario", _shipped_with(
                                  tmp_path, "solenoid_reference", "solenoid", radius_m=1e-310)]]):
        out = tmp_path / f"out{i}"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("stem, field, dynamics, message", [
    # A = -E t overflows to -inf
    ("adiabatic_si_probe", {"E_internal": 1e308}, {}, "non-finite plane-wave energy"),
    ("adiabatic_sweep", {"E_internal": 1e307}, {"T_internal": 100.0, "dt_internal": 1.0},
     "non-finite plane-wave energy"),
    # A = -E t is finite, but the drive -E·κ overflows
    ("adiabatic_si_probe", {"E_internal": 1e308}, {"t_probe_internal": 1e-300},
     "overflows the drive"),
    # the drive is finite internally (‖Ḣ‖ ≈ 4.58e307), but not once converted to eV
    ("adiabatic_si_probe", {"E_internal": 1e299}, {"t_probe_internal": 1e-291},
     "hdot_norm up to 4.58"),
], ids=["probe", "sweep", "probe-drive", "probe-eV"])
def test_adiabatic_with_an_overflowing_shift_exits_2(tmp_path, capsys, stem, field, dynamics,
                                                     message):
    # each run used to write NaN or Infinity with exit 0
    scn_obj = json.loads((SCENARIOS / f"{stem}.json").read_text())
    scn_obj["field"] = field
    scn_obj["dynamics"].update(dynamics)
    out = tmp_path / "out"
    assert main(["adiabatic", "--scenario", _write(tmp_path, scn_obj), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [
    b'{"version": 1, "name": "caf\xe9"}',                  # Latin-1, not UTF-8
    b'{"version": 1, "name": ' + b"1" * 5000 + b"}",        # past the int conversion limit
    b"[" * 100_000,                                         # deeper than the recursion limit
], ids=["not-utf-8", "long-integer", "deep-nesting"])
def test_undecodable_scenario_exits_2(tmp_path, capsys, content):
    # each used to end in a traceback with exit 1
    p = tmp_path / "scn.json"
    p.write_bytes(content)
    out = tmp_path / "out"
    assert main(["solenoid", "--scenario", str(p), "--out", str(out)]) == 2
    assert "cannot decode the scenario" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dynamics", [
    {"domain_internal": 1e-160},
    # (2π/dx)² is finite here, but the power-weighted Σ P(k)·(k - ⟨k⟩)² of a packet
    # a few grid steps wide is not
    {"domain_internal": 1e-120, "x0_internal": 0.0, "k0_internal": 0.0,
     "sigma_internal": 1e-122},
], ids=["1e-160", "1e-120-narrow"])
def test_a_grid_step_whose_k_moments_overflow_exits_2(tmp_path, capsys, dynamics):
    # π/dx is finite in both, and σ_k of ψ₀ used to overflow: a RuntimeWarning traceback
    path = _shipped_with(tmp_path, "wavepacket_free", "dynamics", **dynamics)
    out = tmp_path / "out"
    assert main(["wavepacket", "--scenario", path, "--out", str(out)]) == 2
    assert "(N/dx)·(2π/dx)² outside float range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dynamics, step", [
    # h·(π/dx)²/2 overflows: a RuntimeWarning traceback, or "state not normalized: nan"
    ({"T_internal": 1e307, "dt_internal": 1e306}, "1e+307"),
    # h·(π/dx)²/2 is finite, the sample interval's is not; this one used to exit 3
    ({"T_internal": 1e306, "dt_internal": 1e305}, "9.999999999999999e+305"),
], ids=["step", "sample-interval"])
def test_a_step_whose_strang_phase_overflows_exits_2(tmp_path, capsys, dynamics, step):
    scn_obj = json.loads((SCENARIOS / "wavepacket_free.json").read_text())
    scn_obj["field"]["E_internal"] = 0.0
    scn_obj["dynamics"].update(dynamics)
    out = tmp_path / "out"
    assert main(["wavepacket", "--scenario", _write(tmp_path, scn_obj), "--out", str(out)]) == 2
    assert f"step τ={step} puts a Strang phase" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stem, command", [("bands_weak_cosine", "bands"),
                                           ("conduction_fillings", "conduction")])
def test_an_overflowing_lattice_constant_is_named(tmp_path, capsys, stem, command):
    # 2π/a is finite at a = 1e-300, (2π/a)² is not; the message used to blame a zero shift
    path = _shipped_with(tmp_path, stem, "potential", a_internal=1e-300)
    assert main([command, "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "a=1e-300" in err and "non-finite plane-wave energy" in err


def test_validate_maps_failure_to_exit_4(tmp_path, monkeypatch):
    fake = AcceptanceResult(cid=1, name="stub", passed=False, detail="nope")
    monkeypatch.setattr("blochdyn.acceptance.run_all", lambda seed, only: [fake])
    assert main(["validate", "--out", str(tmp_path)]) == 4
    rep = json.loads((tmp_path / "validate.json").read_text())
    assert rep["results"][0]["passed"] is False
