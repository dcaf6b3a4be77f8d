"""The package namespace: lazy exports, and the modules an import or a run loads."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import blochdyn

ROOT = Path(__file__).resolve().parent.parent

# submodule -> the 47 names the package exports, written out here so that a
# name dropped from the package's own table fails this file
EXPORTS = {
    "central_equation": ["BandSolution", "band_derivatives", "band_sweep", "bloch_psi", "build",
                         "effective_mass", "group_velocity", "reduce_to_zone", "solve_at"],
    "conduction": ["BandFilling", "fillings"],
    "errors": ["BoundaryProximityError", "ConfigError", "DegeneratePointError",
               "EnergyDriftError", "InfiniteMassError", "PhysicsError"],
    "potential": ["FourierPotential", "random_symmetric", "single_cosine"],
    "quantum": ["AdiabaticReport", "GridBands", "GridState", "SplitStepResult",
                "adiabatic_diagnostics", "frame_generator", "gaussian_packet",
                "grid_ground_state", "integrate_basis", "split_step_free"],
    "semiclassical": ["DivergenceReport", "Trajectory", "compare_fundamental_lorentz",
                      "evolve_free_E", "evolve_fundamental", "evolve_general_V",
                      "evolve_lorentz", "evolve_periodic_B", "evolve_periodic_E"],
    "units": ["DIMENSION_TAGS", "E_CHARGE_SI", "HBAR_SI", "M_E_SI", "MU0_SI", "UnitSystem",
              "fractional_displacement", "solenoid_shift"],
}


def _loaded_after(code: str) -> list[str]:
    """The numpy and blochdyn modules loaded once a fresh interpreter has run ``code``."""
    script = code + """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "blochdyn"))))
"""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_importing_the_package_and_the_cli_loads_no_numpy():
    assert _loaded_after("import blochdyn, blochdyn.cli") == [
        "blochdyn", "blochdyn.cli", "blochdyn.errors", "blochdyn.units"]


def test_a_bands_run_loads_only_what_it_computes_with(tmp_path):
    argv = ["bands", "--scenario", str(ROOT / "scenarios" / "bands_weak_cosine.json"),
            "--out", str(tmp_path)]
    loaded = _loaded_after(f"from blochdyn import cli\nassert cli.main({argv!r}) == 0")
    assert {"blochdyn.central_equation", "blochdyn.potential", "numpy"} <= set(loaded)
    assert not {f"blochdyn.{m}" for m in ("acceptance", "quantum", "semiclassical",
                                          "conduction")} & set(loaded)
    assert (tmp_path / "bands.csv").is_file()


@pytest.mark.parametrize("command, stem, output", [("cyclotron", "cyclotron", "trajectory.csv"),
                                                   ("compare-eom", "compare_eom", "compare.csv"),
                                                   ("wavepacket", "wavepacket_free",
                                                    "wavepacket.csv")])
def test_a_planar_run_loads_no_band_solver(tmp_path, command, stem, output):
    # only the band integrators and the quantum module's plane-wave half use the band
    # solver, and they import it when they run. The planar equations step on Python
    # floats in planar, so cyclotron and compare-eom load neither numpy nor semiclassical;
    # the split-step propagator takes its step grid from planar, not from semiclassical
    argv = [command, "--scenario", str(ROOT / "scenarios" / f"{stem}.json"), "--out", str(tmp_path)]
    loaded = set(_loaded_after(f"from blochdyn import cli\nassert cli.main({argv!r}) == 0"))
    assert not {"blochdyn.central_equation", "blochdyn.potential",
                "blochdyn.semiclassical"} & loaded
    assert "blochdyn.planar" in loaded
    assert ("numpy" in loaded) == (command == "wavepacket")
    assert (tmp_path / output).is_file()


def test_an_adiabatic_run_still_loads_the_band_solver(tmp_path):
    # the plane-wave half of quantum imports it when it runs, not when quantum loads
    argv = ["adiabatic", "--scenario", str(ROOT / "scenarios" / "adiabatic_si_probe.json"),
            "--out", str(tmp_path)]
    loaded = _loaded_after(f"from blochdyn import cli\nassert cli.main({argv!r}) == 0")
    assert {"blochdyn.quantum", "blochdyn.central_equation", "blochdyn.potential"} <= set(loaded)
    assert "blochdyn.semiclassical" not in loaded
    assert (tmp_path / "adiabatic.json").is_file()


def test_criterion_8_loads_no_numpy_random(tmp_path):
    # its draws come from the standard library; the numpy.random modules that
    # `import numpy` loads on its own, which depend on the numpy release, are allowed
    argv = ["validate", "--only", "8", "--out", str(tmp_path)]
    loaded = _loaded_after(f"from blochdyn import cli\nassert cli.main({argv!r}) == 0")
    assert "blochdyn.acceptance" in loaded
    assert {m for m in loaded if m.startswith("numpy.random")} <= set(_loaded_after("import numpy"))
    assert (tmp_path / "validate.json").is_file()


def test_a_solenoid_run_loads_no_numpy(tmp_path):
    # the kick is scalar arithmetic next to the CODATA constants in units
    argv = ["solenoid", "--scenario", str(ROOT / "scenarios" / "solenoid_reference.json"),
            "--out", str(tmp_path)]
    assert _loaded_after(f"from blochdyn import cli\nassert cli.main({argv!r}) == 0") == [
        "blochdyn", "blochdyn.cli", "blochdyn.errors", "blochdyn.units"]
    assert (tmp_path / "solenoid.json").is_file()


def test_every_export_is_its_submodule_object():
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == 47
    assert sorted(blochdyn.__all__) == sorted([*names, "__version__"])
    assert set(blochdyn.__all__) <= set(dir(blochdyn))
    for module, group in EXPORTS.items():
        source = import_module(f"blochdyn.{module}")
        for name in group:
            assert getattr(blochdyn, name) is getattr(source, name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        blochdyn.no_such_name
    with pytest.raises(ImportError):
        from blochdyn import no_such_name  # noqa: F401
    # the failed lookup imports nothing on the way
    assert _loaded_after("""
import blochdyn
try:
    blochdyn.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("no_such_name resolved")
""") == ["blochdyn"]


def test_a_submodule_still_imports_through_the_package():
    # importing one submodule by name loads it, and what it imports, alone
    assert _loaded_after("""
import sys
from blochdyn import units
assert units is sys.modules["blochdyn.units"]
""") == ["blochdyn", "blochdyn.errors", "blochdyn.units"]
    from blochdyn import acceptance
    assert acceptance is sys.modules["blochdyn.acceptance"]
    assert callable(acceptance.run_all)
