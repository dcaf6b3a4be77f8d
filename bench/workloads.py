"""The benchmark's workloads: fixed task lists, seeded inputs and their checks.

A task is one ``python -m blochdyn <argv> --out <dir>`` run. Its check reads
the output directory and returns (failed, messages), where failed counts
against the task's weight: 1 per scenario run, 10 per ``validate`` run (one
per acceptance criterion).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gate

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# (subcommand, scenario stem); adiabatic_sweep is left out: at ~7 s it would
# swamp the start-up cost this workload exists to show, and validate's
# criterion 6 runs the same sweep
CLI_COLD = (
    ("bands", "bands_weak_cosine"),
    ("wavepacket", "wavepacket_free"),
    ("cyclotron", "cyclotron"),
    ("compare-eom", "compare_eom"),
    ("adiabatic", "adiabatic_si_probe"),
    ("conduction", "conduction_fillings"),
    ("solenoid", "solenoid_reference"),
)

# band-sweep sizes: 4 bands need first-order gaps above each, so the random
# potential carries harmonics l = 1..4 (with l <= 3 the gap above band 3 is
# second order and the program's finite-difference mass there is meaningless)
BAND_HARMONICS = 4
BAND_AMPLITUDE = (0.3, 1.5)       # |V_l|, as blochdyn.random_symmetric draws them
BAND_N_WAVES = 12
BAND_K_POINTS = 1001
BAND_N_BANDS = 4
COND_N_K = 1024
COND_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


@dataclass
class Task:
    name: str
    argv: list[str]
    check: Callable[[Path], tuple[int, list[str]]]
    weight: int = 1


def _all_or_nothing(errs: list[str]) -> tuple[int, list[str]]:
    return (1 if errs else 0), errs


def _scenario_task(command: str, path: Path, check) -> Task:
    return Task(path.stem, [command, "--scenario", str(path)],
                lambda out: _all_or_nothing(check(out)))


def cli_cold(seed: int, inputs: Path) -> list[Task]:
    """The seven short shipped scenarios, in an order drawn from the seed."""
    order = np.random.default_rng(seed).permutation(len(CLI_COLD))
    tasks = []
    for i in order:
        command, stem = CLI_COLD[i]
        path = SCENARIOS / f"{stem}.json"
        if command == "bands":
            scn = json.loads(path.read_text())
            check = lambda out, scn=scn: gate.check_bands(out / "bands.csv", scn)
        else:
            check = lambda out, stem=stem: gate.check_against_reference(out, stem)
        tasks.append(_scenario_task(command, path, check))
    return tasks


def band_sweep_scenarios(seed: int) -> dict[str, str]:
    """Strict-JSON bands and conduction scenarios drawn from the seed."""
    rng = np.random.default_rng(seed)
    coeffs = []
    for l in range(1, BAND_HARMONICS + 1):
        v = float(rng.uniform(*BAND_AMPLITUDE)) * (1.0 if rng.random() < 0.5 else -1.0)
        coeffs += [[-l, v, 0.0], [l, v, 0.0]]
    potential = {"a_internal": 1.0, "coefficients_internal": coeffs}
    header = {"version": 1, "units": {"a_ref_m": 1e-10}, "potential": potential}
    bands = {**header, "name": f"random lattice band sweep, seed {seed}",
             "sweep": {"n_waves": BAND_N_WAVES, "k_points": BAND_K_POINTS,
                       "n_bands": BAND_N_BANDS}}
    conduction = {**header, "name": f"random lattice fillings, seed {seed}",
                  "dynamics": {"band": int(rng.integers(0, BAND_N_BANDS)),
                               "n_k": COND_N_K, "n_waves": BAND_N_WAVES,
                               "shift_internal": float(rng.uniform(-0.3, 0.3)) * 2.0 * np.pi,
                               "fractions": list(COND_FRACTIONS)}}
    return {name: json.dumps(scn, indent=2) + "\n"
            for name, scn in (("bands.json", bands), ("conduction.json", conduction))}


def band_sweep(seed: int, inputs: Path) -> list[Task]:
    inputs.mkdir(parents=True, exist_ok=True)
    tasks = []
    for name, text in band_sweep_scenarios(seed).items():
        path = inputs / name
        path.write_text(text)
        scn = json.loads(text)
        if name == "bands.json":
            check = lambda out, scn=scn: gate.check_bands(out / "bands.csv", scn)
            tasks.append(_scenario_task("bands", path, check))
        else:
            check = lambda out, scn=scn: gate.check_conduction(out / "conduction.json", scn)
            tasks.append(_scenario_task("conduction", path, check))
    return tasks


def validate(seed: int, inputs: Path) -> list[Task]:
    def check(out: Path):
        failed = gate.check_validate(out / "validate.json", seed)
        return failed, ([f"validate: {failed} of 10 criteria failed"] if failed else [])
    return [Task("validate", ["validate", "--seed", str(seed)], check, weight=10)]


WORKLOADS = {"cli-cold": cli_cold, "band-sweep": band_sweep, "validate": validate}
