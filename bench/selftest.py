"""Self-tests of the benchmark itself.

* Tracer exactness: the traced call counts of two probe calls must equal a
  ground truth taken with ``sys.setprofile`` on the untraced code, and two
  traced runs must agree. The frozen counts below were measured on the
  first baseline; ``run.py --trace 1`` prints them next to the live ones.
* Seeded inputs: one seed gives byte-identical band-sweep scenarios, another
  seed gives different ones, and both pass the CLI's strict parser and the
  correctness gate.
* ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints.

Run from the repository root:  python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

import run
from tracer import Tracer, patch, unpatch
from workloads import band_sweep, band_sweep_scenarios

COUNTED = ("central_equation.solve_at", "quantum.frame_generator")
FROZEN = {
    "integrate_basis": {"central_equation.solve_at": 15, "quantum.frame_generator": 3},
    "band_sweep": {"central_equation.solve_at": 1919, "quantum.frame_generator": 0},
}


def _probes():
    from blochdyn import central_equation, potential, quantum

    pot = potential.single_cosine(1.0, 0.05)
    return {
        "integrate_basis": lambda: quantum.integrate_basis(
            0.3 * math.pi, pot, 10, 1e-3, 8.0, 1.0, report_stride=4),
        "band_sweep": lambda: central_equation.band_sweep(pot, 10, 101, 3, 1.0, 1.0),
    }


def _traced(fn) -> dict[str, int]:
    tracer = Tracer()
    undo = patch(tracer)
    try:
        fn()
    finally:
        unpatch(undo)
    summary = tracer.summary()
    return {q: summary[f"{q}.calls"] for q in COUNTED}


def _profiled(fn) -> dict[str, int]:
    modules = {name: sys.modules[f"blochdyn.{name}"] for name in ("central_equation", "quantum")}
    codes = {}
    for q in COUNTED:
        module, func = q.split(".")
        codes[getattr(modules[module], func).__code__] = q
    counts = Counter({q: 0 for q in COUNTED})

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return dict(counts)


def tracer_selftest() -> tuple[bool, dict]:
    """(tracer exact and repeatable, per-probe counts)."""
    report, ok = {}, True
    for probe, fn in _probes().items():
        first, second, truth = _traced(fn), _traced(fn), _profiled(fn)
        ok = ok and first == second == truth
        report[probe] = {"traced": first, "traced_again": second, "profiled": truth,
                         "frozen": FROZEN[probe]}
    return ok, report


def generator_selftest(seeds=(1, 2)) -> list[str]:
    from blochdyn.cli import load_scenario

    errs = []
    a, b = (band_sweep_scenarios(seeds[0]) for _ in range(2))
    if a != b:
        errs.append("the same seed gave different scenario bytes")
    if a == band_sweep_scenarios(seeds[1]):
        errs.append("two seeds gave identical scenarios")
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for seed in seeds:
            tasks = band_sweep(seed, Path(tmp) / f"in{seed}")
            for task in tasks:
                load_scenario(task.argv[2])
                out = Path(tmp) / f"out{seed}-{task.name}"
                _, rc = run.run_in_process(task.argv + ["--out", str(out)])
                failed, msgs = task.check(out) if rc == 0 else (task.weight, [f"exit {rc}"])
                errs += [f"seed {seed} {task.name}: {m}" for m in msgs]
    return errs


def benchmark_json_selftest() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errs = []
    for key, want in (("end_to_end", run.END_TO_END), ("per_layer", run.per_layer_units())):
        names = [m["name"] for m in spec[key]]
        if names != list(want):
            errs.append(f"BENCHMARK.json {key} names differ from run.py: "
                        f"{sorted(set(names) ^ set(want))}")
    return errs


def main() -> int:
    run.require_source()
    ok, report = tracer_selftest()
    print(json.dumps(report, indent=2))
    errs = [] if ok else ["traced counts differ from the profiler's or between runs"]
    errs += [f"{probe}: counts {r['traced']} differ from frozen {r['frozen']}"
             for probe, r in report.items() if r["traced"] != r["frozen"]]
    errs += generator_selftest()
    errs += benchmark_json_selftest()
    for e in errs:
        print("FAIL:", e)
    print("selftest", "failed" if errs else "passed")
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
