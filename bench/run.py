"""blochdyn benchmark: one command for every workload, metric and check.

    python3 bench/run.py --workload {cli-cold,band-sweep,validate}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is used from ``src/`` as is.
Every task is one ``python -m blochdyn ...`` process, started after the
previous one ended (a closed loop with one client), with BLAS and OpenMP
pinned to one thread and the process pinned to whichever CPU runs a probe
loop fastest just before it starts (see ``fastest_cpu``). Passes over the workload's task list repeat until the
next pass would end after ``--seconds``; there is always at least one.

--trace 0  end-to-end metrics from fresh processes (see NOTES.md).
--trace 1  per-layer metrics: the tracer self-test, ``-X importtime``
           start-up costs, then in-process passes of the same tasks,
           alternately untraced and traced, the latter timing every call
           into a blochdyn module's public functions (tracer.py).

Every output is checked (gate.py). The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
environment. The full result, with samples and failures, goes to
.bench_work/result-<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_ENV = {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(SRC)}

SETUP_REPEATS = 3              # before the first pass; one more follows each pass
IMPORTTIME_REPEATS = 3
RUN_LIMIT_S = 170.0          # a task still running this long into the run is killed
CPUS = frozenset(os.sched_getaffinity(0))
PROBE_LOOP = 50_000          # about 2 ms of pure Python per probe
PROBE_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_s.p50": "s", "peak_rss_mb": "MB"}
IMPORT_MODULES = {"setup.blochdyn_s": "blochdyn", "setup.scipy_linalg_s": "scipy.linalg",
                  "setup.scipy_integrate_s": "scipy.integrate"}
TRACE_METRICS = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in IMPORT_MODULES}
    for q in tracer.REPORTED:
        units.update({f"{q}.calls": "count", f"{q}.total_s": "s", f"{q}.self_s": "s"})
    for metric, _, _, base in tracer.RATIOS:
        units.update({metric: "ratio", base: "count"})
    units["semiclassical.rk4_steps"] = "count"
    units.update({f"acceptance.criterion_{n}_s": "s" for n in range(1, tracer.N_CRITERIA + 1)})
    units.update({name: "s" for name in TRACE_METRICS})
    return units


def require_source() -> None:
    if not (SRC / "blochdyn" / "__init__.py").is_file():
        sys.exit(f"bench: no blochdyn source under {SRC}; run from a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# --------------------------------------------------------------------------
# running the program


def _spin() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i
    return time.perf_counter() - t0


def fastest_cpu() -> int:
    """The CPU of this process's set that runs a fixed Python loop fastest now.

    On a shared host one vCPU is often slowed for seconds at a time while the
    other is not; starting each task on the faster one keeps that out of the
    figures. The probe runs before the task's clock starts.
    """
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(PROBE_REPEATS))
    os.sched_setaffinity(0, CPUS)
    return min(speed, key=speed.get)


def run_child(argv: list[str], stderr_path: Path, deadline: float):
    """(wall seconds, exit code, peak RSS in MB) of one fresh blochdyn process."""
    cpu = fastest_cpu()
    with open(stderr_path, "w") as err:
        os.sched_setaffinity(0, {cpu})          # inherited by the child
        t0 = time.perf_counter()
        try:
            proc = subprocess.Popen([sys.executable, "-m", "blochdyn", *argv], cwd=ROOT,
                                    env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
        finally:
            os.sched_setaffinity(0, CPUS)
        watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def run_in_process(argv: list[str]):
    """(wall seconds, exit code) of ``blochdyn.cli.main(argv)`` in this process."""
    from blochdyn import cli

    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a library bug; the task fails, the run goes on
        print(f"bench: {argv[0]} raised {exc!r}", file=sys.stderr)
        rc = -1
    return time.perf_counter() - t0, rc


class Tally:
    """Attempted and failed counts plus the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, task, out: Path, rc: int) -> None:
        self.attempted += task.weight
        if rc != 0:
            failed, msgs = task.weight, [f"exit code {rc}"]
        else:
            failed, msgs = task.check(out)
        self.failed += failed
        self.messages += [f"{task.name}: {m}" for m in msgs][: max(0, 20 - len(self.messages))]


def _passes(seconds: float, one_pass) -> None:
    """Call one_pass() until the next pass would end after ``seconds``."""
    t0 = time.perf_counter()
    n = 0
    while True:
        one_pass()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / n > seconds:
            return


def _out_dir(work: Path, i: int) -> Path:
    out = work / f"out{i}"
    shutil.rmtree(out, ignore_errors=True)
    return out


# --------------------------------------------------------------------------
# end-to-end run


def measure_end_to_end(tasks, work: Path, seconds: float, deadline: float, tally: Tally):
    setup = []

    def set_up():
        elapsed, rc, _ = run_child(["--version"], work / "setup.err", deadline)
        if rc != 0:
            sys.exit(f"bench: blochdyn --version exited {rc}; see {work / 'setup.err'}")
        setup.append(elapsed)

    # set-up is sampled before the first pass and after every pass, so the
    # samples spread over the run like the task samples do
    for _ in range(SETUP_REPEATS):
        set_up()

    times = {task.name: [] for task in tasks}
    rss = []

    def one_pass():
        results = []
        for i, task in enumerate(tasks):
            out = _out_dir(work, i)
            results.append(run_child(task.argv + ["--out", str(out)], work / f"task{i}.err",
                                     deadline))
        for i, (task, (elapsed, rc, peak)) in enumerate(zip(tasks, results)):
            tally.add(task, work / f"out{i}", rc)
            times[task.name].append(elapsed)
            rss.append(peak)
        set_up()

    _passes(seconds, one_pass)
    # a pass is estimated task by task, so a slow spell of the machine that
    # hits one pass shifts a single sample of each task instead of a whole pass
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(t) for t in times.values()),
        "task_s.p50": statistics.median(t for ts in times.values() for t in ts),
        "peak_rss_mb": max(rss),
    }
    samples = {"setup_s": setup, "task_s": times, "peak_rss_mb": rss}
    return metrics, samples


# --------------------------------------------------------------------------
# traced run


def import_times(deadline: float) -> dict[str, float]:
    """Median cumulative import cost of blochdyn and the two scipy modules."""
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import blochdyn.cli"],
                              cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()), check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) * 1e-6)
        top = max((v for k, v in cumulative.items() if k.split(".")[0] == "blochdyn"), default=0.0)
        for name, module in IMPORT_MODULES.items():
            samples[name].append(top if module == "blochdyn" else cumulative.get(module, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def measure_traced(tasks, work: Path, seconds: float, deadline: float, tally: Tally,
                   spans_path: Path):
    import selftest

    tracer_ok, counts = selftest.tracer_selftest()
    if not tracer_ok:
        tally.attempted += 1
        tally.failed += 1
        tally.messages.append("tracer self-test: traced counts differ from the profiler's")
    metrics = import_times(deadline)

    untraced, traced, summaries = [], [], []
    last = None

    def one_pass(tr):
        wall = 0.0
        for i, task in enumerate(tasks):
            out = _out_dir(work, i)
            if tr is not None:
                tr.task_id = i
            elapsed, rc = run_in_process(task.argv + ["--out", str(out)])
            tally.add(task, out, rc)
            wall += elapsed
        return wall

    def pair():
        nonlocal last
        untraced.append(one_pass(None))
        tr = tracer.Tracer()
        undo = tracer.patch(tr)
        try:
            traced.append(one_pass(tr))
        finally:
            tracer.unpatch(undo)
        summaries.append(tr.summary())
        last = tr

    _passes(seconds, pair)
    last.save(spans_path)
    for key in summaries[0]:
        metrics[key] = statistics.median(s[key] for s in summaries)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    samples = {"passes_untraced": len(untraced), "passes_traced": len(traced),
               "importtime": IMPORTTIME_REPEATS}
    return metrics, samples, {"tracer_exact": tracer_ok, "counts": counts}


# --------------------------------------------------------------------------
# environment and reporting


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import scipy

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "threads": PINNED_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def counts_of(samples: dict) -> dict:
    """Sample counts of each measured quantity, for the report."""
    return {k: counts_of(v) if isinstance(v, dict) else len(v) if isinstance(v, list) else v
            for k, v in samples.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_source()
    deadline = time.perf_counter() + RUN_LIMIT_S

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tasks = WORKLOADS[args.workload](args.seed, work / "inputs")
    tally = Tally()
    extra = {}
    if args.trace:
        metrics, samples, extra = measure_traced(tasks, work, args.seconds, deadline, tally,
                                                 WORK / f"spans-{run_id}.npz")
        units = per_layer_units()
    else:
        metrics, samples = measure_end_to_end(tasks, work, args.seconds, deadline, tally)
        units = END_TO_END
    shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    (WORK / f"result-{run_id}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "samples": samples,
         "failures": tally.messages, "environment": env, **extra}, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:14.6g} {unit}")
    print(f"  {'failed_frac':48s} {tally.failed / max(1, tally.attempted):14.6g} "
          f"({tally.failed} of {tally.attempted} attempted)")
    print(f"  samples: {json.dumps(counts_of(samples))}")
    for name, r in extra.get("counts", {}).items():
        print(f"  tracer self-test {name}: traced {r['traced']}, profiled {r['profiled']}, "
              f"first baseline {r['frozen']}")
    for m in tally.messages:
        print(f"  FAILED {m}")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
