#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``stablevar``.

Usage, from the root of a checkout:

    python3 stablebench/run.py --workload mc_paper --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``mc_paper`` (paper-grid Monte Carlo),
``diagnose_n1000`` (``run_pipeline`` with default diagnostics) and
``cli_long`` (CLI simulate + estimate on a 100,000-row series). One
client runs one operation at a time in a closed loop, in this process,
with ``workers = 1``.

Each run builds its inputs from ``--seed``, runs one untimed warm-up
operation at reduced size, then times operations until ``--seconds`` of
operation time is used up. Every
operation's parsed outputs are checked against the stored reference for
the seed (``refs/``, see ``gate.py``) and against the true model; an
operation that raises or misses a tolerance counts as failed.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh processes of importing stablevar with numpy and scipy and building
the inputs), ``op_s`` (median wall time of one operation), ``work_per_s``
and ``peak_rss_mb``. ``--trace 1`` alternates untraced and traced
operations and prints per-layer metrics per traced operation (see
``tracer.py``). The last line of standard output is the JSON result;
machine facts and readable metric lines come before it. Exit code 2
means the benchmark could not run (for example, no ``src/stablevar``).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
DEFAULT_SEED = 0
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def machine_facts(workload, seed: int) -> dict:
    import numpy
    import scipy
    from workloads import sv

    return {
        "workload": workload.name,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "stablevar_numba_enabled": getattr(sv, "NUMBA_ENABLED", None),
        "openblas_threads": _openblas_threads(),
        "sizes": {k: v for k, v in vars(workload.full).items() if v},
        "work_unit": workload.work_unit,
    }


class Runner:
    """Runs operations of one workload and gates their outputs."""

    def __init__(self, workload, sizes, inputs, reference):
        self.workload = workload
        self.sizes = sizes
        self.inputs = inputs
        self.reference = reference
        self.reference_source = "stored" if reference is not None else None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, outputs) -> list:
        problems = self.workload.sanity(outputs, self.sizes)
        if self.reference is None and not problems:
            # no stored reference for this seed: later ops must match the first
            self.reference = outputs
            self.reference_source = "first operation (no stored reference for this seed)"
        if self.reference is not None:
            problems += gate.compare(outputs, self.reference)
        return problems

    def attempt(self, call) -> float:
        """Run one operation through ``call``, gate it, return its wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:
            wall = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            wall = time.perf_counter() - t0
            try:
                problems = self.check(self.workload.outputs(result))
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return wall


def warm_up(workload, seed: int, workdir: Path) -> None:
    """One untimed op at the reduced size: lazy imports and first-call costs.

    A full-size warm-up would cost a whole diagnose op (about 8 s) per run.
    """
    try:
        workload.op(workload.setup(seed, workload.small, workdir))
    except Exception:
        # the timed ops fail the same way and are counted there
        traceback.print_exc(file=sys.stderr)


def _keep_going(walls, seconds: float) -> bool:
    """Start another op if the median op still fits in the op time left."""
    return not walls or sum(walls) + statistics.median(walls) <= seconds


def setup_probe_s(name: str, seed: int) -> float:
    """Set-up time of one fresh process (see ``setup_probe``)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_untraced(runner, seconds: float, probe) -> dict:
    """Time ops for ``seconds`` of op time; ``probe()`` gives one set-up time.

    The set-up probes are spread evenly over the run, so that a burst of
    load on the machine moves few of them.
    """
    w = runner.workload
    walls, setup_times = [], []
    while _keep_going(walls, seconds):
        while len(setup_times) * seconds < seconds + (SETUP_PROBES - 1) * sum(walls):
            setup_times.append(probe())
        walls.append(runner.attempt(lambda: w.op(runner.inputs)))
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(probe())
    op_s = statistics.median(walls)
    print(f"ops timed: {len(walls)}; op_s min {min(walls):.4f} max {max(walls):.4f}")
    print(f"setup_s probes: {', '.join(f'{t:.4f}' for t in setup_times)}")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s": (op_s, "s"),
        "work_per_s": (w.work_count(runner.sizes) / op_s, "work/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(runner, seconds: float) -> dict:
    w = runner.workload
    tracer = Tracer()
    traced, untraced, cpu = [], [], []

    def traced_op():
        c0 = time.process_time()
        try:
            return tracer.span(w.op, runner.inputs)
        finally:
            cpu.append(time.process_time() - c0)

    while not traced or not untraced or _keep_going(traced + untraced, seconds):
        if len(traced) <= len(untraced):
            with tracer:
                traced.append(runner.attempt(traced_op))
        else:
            untraced.append(runner.attempt(lambda: w.op(runner.inputs)))
    if tracer.absent:
        print(f"absent (reported as 0): {', '.join(tracer.absent)}")
    print(f"ops: {len(traced)} traced, {len(untraced)} untraced")
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    metrics["process.cpu_s"] = (sum(cpu) / len(cpu), "s")
    return metrics


def setup_probe(name: str, seed: int) -> int:
    import workloads  # timed: numpy, scipy and stablevar imports

    w = workloads.WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as d:
        w.setup(seed, w.full, Path(d))
        elapsed = time.perf_counter() - _T0
    print(json.dumps({"setup_s": elapsed}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    w = workloads.WORKLOADS[args.workload]
    print("facts: " + json.dumps(machine_facts(w, args.seed), sort_keys=True))
    WORK_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as d:
            warm_up(w, args.seed, Path(d))
            runner = Runner(w, w.full, w.setup(args.seed, w.full, Path(d)),
                            gate.load_reference(w.name, args.seed))
            if args.trace:
                metrics = run_traced(runner, args.seconds)
            else:
                metrics = run_untraced(
                    runner, args.seconds, lambda: setup_probe_s(w.name, args.seed))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    print(f"reference: {runner.reference_source}")
    for problem in list(dict.fromkeys(runner.problems))[:10]:
        print(f"FAILED CHECK: {problem}")
    fail_rate = runner.failed / runner.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_rate = {fail_rate:.6g} ratio ({runner.failed} of {runner.attempted} ops)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
