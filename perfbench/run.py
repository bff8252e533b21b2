"""qruler benchmark runner.

    python3 perfbench/run.py --workload wk-pairs --seed 1 --seconds 20 --trace 0

Runs one workload from ``workloads.py`` in this process: a closed loop with
one caller, in whole cycles, for at least ``--seconds`` and at least
``MIN_CYCLES`` cycles.  Every op's result is checked against the package's
own gates.  Timings are taken per cycle and reported as the mid-decile
over the run's cycles (see ``mid_decile``); ``setup_s`` is the median
import time (this process and fresh interpreters) plus the median of
``SETUP_REPEATS`` set-ups.  With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates traced and untraced
cycles and reports the per-layer metrics from the spans of ``spans.py``,
plus the tracing overhead; one traced cycle of each other workload then
covers the layers this one never calls.  The last line of stdout is the JSON result;
a full report (metadata, sample counts, per-op times, failures) and, when tracing, the
spans go to ``perfbench/out/``.

Run it from the root of a source checkout: it imports qruler from
``src/`` there and nowhere else.
"""

import os
import sys
import time

PROCESS_T0 = time.perf_counter()

# The BLAS/OpenMP pool is fixed before numpy loads, at one thread on every
# commit, so runs measure the program rather than the thread scheduler.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import qruler  # noqa: E402

if not Path(qruler.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"qruler was imported from {qruler.__file__}, not from {SRC}")

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - PROCESS_T0

# What a fresh interpreter imports before the first op, timed like IMPORT_S.
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import numpy, scipy, qruler, spans, workloads; print(time.perf_counter() - t0)"
)

MIN_CYCLES = 100     # so that each decile has at least ten cycles beyond it
SETUP_REPEATS = 5    # imports and set-ups per untraced run; setup_s takes the median of each
MAX_ERRORS = 5       # failure messages kept in the report


class Side:
    """Tally of one side of a run: all cycles (untraced), or traced/untraced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cycle_s: list[float] = []
        self.op_ms: list[float] = []
        self.cycle_op_ms: list[list[float]] = []
        self.errors: list[str] = []

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    def op_rate(self, cycle: int) -> float:
        """Ops per second of the mid-decile cycle time."""
        return cycle / mid_decile(self.cycle_s)

    def throughput(self, cycle: int) -> float:
        """Passed ops per second: the pass ratio times ``op_rate``."""
        return self.passed / self.attempted * self.op_rate(cycle)

    def op_percentile(self, q: float) -> float:
        """Mid-decile over the cycles of each cycle's ``q``-th op-time percentile."""
        return mid_decile([np.percentile(ops, q) for ops in self.cycle_op_ms])

    def add(self, other: "Side") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    def fail(self, i, reason) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"op {i}: {reason}")


def mid_decile(values) -> float:
    """The mean of the 10th and 90th percentiles of per-cycle values.

    A cycle visits every input class once, so it is the unit that timing
    statistics are taken over.  On a 2-vCPU VM that shares its host, cycle
    times switch every few seconds between a faster and a slower state
    (about 1.5x apart), and the share of a run spent in each varies from
    none to all of it.  A quantile near that share (the median, the upper
    quartile) flips between the states from run to run.  The lower decile
    stays in the faster state unless a run has almost none of it, which
    happens while the host is busy; the upper decile stays in the slower
    state unless a run has almost none of it, which happens while the host
    is quiet.  Their mean moves half as far when either one flips.
    """
    return float(np.percentile(values, 10) + np.percentile(values, 90)) / 2.0


def run_op(wl, i, side, tracer=None, op_id=None) -> None:
    """One closed-loop op: inputs, the timed calls, then the gate.

    An op that raises, in its calls or in its gate, is a failed op, not a crash.
    """
    x = wl.inputs(i)
    side.attempted += 1
    span = (contextlib.nullcontext() if tracer is None
            else tracer.op_span(i if op_id is None else op_id))
    t0 = time.perf_counter()
    try:
        try:
            with span:
                out = wl.run(x)
        finally:
            side.op_ms.append((time.perf_counter() - t0) * 1e3)
        reason = wl.check(x, out)
    except Exception as exc:
        reason = f"{type(exc).__name__}: {exc}"
    if reason is not None:
        side.fail(i, reason)


def set_up(wl, tracer=None) -> Side:
    """Build the shared state, then warm up with one full cycle of ops."""
    wl.setup()
    warm = Side()
    for i in range(wl.cycle):
        run_op(wl, i, warm, tracer, op_id=spans.WARMUP)
    return warm


def measure(wl, seconds, tracer=None) -> list[Side]:
    """Closed loop over whole cycles until ``seconds`` and ``MIN_CYCLES`` are met.

    Untraced: one side.  Traced: cycles alternate between the tracer
    installed (side 0) and uninstalled (side 1), ending on an even count,
    so the two sides see the same input classes and machine state.
    """
    sides = [Side()] if tracer is None else [Side(), Side()]
    i = 0
    block = 0
    start = time.perf_counter()
    while True:
        side = sides[block % len(sides)]
        traced = tracer is not None and block % 2 == 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        for _ in range(wl.cycle):
            run_op(wl, i, side, tracer if traced else None)
            i += 1
        side.cycle_s.append(time.perf_counter() - t0)
        side.cycle_op_ms.append(side.op_ms[-wl.cycle:])
        if traced:
            tracer.uninstall()
        block += 1
        if (block % len(sides) == 0 and block >= MIN_CYCLES
                and time.perf_counter() - start >= seconds):
            return sides


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info() -> dict:
    """BLAS vendor from numpy's build config, thread count as OpenBLAS reports it."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"vendor": blas.get("name"), "version": blas.get("version"),
            "threads_set": BLAS_THREADS, "threads_reported": None}
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads_reported"] = fn()
                return info
    return info


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def metadata(args, wl) -> dict:
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qruler": qruler.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "src_lines": src_lines(),
        "callers": 1,
        "loop": "closed",
    }
    if hasattr(wl, "digests"):
        meta["artifact_sha256"] = wl.digests
    return meta


def import_times() -> list[float]:
    """This process's import time, then that of SETUP_REPEATS - 1 fresh interpreters."""
    times = [IMPORT_S]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(ROOT / "perfbench")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(probe.stdout))
    return times


def end_to_end(wl, args) -> tuple[dict, Side, Side]:
    setups = []
    warm = Side()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        warm.add(set_up(wl))
        setups.append(time.perf_counter() - t0)
    (side,) = measure(wl, args.seconds)
    p50, p90 = side.op_percentile(50), side.op_percentile(90)
    n = len(side.op_ms)
    metrics = {
        "throughput_ops_s": (side.throughput(wl.cycle), side.passed),
        "op_ms.p50": (p50, n),
        "op_ms.p90": (p90, n),
        "setup_s": (statistics.median(import_times()) + statistics.median(setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "fail_ratio": (side.failed / side.attempted, side.attempted),
    }
    return metrics, side, warm


def cover_layers(wl, tracer) -> Side:
    """Set-up and one traced cycle of every other workload, after the timed phase.

    A layer that ``wl`` never calls takes its per-layer value from these
    spans, so every per-layer metric is measured on every workload.
    """
    side = Side()
    for name, cls in WORKLOADS.items():
        if name == wl.name:
            continue
        other = cls(wl.seed)
        with tracer.recording(f"{spans.COVER}{name}-setup"):
            side.add(set_up(other, tracer))
            for i in range(other.cycle):
                run_op(other, i, side, tracer, op_id=f"{spans.COVER}{name}-{i}")
    return side


def per_layer(wl, args, names) -> tuple[dict, Side, Side, dict]:
    tracer = spans.Tracer()
    with tracer.recording("setup"):
        warm = set_up(wl, tracer)
    traced, untraced = measure(wl, args.seconds, tracer)
    warm.add(cover_layers(wl, tracer))
    metrics, source = spans.layer_metrics(tracer, names)
    t_tput = traced.throughput(wl.cycle)
    u_tput = untraced.throughput(wl.cycle)
    metrics["trace.traced_ops_s"] = (t_tput, traced.passed)
    metrics["trace.untraced_ops_s"] = (u_tput, untraced.passed)
    metrics["trace.overhead_pct"] = ((u_tput / t_tput - 1.0) * 100.0, traced.passed)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"))
    side = Side()
    side.add(traced)
    side.add(untraced)
    return metrics, side, warm, source


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    os.chdir(ROOT)  # the CLI workload writes below perfbench/out, relative to here
    shutil.rmtree(OUT / "cli-readme", ignore_errors=True)

    wl = WORKLOADS[args.workload](args.seed)
    source = {}
    if args.trace:
        metrics, side, warm, source = per_layer(wl, args, [m["name"] for m in wanted])
    else:
        metrics, side, warm = end_to_end(wl, args)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"runner did not produce {missing}")
    units = {m["name"]: m["unit"] for m in wanted}
    units["fail_ratio"] = "ratio"
    report = {
        "metadata": metadata(args, wl),
        "metrics": {k: {"value": v, "unit": units[k], "samples": n,
                        **({"from": source[k]} if k in source else {})}
                    for k, (v, n) in metrics.items()},
        "attempted": side.attempted,
        "failed": side.failed,
        "warmup_failed": warm.failed,
        "errors": warm.errors + side.errors,
        "cycle": wl.cycle,
        "op_ms": side.op_ms,
        "claim": None,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={side.attempted} failed={side.failed}")
    for k, entry in report["metrics"].items():
        print(f"  {k:<44} {entry['value']:>14.6g} {entry['unit']:<15} n={entry['samples']}"
              + (" (coverage)" if entry.get("from") == "coverage" else ""))
    for err in report["errors"]:
        print(f"  FAIL {err}")
    print("metadata: " + json.dumps(report["metadata"], separators=(",", ":")))
    result = {
        "correct": side.failed == 0 and warm.failed == 0,
        "attempted": side.attempted,
        "failed": side.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
