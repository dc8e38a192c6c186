"""qreflect benchmark: in-process ``analyze`` streams and the invariant suite.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-small --seed 1 --seconds 20 --trace 0

One client drives the public API from this process in a closed loop: the
next operation starts when the previous one returns.  An operation is one
``cli.main(["analyze", FILE, ...])`` call for the ``analyze-*`` workloads
and one ``properties.run_suite(seed, PROP_TRIALS)`` call for ``prop``.
Inputs are generated from ``--seed`` before timing starts, and every output
is checked against an independent numpy oracle after timing ends.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced windows, reports the per-layer
metrics of the traced windows and the tracing overhead, and adds a sweep
of single layer calls at n = 1..6.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One client and matrices of dimension <= 64: extra BLAS threads add noise,
# not speed.  OpenBLAS reads these when numpy is imported, so they are set
# before the imports below.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARIABLES, str(BLAS_THREADS)))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hostref  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from sweep import layer_sweep  # noqa: E402

WINDOWS = 10
SETUP_RUNS = 9
PROP_TRIALS = 8
PROP_SEEDS = 128
# (qubit count, files per mode and format): the larger n carries most of the time.
ANALYZE_QUBITS = {"analyze-small": ((2, 2), (3, 4)), "analyze-large": ((5, 2), (6, 4))}

LAYER_TARGETS = {
    "cli.": "latency_p50_ms on analyze-small",
    "io.": "ops_per_s on analyze-large",
    "stokes.to_stokes": "ops_per_s on analyze-small, latency_p50_ms on prop",
    "stokes.from_stokes": "ops_per_s on analyze-small, latency_p50_ms on prop",
    "stokes.valid": "ops_per_s on analyze-small",
    "reflections.": "latency_p50_ms on analyze-small and prop",
    "linalg.": "ops_per_s on analyze-large",
    "criteria.": "ops_per_s on analyze-small and analyze-large",
    "states.": "latency_p50_ms on prop",
    "properties.": "latency_p50_ms on prop",
    "trace.": "tracing cost, no end-to-end metric",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("analyze-small", "analyze-large", "prop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class AnalyzeWorkload:
    """Generated state files, half ``hermitian`` and half ``stokes``."""

    def __init__(self, qubits, rng, workdir):
        from qreflect import cli

        self.cli = cli
        cases = []
        for n, copies in qubits:
            for mode in oracle.MODES:
                for fmt in oracle.FORMATS:
                    for _ in range(copies):
                        m = oracle.random_state(n, mode, rng)
                        raw = json.dumps(oracle.state_document(m, n, fmt)).encode()
                        path = workdir / f"state{len(cases):03d}_n{n}_{mode}_{fmt}.json"
                        path.write_bytes(raw)
                        cases.append(oracle.analyze_case(str(path), n, mode, m, raw))
        self.items = [cases[k] for k in rng.permutation(len(cases))]
        self.warmup = self.items

    def op(self, case):
        return run_cli(self.cli, case["args"])

    def check(self, case, out) -> list[str]:
        return oracle.check_analyze(case, *out)


class PropWorkload:
    """``run_suite`` on seeds drawn from the workload seed."""

    def __init__(self, rng):
        from qreflect import properties

        self.properties = properties
        self.items = [int(s) for s in rng.integers(0, 2**31, size=PROP_SEEDS)]
        self.warmup = self.items[:4]

    def op(self, seed):
        return self.properties.run_suite(seed, PROP_TRIALS)

    def check(self, seed, results) -> list[str]:
        return oracle.check_suite(results)


def timed_loop(workload, seconds, tracer=None):
    """Closed loop over ``WINDOWS`` equal windows; odd windows traced if asked.

    Each output is checked right after its operation, outside the timed
    region, so memory stays flat however many operations a run completes.
    Every ``hostref.EVERY_S`` seconds, between operations, the reference
    kernel is timed, and each operation's time is also given in nominal
    seconds from the two kernel bursts around it.

    Returns per-window lists of wall and of nominal times, the number of
    failed operations and the kernel burst times.
    """
    items = workload.items
    latencies = [[] for _ in range(WINDOWS)]
    segments = [[] for _ in range(WINDOWS)]
    bursts = [hostref.burst()]
    next_burst = perf_counter() + hostref.EVERY_S
    failed = 0
    k = 0
    start = perf_counter()
    for w in range(WINDOWS):
        traced = tracer is not None and w % 2 == 1
        if traced:
            tracer.install()
        end = start + seconds * (w + 1) / WINDOWS
        while True:
            item = items[k % len(items)]
            k += 1
            if traced:
                tracer.active = True
            t0 = perf_counter()
            try:
                out = workload.op(item)
                problems = None
            except Exception as exc:  # counted as a failed operation
                problems = [f"raised {exc!r}"]
            t1 = perf_counter()
            if traced:
                tracer.active = False
            latencies[w].append(t1 - t0)
            segments[w].append(len(bursts) - 1)
            if problems is None:
                problems = workload.check(item, out)
            if problems:
                failed += 1
                if failed <= 5:
                    print(f"failed op: {problems}", file=sys.stderr)
            if perf_counter() >= next_burst:
                bursts.append(hostref.burst())
                next_burst = perf_counter() + hostref.EVERY_S
            if t1 >= end:
                break
        if traced:
            tracer.uninstall()
    bursts.append(hostref.burst())
    nominal = [
        [hostref.nominal(t, bursts[s], bursts[s + 1]) for t, s in zip(window, segs)]
        for window, segs in zip(latencies, segments)
    ]
    return latencies, nominal, failed, bursts


def rate(windows) -> float:
    """Closed-loop throughput: operations over the time spent in them."""
    return sum(map(len, windows)) / sum(map(sum, windows))


def run_cli(cli, argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def paper_identities(seed: int) -> list[str]:
    """Table 1 counts, the UPB chain and the failing negative control."""
    from qreflect import cli

    problems = oracle.check_table1(json.loads(run_cli(cli, ["table1"])[1]))
    problems += oracle.check_upb_demo(json.loads(run_cli(cli, ["upb-demo"])[1]))
    rc, text = run_cli(cli, ["prop", "--inject-mask-corruption", "--trials", "5", "--seed", str(seed)])
    return problems + oracle.check_negative_control(rc, json.loads(text))


def measure_setup() -> tuple[float, float, list[str]]:
    """Median time of a fresh ``python -m qreflect table1`` process.

    Returns the median in nominal seconds, the median wall time and any
    problems with the output.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "qreflect", "table1"]
    times, nominal, problems = [], [], []
    for k in range(SETUP_RUNS + 1):
        before = hostref.burst()
        t0 = perf_counter()
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - t0
        after = hostref.burst()
        if proc.returncode != 0:
            problems.append(f"table1 exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
            continue
        problems += oracle.check_table1(json.loads(proc.stdout))
        if k:  # the first run fills the bytecode and file caches
            times.append(elapsed)
            nominal.append(hostref.nominal(elapsed, before, after))
    if not times:
        raise RuntimeError(f"no set-up run succeeded: {problems}")
    return statistics.median(nominal), statistics.median(times), problems


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it exposes one."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def p50_p90(values) -> tuple[float, float]:
    deciles = statistics.quantiles(values, n=10) if len(values) > 1 else values * 9
    return statistics.median(values), deciles[8]


def end_to_end(nominal, attempted, failed, setup_s) -> dict:
    p50, p90 = p50_p90([x for window in nominal for x in window])
    return {
        "ops_per_s": rate(nominal),
        "latency_p50_ms": 1000.0 * p50,
        "latency_p90_ms": 1000.0 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_ratio": (attempted - failed) / attempted,
        "setup_s": setup_s,
    }


def per_layer(tracer, nominal, invariant_metrics, seed, workdir) -> dict:
    traced = nominal[1::2]
    metrics = tracing.layer_metrics(tracer, sum(map(len, traced)), invariant_metrics)
    metrics["trace.overhead_ratio"] = rate(traced) / rate(nominal[0::2])
    metrics.update(layer_sweep(seed, workdir))
    return metrics


def target(name: str) -> str:
    return next((t for prefix, t in LAYER_TARGETS.items() if name.startswith(prefix)), "")


def run(args, spec, workdir) -> dict:
    env = environment(args)
    print("environment " + json.dumps(env, sort_keys=True))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload}: {why}")

    rng = np.random.default_rng(args.seed)
    if args.workload == "prop":
        workload = PropWorkload(rng)
    else:
        workload = AnalyzeWorkload(ANALYZE_QUBITS[args.workload], rng, workdir)
    problems = paper_identities(args.seed)
    setup_s = None
    if not args.trace:
        setup_s, setup_wall_s, setup_problems = measure_setup()
        problems += setup_problems
    for item in workload.warmup:
        workload.op(item)

    tracer = tracing.Tracer() if args.trace else None
    latencies, nominal, failed, bursts = timed_loop(workload, args.seconds, tracer)
    attempted = sum(map(len, latencies))
    for problem in problems:
        print(f"paper identity or set-up check failed: {problem}", file=sys.stderr)
    print(f"ops attempted={attempted} failed={failed} ops_failed_ratio={failed / attempted:g} "
          f"(closed loop, 1 client, {WINDOWS} windows)")
    p50, p90 = p50_p90([x for window in latencies for x in window])
    wall = f"wall clock: ops_per_s={rate(latencies):.6g} latency_p50_ms={1000 * p50:.6g} latency_p90_ms={1000 * p90:.6g}"
    if setup_s is not None:
        wall += f" setup_s={setup_wall_s:.6g}"
    print(f"{wall}; reference kernel median {1000 * statistics.median(bursts):.6g} ms over {len(bursts)} bursts "
          f"(metrics below are in nominal time, where the kernel takes {1000 * hostref.NOMINAL_S:g} ms)")

    if args.trace:
        listed = spec["per_layer"]
        invariant_metrics = [m["name"] for m in listed if m["name"].startswith("properties.")]
        values = per_layer(tracer, nominal, invariant_metrics, args.seed, workdir)
    else:
        listed = spec["end_to_end"]
        values = end_to_end(nominal, attempted, failed, setup_s)
    names = [m["name"] for m in listed]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = f"  -> {target(m['name'])}" if args.trace else ""
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}{note}")
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qreflect" / "__init__.py").is_file():
        print(f"error: no qreflect sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import qreflect

    if Path(qreflect.__file__).resolve().parent != SRC / "qreflect":
        print(f"error: imported qreflect from {qreflect.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
