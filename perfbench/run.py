"""mlds benchmark: one workload in one process, with one BLAS thread.

    python3 perfbench/run.py --workload hot-key --seed 1 --seconds 30 --trace 0

Run it from the repository root; mlds is imported from ./src. The last line
of stdout is one JSON object with the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1); the line before it holds
the run context, sample counts and the raw (uncalibrated) times. Every output
of the program is checked, and a wrong one is counted in ``failed``, so
``failed / attempted`` is the failed fraction of the run.

Times are reported in reference units (``ref_us``, ``ref_s``; see
bench_calibration.py): measured time scaled by the calibration kernel's time
in the same run, so that a busy neighbour on a shared host does not read as a
regression. Each workload has two kinds of operation, op_a and op_b:

    hot-key    z2 sign to wire bytes      / parse_sig + verify    (per call)
    cold-keys  z2 keygen+sign+verify cycle / literal-policy cycle  (per cycle,
               inside measure_agreement batches)
    estimate   primal_cost                / dual_cost             (per call)

``ops_per_s`` counts calls, cycles or attack estimates per reference second
of program time. ``setup_s`` is the median time from starting a fresh
interpreter to the end of its first operation (bench_setup.py), over set-ups
spread across the run, in seconds on a host where starting an interpreter
and importing numpy takes REF_STARTUP_S (see SetupProbe). ``peak_rss_mb`` is this
process's peak resident set; on estimate it includes the calibration's 64 MiB
flush buffer.

The traced run installs spans around every layer entry point
(bench_trace.py), runs the workload for half of --seconds, replays the same
requests untraced to measure the tracing overhead and the latency tails,
then runs a fixed-input probe of every layer for per-call costs. Its spans
are written to perfbench/out/.
"""

import os

# Pin BLAS to one thread before anything imports numpy.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from bench_calibration import REF_US, Calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
REFERENCE_COMMAND = [sys.executable, "-c", "import time, numpy; print(time.monotonic_ns())"]
REF_STARTUP_S = 0.1  # set-up times are scaled to a host where REFERENCE_COMMAND takes this
LAYERS = ("ring", "sampling", "codec", "scheme", "estimator")
CRH_PROBE_BYTES = 64 * 1024


def _import_mlds() -> None:
    """Make ``import mlds`` load this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import mlds
    except ImportError as exc:
        raise SystemExit(f"error: cannot import mlds from {SRC}: {exc}")
    if SRC not in Path(mlds.__file__).resolve().parents:
        raise SystemExit(f"error: mlds was imported from {mlds.__file__}, not from {SRC}")


@dataclass
class Loop:
    latencies: dict  # kind -> reference ns per unit operation, one entry per request
    raw_latencies: dict  # kind -> measured ns per unit operation
    calibration: Calibration = field(default_factory=Calibration)
    busy_ns: int = 0
    busy_ref_ns: float = 0.0
    attempted: int = 0
    failed: int = 0
    groups: int = 0


def drive(workload, groups, seconds=None, tracer=None, setup=None) -> Loop:
    """Closed loop: run whole groups until they run out or ``seconds`` have passed.

    ``setup`` set-ups run between groups as they fall due; their time does not
    count against ``seconds``."""
    loop = Loop({kind: [] for kind in workload.kinds}, {kind: [] for kind in workload.kinds},
                Calibration(workload.flush_bytes))
    clock = time.perf_counter_ns
    start = clock()
    paused = 0
    for group in groups:
        if setup is not None:
            paused += setup.run_due((clock() - start - paused) / (seconds * 1e9))
        for req in group:
            inp = req.make()
            with tracer.operation(req.kind) if tracer else contextlib.nullcontext():
                t0 = clock()
                out = req.call(inp)
                t1 = clock()
            loop.failed += req.check(inp, out)
            scale = loop.calibration(t1 - t0)
            loop.raw_latencies[req.kind].append((t1 - t0) / req.units)
            loop.latencies[req.kind].append((t1 - t0) / req.units * scale)
            loop.attempted += req.units
            loop.busy_ns += t1 - t0
            loop.busy_ref_ns += (t1 - t0) * scale
        loop.groups += 1
        if seconds is not None and clock() - start - paused >= seconds * 1e9:
            break
    if setup is not None:
        setup.run_due(1.0)
    return loop


class SetupProbe:
    """Fresh-interpreter set-ups (bench_setup.py), spread evenly over the
    measured loop so that their median samples the host over the whole run.

    Each set-up runs between two reference children that start the same
    interpreter and import numpy, and its time is scaled by theirs: set-up
    is mostly interpreter start and imports, which the calibration kernel
    does not track, while the reference children slow down with it."""

    def __init__(self, workload, runs: int):
        self.command = [sys.executable, str(HERE / "bench_setup.py"),
                        workload.name, *workload.setup_args()]
        self.runs = runs
        self.samples: list[dict] = []

    def run_due(self, progress: float) -> int:
        """Run the set-ups due at ``progress`` (0 to 1) of the loop; return the ns spent."""
        t0 = time.perf_counter_ns()
        while len(self.samples) < self.runs and len(self.samples) <= progress * (self.runs - 1):
            before = _child_s(REFERENCE_COMMAND)
            start = time.monotonic_ns()
            rec = json.loads(_child_output(self.command))
            rec["measured_s"] = (rec.pop("end_ns") - start) / 1e9
            rec["reference_s"] = (before + _child_s(REFERENCE_COMMAND)) / 2
            rec["setup_s"] = rec["measured_s"] * REF_STARTUP_S / rec["reference_s"]
            self.samples.append(rec)
        return time.perf_counter_ns() - t0

    def medians(self) -> dict:
        return {key: statistics.median(r[key] for r in self.samples) for key in self.samples[0]}


def _child_output(command: list[str]) -> str:
    """Last stdout line of ``command``."""
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    return proc.stdout.strip().splitlines()[-1]


def _child_s(command: list[str]) -> float:
    """Seconds from starting ``command`` to the monotonic_ns() reading it prints."""
    start = time.monotonic_ns()
    return (int(_child_output(command)) - start) / 1e9


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def run_context(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mlds").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def _git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def end_to_end(workload, seconds: float, setup_runs: int):
    groups = workload.groups()
    warm = drive(workload, itertools.islice(groups, workload.warmup_groups))
    probe = SetupProbe(workload, setup_runs)
    main = drive(workload, groups, seconds, setup=probe)
    setup = probe.medians()
    a, b = workload.kinds
    raw = {
        "op_a_us.p50": statistics.median(main.raw_latencies[a]) / 1e3,
        "op_b_us.p50": statistics.median(main.raw_latencies[b]) / 1e3,
        "ops_per_s": main.attempted / (main.busy_ns / 1e9),
        "kernel_us": main.calibration.kernel_us(),
    }
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "op_a.p50": (statistics.median(main.latencies[a]) / 1e3, "ref_us"),
        "op_b.p50": (statistics.median(main.latencies[b]) / 1e3, "ref_us"),
        "ops_per_s": (main.attempted / (main.busy_ref_ns / 1e9), "1/ref_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {kind: len(main.latencies[kind]) for kind in workload.kinds}
    return metrics, [warm, main], samples, {**raw, "setup": setup}


def per_layer(workload_cls, seed: int, seconds: float, setup_runs: int):
    from bench_trace import OP_LAYER, Summary, Tracer, instrument, write_spans
    from bench_workloads import layer_probe
    from mlds import sampling
    from mlds.params import DEFAULT_PARAMS
    from mlds.ring import get_ring

    workload = workload_cls(seed)
    groups = workload.groups()
    warm = drive(workload, itertools.islice(groups, workload.warmup_groups))
    tracer = Tracer()
    setup_probe = SetupProbe(workload, setup_runs)
    with instrument(tracer):
        traced = drive(workload, groups, seconds / 2, tracer, setup_probe)
    setup = setup_probe.medians()

    # The same requests again, untraced: the overhead is the difference.
    replay_workload = workload_cls(seed)
    replay_groups = replay_workload.groups()
    replay_warm = drive(replay_workload, itertools.islice(replay_groups, workload.warmup_groups))
    replay = drive(replay_workload, itertools.islice(replay_groups, traced.groups))

    probe_tracer = Tracer()
    with instrument(probe_tracer), probe_tracer.operation("probe"):
        probe_attempted, probe_failed = layer_probe()
    message = bytes(CRH_PROBE_BYTES)
    crh_ns = []
    for _ in range(16):
        t0 = time.perf_counter_ns()
        sampling.crh(message)
        crh_ns.append(time.perf_counter_ns() - t0)

    run = Summary(tracer.spans)
    probe = Summary(probe_tracer.spans)
    scale = REF_US / replay.calibration.kernel_us()  # measured just before the probe
    units = traced.attempted

    def probe_us(name: str, self_time: bool = False) -> float:
        return probe.median_us(name, self_time) * scale

    forward = get_ring(DEFAULT_PARAMS).constants.forward
    n = DEFAULT_PARAMS.n
    a, b = workload.kinds
    metrics = {
        "params.derive_ms": (setup["derive_ms"], "ms"),
        "cli.import_ms": (setup["import_ms"], "ms"),
        "ring.ntt_us": (probe_us("ring.ntt"), "ref_us"),
        "ring.intt_us": (probe_us("ring.intt"), "ref_us"),
        "ring.matvec_us": (probe_us("ring.matvec"), "ref_us"),
        "ring.inner_product_us": (probe_us("ring.inner_product"), "ref_us"),
        "ring.ntt_calls_per_op": (run.count("ring.ntt") / units, "count"),
        "ring.intt_calls_per_op": (run.count("ring.intt") / units, "count"),
        "ring.transform_bytes": (forward.nbytes + 2 * n * forward.itemsize, "B"),
        "ring.transform_ops": (2 * n * n, "count"),
        "sampling.gen_a_us": (probe_us("sampling.gen_a"), "ref_us"),
        "sampling.gen_a_calls_per_op": (run.count("sampling.gen_a") / units, "count"),
        "sampling.gen_se_us": (probe_us("sampling.gen_se"), "ref_us"),
        "sampling.gen_se_calls_per_op": (run.count("sampling.gen_se") / units, "count"),
        "sampling.crh_us_per_kib": (
            statistics.median(crh_ns) / 1e3 * scale / (CRH_PROBE_BYTES / 1024), "ref_us/KiB"),
        "codec.parse_sig_us": (probe_us("codec.parse_sig"), "ref_us"),
        "codec.parse_pk_us": (probe_us("codec.parse_pk"), "ref_us"),
        "codec.unpack_poly_us": (probe_us("codec.unpack_poly"), "ref_us"),
        "codec.serialize_sig_us": (probe_us("codec.serialize_sig"), "ref_us"),
        "codec.decode_bits_us": (probe_us("codec.decode_bits"), "ref_us"),
        "scheme.keygen_us": (probe_us("scheme.keygen"), "ref_us"),
        "scheme.sign_self_us": (probe_us("scheme.sign", self_time=True), "ref_us"),
        "scheme.verify_self_us": (probe_us("scheme.verify", self_time=True), "ref_us"),
        "estimator.primal_ms": (probe_us("estimator.primal_cost") / 1e3, "ref_ms"),
        "estimator.dual_ms": (probe_us("estimator.dual_cost") / 1e3, "ref_ms"),
        "estimator.grid_cells_per_op": (tracer.grid_cells / units, "count"),
        **{f"{layer}.self_share": (run.self_share(layer), "frac") for layer in LAYERS},
        "unattributed.self_share": (run.self_share(OP_LAYER), "frac"),
        "trace.spans_per_op": ((run.span_count - tracer.ops) / units, "count"),
        "trace.overhead_us_per_op": ((traced.busy_ref_ns - replay.busy_ref_ns) / units / 1e3,
                                     "ref_us"),
        "trace.overhead_frac": (traced.busy_ref_ns / replay.busy_ref_ns - 1, "frac"),
        "op_a.p99": (percentile(replay.latencies[a], 99) / 1e3, "ref_us"),
        "op_b.p99": (percentile(replay.latencies[b], 99) / 1e3, "ref_us"),
        "op_a.samples": (len(replay.latencies[a]), "count"),
        "op_b.samples": (len(replay.latencies[b]), "count"),
    }
    write_spans(HERE / "out" / f"spans-{workload.name}-seed{seed}.json.gz", tracer.spans)
    probe_loop = Loop({}, {}, attempted=probe_attempted, failed=probe_failed)
    samples = {kind: len(replay.latencies[kind]) for kind in workload.kinds}
    raw = {"kernel_us": replay.calibration.kernel_us(),
           "traced_kernel_us": traced.calibration.kernel_us(), "setup": setup}
    return metrics, [warm, traced, replay_warm, replay, probe_loop], samples, raw


def run(workload_name: str, seed: int, seconds: float, trace: bool, setup_runs: int = SETUP_RUNS):
    """One benchmark run; returns (result, details) with result in the printed form."""
    _import_mlds()
    from bench_workloads import WORKLOADS, kat_gate

    context = run_context(workload_name, seed)
    workload_cls = WORKLOADS[workload_name]
    workload = workload_cls(seed)
    tallies = [kat_gate(), workload.setup_checks()]
    if trace:
        metrics, loops, samples, raw = per_layer(workload_cls, seed, seconds, setup_runs)
    else:
        metrics, loops, samples, raw = end_to_end(workload, seconds, setup_runs)
    tallies += [(loop.attempted, loop.failed) for loop in loops]
    attempted = sum(t[0] for t in tallies)
    failed = sum(t[1] for t in tallies)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {"context": context, "samples": samples, "raw": raw}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("hot-key", "cold-keys", "estimate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
