"""Fresh-interpreter set-up probe, run as a child process by ``run.py``.

    python3 perfbench/bench_setup.py <workload> <arg>...

Imports mlds, derives the ring tables, prepares the workload's input (parses
the key for hot-key) and completes one operation, then prints one JSON line:
the ``time.monotonic_ns()`` reading at the end, so the parent can measure from
before it started this interpreter, and the time of each phase.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> None:
    workload, args = argv[0], argv[1:]
    t0 = time.perf_counter_ns()
    import mlds.cli  # noqa: F401  (imports every layer)
    from mlds import codec, estimator, scheme
    from mlds.params import DEFAULT_PARAMS
    from mlds.ring import get_ring

    t1 = time.perf_counter_ns()
    ring = get_ring(DEFAULT_PARAMS)
    t2 = time.perf_counter_ns()
    if workload == "hot-key":
        pk = codec.parse_pk(bytes.fromhex(args[0]), ring)
        sk = codec.parse_sk(bytes.fromhex(args[1]), ring)
        t3 = time.perf_counter_ns()
        scheme.sign(sk, pk, b"first", bytes(32), DEFAULT_PARAMS, scheme.Z2_DERIVED)
    elif workload == "cold-keys":
        master = bytes.fromhex(args[0])
        t3 = time.perf_counter_ns()
        scheme.measure_agreement(1, DEFAULT_PARAMS, scheme.Z2_DERIVED, master)
    elif workload == "estimate":
        inst = estimator.LweInstance.from_binomial(int(args[0]), DEFAULT_PARAMS.q, int(args[1]))
        t3 = time.perf_counter_ns()
        estimator.primal_cost(inst)
        estimator.dual_cost(inst)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    end_ns = time.monotonic_ns()
    t4 = time.perf_counter_ns()
    print(json.dumps({
        "end_ns": end_ns, "import_ms": (t1 - t0) / 1e6, "derive_ms": (t2 - t1) / 1e6,
        "prepare_ms": (t3 - t2) / 1e6, "first_op_ms": (t4 - t3) / 1e6,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
