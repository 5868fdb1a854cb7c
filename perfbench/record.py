"""Record a benchmark trajectory point: ten seeded runs of every workload.

    python3 perfbench/record.py --out perfbench/baseline.json

Runs ``run.py`` with --trace 0 for seeds 1 to 10 on every workload of
BENCHMARK.json, for its ``run_seconds``, then once with --trace 1 on seed 1,
one process at a time, and writes every result with, per end-to-end metric,
the median and the quartile spread (``statistics.quantiles(values, n=4)``,
(q3 - q1) / median) over the seeds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"seed": seed, "trace": trace, **details, "result": result}


def spread(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    record = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        record["workloads"][workload] = {
            "spread": spread(runs),
            "runs": runs,
            "traced": run_once(workload, SEEDS[0], seconds, 1),
        }
        for name, s in record["workloads"][workload]["spread"].items():
            print(f"{workload:10s} {name:14s} median {s['median']:14.4f} spread {s['spread']:.4f}",
                  file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
