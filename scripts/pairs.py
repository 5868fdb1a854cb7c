"""Alternating benchmark pairs: a parent checkout against a changed one.

    python3 scripts/pairs.py --parent ../parent --change . --workload estimate \
        --seed 101 --pairs 10 --seconds 30

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds T`` once in each
checkout, the parent first in even pairs and the change first in odd ones, and
prints every run's end-to-end metrics as it finishes. At the end it prints, for
each end-to-end metric of the change's BENCHMARK.json, both sides' medians and
quartiles, the change's wins over the pairs in the metric's ``better``
direction (ties count for neither side), the change's median relative to the
parent's, and a verdict:

    gain        the change wins at least 9 of 10 pairs and the medians differ
                by more than the parent's interquartile range, in its favour
    worse       the change's median is worse than the parent's by more than
                the metric's bound
    unresolved  the parent's interquartile range, relative to its median, is
                wider than the bound, and not every change run beats every
                parent run
    ok          none of these

Below that it prints both sides' medians and quartiles of the runs' raw times
(``raw.op_a_us.p50``, ``raw.op_b_us.p50`` and the calibration ``raw.kernel_us``,
uncalibrated us), marked informational, with no wins and no verdict: a ref_us move
that the raw op times do not share came from the calibration kernel.

Failed and attempted counts are summed per side. Uses the standard library only
and reads nothing under perfbench/ but the runner's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # the gain rule's share of pairs the change must win
RAW_KEYS = ("op_a_us.p50", "op_b_us.p50", "kernel_us")  # the details' uncalibrated times


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in ``checkout``: its last two stdout lines, parsed, the details
    (context, sample counts, raw times) and the record of end-to-end metrics."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    *_, details, record = out.strip().splitlines()
    return json.loads(details), json.loads(record)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric over (parent, change) record pairs.

    ``end_to_end`` holds BENCHMARK.json's entries (name, better, bound); a record is
    a runner's last stdout line: ``{"attempted", "failed", "metrics": {name: {"value"}}}``.
    """
    rows = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        par = [p["metrics"][name]["value"] for p, _ in pairs]
        chg = [c["metrics"][name]["value"] for _, c in pairs]
        sign = -1 if lower else 1  # sign * (x - y) > 0 when x is better than y
        wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        p_q, c_q = quartiles(par), quartiles(chg)
        iqr = p_q[2] - p_q[0]
        gain = wins >= WIN_SHARE * len(pairs) and sign * (c_q[1] - p_q[1]) > iqr
        change = (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else 0.0
        if sign * change < -spec["bound"]:
            verdict = "worse"
        elif gain:
            verdict = "gain"
        elif iqr > spec["bound"] * abs(p_q[1]) and not all(
                sign * (c - p) > 0 for c in chg for p in par):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({"metric": name, "parent": p_q, "change": c_q, "wins": wins,
                     "pairs": len(pairs), "rel_change": change, "gain_rule": gain,
                     "verdict": verdict})
    return rows


def summarize_raw(pairs: list[tuple[dict, dict]]) -> list[dict]:
    """One informational row per raw time over (parent, change) details pairs: both sides'
    quartiles and the change's median relative to the parent's, no wins and no verdict.

    A details line is a runner's second-to-last stdout line, ``{"raw": {name: value}}``.
    """
    rows = []
    for key in RAW_KEYS:
        p_q = quartiles([p["raw"][key] for p, _ in pairs])
        c_q = quartiles([c["raw"][key] for _, c in pairs])
        rows.append({"metric": f"raw.{key}", "parent": p_q, "change": c_q,
                     "rel_change": (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else 0.0})
    return rows


def failures(records: list[dict]) -> tuple[int, int]:
    """(failed, attempted), summed over runs."""
    return sum(r["failed"] for r in records), sum(r["attempted"] for r in records)


def format_rows(rows: list[dict]) -> str:
    def q(t):
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"
    lines = [f"{'metric':<16} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
             f"{'wins':>6} {'change':>8}  verdict"]
    for r in rows:
        wins = f"{r['wins']:>3}/{r['pairs']:<2}" if "wins" in r else f"{'-':>6}"
        lines.append(f"{r['metric']:<16} {q(r['parent']):<30} {q(r['change']):<30} "
                     f"{wins} {r['rel_change']:>+8.1%}  {r.get('verdict', 'informational')}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="run length; default BENCHMARK.json's run_seconds")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = [spec["name"] for spec in bench["end_to_end"]]
    pairs, details_pairs = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        runs = {side: run_once(path, args.workload, seed, seconds) for side, path in order}
        pairs.append((runs["parent"][1], runs["change"][1]))
        details_pairs.append((runs["parent"][0], runs["change"][0]))
        for side, _ in order:
            details, r = runs[side]
            values = " ".join(f"{n}={r['metrics'][n]['value']:.4g}" for n in names)
            raw = " ".join(f"{k}={v:.4g}" for k, v in details["raw"].items()
                           if isinstance(v, (int, float)))
            print(f"pair {i} seed {seed} {side:<6} {values} failed={r['failed']}/{r['attempted']} "
                  f"raw: {raw}", flush=True)
    print(f"\n{args.workload}: {args.pairs} pairs of {seconds:g} s runs, seeds {args.seed}.."
          f"{args.seed + args.pairs - 1}")
    print(format_rows(summarize(pairs, bench["end_to_end"])))
    print("\nraw times, uncalibrated us (informational, no verdict)")
    print(format_rows(summarize_raw(details_pairs)))
    for side, records in (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs])):
        failed, attempted = failures(records)
        print(f"{side} failed {failed} of {attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
