"""Steadiness of the end-to-end metrics: two interleaved sets of runs.

    python3 bench/steady.py --runs 10

Runs every workload of BENCHMARK.json at its ``run_seconds``, ``--runs``
times in each of two sets, A and B, one process at a time.  Run i of set A
uses seed 1 + i and run i of set B seed 101 + i; the order alternates A, B
per run index, so a drift in the machine's speed lands on both sets.  For every workload and metric it
prints each set's median and quartiles, the quartile spread as a share of
the median, and how far B's median sits from A's, next to the bound in
BENCHMARK.json.  Every spread (``setup_s`` too) and every drift must stay
within the bound, every run must be correct, and both sets must fail the
same share of operations; otherwise the exit status is 1.  The figures are
written to bench/out/steady.json as well.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = elapsed
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--out", default=str(HERE / "out" / "steady.json"))
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    results = {w["name"]: {"A": [], "B": []} for w in SPEC["workloads"]}
    for i in range(args.runs):
        for set_name, base in (("A", 1), ("B", 101)) if i % 2 == 0 else (("B", 101), ("A", 1)):
            for workload in results:
                r = run_once(workload, base + i)
                results[workload][set_name].append(r)
                print(f"{workload} set {set_name} seed {base + i}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} {r['process_s']:.1f}s",
                      file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {}
    ok = True
    for workload, sets in results.items():
        report[workload] = {}
        shares = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for s, rs in sets.items()}
        all_correct = all(r["correct"] for rs in sets.values() for r in rs)
        print(f"\n{workload}: failed share A {shares['A']:.4f} B {shares['B']:.4f}; all correct: {all_correct}")
        print(f"  {'metric':<14} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'B/A-1':>7} {'bound':>6}")
        for metric in bounds:
            row = {}
            for set_name, rs in sets.items():
                row[set_name] = summary([r["metrics"][metric]["value"] for r in rs])
            drift = row["B"]["median"] / row["A"]["median"] - 1.0
            row["drift"] = drift
            report[workload][metric] = row
            for set_name in ("A", "B"):
                s = row[set_name]
                tail = f"{drift:+7.3f} {bounds[metric]:6.2f}" if set_name == "B" else ""
                print(f"  {metric:<14} {set_name:<3} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                      f"{s['spread']:7.3f} {tail}")
                if s["spread"] > bounds[metric]:
                    ok = False
            if abs(drift) > bounds[metric]:
                ok = False
        if shares["A"] != shares["B"] or not all_correct:
            ok = False
    print(f"\nsteady within bounds: {ok}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": args.runs, "seconds": SPEC["run_seconds"], "report": report}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
