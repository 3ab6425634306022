"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --seeds 1-10 --workloads curves,calibration,points
    python3 perfbench/spread.py --seeds 1-10 --save perfbench/baseline.json

For every workload and metric it prints the values, their median and the
spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json. Runs are made one after
the other, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--save", help="write the values and summary to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds_from(args.seeds):
            proc = subprocess.run([sys.executable, *bench["command"][1:], "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"],
                                  capture_output=True, text=True, cwd=ROOT, check=True)
            lines = proc.stdout.strip().splitlines()
            results.append(json.loads(lines[-1]))
            prov = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
        summary.setdefault("provenance", {key: prov[key] for key in
                                          ("python", "numpy", "nproc", "git_commit")})
        entry = {"attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results], "metrics": {}}
        print(f"{workload}: attempted {entry['attempted']} failed {entry['failed']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            entry["metrics"][name] = {"unit": results[0]["metrics"][name]["unit"],
                                      "values": values, "median": statistics.median(values),
                                      "q1": q1, "q3": q3, "spread": spread}
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:<12s} median {statistics.median(values):<12.6g} "
                  f"spread {spread:.4f} (bound/3 {bound / 3:.4f}) {flag}")
        summary["workloads"][workload] = entry
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
