#!/usr/bin/env python3
"""Run one benchmark workload over several seeds and report each metric's
run-to-run spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the bound
BENCHMARK.json fixes for it.

Run from the repository root:

    python3 perfbench/spread.py --workload service-warm --seeds 1,2,3,4,5
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", seed,
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            print(f"seed {seed}: incorrect output ({res['failed']} of {res['attempted']} failed)")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)

    print(f"\n{args.workload}, {len(args.seeds.split(','))} runs of {seconds}s")
    worst = 0.0
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) < 2 or med == 0:
            print(f"  {name:28s} median {med:12.6g}")
            continue
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
        print(f"  {name:28s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}  {flag}")
    print(f"  worst spread/bound: {worst:.3f}")


if __name__ == "__main__":
    sys.exit(main())
