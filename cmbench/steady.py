"""Run the benchmark over several seeds and judge its steadiness.

For each workload, runs the benchmark once per seed and prints, for
every end-to-end metric, the median of the runs and the spread between
the first and third quartile as a share of the median (Python's
statistics.quantiles, n=4). A spread above a third of the metric's
bound in BENCHMARK.json is marked; setup_s is reported but not judged.
A run whose answers fail a check (exit 1 with a result line) still
counts for the spreads; it is listed, and the script then exits 1.

Run from the repository root:

    python3 cmbench/steady.py --seeds 1 2 3 4 5 --workloads warm_matrix
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    failing = []
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                spec["command"] + ["--workload", wl, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            res = None
            if out.returncode in (0, 1) and out.stdout.strip():
                res = json.loads(out.stdout.strip().splitlines()[-1])
            if res is None or res["correct"] != (out.returncode == 0):
                print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
                sys.exit(f"{wl} seed {seed}: exit {out.returncode}")
            if not res["correct"]:
                failing.append(f"{wl} seed {seed}: {res['failed']} of {res['attempted']} failed")
            runs.append(res["metrics"])
            print(wl, seed, res["correct"], {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
        for name, bound in bounds.items():
            vals = [r[name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("inf")
            mark = ""
            if name != "setup_s" and share > bound / 3:
                mark = "  <-- above bound/3"
                steady = False
            print(f"{wl:14s} {name:16s} median {med:12.4f} spread {share:7.4f} bound {bound}{mark}")
    for f in failing:
        print("FAILED", f)
    sys.exit(0 if steady and not failing else 1)


if __name__ == "__main__":
    main()
