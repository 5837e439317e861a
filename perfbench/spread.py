"""Run the benchmark over several seeds and summarise each metric.

For every workload: one untraced run per seed, then the median of each
end-to-end metric and its spread (the distance between the first and
third quartiles over the median, as ``statistics.quantiles(n=4)`` gives
them); optionally one traced run.  Writes the summary as JSON.

    python3 perfbench/spread.py --seeds 1-10 --traced-seed 1 --out perfbench/baseline.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    env = next(json.loads(line.partition(": ")[2]) for line in lines
               if line.startswith("environment: "))
    return json.loads(lines[-1]), env


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "spread": (q3 - q1) / median,
            "values": values}


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    config = bench_config()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--traced-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    summary = {"run_seconds": config["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, env = one_run(workload, seed, config["run_seconds"], 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"seeds": args.seeds, "environment": env,
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for metric in config["end_to_end"]:
            name = metric["name"]
            entry["end_to_end"][name] = summarise([r["metrics"][name]["value"] for r in runs])
            s = entry["end_to_end"][name]
            print(f"  {name}: median {s['median']:.4g} spread {s['spread']:.3f} "
                  f"(bound {metric['bound']})", flush=True)
        if args.traced_seed is not None:
            traced, _ = one_run(workload, args.traced_seed, config["run_seconds"], 1)
            entry["traced"] = {"seed": args.traced_seed, "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
