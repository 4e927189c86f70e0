#!/usr/bin/env python3
"""Compare mode for the Griffin benchmark.

  python3 perfbench/compare.py run --workload conj_fig14 --seeds 1-10 --out a.json
      Runs the benchmark command from BENCHMARK.json once per seed, then
      prints each metric's median, quartiles and spread (interquartile
      range over median) beside its bound. The runs are saved to --out.

  python3 perfbench/compare.py check a.json b.json
      Checks two saved result sets against the bounds in BENCHMARK.json:
      every end-to-end spread except setup_s stays within its bound, and
      no metric's median in b is worse than in a by more than its bound.
      Exits 1 when a check fails.

Quartiles are statistics.quantiles(values, n=4). Run from the repository
root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def host_of(workload, seed, trace):
    """The host fingerprint the run recorded in its result file."""
    try:
        with open(f".bench_results/{workload}-s{seed}-t{trace}.json") as f:
            return json.load(f)["host"]
    except (OSError, KeyError, ValueError):
        return None


def summary(values):
    """(median, q1, q3, spread) of a list of numbers."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run(args):
    bench = load_benchmark()
    trace = int(args.trace)
    results = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(args.seconds or bench["run_seconds"]),
            "--trace", str(trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        results.append({"seed": seed, "result": result, "host": host_of(args.workload, seed, trace)})
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                        if not trace)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {vals}",
              flush=True)
    saved = {"workload": args.workload, "trace": trace, "runs": results}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    report(saved, bench)


def metric_values(saved):
    out = {}
    for r in saved["runs"]:
        for name, m in r["result"]["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def report(saved, bench):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, values in metric_values(saved).items():
        med, q1, q3, spread = summary(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag = "  OVER BOUND"
        elif bound is not None and spread > bound / 3:
            flag = "  over bound/3"
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:<36} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {b:>6}{flag}")


def check(args):
    bench = load_benchmark()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    if a["workload"] != b["workload"]:
        sys.exit("result sets are for different workloads")
    va, vb = metric_values(a), metric_values(b)
    hosts = {json.dumps(r.get("host"), sort_keys=True) for r in a["runs"] + b["runs"]}
    same_host = len(hosts) == 1
    if not same_host:
        print("host fingerprints differ: host-time metrics are not compared")
    ok = True
    for name, m in metrics.items():
        if not same_host and m["unit"] in ("s", "ms", "1/s") and not name.startswith("virt"):
            continue
        if name not in va or name not in vb:
            print(f"{name}: missing from a result set")
            ok = False
            continue
        bound = m["bound"]
        for label, values in (("a", va[name]), ("b", vb[name])):
            spread = summary(values)[3]
            if name != "setup_s" and spread > bound:
                print(f"{name}: spread {spread:.4f} in {label} exceeds bound {bound}")
                ok = False
        ma, mb = statistics.median(va[name]), statistics.median(vb[name])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        status = "ok" if worse <= bound else "WORSE"
        if worse > bound:
            ok = False
        print(f"{name:<20} a={ma:.6g} b={mb:.6g} worse_by={worse:+.4f} bound={bound} {status}")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", default="0", choices=["0", "1"])
    r.add_argument("--out")
    c = sub.add_parser("check")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args()
    run(args) if args.mode == "run" else check(args)


if __name__ == "__main__":
    main()
