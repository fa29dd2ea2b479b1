"""Steadiness check: runs each workload repeatedly, seeds 1 to --runs, each
run as long as run_seconds in BENCHMARK.json, and prints per end-to-end
metric the median, the quartiles and the spread (interquartile range over
median) against the metric's bound; then the same figures, without a
bound, for each run's first (cold) set-up.

    python3 perfbench/steady.py                       # 10 runs of every workload
    python3 perfbench/steady.py --workloads spark-pbc --runs 5
    python3 perfbench/steady.py --builds ../parent .  # parent against change

With --builds, every seed runs on both programs, alternating which goes
first, with this checkout's benchmark code and settings for both; the
table then adds each side's median and the change of the second against
the first, as a share of the first, marked when it is worse by more than
the bound. Results are also written to .bench_build/perfbench/steady-*.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, program_root):
    """The run's info line and its result."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if program_root:
        cmd += ["--program-root", program_root]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed ({r.returncode})")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--builds", nargs=2, metavar=("BASE", "CHANGE"), help="two program checkouts to alternate")
    a = ap.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    sides = a.builds or [None]
    report = {}
    for w in workloads:
        runs = {s: [] for s in sides}
        cold = {s: [] for s in sides}
        for i in range(a.runs):
            seed = 1 + i
            order = sides if i % 2 == 0 else list(reversed(sides))
            for side in order:
                t0 = time.monotonic()
                info, res = run_once(w, seed, seconds, side)
                runs[side].append(res)
                cold[side].append(info["setup_runs_s"][0])
                print(f"{w} seed {seed} {side or ''} {time.monotonic() - t0:.0f}s "
                      f"attempted={res['attempted']} failed={res['failed']} correct={res['correct']}", file=sys.stderr)
        print(f"\n== {w}: {a.runs} runs of {seconds:g} s")
        head = f"{'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  status"
        if a.builds:
            head += f"   {'base median':>12} {'change':>8}"
        print(head)
        rep = {}
        for m in metrics:
            per_side = {s: [r["metrics"][m["name"]]["value"] for r in runs[s]] for s in sides}
            vals = per_side[sides[-1]]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            status = "steady" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "UNSTEADY")
            line = f"{m['name']:22} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {m['bound']:6.0%}  {status}"
            entry = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"], "values": vals}
            if a.builds:
                base = statistics.median(per_side[sides[0]])
                change = (med - base) / base
                worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
                line += f"   {base:12.6g} {change:+8.2%}{'  WORSE' if worse else ''}"
                entry.update({"base_median": base, "base_values": per_side[sides[0]], "change": change})
            print(line)
            rep[m["name"]] = entry
        # setup_s is the median of a run's set-ups; its first, cold set-up
        # (class loading, interpreted code) is shown apart, with no bound
        q1, med, q3 = quartiles(cold[sides[-1]])
        print(f"{'cold set-up (s)':22} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med:8.2%}")
        rep["cold_setup_s"] = {"median": med, "q1": q1, "q3": q3, "values": cold[sides[-1]]}
        for s in sides:
            shares = {r["failed"] / r["attempted"] for r in runs[s]}
            print(f"failed share{' (' + s + ')' if s else ''}: {sorted(shares)}")
        report[w] = rep
    os.makedirs(os.path.join(".bench_build", "perfbench"), exist_ok=True)
    out = os.path.join(".bench_build", "perfbench", f"steady-{int(time.time())}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nwritten to {out}")


if __name__ == "__main__":
    main()
