"""Steadiness check: repeated runs of each workload against the bounds.

    python3 bench/steady.py

Runs ``bench/run.py --trace 0`` for two sets of ten runs per workload,
set 1 on seeds 1-10 and set 2 on seeds 11-20, with the workloads
interleaved, and the workloads and run length taken from BENCHMARK.json.
Reports for every end-to-end metric the median, the quartiles and the
spread (q3 - q1) / median against the metric's bound.  Each spread must
be within the bound, the second median must not be worse than the first
by more than the bound, every run must be correct, and the share of
failed operations must be the same in every run of a workload.  Exits 1
when any of these fails.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10   # runs per workload and set
SETS = 2


def run_once(spec, workload, seed):
    cmd = [sys.executable if spec["command"][0] == "python3"
           else spec["command"][0], *spec["command"][1:],
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1: a check failed
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    ok = True
    report = {w: {m["name"]: [] for m in metrics} for w in workloads}
    shares = {w: set() for w in workloads}
    for s in range(SETS):
        results = {w: [] for w in workloads}
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in workloads:  # interleaved, so host drift hits all
                results[w].append(run_once(spec, w, seed))
                print(f"set {s + 1} seed {seed} {w} done", file=sys.stderr)
        for w, runs in results.items():
            shares[w] |= {r["failed"] / r["attempted"] for r in runs}
            if not all(r["correct"] for r in runs):
                ok = False
                print(f"{w}: a check failed in set {s + 1}")
            for m in metrics:
                report[w][m["name"]].append(summarise(
                    [r["metrics"][m["name"]]["value"] for r in runs]))
    for w, seen in shares.items():
        if len(seen) > 1:
            ok = False
            print(f"{w}: failed shares differ between runs: {sorted(seen)}")

    print(f"{'workload':<13} {'metric':<12} {'set':>3} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6} {'shift':>7}")
    for w, per_metric in report.items():
        for m in metrics:
            figs = per_metric[m["name"]]
            for s, fig in enumerate(figs):
                shift = ""
                if s:
                    sign = 1.0 if m["better"] == "lower" else -1.0
                    worse = sign * (fig["median"] - figs[0]["median"]) \
                        / figs[0]["median"]
                    shift = f"{worse:+7.3f}"
                    ok &= worse <= m["bound"]
                ok &= fig["spread"] <= m["bound"]
                print(f"{w:<13} {m['name']:<12} {s + 1:>3} "
                      f"{fig['median']:>10.4g} {fig['q1']:>10.4g} "
                      f"{fig['q3']:>10.4g} {fig['spread']:>7.3f} "
                      f"{m['bound']:>6.2f} {shift:>7}")
    for w, seen in shares.items():
        print(f"{w}: failed share {sorted(seen)}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
