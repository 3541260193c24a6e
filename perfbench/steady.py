"""Steadiness check: two sets of runs of one commit.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--first-seed 1]

Runs the benchmark command of BENCHMARK.json, for ``run_seconds`` seconds,
``--runs`` times per workload and set, each run with its own seed (set s,
run i takes seed first-seed + s * runs + i), and prints for each workload and
end-to-end metric the median, the quartiles, the spread (distance between
the quartiles as a share of the median) and the verdict against the
metric's bound:

* spread: every metric must spread less than its bound (and is called
  steady below a third of it);
* drift: the second set's median may not be worse than the first's by more
  than the bound;
* failures: the share of failed operations must be the same in every
  run, and every run must report correct=true.

Raw results go to .perfbench_out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_once(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, wall_s=wall)
    return result


def report(bench: dict, results: list) -> bool:
    """Print the table; True when every verdict holds."""
    ok = True
    sets = sorted({r["set"] for r in results})
    walls = [r["wall_s"] for r in results]
    print(f"{len(results)} runs, wall time per run: median "
          f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    header = ("workload", "metric", "set", "median", "q1", "q3", "spread",
              "bound", "verdict")
    print("{:<13} {:<12} {:>3} {:>12} {:>12} {:>12} {:>7} {:>6}  {}"
          .format(*header))
    for wl in [w["name"] for w in bench["workloads"]]:
        runs = [r for r in results if r["workload"] == wl]
        shares = {s: [r["failed"] / r["attempted"] for r in runs
                      if r["set"] == s] for s in sets}
        all_shares = {x for v in shares.values() for x in v}
        if len(all_shares) > 1:
            ok = False
            print(f"{wl}: failed share differs between runs: {shares}")
        if not all(r["correct"] for r in runs):
            ok = False
            print(f"{wl}: a run reported correct=false")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in runs
                        if r["set"] == s]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                if spread > bound:
                    verdict = ["TOO WIDE"]
                    ok = False
                else:
                    verdict = ["steady" if spread < bound / 3
                               else "within bound"]
                if medians:
                    drift = med / medians[0] - 1.0
                    if metric["better"] == "higher":
                        drift = -drift
                    if drift > bound:
                        verdict.append(f"DRIFT {drift:+.1%}")
                        ok = False
                    else:
                        verdict.append(f"drift {drift:+.1%}")
                medians.append(med)
                print("{:<13} {:<12} {:>3} {:>12.5g} {:>12.5g} {:>12.5g} "
                      "{:>6.1%} {:>6}  {}".format(
                          wl, name, s, med, q1, q3, spread, bound,
                          ", ".join(verdict)))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir,
                            time.strftime("steady-%Y%m%d-%H%M%S.json"))
    results = []
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for wl in names:
                r = run_once(bench, wl, seed, seconds)
                r["set"] = s + 1
                results.append(r)
                m = r["metrics"]
                print(f"set {s + 1} {wl} seed {seed}: "
                      + ", ".join(f"{k} {v['value']:.5g}"
                                  for k, v in m.items())
                      + f", failed {r['failed']}/{r['attempted']}, "
                      f"wall {r['wall_s']:.1f} s", flush=True)
                with open(out_path, "w", encoding="utf-8") as fh:
                    json.dump(results, fh, indent=1)
    print(f"results: {out_path}")
    return 0 if report(bench, results) else 1


if __name__ == "__main__":
    sys.exit(main())
