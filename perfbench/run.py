"""End-to-end benchmark of crystacc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; crystacc is imported from ./src.  The
workloads (see README.md):

    exact-lifted  `crystacc accuracy` on two lifted r=8 p4m masks
    exact-scan    a long-lived library process certifying seeded masks
    cascade-grid  `crystacc cascade --grid 5 --iters 21 --verify-p 4`

Every operation runs in a worker process (worker.py) while this process
only orchestrates, checks outputs against the truth in oracle.py and runs
the calibration loops of calib.py around each timed operation.  All times
are reported at the reference speed of calib.REFERENCE; the raw wall times
and the calibration readings are printed too.  The last stdout line is one
JSON object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import calib
import inputs
import oracle
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Wall seconds one operation takes here, calibrations and worker start
# included.  A run makes round(seconds / OP_WALL_S) operations: the count
# depends on --seconds alone, so every run of a workload attempts the same
# operations, and a run lasts about --seconds plus its set-up.
OP_WALL_S = {"exact-lifted": 7.5, "exact-scan": 3.5, "cascade-grid": 11.5}
CALIBRATION = {"exact-lifted": "fraction", "exact-scan": "fraction",
               "cascade-grid": "gather"}
SETUP_REPEATS = 5
# set-up lasts a fraction of a second, so its calibrations are shorter
# than those around operations
SETUP_CAL_REPEATS = 1
# A run's set-up and operations must end within this many seconds of its
# start; a worker that has not answered by then is killed and its
# operation fails, so a hanging program still gives a result in time.
RUN_LIMIT_S = 140


class WorkerProc:
    """One serve-mode worker; a context manager that always reaps it.

    Every reply must come before ``deadline`` (time.monotonic()), else the
    worker is killed and the call reports an error."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), ROOT, "serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)
        try:
            if not self._read().get("ready"):
                raise RuntimeError("worker did not start")
        except BaseException:
            self.__exit__()
            raise

    def _read(self) -> dict:
        timeout = max(1.0, self.deadline - time.monotonic())
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            code = self.proc.wait()
            if code == -signal.SIGKILL:
                raise RuntimeError(f"worker killed: no reply within "
                                   f"{timeout:.0f} s")
            raise RuntimeError(f"worker ended (exit {code})")
        return json.loads(line)

    def call(self, job: dict) -> dict:
        """The worker's reply, or {"error": ...} when it gave none."""
        try:
            self.proc.stdin.write(json.dumps(job) + "\n")
            self.proc.stdin.flush()
            return self._read()
        except (OSError, RuntimeError) as exc:
            return {"error": str(exc)}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"job": "quit"}) + "\n")
                self.proc.stdin.flush()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            # a dead worker leaves the unsent part of the last job behind
            with contextlib.suppress(BrokenPipeError):
                self.proc.stdin.close()
            self.proc.stdout.close()
        return False


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 workdir: str):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.n_ops = max(1, round(seconds / OP_WALL_S[workload]))
        if trace:
            self.n_ops = max(2, self.n_ops)
        self.cal = calib.Calibrator(CALIBRATION[workload])
        self.setup_cal = calib.Calibrator("fraction", SETUP_CAL_REPEATS)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.ops: list = []      # dicts: norm_s, raw_s, rss, traced, layers
        self.setups: list = []   # dicts: norm_s, raw_s, layers

    # -- timing ----------------------------------------------------------

    def timed(self, jobs: list, before: float | None = None) -> list:
        """Run (worker, job) pairs back to back between two calibrations;
        ``before`` reuses the calibration that ended the previous
        operation of a long-lived worker."""
        if before is None:
            before = self.cal.measure()
        replies = [worker.call(job) for worker, job in jobs]
        after = self.cal.measure()
        factor = self.cal.factor(before, after)
        for reply in replies:
            reply["cal"] = (before, after)
            reply["factor"] = factor
            if "raw_s" in reply:
                reply["norm_s"] = reply["raw_s"] * factor
        return replies

    def setup(self) -> None:
        """Time SETUP_REPEATS fresh interpreters, one calibration between
        each two."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT,
               "setup", self.workload, str(self.seed), self.workdir,
               "1" if self.trace else "0"]
        after = self.setup_cal.measure()
        for i in range(SETUP_REPEATS):
            before = after
            t0 = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=max(
                                      1.0, self.deadline - time.monotonic()))
            raw = time.perf_counter() - t0
            after = self.setup_cal.measure()
            if done.returncode != 0:
                raise RuntimeError(f"set-up failed:\n{done.stderr}")
            norm = raw * self.setup_cal.factor(before, after)
            snap = json.loads(done.stdout.strip().splitlines()[-1])["trace"]
            self.setups.append({"raw_s": raw, "norm_s": norm,
                                "layers": _scaled(
                                    tracing.layer_metrics(snap, []),
                                    norm / raw)})
            print(f"setup {i + 1}/{SETUP_REPEATS}: raw {raw:.4f} s, "
                  f"calibration {before:.5f}/{after:.5f} s, "
                  f"normalized {norm:.4f} s")

    def record(self, index: int, calls: list, problems: list) -> None:
        """One operation made of one or more timed worker calls.  A failed
        operation (a worker error, a non-zero CLI exit or an output that
        disagrees with the truth) makes the run incorrect and is left out of
        the timings and of peak RSS."""
        self.attempted += 1
        problems = problems + [c["error"] for c in calls if "error" in c]
        if problems:
            self.failed += 1
            self.correct = False
            for p in problems:
                print(f"op {index + 1}: FAILED: {p}")
            return
        traced = bool(calls[0].get("trace"))
        op = {"raw_s": sum(c["raw_s"] for c in calls),
              "norm_s": sum(c["norm_s"] for c in calls),
              "rss": max(c["peak_rss_mb"] for c in calls),
              "traced": traced}
        if traced:
            layers = [_scaled(tracing.layer_metrics(c["trace"],
                                                    c["missing"]),
                              c["factor"]) for c in calls]
            op["layers"] = {k: sum(d[k] for d in layers)
                            for k in layers[0]}
            op["missing"] = sorted({m for c in calls for m in c["missing"]})
        self.ops.append(op)
        before, after = calls[0]["cal"]
        parts = " + ".join(f"{c['raw_s']:.4f}" for c in calls)
        print(f"op {index + 1}/{self.n_ops}{' traced' if traced else ''}: "
              f"raw {op['raw_s']:.4f} s "
              f"({parts}), "
              f"calibration {before:.5f}/{after:.5f} s, "
              f"normalized {op['norm_s']:.4f} s, "
              f"peak RSS {op['rss']:.1f} MB")

    def traced(self, i: int) -> bool:
        return self.trace and i % 2 == 0

    # -- workloads ---------------------------------------------------------

    def exact_lifted(self) -> None:
        specs = inputs.lifted_scalar_masks()
        lifted_p = {}
        for i in range(self.n_ops):
            jobs = [{"job": "cli", "trace": self.traced(i),
                     "argv": ["accuracy",
                              os.path.join(self.workdir,
                                           f"{spec['name']}.json"),
                              "--p-max", str(spec["p_max"])]}
                    for spec in specs]
            # one fresh process per CLI call, both started before timing
            with WorkerProc(self.deadline) as w1, \
                    WorkerProc(self.deadline) as w2:
                replies = self.timed(list(zip((w1, w2), jobs)))
            problems = []
            for spec, reply in zip(specs, replies):
                if "error" in reply:
                    continue
                report = reply.get("report") or {}
                problems += oracle.check_cli_accuracy(
                    spec["name"], reply["exit"], report, spec["order"],
                    spec["first_failing"])
                lifted_p.setdefault(spec["name"], report.get("accuracy"))
            self.record(i, replies, problems)
        # untimed: the lifted accuracy equals the scalar p4m accuracy
        with WorkerProc(self.deadline) as worker:
            reply = worker.call({"job": "scalar-check"})
        problems = ([reply["error"]] if "error" in reply else [
            q for spec in specs for q in oracle.check_lift_matches_scalar(
                spec["name"], lifted_p.get(spec["name"]),
                reply["scalar_p"][spec["name"]], spec["order"])])
        for p in problems:
            print(f"check FAILED: {p}")
            self.correct = False
        if not problems:
            print("check: lifted accuracy equals scalar p4m accuracy "
                  + ", ".join(f"{k}={v}" for k, v in
                              reply["scalar_p"].items()))

    def exact_scan(self) -> None:
        with WorkerProc(self.deadline) as worker:
            after = None
            for i in range(self.n_ops):
                [reply] = self.timed([(worker, {
                    "job": "scan", "seed": self.seed, "pass": i,
                    "trace": self.traced(i)})], after)
                after = reply["cal"][1]
                problems = []
                if "error" not in reply:
                    specs = inputs.scan_masks(self.seed, i)
                    for spec, res in zip(specs, reply["results"]):
                        problems += oracle.check_scan_mask(spec, res)
                self.record(i, [reply], problems)

    def cascade_grid(self) -> None:
        cfg = os.path.join(self.workdir, "quadratic.json")
        for i in range(self.n_ops):
            with WorkerProc(self.deadline) as worker:
                [reply] = self.timed([(worker, {
                    "job": "cli", "trace": self.traced(i),
                    "argv": ["cascade", cfg, *inputs.CASCADE_ARGS]})])
            problems = [] if "error" in reply else oracle.check_cascade(
                reply["exit"], reply.get("report"), inputs.CASCADE_EXPECT)
            self.record(i, [reply], problems)

    def run(self) -> None:
        self.setup()
        {"exact-lifted": self.exact_lifted, "exact-scan": self.exact_scan,
         "cascade-grid": self.cascade_grid}[self.workload]()

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict:
        ok = [op for op in self.ops if not op["traced"]]
        if not ok:
            raise RuntimeError("no operation succeeded")
        return {
            "op_s": {"value": statistics.median(o["norm_s"] for o in ok),
                     "unit": "s"},
            "peak_rss_mb": {"value": max(o["rss"] for o in ok),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(
                s["norm_s"] for s in self.setups), "unit": "s"},
        }

    def per_layer(self) -> dict:
        traced = [op for op in self.ops if op["traced"]]
        plain = [op for op in self.ops if not op["traced"]]
        if not traced or not plain:
            raise RuntimeError("the traced run needs traced and untraced "
                               "operations that succeeded")
        units = dict(tracing.PER_LAYER)
        missing = sorted({m for op in traced for m in op["missing"]})
        for m in missing:
            print(f"missing wrap target: {m}")
        out = {}
        for name, unit in tracing.PER_LAYER:
            if name == "trace.overhead_pct":
                continue
            if any(name not in op["layers"] for op in traced):
                print(f"metric {name}: missing")
                continue
            value = statistics.median(op["layers"][name] for op in traced)
            value += statistics.median(s["layers"].get(name, 0)
                                       for s in self.setups)
            if unit == "count" and float(value).is_integer():
                value = int(value)
            out[name] = {"value": value, "unit": unit}
        t_med = statistics.median(op["norm_s"] for op in traced)
        u_med = statistics.median(op["norm_s"] for op in plain)
        overhead = 100.0 * (t_med / u_med - 1.0)
        print(f"tracing overhead: traced op_s {t_med:.4f} s against "
              f"untraced {u_med:.4f} s: {overhead:+.2f} %")
        out["trace.overhead_pct"] = {"value": overhead,
                                     "unit": units["trace.overhead_pct"]}
        return out


def _scaled(layers: dict, factor: float) -> dict:
    """Scale the time metrics (unit s) of one call to the reference speed."""
    units = dict(tracing.PER_LAYER)
    return {k: v * factor if units.get(k) == "s" else v
            for k, v in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(OP_WALL_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "crystacc",
                                       "__init__.py")):
        print(f"error: no crystacc sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    # Calibration and operation must run on the same core: the two vCPUs
    # of a shared VM differ in speed, and the difference changes over time.
    # The processes never compute at the same time, so one core loses
    # nothing.  Workers inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_root = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as workdir:
        bench = Bench(args.workload, args.seed, args.seconds,
                      bool(args.trace), workdir)
        bench.run()
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
