"""Operation process of the benchmark.

Two modes, both started by run.py with the same interpreter:

    worker.py ROOT setup WORKLOAD SEED OUTDIR TRACE
        import crystacc from ROOT/src, build the workload's triples,
        dilations and masks through the public API, write the CLI configs
        to OUTDIR and exit; the parent times the whole process (setup_s).

    worker.py ROOT serve
        import crystacc, print a ready line, then answer one JSON job per
        stdin line with one JSON line on stdout, until a quit job.

Each job reports its own raw wall time, the process's peak RSS so far and,
when the job asks for tracing, the per-layer spans of that job.  The CLI's
own stdout is captured so that it cannot mix with the job protocol.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import inputs
from tracing import Tracer, cache_totals


def _import_crystacc(root: str) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    from crystacc import accuracy, cascade, cli, crystal, linalg, mask, \
        multiidx
    return {"accuracy": accuracy, "cascade": cascade, "cli": cli,
            "crystal": crystal, "linalg": linalg, "mask": mask,
            "multiidx": multiidx}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _config_entries(mask_obj) -> list:
    """Exact mask blocks as CLI config entries, rationals as "p/q"."""
    out = []
    for e, blk in mask_obj.items():
        rows = [[str(x.re) for x in blk.row_list(i)] for i in range(blk.rows)]
        out.append({"g": e.g, "k": list(e.k), "coef": rows})
    return out


class Worker:
    def __init__(self, mods: dict):
        self.m = mods
        self.tracer = Tracer()

    # -- building through the public API ---------------------------------

    def triple(self, group: str, dim: int, dilation: list):
        crystal, linalg = self.m["crystal"], self.m["linalg"]
        with self.tracer.span("crystal.build"):
            t = crystal.catalog_triple(group, dim)
            dil = crystal.check_admissible(linalg.Mat.from_rows(dilation), t)
        return t, dil

    def scalar_mask(self, t, spec: dict):
        with self.tracer.span("mask.build"):
            return self.m["mask"].Mask.scalar(
                t, {(g, k): c for g, k, c in spec["entries"]})

    def setup(self, workload: str, seed: int, outdir: str) -> None:
        if workload == "exact-lifted":
            t, dil = self.triple("p4m", 2, inputs.DIL_2D)
            for spec in inputs.lifted_scalar_masks():
                scalar = self.scalar_mask(t, spec)
                with self.tracer.span("mask.lift"):
                    lifted = self.m["mask"].lift_scalar_to_matrix(scalar, dil)
                inputs.write_json(
                    os.path.join(outdir, f"{spec['name']}.json"),
                    {"group": "p1", "dimension": 2,
                     "dilation": inputs.DIL_2D,
                     "mask": _config_entries(lifted)})
        elif workload == "exact-scan":
            triples = {}
            for spec in inputs.scan_masks(seed, 0):
                key = (spec["group"], spec["dim"])
                if key not in triples:
                    triples[key] = self.triple(*key, spec["dilation"])
                self.scalar_mask(triples[key][0], spec)
        elif workload == "cascade-grid":
            cfg = inputs.cascade_config()
            t, _ = self.triple(cfg["group"], cfg["dimension"],
                               cfg["dilation"])
            self.scalar_mask(t, {"entries": [(0, tuple(e["k"]), e["coef"])
                                             for e in cfg["mask"]]})
            inputs.write_json(os.path.join(outdir, "quadratic.json"), cfg)
        else:
            raise ValueError(f"unknown workload {workload!r}")

    # -- jobs --------------------------------------------------------------

    def cli(self, argv: list) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()), \
                self.tracer.span("cli.main"):
            code = self.m["cli"].main(argv)
        try:
            report = json.loads(out.getvalue())
        except ValueError:
            report = None
        return {"exit": code, "report": report}

    def scan_pass(self, seed: int, pass_index: int) -> dict:
        acc = self.m["accuracy"]
        specs = inputs.scan_masks(seed, pass_index)
        results = []
        t0 = time.perf_counter()
        triples = {}
        for spec in specs:
            key = (spec["group"], spec["dim"])
            if key not in triples:
                triples[key] = self.triple(*key, spec["dilation"])
            t, dil = triples[key]
            res = {"name": spec["name"]}
            try:
                mask_obj = self.scalar_mask(t, spec)
                cert = acc.max_accuracy(mask_obj, t, dil, spec["p_max"])
                res.update(p=cert.p,
                           ffd=cert.diagnostics["first_failing_degree"])
                if spec["p1"]:
                    rep = acc.sufficient_check(mask_obj, t, dil,
                                               spec["order"])
                    res["sufficient"] = bool(rep.passed)
                if spec["float_copy"]:
                    with self.tracer.span("mask.build"):
                        float_mask = mask_obj.to_float()
                    fc = acc.max_accuracy(float_mask, t, dil, spec["p_max"])
                    res.update(float_p=fc.p,
                               float_ffd=fc.diagnostics[
                                   "first_failing_degree"])
            except Exception as exc:  # reported as a failed operation
                res["error"] = f"{type(exc).__name__}: {exc}"
            results.append(res)
        return {"raw_s": time.perf_counter() - t0, "results": results}

    def scalar_check(self) -> dict:
        """Scalar p4m accuracy of the masks the exact-lifted workload
        lifts; run outside the timed operations."""
        t, dil = self.triple("p4m", 2, inputs.DIL_2D)
        out = {}
        for spec in inputs.lifted_scalar_masks():
            cert = self.m["accuracy"].max_accuracy(
                self.scalar_mask(t, spec), t, dil, spec["p_max"])
            out[spec["name"]] = cert.p
        return {"scalar_p": out}

    def run_job(self, job: dict) -> dict:
        traced = bool(job.get("trace"))
        if traced:
            self.tracer.install(self.m)
        self.tracer.reset()
        before = cache_totals(self.m["multiidx"])
        try:
            kind = job["job"]
            if kind == "cli":
                t0 = time.perf_counter()
                reply = self.cli(job["argv"])
                reply["raw_s"] = time.perf_counter() - t0
            elif kind == "scan":
                reply = self.scan_pass(job["seed"], job["pass"])
            elif kind == "scalar-check":
                reply = self.scalar_check()
            else:
                raise ValueError(f"unknown job {kind!r}")
        except Exception:  # the job fails, the protocol goes on
            reply = {"error": traceback.format_exc()}
        finally:
            if traced:
                self.tracer.uninstall()
        reply["peak_rss_mb"] = _peak_rss_mb()
        if traced:
            after = cache_totals(self.m["multiidx"])
            if after is not None and before is not None:
                self.tracer.counts["multiidx.cache"] = {
                    "hits": after["hits"] - before["hits"],
                    "misses": after["misses"] - before["misses"],
                    "entries": after["entries"]}
            reply["trace"] = self.tracer.snapshot()
            reply["missing"] = sorted(set(self.tracer.missing)) + (
                ["crystacc.multiidx cache_info"] if after is None else [])
        return reply


def serve(worker: Worker) -> None:
    proto = sys.stdout
    print(json.dumps({"ready": True}), file=proto, flush=True)
    for line in sys.stdin:
        job = json.loads(line)
        if job.get("job") == "quit":
            break
        print(json.dumps(worker.run_job(job)), file=proto, flush=True)


def main(argv: list) -> int:
    root, mode = argv[0], argv[1]
    worker = Worker(_import_crystacc(root))
    if mode == "serve":
        serve(worker)
        return 0
    if mode == "setup":
        workload, seed, outdir, traced = argv[2], int(argv[3]), argv[4], \
            argv[5] == "1"
        worker.tracer.active = traced
        worker.setup(workload, seed, outdir)
        print(json.dumps({"trace": worker.tracer.snapshot()}))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
