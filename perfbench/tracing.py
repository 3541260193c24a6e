"""Per-layer tracing from the benchmark's own code.

The layers are crystacc's modules.  A :class:`Tracer` times the calls the
benchmark makes into a module (``span``) and, while installed, replaces
module attributes with timing wrappers:

* every function ``accuracy`` imports from ``linalg`` and ``multiidx``
  (looked up in the ``accuracy`` namespace, where it calls them);
* ``accuracy.max_accuracy`` and ``accuracy.sufficient_check``;
* ``cli.max_accuracy``, ``cli.catalog_triple`` and ``cli.check_admissible``;
* the ``cascade`` functions the CLI calls.

Spans nest: a span's self time is its duration minus the time of the
wrapped calls made inside it.  A wrapped target that no longer exists is
recorded in ``missing`` and its metrics are reported as missing; the run
goes on.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
import types
from contextlib import contextmanager

CASCADE_CALLED_BY_CLI = ("cascade_iterate", "sample_points", "reproduce",
                         "_probe_block")
CASCADE_VERIFY = ("sample_points", "reproduce", "_probe_block")

# (metric name, unit); see README.md for what each one should move
PER_LAYER = (
    ("cli.self_s", "s"), ("crystal.build_s", "s"), ("mask.build_s", "s"),
    ("mask.lift_s", "s"), ("accuracy.max_accuracy_s", "s"),
    ("accuracy.self_s", "s"), ("accuracy.sufficient_s", "s"),
    ("linalg.solve_s", "s"), ("linalg.solve_calls", "count"),
    ("linalg.system_entries", "count"), ("linalg.kron_s", "s"),
    ("linalg.kron_calls", "count"), ("multiidx.build_s", "s"),
    ("multiidx.cache_hits", "count"), ("multiidx.cache_misses", "count"),
    ("multiidx.cache_entries", "count"), ("cascade.iterate_s", "s"),
    ("cascade.verify_s", "s"), ("cascade.grid_nodes", "count"),
    ("cascade.peak_alloc_mb", "MB"), ("trace.overhead_pct", "%"),
)


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType,
                            functools._lru_cache_wrapper))


class Tracer:
    """Span and counter store for one process; inactive until install()."""

    def __init__(self):
        self.active = False
        self.stats: dict = {}      # span name -> [calls, total s, self s]
        self.counts: dict = {}     # counter name -> number
        self.missing: list = []    # wrap targets that do not exist
        self._stack: list = []     # child time of each open span
        self._restore: list = []

    # -- spans ---------------------------------------------------------

    def _close(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dt
        st[2] += dt - child

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, t0)

    def count(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers ------------------------------------------------------

    def _wrap(self, module, attr: str, name: str, observe=None,
              alloc: bool = False) -> None:
        orig = getattr(module, attr, None)
        if not callable(orig):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if alloc:
                tracemalloc.start()
            tracer._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(name, t0)
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.count(f"{name}.peak_alloc_mb", peak / 2 ** 20)
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))

    def install(self, modules: dict) -> None:
        """Wrap the targets listed in the module docstring; ``modules``
        maps short names ('accuracy', 'cli', 'cascade', ...) to the
        imported crystacc modules."""
        acc, cli, casc = modules["accuracy"], modules["cli"], \
            modules["cascade"]
        self.missing = []
        for attr, obj in sorted(vars(acc).items()):
            if not _is_function(obj):
                continue
            owner = getattr(obj, "__module__", "")
            if owner in ("crystacc.linalg", "crystacc.multiidx"):
                layer = owner.rsplit(".", 1)[1]
                observe = _observe_system if attr == "solve_affine" else None
                self._wrap(acc, attr, f"{layer}.{attr}", observe)
        for attr in ("solve_affine", "kron", "build_Q_tilde", "build_A_s"):
            if not _is_function(getattr(acc, attr, None)):
                self.missing.append(f"crystacc.accuracy.{attr}")
        self._wrap(acc, "max_accuracy", "accuracy.max_accuracy")
        self._wrap(acc, "sufficient_check", "accuracy.sufficient_check")
        self._wrap(cli, "max_accuracy", "accuracy.max_accuracy")
        self._wrap(cli, "catalog_triple", "crystal.build")
        self._wrap(cli, "check_admissible", "crystal.build")
        for attr in CASCADE_CALLED_BY_CLI:
            self._wrap(casc, attr, f"cascade.{attr}",
                       _observe_grid if attr == "cascade_iterate" else None,
                       alloc=attr == "cascade_iterate")
        self.active = True

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()
        self.active = False

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}


def _observe_system(tracer: Tracer, args, result) -> None:
    system = args[0]
    tracer.count("linalg.system_entries", system.rows * system.cols)


def _observe_grid(tracer: Tracer, args, result) -> None:
    nodes = 1
    for n in result.field.shape:
        nodes *= n
    tracer.count("cascade.grid_nodes", nodes)


def cache_totals(multiidx) -> dict | None:
    """Summed cache_info() of the lru caches in ``multiidx``; None when
    the module has none."""
    infos = [obj.cache_info() for obj in vars(multiidx).values()
             if callable(getattr(obj, "cache_info", None))]
    if not infos:
        return None
    return {"hits": sum(i.hits for i in infos),
            "misses": sum(i.misses for i in infos),
            "entries": sum(i.currsize for i in infos)}


def layer_metrics(snap: dict, missing: list) -> dict:
    """Per-layer values of one operation, in raw seconds and counts, from a
    tracer snapshot plus cache counters the caller stored in it.  Metrics
    whose wrap target is missing are left out."""
    stats, counts = snap["stats"], snap["counts"]

    def total(*names):
        return sum(stats[n][1] for n in names if n in stats)

    def calls(name):
        return stats[name][0] if name in stats else 0

    gone = set(missing)
    out = {
        "cli.self_s": stats.get("cli.main", [0, 0.0, 0.0])[2],
        "crystal.build_s": total("crystal.build"),
        "mask.build_s": total("mask.build"),
        "mask.lift_s": total("mask.lift"),
        "accuracy.max_accuracy_s": total("accuracy.max_accuracy"),
        "accuracy.self_s": stats.get("accuracy.max_accuracy",
                                     [0, 0.0, 0.0])[2],
        "accuracy.sufficient_s": total("accuracy.sufficient_check"),
        "linalg.solve_s": total("linalg.solve_affine"),
        "linalg.solve_calls": calls("linalg.solve_affine"),
        "linalg.system_entries": counts.get("linalg.system_entries", 0),
        "linalg.kron_s": total("linalg.kron"),
        "linalg.kron_calls": calls("linalg.kron"),
        "multiidx.build_s": total("multiidx.build_Q_tilde",
                                  "multiidx.build_A_s"),
        "cascade.iterate_s": total("cascade.cascade_iterate"),
        "cascade.verify_s": total(*(f"cascade.{a}" for a in CASCADE_VERIFY)),
        "cascade.grid_nodes": counts.get("cascade.grid_nodes", 0),
        "cascade.peak_alloc_mb": counts.get(
            "cascade.cascade_iterate.peak_alloc_mb", 0.0),
    }
    cache = counts.get("multiidx.cache")
    if cache is not None:
        out["multiidx.cache_hits"] = cache["hits"]
        out["multiidx.cache_misses"] = cache["misses"]
        out["multiidx.cache_entries"] = cache["entries"]
    depends = {
        "accuracy.max_accuracy_s": ["crystacc.accuracy.max_accuracy",
                                    "crystacc.cli.max_accuracy"],
        "accuracy.self_s": ["crystacc.accuracy.max_accuracy",
                            "crystacc.cli.max_accuracy"],
        "accuracy.sufficient_s": ["crystacc.accuracy.sufficient_check"],
        "linalg.solve_s": ["crystacc.accuracy.solve_affine"],
        "linalg.solve_calls": ["crystacc.accuracy.solve_affine"],
        "linalg.system_entries": ["crystacc.accuracy.solve_affine"],
        "linalg.kron_s": ["crystacc.accuracy.kron"],
        "linalg.kron_calls": ["crystacc.accuracy.kron"],
        "multiidx.build_s": ["crystacc.accuracy.build_Q_tilde",
                             "crystacc.accuracy.build_A_s"],
        "cascade.iterate_s": ["crystacc.cascade.cascade_iterate"],
        "cascade.grid_nodes": ["crystacc.cascade.cascade_iterate"],
        "cascade.peak_alloc_mb": ["crystacc.cascade.cascade_iterate"],
        "cascade.verify_s": [f"crystacc.cascade.{a}" for a in CASCADE_VERIFY],
        "crystal.build_s": ["crystacc.cli.catalog_triple",
                            "crystacc.cli.check_admissible"],
    }
    for metric, targets in depends.items():
        if any(t in gone for t in targets):
            out.pop(metric, None)
    return out
