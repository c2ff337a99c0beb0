"""Span tracer for the benchmark's traced runs, and the per-layer metrics
derived from its spans.

`Tracer.install()` replaces every public module-level function of the
traced oniongraph modules wherever it is bound: in its defining module and
in every other oniongraph module that imported the name (for example
`oniongraph.cli.vertex_metrics` or the re-export in `oniongraph`).
`restore()` puts every original back. Spans (name, start, end, parent) are
kept in compact arrays in memory and written out by `save()` when the run
ends; `layer_metrics()` turns a saved span file into the per-layer
metrics. The program itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "oniongraph"
# `synth` only generates inputs (set-up) and `errors` defines no functions.
LAYERS = ("records", "graphs", "metrics", "fitting", "community", "bowtie", "stats", "cli")
# A per-hyperlink predicate: wrapping it would add one span per link, which
# would dominate the trace of a graph build without telling anything new.
UNTRACED = frozenset({"graphs.is_onion_id"})


def _neighbor_pairs(args, result):
    g = args["g"]
    k = g.out_degrees() if g.directed else g.degrees()
    return {"neighbor_pairs": int((k * (k - 1) // 2).sum()), "analysed_n": g.N}


def _bootstrap(args, result):
    usable = result.n_replicates if result is not None else 0
    return {"attempted": args["n_boot"], "usable": usable}


def _pages(args, result):
    return {"pages": len(result) if result is not None else 0}


def _edges(args, result):
    return {"edges": result.M if result is not None else 0}


# Counts read from a traced call's arguments and result once it has ended.
NOTES = {
    "records.parse_pages": _pages,
    "records.parse_pages_file": _pages,
    "graphs.build_dsg": _edges,
    "graphs.to_usg": _edges,
    "graphs.intersect": _edges,
    "graphs.union": _edges,
    "metrics.vertex_metrics": _neighbor_pairs,
    "community.louvain": lambda args, result: {
        "clusters": result.n_clusters if result is not None else 0
    },
    "fitting.bootstrap_pvalue": _bootstrap,
}


class Tracer:
    def __init__(self, package=PACKAGE, layers=LAYERS, untraced=UNTRACED,
                 clock=time.perf_counter):
        self.package = package
        self.layers = layers
        self.untraced = untraced
        self.clock = clock
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, str] = {}
        self.notes: list[tuple[int, str, float]] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in self.layers:
            module = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in vars(module).items():
                qualname = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__ or qualname in self.untraced):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(qualname, obj))
        prefix = self.package + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == self.package or modname.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def restore(self) -> None:
        while self._patched:
            module, attr, obj = self._patched.pop()
            setattr(module, attr, obj)

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        note = NOTES.get(qualname)
        signature = inspect.signature(fn) if note is not None else None
        clock, stack = self.clock, self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            result = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if note is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, value in note(bound.arguments, result).items():
                        self.notes.append((idx, key, float(value)))

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.asarray(self.name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            error_idx=np.array(list(self.errors), dtype=np.int64),
            error_type=np.array(list(self.errors.values()), dtype=str),
            note_idx=np.array([n[0] for n in self.notes], dtype=np.int64),
            note_key=np.array([n[1] for n in self.notes], dtype=str),
            note_value=np.array([n[2] for n in self.notes], dtype=np.float64),
        )


class Spans:
    """A saved trace with the queries the layer metrics need. Every function
    name a query mentions is remembered, so names the program no longer
    defines can be reported as absent."""

    def __init__(self, path):
        with np.load(path, allow_pickle=False) as z:
            data = {key: z[key] for key in z.files}
        self.names = [str(n) for n in data["names"]]
        self.name = data["name"].astype(np.int64)
        self.parent = data["parent"].astype(np.int64)
        self.duration = data["end"] - data["start"]
        self.error = np.zeros(self.name.size, dtype=bool)
        self.error[data["error_idx"]] = True
        self.note_idx = data["note_idx"]
        self.note_key = data["note_key"]
        self.note_value = data["note_value"]
        self.asked: set[str] = set()
        child = np.zeros(self.name.size)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child

    def _mask(self, functions) -> np.ndarray:
        self.asked.update(functions)
        ids = [i for i, n in enumerate(self.names) if n in functions]
        return np.isin(self.name, ids)

    def outermost(self, functions, stop=()) -> np.ndarray:
        """Spans of `functions` with no ancestor among `functions` or
        `stop`, so nested and recursive calls are counted once."""
        member = self._mask(functions)
        blocking = member | self._mask(stop)
        blocked = np.zeros(self.name.size, dtype=bool)
        up = self.parent.copy()
        while np.any(up >= 0):
            live = up >= 0
            blocked[live] |= blocking[up[live]]
            up = np.where(live, self.parent[np.maximum(up, 0)], -1)
        return member & ~blocked

    def time(self, functions, stop=()) -> float:
        return float(self.duration[self.outermost(functions, stop)].sum())

    def calls(self, functions, outermost=True) -> int:
        mask = self.outermost(functions) if outermost else self._mask(functions)
        return int(mask.sum())

    def self_of(self, functions) -> float:
        return float(self.self_time[self._mask(functions)].sum())

    def errors(self, functions, outermost=True) -> int:
        mask = self.outermost(functions) if outermost else self._mask(functions)
        return int((mask & self.error).sum())

    def note(self, key: str, functions) -> float:
        keep = self.outermost(functions)[self.note_idx] & (self.note_key == key)
        return float(self.note_value[keep].sum())

    def module_self(self, module: str) -> float:
        prefix = module + "."
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return float(self.self_time[np.isin(self.name, ids)].sum())

    def absent(self) -> list[str]:
        return sorted(self.asked - set(self.names))


PARSE = ("records.parse_pages_file", "records.parse_pages")
SUMMARIZE = ("records.summarize_services", "records.persistence_report",
             "records.write_summary_csv")
BUILD = ("graphs.build_dsg", "graphs.to_usg", "graphs.intersect", "graphs.union")
GRAPH_IO = ("graphs.write_graph_file", "graphs.read_graph_file")
FIT = ("fitting.fit_report", "fitting.fit_power_law", "fitting.fit_lognormal",
       "fitting.compare_fits")
BOOTSTRAP = ("fitting.bootstrap_pvalue",)
AMI = ("community.ami", "community.ami_on_common")
SPEARMAN = ("stats.spearman_matrix", "stats.spearman")
GAIN = ("stats.gain_report", "stats.info_gain")
STATS_SKIPPABLE = ("stats.tag_prevalence", "stats.gain_report", "stats.info_gain")


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer metrics of one traced run (every name in LAYER_UNITS except
    the ones the caller measures outside the trace)."""
    s = spans
    attempted = s.note("attempted", BOOTSTRAP)
    m = {
        "records.parse_s": s.time(PARSE),
        "records.pages": s.note("pages", PARSE),
        "records.summarize_s": s.time(SUMMARIZE),
        "graphs.build_s": s.time(BUILD),
        "graphs.io_s": s.time(GRAPH_IO),
        "graphs.giant_wcc_s": s.time(["graphs.giant_wcc"]),
        "graphs.giant_wcc_calls": s.calls(["graphs.giant_wcc"], outermost=False),
        "graphs.edges": s.note("edges", BUILD),
        "metrics.distance_stats_s": s.time(["metrics.distance_stats"]),
        "metrics.transitivity_s": s.time(["metrics.global_transitivity"]),
        "metrics.vertex_s": s.time(["metrics.vertex_metrics"]),
        "metrics.vertex_self_s": s.self_of(["metrics.vertex_metrics"]),
        "metrics.bfs_s": s.time(["metrics.bfs_distances"]),
        "metrics.bfs_sources": s.calls(["metrics.bfs_distances"], outermost=False),
        "metrics.analysed_n": s.note("analysed_n", ["metrics.vertex_metrics"]),
        "metrics.neighbor_pairs": s.note("neighbor_pairs", ["metrics.vertex_metrics"]),
        "metrics.rank_s": s.time(["metrics.pagerank", "metrics.hits"]),
        "metrics.hub_reach_s": s.time(["metrics.hub_reach_curve"]),
        "metrics.csv_s": s.time(["metrics.write_vertex_metrics_csv",
                                 "metrics.read_vertex_metrics_csv"]),
        "fitting.fit_s": s.time(FIT, stop=BOOTSTRAP),
        "fitting.bootstrap_s": s.time(BOOTSTRAP),
        "fitting.refits": s.calls(["fitting.fit_power_law"], outermost=False),
        "fitting.bootstrap_usable_ratio":
            s.note("usable", BOOTSTRAP) / attempted if attempted else 0.0,
        "fitting.fit_errors": s.errors(FIT + BOOTSTRAP),
        "community.louvain_s": s.time(["community.louvain"]),
        "community.ami_s": s.time(AMI),
        "community.ami_calls": s.calls(AMI),
        "community.clusters": s.note("clusters", ["community.louvain"]),
        "bowtie.decompose_s": s.time(["bowtie.bowtie_decompose"]),
        "stats.spearman_s": s.time(SPEARMAN),
        "stats.gain_s": s.time(GAIN),
        "stats.skipped": s.errors(STATS_SKIPPABLE, outermost=False),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s.module_self(layer)
    m["trace.absent"] = len(s.absent())
    return m


# Every per-layer metric the traced run reports, with its unit. The `cli.*`
# entries other than `cli.self_s` are measured by the benchmark around the
# worker, not from spans.
LAYER_UNITS = {
    "records.parse_s": "s", "records.pages": "count", "records.summarize_s": "s",
    "graphs.build_s": "s", "graphs.io_s": "s", "graphs.giant_wcc_s": "s",
    "graphs.giant_wcc_calls": "count", "graphs.edges": "count",
    "metrics.distance_stats_s": "s", "metrics.transitivity_s": "s",
    "metrics.vertex_s": "s", "metrics.vertex_self_s": "s", "metrics.bfs_s": "s",
    "metrics.bfs_sources": "count", "metrics.analysed_n": "count",
    "metrics.neighbor_pairs": "count", "metrics.rank_s": "s",
    "metrics.hub_reach_s": "s", "metrics.csv_s": "s",
    "fitting.fit_s": "s", "fitting.bootstrap_s": "s", "fitting.refits": "count",
    "fitting.bootstrap_usable_ratio": "ratio", "fitting.fit_errors": "count",
    "community.louvain_s": "s", "community.ami_s": "s", "community.ami_calls": "count",
    "community.clusters": "count",
    "bowtie.decompose_s": "s",
    "stats.spearman_s": "s", "stats.gain_s": "s", "stats.skipped": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.artifacts": "count", "cli.bytes_written": "bytes", "cli.cpu_s": "s",
    "cli.traced_run_s": "s", "cli.trace_overhead_s": "s",
    "trace.absent": "count",
}
