"""Command-line front end and the end-to-end analysis pipeline.

Subcommands (`ingest`, `build`, `metrics`, `fit`, `communities`, `compare`,
`bowtie`, `stats`) each run standalone on intermediate files so expensive
stages cache naturally; `run` executes the whole pipeline from a JSON
config into an output directory with a content-hashed manifest; both share
one implementation per stage. Subcommand outputs are written atomically
(temp file + rename). `run` writes into a staging directory inside
`out_dir` whose entries replace the previous run's only when every stage
succeeds, so a failed run leaves `out_dir` as it was. An `out_dir` that is
neither absent, empty, nor exactly an earlier run (a run `manifest.json`
listing every other file in it) is refused with exit code 1.
Runs with identical config and seeds are byte-identical, however many CPUs
`run` spreads its per-graph analyses over (one forked worker per usable CPU).

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
`run` merges its settings first, each source replacing the keys it gives:
built-ins, ONIONGRAPH_* variables (e.g. ONIONGRAPH_SEED_LOUVAIN), the config
file, `--set key=value`, the flags. The merged config is checked once. A flag
that sets a config key reads and checks its value as `--set` does, on parsing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bowtie import bowtie_decompose
from .community import (
    DEFAULT_LOUVAIN_SEED,
    Partition,
    ami,
    ami_on_common,
    louvain,
    read_partition_csv,
    write_partition_csv,
)
from .errors import DataError, OnionGraphError, ParseError, StageError, UsageError, open_input
from .fitting import DEFAULT_MIN_TAIL, bootstrap_pvalue, fit_report
from .graphs import (
    ServiceGraph,
    build_dsg,
    giant_wcc,
    intersect,
    read_graph_file,
    to_usg,
    union,
    write_graph_file,
)
from .metrics import (
    hub_reach_curve,
    read_vertex_metrics_csv,
    vertex_metrics,
    write_vertex_metrics_csv,
)
from .records import (
    iter_pages_file,
    parse_pages_file,
    persistence_report,
    summarize_services,
    write_summary_csv,
)
from .stats import (
    CorrelationMatrix,
    GainTable,
    LabelSet,
    gain_report,
    spearman_matrix,
    tag_prevalence,
)

ENV_PREFIX = "ONIONGRAPH_"


# -- serialization helpers -----------------------------------------------------


def _sanitize(obj):
    """Make a structure JSON-safe: NaN/inf -> None, numpy scalars -> python."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def dump_json(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _atomic_write(path, write) -> None:
    """Call `write(tmp)`, then rename `tmp` over `path`. On any failure
    `tmp` is removed and `path` is left as it was."""
    tmp = f"{path}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    _atomic_write(path, lambda tmp: Path(tmp).write_text(text, encoding="utf-8", newline=""))


def _read(reader, path):
    with open_input(path) as fh:
        return reader(fh)


def _read_graph(path) -> ServiceGraph:
    """The graph in file `path`, which must hold a vertex; the error names the file."""
    g = read_graph_file(path)
    if g.N == 0:
        raise DataError(f"{path}: empty graph")
    return g


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# -- run configuration -----------------------------------------------------------


def _strs_from(*allowed: str):
    """The row of a config key that takes a list of strings from `allowed`."""
    return (lambda v: isinstance(v, list) and all(s in allowed for s in v),
            f"a list of strings from {list(allowed)}",
            lambda text: [v for v in text.split(",") if v])


COMPONENT_POLICIES = ("giant-wcc", "whole")
_BOOL_WORDS = {**dict.fromkeys(("1", "true", "on", "yes"), True),
               **dict.fromkeys(("0", "false", "off", "no"), False)}
_INT = (lambda v: type(v) is int, "an integer", int)  # not a bool
_NON_NEGATIVE_INT = (lambda v: type(v) is int and v >= 0, "an integer >= 0", int)
# config key -> (accepts the value, what it must be, reads it from the text of
# --set, a flag or ONIONGRAPH_*): the key's whole contract, its type and its allowed values
_CONFIG_TYPES = {
    "snapshots": (lambda v: isinstance(v, dict) and v != {}
                  and all(isinstance(s, str) for s in [*v, *v.values()]),
                  "a non-empty object mapping strings to strings", str),
    "out_dir": (lambda v: isinstance(v, str), "a string", str),
    "labels": (lambda v: v is None or isinstance(v, str), "a string or null", str),
    "graph_sets": _strs_from("snapshots", "intersection", "union"),
    "directedness": _strs_from("directed", "undirected"),
    "component_policy": (lambda v: v in COMPONENT_POLICIES,
                         f"one of {list(COMPONENT_POLICIES)}", str),
    "weighted_rank": (lambda v: isinstance(v, bool), "true or false",
                      lambda text: _BOOL_WORDS.get(text.lower(), text)),
    "k_hubs": (lambda v: type(v) is int and v >= 1, "an integer >= 1", int),
    "seed_louvain": _INT,
    # a fit needs two distinct tail values, so every value <= 2 would fit as 2 does
    "fit_min_tail": (lambda v: type(v) is int and v >= 2, "an integer >= 2", int),
    **dict.fromkeys(("seed_fit", "fit_bootstrap"), _NON_NEGATIVE_INT),
}


def _checked(key: str, value, source: str = ""):
    """`value`, if config key `key` accepts it; else a UsageError."""
    accepts, expected, _ = _CONFIG_TYPES[key]
    if not accepts(value):
        raise UsageError(f"config key {key!r}{source} must be {expected}, got {value!r}")
    return value


def _from_text(key: str, text: str, source: str):
    """Config key `key` given as text by `source` (--set, a flag, ONIONGRAPH_*)."""
    try:
        value = _CONFIG_TYPES[key][2](text)
    except ValueError:
        value = text
    return _checked(key, value, f" (from {source})")


@dataclass
class RunConfig:
    snapshots: dict[str, str]  # snapshot id -> page-record JSONL path
    out_dir: str
    labels: str | None = None
    graph_sets: list[str] = field(default_factory=lambda: ["snapshots", "intersection", "union"])
    directedness: list[str] = field(default_factory=lambda: ["directed", "undirected"])
    component_policy: str = "giant-wcc"  # or "whole"
    weighted_rank: bool = True
    seed_louvain: int = DEFAULT_LOUVAIN_SEED
    seed_fit: int = 0
    k_hubs: int = 25
    fit_min_tail: int = DEFAULT_MIN_TAIL
    fit_bootstrap: int = 0  # replicate count for the goodness-of-fit test; 0 = off

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """The config of `raw`, whose values `validate` checks."""
        unknown = set(raw) - set(_CONFIG_TYPES)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        missing = {"snapshots", "out_dir"} - set(raw)
        if missing:
            raise UsageError(f"config is missing {sorted(missing)}")
        return cls(**raw)

    def validate(self) -> None:
        """Check every value against its config key, then the files it names."""
        for key, value in self.to_dict().items():
            _checked(key, value)
        for snap, path in self.snapshots.items():
            if not os.path.exists(path):
                raise DataError(f"snapshot {snap!r}: missing page file {path}")
        if self.labels is not None and not os.path.exists(self.labels):
            raise DataError(f"missing label file {self.labels}")
        _check_out_dir(os.path.abspath(self.out_dir))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# the top-level entries of out_dir that a run writes, and so replaces on success
RUN_ENTRIES = ("manifest.json", "ingest", "graphs", "metrics", "fits", "communities",
               "bowtie", "stats")


def _check_out_dir(out_dir: str) -> None:
    """Refuse an `out_dir` that is neither absent, empty, nor exactly an
    earlier run: every file or link in it must be a run manifest.json or
    listed there."""
    if os.path.lexists(out_dir) and not os.path.isdir(out_dir):
        raise UsageError(f"out_dir {out_dir} is not a directory")
    if not os.path.isdir(out_dir) or not os.listdir(out_dir):
        return
    refusal = f"out_dir {out_dir} is not empty and is not the output of an earlier run"
    try:
        manifest = _read(json.load, os.path.join(out_dir, "manifest.json"))
        listed = {"manifest.json"} | {a["path"] for a in manifest["artifacts"]}
        if not isinstance(manifest["config"], dict):
            raise TypeError("config is not an object")
    except (OSError, DataError, ValueError, LookupError, TypeError) as exc:
        raise UsageError(f"{refusal} (no run manifest.json: {exc})") from exc
    for root, dirnames, filenames in os.walk(out_dir):
        for entry in filenames + [d for d in dirnames if os.path.islink(os.path.join(root, d))]:
            rel = os.path.relpath(os.path.join(root, entry), out_dir)
            if rel not in listed:
                raise UsageError(f"{refusal} ({rel} is not in its manifest.json)")


# -- stages shared by `run` and the subcommands -------------------------------------


def _csv_text(writer, obj) -> str:
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()


def _mean_lcratio(pairs) -> dict[str, float]:
    """Per-service mean of (service, lcratio) pairs (for combined graphs)."""
    values: dict[str, list[float]] = {}
    for svc, lcratio in pairs:
        values.setdefault(svc, []).append(lcratio)
    return {svc: sum(vals) / len(vals) for svc, vals in values.items()}


def _ingest(summaries, persistence: bool) -> dict[str, str]:
    """File name -> text: the summaries CSV, and the persistence report if asked."""
    out = {"summaries.csv": _csv_text(write_summary_csv, summaries)}
    if persistence:
        out["persistence.json"] = dump_json(persistence_report(summaries).to_dict())
    return out


def _metrics(g: ServiceGraph, component: str, lcratio, weighted_rank: bool,
             k_hubs: int | None):
    """Metrics of `g` (or of its giant WCC) as (file suffix -> text, vertex
    metrics); the hub-reach curve of the giant WCC is included when `k_hubs`
    is given."""
    giant = giant_wcc(g)
    target = giant if component == "giant-wcc" else g
    vm = vertex_metrics(target, lcratio_by_service=lcratio, weighted_rank=weighted_rank)
    texts = {
        "global.json": dump_json(vm.global_metrics.to_dict()),
        "vertices.csv": _csv_text(write_vertex_metrics_csv, vm),
    }
    if k_hubs is not None:
        curve = hub_reach_curve(giant, k=k_hubs)
        texts["hubreach.json"] = dump_json({"k": k_hubs, "curve": curve})
    return texts, vm


def _fit(degrees, min_tail: int, n_boot: int, seed: int) -> str:
    """Fit report JSON for the positive entries of `degrees`, with the
    bootstrap goodness-of-fit fields when `n_boot` > 0."""
    sample = degrees[degrees > 0]
    fit = fit_report(sample, min_tail=min_tail)
    report = fit.to_dict()
    if n_boot > 0:
        boot = bootstrap_pvalue(sample, fit, n_boot=n_boot, seed=seed, min_tail=min_tail)
        report["bootstrap_p"] = boot.p_value
        report["bootstrap_replicates"] = boot.n_replicates
    return dump_json(report)


def _corr_csv(vm) -> str:
    return _csv_text(CorrelationMatrix.write_csv, spearman_matrix(vm))


def _gain_csv(vm, labels: LabelSet) -> str:
    return _csv_text(GainTable.write_csv, gain_report(vm, labels))


def _prevalence_json(labels: LabelSet, g: ServiceGraph) -> str:
    return dump_json(tag_prevalence(labels, g).to_dict())


# -- per-graph analysis ------------------------------------------------------------

# The stages `run` applies to each graph, in the order it applies them.
GRAPH_STAGES = ("metrics", "fit", "communities", "bowtie", "stats")
# The stage named for a failure of the worker pool itself: a worker that
# died, or an outcome that could not be sent back. The stage such a task
# reached is unknown, so it ranks before every stage of GRAPH_STAGES.
POOL_STAGE = "workers"
_FAILURE_ORDER = (POOL_STAGE, *GRAPH_STAGES)


@dataclass
class _Analysis:
    """One graph's analysis: its partition and its skipped outputs. `stage`
    is the last stage it entered and `error` what stopped it there, if
    anything did."""

    partition: Partition | None = None
    skipped: list[dict] = field(default_factory=list)
    stage: str = GRAPH_STAGES[0]
    error: Exception | None = None


def _analyse_graph(config: RunConfig, labels: LabelSet | None, graphs: dict[str, ServiceGraph],
                   lcr_for: dict[str, dict[str, float]], write, name: str) -> _Analysis:
    """Every stage of GRAPH_STAGES on graph `name`, in order, staging each
    artifact as it is made with `write(path in the run, text)`. A failure is
    returned in the outcome, not raised, so the caller can pick the one a
    stage-by-stage run over all graphs would meet first."""
    g = graphs[name]
    out = _Analysis()
    try:
        texts, vm = _metrics(g, config.component_policy, lcr_for[name], config.weighted_rank,
                             config.k_hubs)
        for suffix, text in texts.items():
            write(f"metrics/{name}.{suffix}", text)

        out.stage = "fit"
        kinds = (("in", g.in_degrees()), ("out", g.out_degrees())) if g.directed \
            else (("degree", g.degrees()),)
        for kind, degrees in kinds:
            try:
                text = _fit(degrees, config.fit_min_tail, config.fit_bootstrap, config.seed_fit)
            except DataError as exc:
                text = dump_json({"error": str(exc)})
            write(f"fits/{name}.{kind}.json", text)

        out.stage = "communities"
        out.partition = louvain(g, seed=config.seed_louvain)
        write(f"communities/{name}.partition.csv", _csv_text(write_partition_csv, out.partition))

        out.stage = "bowtie"
        if g.directed:
            write(f"bowtie/{name}.json", dump_json(bowtie_decompose(g).to_dict()))

        out.stage = "stats"
        write(f"stats/{name}.corr.csv", _corr_csv(vm))
        if labels is not None:
            for mode, fname, text in (
                ("prevalence", f"{name}.prevalence.json", lambda: _prevalence_json(labels, g)),
                ("gain", f"{name}.gain.csv", lambda: _gain_csv(vm, labels)),
            ):
                try:
                    write(f"stats/{fname}", text())
                except DataError as exc:
                    out.skipped.append({"stage": f"stats.{mode}.{name}", "reason": str(exc)})
    except Exception as exc:  # handed to the caller, which reports it as a StageError
        out.error = exc
    return out


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# the per-graph task of a pool worker, inherited from the parent at fork
_pool_task = None


def _set_pool_task(task) -> None:
    global _pool_task
    _pool_task = task


def _call_pool_task(name: str) -> _Analysis:
    return _pool_task(name)


def _outcome(future) -> _Analysis:
    try:
        return future.result()
    except Exception as exc:  # the worker died, or the outcome could not be sent back
        return _Analysis(stage=POOL_STAGE, error=exc)


def _analyse_all(task, names: list[str]) -> dict[str, _Analysis]:
    """`{name: task(name)}` for each of `names`; the tasks start in the order
    given, and each writes its own graph's files into the staging directory.

    The tasks run in a pool of forked worker processes, one per usable CPU
    and at most one per name; with one worker, or where `fork` is not
    available, they run one after another in this process. Forked workers
    inherit `task`, the graphs it holds and its write function without
    pickling them; the pipeline starts no thread of its own before the fork.
    Only the outcomes, which hold no artifact, come back.
    """
    # imported here, not with the module: at module level these imports
    # raised the subcommands' peak memory by 2-3 MiB (`stages-6000` chain)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(names), _usable_cpus())
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return {name: task(name) for name in names}
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_pool_task, initargs=(task,)) as pool:
        futures = [pool.submit(_call_pool_task, name) for name in names]
        return {name: _outcome(future) for name, future in zip(names, futures)}


# -- pipeline ----------------------------------------------------------------------


def _publish(staging: str, out_dir: str) -> None:
    """Move the entries of `staging` into `out_dir` in place of the previous
    run's, which are set aside first and removed once the new run is in
    place; if a move fails, the previous run is put back."""
    old = tempfile.mkdtemp(prefix=".old-", dir=out_dir)
    # manifest.json leaves first and arrives last, so it never lists missing files
    incoming = sorted(os.listdir(staging), key=lambda entry: (entry == "manifest.json", entry))
    moved, placed = [], []
    try:
        for entry in RUN_ENTRIES:
            if os.path.lexists(os.path.join(out_dir, entry)):
                os.replace(os.path.join(out_dir, entry), os.path.join(old, entry))
                moved.append(entry)
        for entry in incoming:
            os.replace(os.path.join(staging, entry), os.path.join(out_dir, entry))
            placed.append(entry)
    except BaseException:
        for entry in placed:
            os.replace(os.path.join(out_dir, entry), os.path.join(staging, entry))
        for entry in moved:
            os.replace(os.path.join(old, entry), os.path.join(out_dir, entry))
        os.rmdir(old)
        raise
    shutil.rmtree(old)
    os.rmdir(staging)


def run_pipeline(config: RunConfig) -> dict:
    """Execute every stage and return the manifest (also written to disk).

    The run is written into a staging directory inside `out_dir` whose
    entries replace the previous run's only when every stage has succeeded.
    A failed stage removes the staging directory, leaves `out_dir` as it was
    and raises StageError naming the stage.
    """
    config.validate()
    out_dir = os.path.abspath(config.out_dir)
    staging = None

    def path(rel: str) -> str:
        full = os.path.join(staging, rel)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        return full

    def write(rel: str, text: str) -> None:
        # the staging directory is published whole or removed whole
        Path(path(rel)).write_text(text, encoding="utf-8", newline="")

    skipped: list[dict] = []
    stage = "setup"
    try:
        labels = _read(LabelSet.from_csv, config.labels) if config.labels is not None else None
        os.makedirs(out_dir, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)

        # ingest, and each snapshot's DSG -----------------------------------------
        # a snapshot's page records are dropped once its summaries and DSG
        # exist, so no record is alive when the per-graph workers fork
        snap_ids = sorted(config.snapshots)
        summaries = {}
        dsgs = {}
        for snap in snap_ids:
            stage = "ingest"
            pages = parse_pages_file(config.snapshots[snap])
            mismatched = {p.snapshot_id for p in pages} - {snap}
            if mismatched:
                raise DataError(
                    f"{config.snapshots[snap]}: records for {sorted(mismatched)} "
                    f"found in the {snap!r} file"
                )
            summaries.update(summarize_services(pages))
            stage = "graphs"
            dsgs[snap] = build_dsg(pages, snap)
            del pages
        stage = "ingest"
        for fname, text in _ingest(summaries, persistence=len(snap_ids) >= 2).items():
            write(f"ingest/{fname}", text)
        if len(snap_ids) < 2:
            skipped.append({"stage": "ingest.persistence", "reason": "single snapshot"})

        per_snapshot_lcrs = {
            snap: {svc: s.lcratio for (sn, svc), s in summaries.items() if sn == snap}
            for snap in snap_ids
        }
        mean_lcr = _mean_lcratio((svc, s.lcratio) for (_, svc), s in summaries.items())
        del summaries

        # graphs --------------------------------------------------------------
        stage = "graphs"
        graphs: dict[str, ServiceGraph] = {}
        lcr_for: dict[str, dict[str, float]] = {}
        usgs = {snap: to_usg(dsgs[snap]) for snap in snap_ids}
        for directedness, prefix, per_snap in (("directed", "dsg", dsgs),
                                               ("undirected", "usg", usgs)):
            if directedness not in config.directedness:
                continue
            if "snapshots" in config.graph_sets:
                for snap in snap_ids:
                    graphs[f"{prefix}_{snap}"] = per_snap[snap]
                    lcr_for[f"{prefix}_{snap}"] = per_snapshot_lcrs[snap]
            if "intersection" in config.graph_sets and len(snap_ids) >= 2:
                graphs[f"{prefix}_intersection"] = intersect(list(per_snap.values()))
                lcr_for[f"{prefix}_intersection"] = mean_lcr
            if "union" in config.graph_sets:
                graphs[f"{prefix}_union"] = union(list(per_snap.values()))
                lcr_for[f"{prefix}_union"] = mean_lcr
        for name, g in graphs.items():
            if g.N == 0:
                raise DataError(f"graph {name} is empty")
            write_graph_file(g, path(f"graphs/{name}.tsv"))

        # metrics, fit, communities, bowtie, stats: one task per graph ----------
        stage = POOL_STAGE  # until every outcome is in, a failure is the pool's
        task = functools.partial(_analyse_graph, config, labels, graphs, lcr_for, write)
        analyses = _analyse_all(task, sorted(graphs, key=lambda name: (-graphs[name].M, name)))
        names = sorted(graphs)
        # the failure the stage-major order meets first: earliest stage, then graph name
        failed = sorted((_FAILURE_ORDER.index(analyses[name].stage), name)
                        for name in names if analyses[name].error is not None)
        if failed:
            first = analyses[failed[0][1]]
            stage = first.stage
            raise first.error
        for name in names:
            skipped.extend(analyses[name].skipped)
        if labels is None:
            skipped.append({"stage": "stats.labels", "reason": "no labels configured"})

        stage = "communities"
        # the matrix is symmetric, so each pair is scored once and mirrored
        matrix = [[0.0] * len(names) for _ in names]
        common_counts = [[0] * len(names) for _ in names]
        for i, a in enumerate(names):
            for j in range(i, len(names)):
                score, n_common = ami_on_common(analyses[a].partition,
                                                analyses[names[j]].partition)
                matrix[i][j] = matrix[j][i] = score
                common_counts[i][j] = common_counts[j][i] = n_common
        write("communities/ami_matrix.json",
              dump_json({"graphs": names, "ami": matrix, "common_vertices": common_counts}))

        # manifest: every file staged, by its '/'-joined path in the run --------------------
        stage = "manifest"
        staged = sorted(p.relative_to(staging).as_posix()
                        for p in Path(staging).rglob("*") if p.is_file())
        artifacts = [{"path": rel, "sha256": sha256_file(os.path.join(staging, rel))}
                     for rel in staged]
        manifest = {
            "config": config.to_dict(),
            "artifacts": artifacts,
            "skipped": sorted(skipped, key=lambda s: s["stage"]),
        }
        write("manifest.json", dump_json(manifest))
        _publish(staging, out_dir)
        return manifest
    except Exception as exc:
        raise StageError(stage, exc) from exc
    finally:
        # a published run has removed the staging directory already
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)


# -- subcommand implementations ----------------------------------------------------


def _load_pages(paths):
    return [page for path in paths for page in parse_pages_file(path)]


def _cmd_ingest(args) -> int:
    summaries = summarize_services(p for path in args.pages for p in iter_pages_file(path))
    texts = _ingest(summaries, persistence=len({snap for snap, _ in summaries}) >= 2)
    os.makedirs(args.out_dir, exist_ok=True)
    for fname, text in texts.items():
        atomic_write_text(os.path.join(args.out_dir, fname), text)
    print(f"wrote {' and '.join(texts)} to {args.out_dir}")
    return 0


def _cmd_build(args) -> int:
    if args.combine:
        if not args.inputs:
            raise UsageError("--combine needs --inputs graph files")
        graphs = [read_graph_file(p) for p in args.inputs]
        g = intersect(graphs) if args.combine == "intersection" else union(graphs)
    else:
        if not args.pages:
            raise UsageError("either page files or --combine must be given")
        pages = _load_pages(args.pages)
        snapshot = args.snapshot
        if snapshot is None:
            seen = {p.snapshot_id for p in pages}
            if len(seen) != 1:
                raise UsageError("--snapshot is required when files span snapshots")
            snapshot = seen.pop()
        g = build_dsg([p for p in pages if p.snapshot_id == snapshot], snapshot)
        if args.kind == "usg":
            g = to_usg(g)
    if args.giant:
        g = giant_wcc(g)
    _atomic_write(args.out, functools.partial(write_graph_file, g))
    print(f"wrote {g!r} to {args.out}")
    return 0


def _csv_numbers(path, column: str, key: str) -> list[tuple[str, float]] | None:
    """(`key` cell, `column` cell as a float) of each row of CSV file `path`
    whose `column` cell is not empty, or None if the file lacks either column.
    A cell that is not a number is a ParseError naming the file and the line."""
    with open_input(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not {column, key} <= set(reader.fieldnames or ()):
            return None
        try:
            return [(row[key], float(row[column])) for row in reader if row[column] != ""]
        except UnicodeDecodeError:
            raise  # a byte of the file, not a cell: the opener names its line
        except (TypeError, ValueError):  # TypeError: None, a short row's missing cell
            raise ParseError(f"{column} is not a number", reader.line_num, path) from None


def _lcratio_from_summaries_csv(path) -> dict[str, float]:
    pairs = _csv_numbers(path, "lcratio", "service")
    if pairs is None:
        raise DataError(f"{path}: summaries CSV needs the columns 'service' and 'lcratio'")
    return _mean_lcratio(pairs)


def _cmd_metrics(args) -> int:
    g = _read_graph(args.graph)
    lcr = _lcratio_from_summaries_csv(args.summaries) if args.summaries else None
    texts, _ = _metrics(g, args.component, lcr, args.weighted_rank,
                        args.k_hubs if args.hub_curve_json else None)
    outputs = {"global.json": args.global_json, "vertices.csv": args.vertex_csv,
               "hubreach.json": args.hub_curve_json}
    for suffix, text in texts.items():
        atomic_write_text(outputs[suffix], text)
    print(f"wrote global metrics to {args.global_json}, vertex metrics to {args.vertex_csv}")
    return 0


def _cmd_fit(args) -> int:
    if args.graph:
        g = _read_graph(args.graph)
        if not g.directed and args.degree != "total":
            # an undirected edge is stored smaller end first, so its in and out ends mean nothing
            raise UsageError(f"{args.graph}: --degree {args.degree} needs a directed graph; "
                             "use --degree total")
        degrees = {"in": g.in_degrees, "out": g.out_degrees, "total": g.degrees}[args.degree]()
    elif args.degrees_csv:
        pairs = _csv_numbers(args.degrees_csv, args.column, args.column)
        if pairs is None:
            raise UsageError(f"column {args.column!r} not found in {args.degrees_csv}")
        degrees = np.array([degree for _, degree in pairs])
    else:
        raise UsageError("either --graph or --degrees-csv is required")
    atomic_write_text(args.out, _fit(degrees, args.min_tail, args.bootstrap, args.seed_fit))
    print(f"wrote fit report to {args.out}")
    return 0


def _cmd_communities(args) -> int:
    part = louvain(_read_graph(args.graph), seed=args.seed_louvain)
    atomic_write_text(args.out, _csv_text(write_partition_csv, part))
    print(f"wrote {part.n_clusters} clusters to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    pa, pb = _read(read_partition_csv, args.a), _read(read_partition_csv, args.b)
    if args.restrict_common:
        score, n_common = ami_on_common(pa, pb)
    else:
        try:
            score, n_common = ami(pa, pb), pa.n_vertices
        except DataError as exc:  # the two partitions do not fit together
            raise DataError(f"{args.a} and {args.b}: {exc}") from None
    atomic_write_text(args.out, dump_json({"ami": score, "common_vertices": n_common}))
    print(f"wrote AMI report to {args.out}")
    return 0


def _cmd_bowtie(args) -> int:
    result = bowtie_decompose(_read_graph(args.graph))
    atomic_write_text(args.out, dump_json(result.to_dict()))
    print(f"wrote bow-tie decomposition to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    atomic_write_text(args.out, args.stats_text(args))
    print(f"wrote {args.stats_mode} output to {args.out}")
    return 0


def _cmd_run(args) -> int:
    """Run the pipeline on one config merged from the built-ins, then the
    ONIONGRAPH_* variables, the config file, --set and the flags, each source
    replacing the keys it gives; `run_pipeline` checks the merged values once."""
    raw = {}
    for key in ("seed_louvain", "seed_fit", "k_hubs", "weighted_rank", "fit_min_tail"):
        name = ENV_PREFIX + key.upper()
        if name in os.environ:
            raw[key] = _from_text(key, os.environ[name], name)
    try:
        from_file = _read(json.load, args.config)
    except json.JSONDecodeError as exc:
        raise DataError(f"{args.config}: invalid JSON config ({exc.msg})") from exc
    if not isinstance(from_file, dict):
        raise DataError(f"{args.config}: config must be a JSON object")
    raw.update(from_file)
    for assignment in args.set or []:
        key, is_assignment, text = assignment.partition("=")
        if not is_assignment:
            raise UsageError(f"--set expects key=value, got {assignment!r}")
        name, dotted, entry = key.partition(".")
        if dotted and name == "snapshots" and isinstance(raw.get(name, {}), dict):
            raw[name] = {**raw.get(name, {}), entry: text}
        elif dotted or key not in _CONFIG_TYPES:
            raise UsageError(f"--set: unknown config key {key!r}")
        else:
            raw[key] = _from_text(key, text, "--set")
    raw.update((key, value) for key, value in vars(args).items()
               if key in _CONFIG_TYPES and value is not None)  # the flags given, checked on parsing
    config = RunConfig.from_dict(raw)
    manifest = run_pipeline(config)
    print(f"pipeline complete: {len(manifest['artifacts'])} artifacts in {config.out_dir}")
    return 0


# -- argument parsing ------------------------------------------------------------------


def _setting(parser, flag: str, key: str, default=None) -> None:
    """Declare `flag`, setting config key `key`: read and checked as `--set` reads it."""
    parser.add_argument(flag, type=lambda text: _from_text(key, text, flag), default=default,
                        help=f"{key}: {_CONFIG_TYPES[key][1]}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oniongraph",
        description="Multi-snapshot hidden-service crawl analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="summaries and persistence report from page records")
    p.add_argument("pages", nargs="+", help="JSONL page-record files")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("build", help="build or combine service graphs")
    p.add_argument("pages", nargs="*", help="JSONL page-record files")
    p.add_argument("--snapshot", help="snapshot id (required if files span snapshots)")
    p.add_argument("--kind", choices=["dsg", "usg"], default="dsg")
    p.add_argument("--combine", choices=["intersection", "union"])
    p.add_argument("--inputs", nargs="*", help="graph files to combine")
    p.add_argument("--giant", action="store_true", help="keep only the giant component")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("metrics", help="global and per-vertex metrics of a graph")
    p.add_argument("--graph", required=True)
    _setting(p, "--component", "component_policy", RunConfig.component_policy)
    p.add_argument("--summaries", help="summaries CSV for lcratio attachment")
    p.add_argument("--global-json", required=True)
    p.add_argument("--vertex-csv", required=True)
    p.add_argument("--hub-curve-json")
    _setting(p, "--k-hubs", "k_hubs", RunConfig.k_hubs)
    _setting(p, "--weighted-rank", "weighted_rank", RunConfig.weighted_rank)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("fit", help="power-law vs log-normal degree fit")
    p.add_argument("--graph")
    p.add_argument("--degree", choices=["in", "out", "total"], default="total")
    p.add_argument("--degrees-csv", help="CSV with a degree column instead of a graph")
    p.add_argument("--column", default="degree")
    _setting(p, "--min-tail", "fit_min_tail", RunConfig.fit_min_tail)
    _setting(p, "--bootstrap", "fit_bootstrap", RunConfig.fit_bootstrap)
    _setting(p, "--seed-fit", "seed_fit", RunConfig.seed_fit)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("communities", help="Louvain partition of a graph")
    p.add_argument("--graph", required=True)
    _setting(p, "--seed-louvain", "seed_louvain", RunConfig.seed_louvain)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_communities)

    p = sub.add_parser("compare", help="AMI between two partition CSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--restrict-common", action="store_true",
                   help="compare on the shared vertex set instead of requiring equality")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bowtie", help="bow-tie decomposition of a directed graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bowtie)

    p = sub.add_parser("stats", help="correlations, prevalence, information gain")
    stats_sub = p.add_subparsers(dest="stats_mode", required=True)
    q = stats_sub.add_parser("corr", help="Spearman matrix from a vertex-metrics CSV")
    q.add_argument("--vertex-csv", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(stats_text=lambda a: _corr_csv(_read(read_vertex_metrics_csv, a.vertex_csv)))
    q = stats_sub.add_parser("prevalence", help="content-class distribution over a graph")
    q.add_argument("--labels", required=True)
    q.add_argument("--graph", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(stats_text=lambda a: _prevalence_json(_read(LabelSet.from_csv, a.labels),
                                                         _read_graph(a.graph)))
    q = stats_sub.add_parser("gain", help="information-gain matrix")
    q.add_argument("--vertex-csv", required=True)
    q.add_argument("--labels", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(stats_text=lambda a: _gain_csv(_read(read_vertex_metrics_csv, a.vertex_csv),
                                                  _read(LabelSet.from_csv, a.labels)))
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("run", help="full pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry (repeatable)")
    for key in ("out_dir", "seed_louvain", "seed_fit", "k_hubs", "weighted_rank"):
        _setting(p, "--" + key.replace("_", "-"), key)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented code 1
        return 0 if exc.code == 0 else 1
    except (OnionGraphError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, StageError) else exc
        if isinstance(cause, UsageError):
            return 1
        if isinstance(cause, (DataError, FileNotFoundError)):
            return 2
        return 3
    except Exception as exc:  # pragma: no cover - last resort
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
