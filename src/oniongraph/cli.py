"""Command-line front end and the end-to-end analysis pipeline.

Subcommands (`ingest`, `build`, `metrics`, `fit`, `communities`, `compare`,
`bowtie`, `stats`) each run standalone on intermediate files so expensive
stages cache naturally; `run` executes the whole pipeline from a JSON
config into an output directory with a content-hashed manifest. Outputs
are written atomically (temp file + rename) and runs with identical
config and seeds are byte-identical.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
Config defaults can also come from ONIONGRAPH_* environment variables
(e.g. ONIONGRAPH_SEED_LOUVAIN); explicit flags win over the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .bowtie import bowtie_decompose
from .community import (
    DEFAULT_LOUVAIN_SEED,
    ami,
    ami_on_common,
    louvain,
    read_partition_csv,
    write_partition_csv,
)
from .errors import DataError, OnionGraphError, StageError, UsageError
from .fitting import DEFAULT_MIN_TAIL, bootstrap_pvalue, fit_power_law, fit_report
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
    compute_global_metrics,
    hub_reach_curve,
    read_vertex_metrics_csv,
    vertex_metrics,
    write_vertex_metrics_csv,
)
from .records import (
    parse_pages_file,
    persistence_report,
    summarize_services,
    write_summary_csv,
)
from .stats import LabelSet, gain_report, spearman_matrix, tag_prevalence

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


def atomic_write_text(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# -- run configuration -----------------------------------------------------------


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
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        missing = {"snapshots", "out_dir"} - set(raw)
        if missing:
            raise UsageError(f"config is missing {sorted(missing)}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: invalid JSON config ({exc.msg})") from exc
        return cls.from_dict(raw)

    def apply_override(self, assignment: str) -> None:
        """Apply a --set key=value override (dotted keys reach into maps)."""
        if "=" not in assignment:
            raise UsageError(f"--set expects key=value, got {assignment!r}")
        key, value = assignment.split("=", 1)
        parts = key.split(".")
        if parts[0] not in {f.name for f in fields(self)}:
            raise UsageError(f"unknown config key {parts[0]!r}")
        current = getattr(self, parts[0])
        if len(parts) == 1:
            if isinstance(current, bool):
                setattr(self, parts[0], value.lower() in ("1", "true", "on", "yes"))
            elif isinstance(current, int):
                setattr(self, parts[0], int(value))
            elif isinstance(current, list):
                setattr(self, parts[0], [v for v in value.split(",") if v])
            else:
                setattr(self, parts[0], value)
        elif len(parts) == 2 and isinstance(current, dict):
            current[parts[1]] = value
        else:
            raise UsageError(f"cannot apply override to {key!r}")

    def validate(self) -> None:
        if len(self.snapshots) == 0:
            raise UsageError("config needs at least one snapshot")
        for snap, path in self.snapshots.items():
            if not os.path.exists(path):
                raise DataError(f"snapshot {snap!r}: missing page file {path}")
        if self.labels is not None and not os.path.exists(self.labels):
            raise DataError(f"missing label file {self.labels}")
        bad = set(self.graph_sets) - {"snapshots", "intersection", "union"}
        if bad:
            raise UsageError(f"unknown graph sets: {sorted(bad)}")
        bad = set(self.directedness) - {"directed", "undirected"}
        if bad:
            raise UsageError(f"unknown directedness values: {sorted(bad)}")
        if self.component_policy not in ("giant-wcc", "whole"):
            raise UsageError(f"unknown component policy {self.component_policy!r}")
        if self.k_hubs < 1:
            raise UsageError("k_hubs must be >= 1")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _env_defaults() -> dict:
    """ONIONGRAPH_* variables as config defaults (lowest precedence)."""
    mapping = {
        "SEED_LOUVAIN": ("seed_louvain", int),
        "SEED_FIT": ("seed_fit", int),
        "K_HUBS": ("k_hubs", int),
        "WEIGHTED_RANK": ("weighted_rank", lambda v: v.lower() in ("1", "true", "on", "yes")),
        "FIT_MIN_TAIL": ("fit_min_tail", int),
    }
    out = {}
    for suffix, (key, conv) in mapping.items():
        raw = os.environ.get(ENV_PREFIX + suffix)
        if raw is not None:
            try:
                out[key] = conv(raw)
            except ValueError as exc:
                raise UsageError(f"bad {ENV_PREFIX}{suffix}={raw!r}") from exc
    return out


# -- pipeline ----------------------------------------------------------------------


class _Workspace:
    """Tracks files written by a run so a failed stage can clean up."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.created: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, rel: str) -> str:
        full = os.path.join(self.out_dir, rel)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        return full

    def write_text(self, rel: str, text: str) -> str:
        full = self.path(rel)
        atomic_write_text(full, text)
        self.created.append(rel)
        return full

    def discard_all(self) -> None:
        for rel in self.created:
            try:
                os.remove(os.path.join(self.out_dir, rel))
            except OSError:
                pass
        # prune now-empty subdirectories, deepest first
        for root, dirs, files in os.walk(self.out_dir, topdown=False):
            if root != self.out_dir and not dirs and not files:
                try:
                    os.rmdir(root)
                except OSError:
                    pass


def _mean_lcratio(summaries) -> dict[str, float]:
    """Per-service mean of snapshot lcratio values (for combined graphs)."""
    sums: dict[str, list[float]] = {}
    for (_, svc), summary in summaries.items():
        sums.setdefault(svc, []).append(summary.lcratio)
    return {svc: sum(vals) / len(vals) for svc, vals in sums.items()}


def run_pipeline(config: RunConfig) -> dict:
    """Execute every stage and return the manifest (also written to disk).

    Any stage failure removes the partial outputs and raises StageError
    naming the stage.
    """
    config.validate()
    ws = _Workspace(config.out_dir)
    skipped: list[dict] = []
    stage = "setup"
    try:
        # ingest ------------------------------------------------------------
        stage = "ingest"
        snap_ids = sorted(config.snapshots)
        pages_by_snap = {}
        summaries = {}
        for snap in snap_ids:
            pages = parse_pages_file(config.snapshots[snap])
            mismatched = {p.snapshot_id for p in pages} - {snap}
            if mismatched:
                raise DataError(
                    f"{config.snapshots[snap]}: records for {sorted(mismatched)} "
                    f"found in the {snap!r} file"
                )
            pages_by_snap[snap] = pages
            summaries.update(summarize_services(pages))

        buf = io.StringIO()
        write_summary_csv(summaries, buf)
        ws.write_text("ingest/summaries.csv", buf.getvalue())
        if len(snap_ids) >= 2:
            report = persistence_report(summaries)
            ws.write_text("ingest/persistence.json", dump_json(report.to_dict()))
        else:
            skipped.append({"stage": "ingest.persistence", "reason": "single snapshot"})

        per_snapshot_lcrs = {
            snap: {svc: s.lcratio for (sn, svc), s in summaries.items() if sn == snap}
            for snap in snap_ids
        }
        mean_lcr = _mean_lcratio(summaries)

        # graphs --------------------------------------------------------------
        stage = "graphs"
        graphs: dict[str, ServiceGraph] = {}
        lcr_for: dict[str, dict[str, float]] = {}
        dsgs = {snap: build_dsg(pages_by_snap[snap], snap) for snap in snap_ids}
        usgs = {snap: to_usg(dsgs[snap]) for snap in snap_ids}
        if "directed" in config.directedness:
            if "snapshots" in config.graph_sets:
                for snap in snap_ids:
                    graphs[f"dsg_{snap}"] = dsgs[snap]
                    lcr_for[f"dsg_{snap}"] = per_snapshot_lcrs[snap]
            if "intersection" in config.graph_sets and len(snap_ids) >= 2:
                graphs["dsg_intersection"] = intersect(list(dsgs.values()))
                lcr_for["dsg_intersection"] = mean_lcr
            if "union" in config.graph_sets:
                graphs["dsg_union"] = union(list(dsgs.values()))
                lcr_for["dsg_union"] = mean_lcr
        if "undirected" in config.directedness:
            if "snapshots" in config.graph_sets:
                for snap in snap_ids:
                    graphs[f"usg_{snap}"] = usgs[snap]
                    lcr_for[f"usg_{snap}"] = per_snapshot_lcrs[snap]
            if "intersection" in config.graph_sets and len(snap_ids) >= 2:
                graphs["usg_intersection"] = intersect(list(usgs.values()))
                lcr_for["usg_intersection"] = mean_lcr
            if "union" in config.graph_sets:
                graphs["usg_union"] = union(list(usgs.values()))
                lcr_for["usg_union"] = mean_lcr
        for name, g in graphs.items():
            if g.N == 0:
                raise DataError(f"graph {name} is empty")
            tmp_path = ws.path(f"graphs/{name}.tsv")
            write_graph_file(g, tmp_path + ".tmp")
            os.replace(tmp_path + ".tmp", tmp_path)
            ws.created.append(f"graphs/{name}.tsv")

        # metrics ---------------------------------------------------------------
        stage = "metrics"
        vms = {}
        for name in sorted(graphs):
            g = graphs[name]
            giant = giant_wcc(g)
            target = giant if config.component_policy == "giant-wcc" else g
            gm = compute_global_metrics(target)
            ws.write_text(f"metrics/{name}.global.json", dump_json(gm.to_dict()))
            vm = vertex_metrics(target, lcratio_by_service=lcr_for[name],
                                weighted_rank=config.weighted_rank)
            vms[name] = vm
            buf = io.StringIO()
            write_vertex_metrics_csv(vm, buf)
            ws.write_text(f"metrics/{name}.vertices.csv", buf.getvalue())
            curve = hub_reach_curve(giant, k=config.k_hubs)
            ws.write_text(
                f"metrics/{name}.hubreach.json",
                dump_json({"k": config.k_hubs, "curve": curve}),
            )

        # fits ---------------------------------------------------------------------
        stage = "fit"
        for name in sorted(graphs):
            g = graphs[name]
            kinds = (("in", g.in_degrees()), ("out", g.out_degrees())) if g.directed \
                else (("degree", g.degrees()),)
            for kind, degrees in kinds:
                positive = degrees[degrees > 0]
                try:
                    rep = fit_report(positive, min_tail=config.fit_min_tail).to_dict()
                    if config.fit_bootstrap > 0:
                        pl = fit_power_law(positive, min_tail=config.fit_min_tail)
                        boot = bootstrap_pvalue(
                            positive, pl, n_boot=config.fit_bootstrap,
                            seed=config.seed_fit, min_tail=config.fit_min_tail,
                        )
                        rep["bootstrap_p"] = boot.p_value
                        rep["bootstrap_replicates"] = boot.n_replicates
                except DataError as exc:
                    rep = {"error": str(exc)}
                ws.write_text(f"fits/{name}.{kind}.json", dump_json(rep))

        # communities ------------------------------------------------------------------
        stage = "communities"
        partitions = {}
        for name in sorted(graphs):
            part = louvain(graphs[name], seed=config.seed_louvain)
            partitions[name] = part
            buf = io.StringIO()
            write_partition_csv(part, buf)
            ws.write_text(f"communities/{name}.partition.csv", buf.getvalue())
        names = sorted(partitions)
        matrix = []
        common_counts = []
        for a in names:
            row = []
            crow = []
            for b in names:
                score, n_common = ami_on_common(partitions[a], partitions[b])
                row.append(score)
                crow.append(n_common)
            matrix.append(row)
            common_counts.append(crow)
        ws.write_text(
            "communities/ami_matrix.json",
            dump_json({"graphs": names, "ami": matrix, "common_vertices": common_counts}),
        )

        # bow-tie -------------------------------------------------------------------------
        stage = "bowtie"
        for name in sorted(graphs):
            if graphs[name].directed:
                ws.write_text(f"bowtie/{name}.json",
                              dump_json(bowtie_decompose(graphs[name]).to_dict()))

        # stats ----------------------------------------------------------------------------
        stage = "stats"
        labels = None
        if config.labels is not None:
            with open(config.labels, "r", encoding="utf-8") as fh:
                labels = LabelSet.from_csv(fh)
        for name in sorted(graphs):
            corr = spearman_matrix(vms[name])
            buf = io.StringIO()
            corr.write_csv(buf)
            ws.write_text(f"stats/{name}.corr.csv", buf.getvalue())
            if labels is None:
                continue
            try:
                prev = tag_prevalence(labels, graphs[name])
                ws.write_text(f"stats/{name}.prevalence.json", dump_json(prev.to_dict()))
            except DataError as exc:
                skipped.append({"stage": f"stats.prevalence.{name}", "reason": str(exc)})
            try:
                table = gain_report(vms[name], labels)
                buf = io.StringIO()
                table.write_csv(buf)
                ws.write_text(f"stats/{name}.gain.csv", buf.getvalue())
            except DataError as exc:
                skipped.append({"stage": f"stats.gain.{name}", "reason": str(exc)})
        if labels is None:
            skipped.append({"stage": "stats.labels", "reason": "no labels configured"})

        # manifest ----------------------------------------------------------------------------
        stage = "manifest"
        artifacts = [
            {"path": rel, "sha256": sha256_file(os.path.join(config.out_dir, rel))}
            for rel in sorted(ws.created)
        ]
        manifest = {
            "config": config.to_dict(),
            "artifacts": artifacts,
            "skipped": sorted(skipped, key=lambda s: s["stage"]),
        }
        atomic_write_text(ws.path("manifest.json"), dump_json(manifest))
        return manifest
    except OnionGraphError as exc:
        ws.discard_all()
        raise StageError(stage, exc) from exc
    except Exception as exc:  # pragma: no cover - defensive
        ws.discard_all()
        raise StageError(stage, exc) from exc


# -- subcommand implementations ----------------------------------------------------


def _load_pages(paths):
    pages = []
    for path in paths:
        pages.extend(parse_pages_file(path))
    return pages


def _cmd_ingest(args) -> int:
    pages = _load_pages(args.pages)
    summaries = summarize_services(pages)
    os.makedirs(args.out_dir, exist_ok=True)
    buf = io.StringIO()
    write_summary_csv(summaries, buf)
    atomic_write_text(os.path.join(args.out_dir, "summaries.csv"), buf.getvalue())
    snapshots = {snap for snap, _ in summaries}
    if len(snapshots) >= 2:
        report = persistence_report(summaries)
        atomic_write_text(
            os.path.join(args.out_dir, "persistence.json"), dump_json(report.to_dict())
        )
        print(f"wrote summaries.csv and persistence.json to {args.out_dir}")
    else:
        print(f"wrote summaries.csv to {args.out_dir} "
              "(single snapshot: no persistence report)")
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
    write_graph_file(g, args.out)
    print(f"wrote {g!r} to {args.out}")
    return 0


def _lcratio_from_summaries_csv(path) -> dict[str, float]:
    import csv as _csv

    per_service: dict[str, list[float]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for row in _csv.DictReader(fh):
            per_service.setdefault(row["service"], []).append(float(row["lcratio"]))
    return {svc: sum(v) / len(v) for svc, v in per_service.items()}


def _cmd_metrics(args) -> int:
    g = read_graph_file(args.graph)
    giant = giant_wcc(g)
    target = giant if args.component == "giant-wcc" else g
    gm = compute_global_metrics(target)
    atomic_write_text(args.global_json, dump_json(gm.to_dict()))
    lcr = _lcratio_from_summaries_csv(args.summaries) if args.summaries else None
    vm = vertex_metrics(target, lcratio_by_service=lcr,
                        weighted_rank=args.weighted_rank == "on")
    buf = io.StringIO()
    write_vertex_metrics_csv(vm, buf)
    atomic_write_text(args.vertex_csv, buf.getvalue())
    if args.hub_curve_json:
        curve = hub_reach_curve(giant, k=args.k_hubs)
        atomic_write_text(args.hub_curve_json, dump_json({"k": args.k_hubs, "curve": curve}))
    print(f"wrote global metrics to {args.global_json}, vertex metrics to {args.vertex_csv}")
    return 0


def _cmd_fit(args) -> int:
    if args.graph:
        g = read_graph_file(args.graph)
        if args.degree == "in":
            degrees = g.in_degrees()
        elif args.degree == "out":
            degrees = g.out_degrees()
        else:
            degrees = g.degrees()
        sample = degrees[degrees > 0]
    elif args.degrees_csv:
        import csv as _csv

        with open(args.degrees_csv, "r", encoding="utf-8") as fh:
            rows = list(_csv.DictReader(fh))
        if not rows or args.column not in rows[0]:
            raise UsageError(f"column {args.column!r} not found in {args.degrees_csv}")
        values = [float(r[args.column]) for r in rows if r[args.column] != ""]
        sample = np.array([v for v in values if v > 0])
    else:
        raise UsageError("either --graph or --degrees-csv is required")
    payload = fit_report(sample, min_tail=args.min_tail).to_dict()
    if args.bootstrap > 0:
        pl = fit_power_law(sample, min_tail=args.min_tail)
        boot = bootstrap_pvalue(sample, pl, n_boot=args.bootstrap,
                                seed=args.seed_fit, min_tail=args.min_tail)
        payload["bootstrap_p"] = boot.p_value
        payload["bootstrap_replicates"] = boot.n_replicates
    atomic_write_text(args.out, dump_json(payload))
    print(f"wrote fit report to {args.out}")
    return 0


def _cmd_communities(args) -> int:
    g = read_graph_file(args.graph)
    part = louvain(g, seed=args.seed_louvain)
    buf = io.StringIO()
    write_partition_csv(part, buf)
    atomic_write_text(args.out, buf.getvalue())
    print(f"wrote {part.n_clusters} clusters to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    with open(args.a, "r", encoding="utf-8") as fh:
        pa = read_partition_csv(fh)
    with open(args.b, "r", encoding="utf-8") as fh:
        pb = read_partition_csv(fh)
    if args.restrict_common:
        score, n_common = ami_on_common(pa, pb)
        payload = {"ami": score, "common_vertices": n_common}
    else:
        payload = {"ami": ami(pa, pb), "common_vertices": pa.n_vertices}
    atomic_write_text(args.out, dump_json(payload))
    print(f"wrote AMI report to {args.out}")
    return 0


def _cmd_bowtie(args) -> int:
    g = read_graph_file(args.graph)
    result = bowtie_decompose(g)
    atomic_write_text(args.out, dump_json(result.to_dict()))
    print(f"wrote bow-tie decomposition to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    if args.stats_mode == "corr":
        with open(args.vertex_csv, "r", encoding="utf-8") as fh:
            vm = read_vertex_metrics_csv(fh)
        buf = io.StringIO()
        spearman_matrix(vm).write_csv(buf)
        atomic_write_text(args.out, buf.getvalue())
    elif args.stats_mode == "prevalence":
        with open(args.labels, "r", encoding="utf-8") as fh:
            labels = LabelSet.from_csv(fh)
        g = read_graph_file(args.graph)
        atomic_write_text(args.out, dump_json(tag_prevalence(labels, g).to_dict()))
    else:  # gain
        with open(args.vertex_csv, "r", encoding="utf-8") as fh:
            vm = read_vertex_metrics_csv(fh)
        with open(args.labels, "r", encoding="utf-8") as fh:
            labels = LabelSet.from_csv(fh)
        buf = io.StringIO()
        gain_report(vm, labels).write_csv(buf)
        atomic_write_text(args.out, buf.getvalue())
    print(f"wrote {args.stats_mode} output to {args.out}")
    return 0


def _cmd_run(args) -> int:
    # precedence: flags > --set > config file > environment > built-ins
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.config}: invalid JSON config ({exc.msg})") from exc
    for key, value in _env_defaults().items():
        raw.setdefault(key, value)
    config = RunConfig.from_dict(raw)
    for assignment in args.set or []:
        config.apply_override(assignment)
    if args.out_dir:
        config.out_dir = args.out_dir
    if args.seed_louvain is not None:
        config.seed_louvain = args.seed_louvain
    if args.seed_fit is not None:
        config.seed_fit = args.seed_fit
    if args.k_hubs is not None:
        config.k_hubs = args.k_hubs
    if args.weighted_rank is not None:
        config.weighted_rank = args.weighted_rank == "on"
    manifest = run_pipeline(config)
    print(f"pipeline complete: {len(manifest['artifacts'])} artifacts in {config.out_dir}")
    return 0


# -- argument parsing ------------------------------------------------------------------


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
    p.add_argument("--component", choices=["giant-wcc", "whole"], default="giant-wcc")
    p.add_argument("--summaries", help="summaries CSV for lcratio attachment")
    p.add_argument("--global-json", required=True)
    p.add_argument("--vertex-csv", required=True)
    p.add_argument("--hub-curve-json")
    p.add_argument("--k-hubs", type=int, default=25)
    p.add_argument("--weighted-rank", choices=["on", "off"], default="on")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("fit", help="power-law vs log-normal degree fit")
    p.add_argument("--graph")
    p.add_argument("--degree", choices=["in", "out", "total"], default="total")
    p.add_argument("--degrees-csv", help="CSV with a degree column instead of a graph")
    p.add_argument("--column", default="degree")
    p.add_argument("--min-tail", type=int, default=DEFAULT_MIN_TAIL)
    p.add_argument("--bootstrap", type=int, default=0,
                   help="goodness-of-fit replicates (expensive; 0 disables)")
    p.add_argument("--seed-fit", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("communities", help="Louvain partition of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed-louvain", type=int, default=DEFAULT_LOUVAIN_SEED)
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
    q.set_defaults(func=_cmd_stats)
    q = stats_sub.add_parser("prevalence", help="content-class distribution over a graph")
    q.add_argument("--labels", required=True)
    q.add_argument("--graph", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_stats)
    q = stats_sub.add_parser("gain", help="information-gain matrix")
    q.add_argument("--vertex-csv", required=True)
    q.add_argument("--labels", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_stats)

    p = sub.add_parser("run", help="full pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry (repeatable)")
    p.add_argument("--out-dir")
    p.add_argument("--seed-louvain", type=int)
    p.add_argument("--seed-fit", type=int)
    p.add_argument("--k-hubs", type=int)
    p.add_argument("--weighted-rank", choices=["on", "off"])
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented code 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except StageError as exc:
        cause = exc.cause
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(cause, UsageError):
            return 1
        if isinstance(cause, DataError):
            return 2
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OnionGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last resort
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
