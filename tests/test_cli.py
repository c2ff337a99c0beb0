import concurrent.futures
import glob
import json
import multiprocessing
import os
import random
import stat
from dataclasses import fields

import numpy as np
import pytest

from oniongraph import cli, fitting, metrics
from oniongraph.cli import RunConfig, dump_json, main, run_pipeline, sha256_file
from oniongraph.errors import DataError, StageError, UsageError
from oniongraph.graphs import (
    build_dsg,
    giant_wcc,
    intersect,
    read_graph_file,
    to_usg,
    union,
)
from oniongraph.records import parse_pages_file
from oniongraph.synth import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Small synthetic corpus shared by the CLI tests."""
    root = tmp_path_factory.mktemp("corpus")
    spec = CorpusSpec(n_services=160, community_size=18, n_linkers=50, seed=11)
    corpus = generate_corpus(spec)
    paths = corpus.write(root)
    return root, paths, corpus


VERTEX_HEADER = ",".join(metrics.VERTEX_CSV_COLUMNS)
METRICS_ARGV = ["metrics", "--graph", "{graph}", "--summaries", "{bad}",
                "--global-json", "{out}", "--vertex-csv", "{vertices}"]


def make_config(paths, corpus, out_dir, **overrides):
    cfg = {
        "snapshots": {s: str(paths[s]) for s in corpus.spec.snapshots},
        "labels": str(paths["labels"]),
        "out_dir": str(out_dir),
        "fit_min_tail": 20,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def files_under(root):
    """Relative paths (with '/') of every file below `root`."""
    return {
        os.path.relpath(os.path.join(dirpath, f), root).replace(os.sep, "/")
        for dirpath, _, files in os.walk(root)
        for f in files
    }


def write_tiny_pages(tmp_path):
    """A one-snapshot page file of five services, small enough that a whole
    `run` over it takes a fraction of a second."""
    links = {"a": "bc", "b": "cd", "c": "da", "d": "ab", "e": "a"}
    path = tmp_path / "s1.jsonl"
    path.write_text("".join(
        json.dumps({"snapshot": "S1", "service": f"{s}.onion", "path": "/", "depth": 0,
                    "chars": 100, "links": [f"{t}.onion" for t in targets]}) + "\n"
        for s, targets in links.items()))
    return path


def merged_config(monkeypatch, tmp_path, cfg, *argv):
    """The config `oniongraph run` hands to the pipeline for `cfg` and `argv`."""
    configs = []
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda config: configs.append(config) or {"artifacts": []})
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), *argv]) == 0
    return configs[0]


class TestSubcommands:
    def test_ingest(self, corpus_dir, tmp_path, capsys):
        root, paths, corpus = corpus_dir
        out = tmp_path / "ingest"
        rc = main(["ingest", *(str(paths[s]) for s in corpus.spec.snapshots),
                   "--out-dir", str(out)])
        assert rc == 0
        assert (out / "summaries.csv").exists()
        report = json.loads((out / "persistence.json").read_text())
        assert report["total_services"] == corpus.spec.n_services

    def test_build_metrics_fit_communities_bowtie(self, corpus_dir, tmp_path):
        root, paths, corpus = corpus_dir
        snap = corpus.spec.snapshots[0]
        graph = tmp_path / "dsg.tsv"
        assert main(["build", str(paths[snap]), "--snapshot", snap,
                     "--kind", "dsg", "--out", str(graph)]) == 0
        assert graph.exists()

        gj, vc, hb = tmp_path / "g.json", tmp_path / "v.csv", tmp_path / "h.json"
        assert main(["metrics", "--graph", str(graph), "--global-json", str(gj),
                     "--vertex-csv", str(vc), "--hub-curve-json", str(hb),
                     "--k-hubs", "10"]) == 0
        payload = json.loads(gj.read_text())
        assert payload["directed"] is True and payload["n"] > 0
        curve = json.loads(hb.read_text())["curve"]
        assert len(curve) == 10

        fit_out = tmp_path / "fit.json"
        assert main(["fit", "--graph", str(graph), "--degree", "out",
                     "--min-tail", "20", "--out", str(fit_out)]) == 0
        assert json.loads(fit_out.read_text())["alpha"] > 1

        part = tmp_path / "part.csv"
        assert main(["communities", "--graph", str(graph), "--seed-louvain", "3",
                     "--out", str(part)]) == 0
        ami_out = tmp_path / "ami.json"
        assert main(["compare", "--a", str(part), "--b", str(part),
                     "--out", str(ami_out)]) == 0
        assert json.loads(ami_out.read_text())["ami"] == pytest.approx(1.0, abs=1e-9)

        bt = tmp_path / "bowtie.json"
        assert main(["bowtie", "--graph", str(graph), "--out", str(bt)]) == 0
        counts = json.loads(bt.read_text())["counts"]
        assert sum(counts.values()) == payload["n"] or sum(counts.values()) >= payload["n"]

    def test_stats_subcommands(self, corpus_dir, tmp_path):
        root, paths, corpus = corpus_dir
        snap = corpus.spec.snapshots[0]
        graph = tmp_path / "g.tsv"
        main(["build", str(paths[snap]), "--snapshot", snap, "--out", str(graph)])
        vc = tmp_path / "v.csv"
        main(["metrics", "--graph", str(graph), "--global-json", str(tmp_path / "gj.json"),
              "--vertex-csv", str(vc)])
        corr = tmp_path / "corr.csv"
        assert main(["stats", "corr", "--vertex-csv", str(vc), "--out", str(corr)]) == 0
        assert corr.read_text().startswith("metric,")
        prev = tmp_path / "prev.json"
        assert main(["stats", "prevalence", "--labels", str(paths["labels"]),
                     "--graph", str(graph), "--out", str(prev)]) == 0
        assert 0 < json.loads(prev.read_text())["coverage"] <= 1
        gain = tmp_path / "gain.csv"
        assert main(["stats", "gain", "--vertex-csv", str(vc),
                     "--labels", str(paths["labels"]), "--out", str(gain)]) == 0

    def test_fit_from_degree_csv(self, corpus_dir, tmp_path):
        root, paths, corpus = corpus_dir
        snap = corpus.spec.snapshots[0]
        graph = tmp_path / "g.tsv"
        main(["build", str(paths[snap]), "--snapshot", snap, "--out", str(graph)])
        vc = tmp_path / "v.csv"
        main(["metrics", "--graph", str(graph), "--global-json", str(tmp_path / "gj.json"),
              "--vertex-csv", str(vc)])
        out = tmp_path / "fit.json"
        assert main(["fit", "--degrees-csv", str(vc), "--column", "out_degree",
                     "--min-tail", "20", "--out", str(out)]) == 0

    @pytest.mark.parametrize("argv,expected", [
        pytest.param(["{pages}", "--snapshot", "{snap}", "--kind", "usg"],
                     lambda dsgs: to_usg(dsgs[0]), id="usg"),
        pytest.param(["--combine", "intersection", "--inputs", "{dsgs}"], intersect,
                     id="intersection"),
        pytest.param(["--combine", "union", "--inputs", "{dsgs}"], union, id="union"),
        pytest.param(["--combine", "union", "--giant", "--inputs", "{dsgs}"],
                     lambda dsgs: giant_wcc(union(dsgs)), id="union-giant"),
    ])
    def test_build_modes_match_the_library(self, corpus_dir, tmp_path, argv, expected):
        root, paths, corpus = corpus_dir
        snaps = corpus.spec.snapshots
        dsgs, inputs = [], []
        for snap in snaps:
            dsgs.append(build_dsg(parse_pages_file(paths[snap]), snap))
            inputs.append(str(tmp_path / f"dsg_{snap}.tsv"))
            assert main(["build", str(paths[snap]), "--out", inputs[-1]]) == 0
            assert read_graph_file(inputs[-1]) == dsgs[-1]
        args = {"{pages}": [str(paths[snaps[0]])], "{snap}": [snaps[0]], "{dsgs}": inputs}
        out = tmp_path / "built.tsv"
        assert main(["build", *(a for arg in argv for a in args.get(arg, [arg])),
                     "--out", str(out)]) == 0
        assert read_graph_file(out) == expected(dsgs)

    def test_metrics_of_one_edge_graph(self, tmp_path):
        graph = tmp_path / "pair.tsv"
        graph.write_text("# directed\na.onion\tb.onion\t1\n")
        gj = tmp_path / "g.json"
        assert main(["metrics", "--graph", str(graph), "--global-json", str(gj),
                     "--vertex-csv", str(tmp_path / "v.csv")]) == 0
        text = gj.read_text()
        assert '"out_centralization": null' in text
        payload = json.loads(text)
        assert (payload["n"], payload["diameter"], payload["global_efficiency"]) == (2, 1, 0.5)

    def test_fit_scans_once_before_the_bootstrap(self, monkeypatch):
        calls = []
        original = fitting.fit_power_law

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (fitting, cli):
            if getattr(module, "fit_power_law", None) is original:
                monkeypatch.setattr(module, "fit_power_law", counting)
        sample = fitting.sample_power_law(2.5, 1, 400, np.random.default_rng(4))
        report = json.loads(cli._fit(sample, min_tail=20, n_boot=3, seed=0))
        assert len(calls) == 1 + 3
        assert report["bootstrap_replicates"] <= 3


def count_calls(monkeypatch, module, names):
    """Name -> call count of the module functions `names`, from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


class TestOnePassPerGraph:
    """The all-sources distance pass, which also counts the closed pairs,
    runs once for each analysed graph: the global metrics reduce the vertex
    pass."""

    PASSES = ("_distance_blocks",)

    def test_run(self, corpus_dir, tmp_path, monkeypatch):
        root, paths, corpus = corpus_dir
        # counted in this process, so the graphs are analysed in this process
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        counts = count_calls(monkeypatch, metrics, self.PASSES)
        manifest = run_pipeline(RunConfig.from_dict(make_config(paths, corpus, tmp_path / "out")))
        graphs = sum(a["path"].endswith(".global.json") for a in manifest["artifacts"])
        assert graphs == 10
        assert counts == dict.fromkeys(self.PASSES, graphs)

    def test_metrics_subcommand(self, corpus_dir, tmp_path, monkeypatch):
        root, paths, corpus = corpus_dir
        snap = corpus.spec.snapshots[0]
        graph = tmp_path / "g.tsv"
        assert main(["build", str(paths[snap]), "--snapshot", snap, "--out", str(graph)]) == 0
        counts = count_calls(monkeypatch, metrics, self.PASSES)
        assert main(["metrics", "--graph", str(graph), "--global-json", str(tmp_path / "g.json"),
                     "--vertex-csv", str(tmp_path / "v.csv")]) == 0
        assert counts == dict.fromkeys(self.PASSES, 1)


class TestExitCodes:
    def test_usage_error_is_1(self, tmp_path):
        assert main(["build", "--out", str(tmp_path / "g.tsv")]) == 1

    def test_unknown_flag_is_1(self):
        assert main(["ingest", "--nope"]) == 1

    def test_data_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"snapshot": "S1"}\n')
        assert main(["ingest", str(bad), "--out-dir", str(tmp_path / "o")]) == 2

    def test_missing_file_is_2(self, tmp_path):
        assert main(["bowtie", "--graph", str(tmp_path / "none.tsv"),
                     "--out", str(tmp_path / "o.json")]) == 2

    def test_bootstrap_draw_past_int64_is_2(self, tmp_path):
        # a flat tail (fitted alpha 1.12) whose model draws overflow int64
        rng = np.random.default_rng(3)
        flat = np.minimum(np.floor(1 + rng.pareto(0.12, 3000)), 10**15).astype(np.int64)
        degrees = tmp_path / "flat.csv"
        degrees.write_text("degree\n" + "".join(f"{d}\n" for d in flat))
        assert main(["fit", "--degrees-csv", str(degrees), "--bootstrap", "5",
                     "--out", str(tmp_path / "fit.json")]) == 2

    @pytest.mark.parametrize("key,value", [
        ("k_hubs", "5"), ("k_hubs", True), ("seed_fit", 1.5), ("fit_bootstrap", None),
        ("weighted_rank", "off"), ("weighted_rank", 1), ("graph_sets", "union"),
        ("directedness", ["directed", 1]), ("snapshots", ["S1"]), ("snapshots", {"S1": 5}),
        ("labels", 5), ("labels", ["l.tsv"]), ("out_dir", 5), ("component_policy", None),
        ("snapshots", {}), ("graph_sets", ["union", "all"]), ("directedness", ["both"]),
        ("component_policy", "largest"), ("k_hubs", 0), ("seed_fit", -1), ("fit_bootstrap", -1),
        ("fit_min_tail", 1), ("fit_min_tail", True),
    ])
    def test_config_value_of_wrong_type_is_1(self, tmp_path, capsys, key, value):
        pages = tmp_path / "s1.jsonl"
        pages.write_text("")
        config = {"snapshots": {"S1": str(pages)}, "out_dir": str(tmp_path / "out"), key: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 1
        assert f"config key {key!r} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,env", [
        (["--set", "k_hubs=abc"], {}),
        (["--set", "weighted_rank=maybe"], {}),
        ([], {"ONIONGRAPH_WEIGHTED_RANK": "maybe"}),
        ([], {"ONIONGRAPH_K_HUBS": "7.5"}),
    ])
    def test_config_text_of_wrong_type_is_1(self, tmp_path, capsys, monkeypatch, argv, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        pages = tmp_path / "s1.jsonl"
        pages.write_text("")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"snapshots": {"S1": str(pages)},
                                    "out_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path), *argv]) == 1
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,config,code,message", [
        (["--set", "seed_fit"], {}, 1, "--set expects key=value"),
        (["--set", "bogus=1"], {}, 1, "unknown config key 'bogus'"),
        ([], "{not json", 2, "invalid JSON config"),
        ([], "\udcff{}", 2, "config.json: line 1: byte ff is not UTF-8 (invalid start byte)"),
        ([], "[]", 2, "config must be a JSON object"),
        ([], {"out_dir": None}, 1, "config is missing ['out_dir']"),
        ([], {"snapshots": {"S1": "{missing}"}}, 2, "missing page file"),
        ([], {"labels": "{missing}"}, 2, "missing label file"),
    ])
    def test_bad_run_input_is_reported_before_any_output(self, tmp_path, capsys, argv, config,
                                                          code, message):
        pages, missing = write_tiny_pages(tmp_path), str(tmp_path / "missing")
        cfg = {"snapshots": {"S1": str(pages)}, "out_dir": str(tmp_path / "out")}
        if isinstance(config, dict):
            cfg.update(config)
            config = json.dumps({key: value for key, value in cfg.items() if value is not None})
        path = tmp_path / "config.json"
        # "\udcXX" stands for the byte 0xXX, which does not decode
        path.write_bytes(config.replace("{missing}", missing).encode("utf-8", "surrogateescape"))
        assert main(["run", "--config", str(path), *argv]) == code
        assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["config.json", pages.name]

    @pytest.mark.parametrize("argv,message", [
        ([], "either --graph or --degrees-csv is required"),
        (["--degrees-csv", "{degrees}"], "column 'degree' not found"),
    ])
    def test_fit_without_degrees_is_1(self, tmp_path, capsys, argv, message):
        degrees = tmp_path / "degrees.csv"
        degrees.write_text("in_degree\n3\n")
        out = tmp_path / "fit.json"
        assert main(["fit", *(a.format(degrees=degrees) for a in argv), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("degree", ["in", "out"])
    def test_fit_of_in_or_out_degrees_of_an_undirected_graph_is_1(self, tmp_path, capsys,
                                                                   degree):
        # an undirected edge is stored smaller end first: this star would give
        # out-degrees [3, 0, 0, 0] and in-degrees [0, 1, 1, 1]
        graph, out = tmp_path / "u.tsv", tmp_path / "fit.json"
        graph.write_text("# undirected\n" + "".join(f"a.onion\t{v}.onion\t1\n" for v in "bcd"))
        assert main(["fit", "--graph", str(graph), "--degree", degree, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {graph}: --degree {degree} needs a directed "
                                           "graph; use --degree total\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,text", [
        ("metrics", "--component", "largest"),
        ("metrics", "--k-hubs", "0"),
        ("metrics", "--k-hubs", "-4"),
        ("metrics", "--weighted-rank", "maybe"),
        ("fit", "--min-tail", "2.5"),
        ("fit", "--min-tail", "1"),
        ("fit", "--min-tail", "0"),
        ("fit", "--min-tail", "-5"),
        ("fit", "--bootstrap", "-3"),
        ("fit", "--seed-fit", "-1"),
        ("communities", "--seed-louvain", "x"),
        ("run", "--seed-louvain", "1.5"),
        ("run", "--seed-fit", "-1"),
        ("run", "--k-hubs", "0"),
        ("run", "--weighted-rank", "maybe"),
    ])
    def test_setting_flag_out_of_domain_is_1_before_any_file_is_read(
            self, tmp_path, capsys, command, flag, text):
        # every input named is missing: reading one would exit 2, not 1
        missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
        argv = {
            "metrics": ["--graph", missing, "--global-json", out, "--vertex-csv", out,
                        "--hub-curve-json", out],
            "fit": ["--graph", missing, "--bootstrap", "2", "--out", out],
            "communities": ["--graph", missing, "--out", out],
            "run": ["--config", missing, "--out-dir", out],
        }[command]
        assert main([command, *argv, flag, text]) == 1
        assert f"(from {flag}) must be" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("word,expected", [
        ("1", True), ("TRUE", True), ("on", True), ("yes", True),
        ("0", False), ("false", False), ("Off", False), ("no", False),
    ])
    def test_bool_words_from_set_and_environment(self, tmp_path, monkeypatch, word, expected):
        cfg = {"snapshots": {"S1": "s1.jsonl"}, "out_dir": "out"}
        config = merged_config(monkeypatch, tmp_path, {**cfg, "weighted_rank": not expected},
                               "--set", f"weighted_rank={word}")
        assert config.weighted_rank is expected
        monkeypatch.setenv("ONIONGRAPH_WEIGHTED_RANK", word)
        assert merged_config(monkeypatch, tmp_path, cfg).weighted_rank is expected

    def test_bad_line_in_last_ingest_file_is_2_and_writes_nothing(self, corpus_dir, tmp_path,
                                                                 capsys):
        root, paths, corpus = corpus_dir
        files = [str(paths[s]) for s in corpus.spec.snapshots]
        last = tmp_path / "last.jsonl"
        lines = open(files[-1]).read().splitlines()
        last.write_text("\n".join([lines[0], "{not json", *lines[1:]]) + "\n")
        out = tmp_path / "ingest"
        assert main(["ingest", *files[:-1], str(last), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {last}: line 2: invalid JSON (")
        assert not (out / "summaries.csv").exists()
        assert not (out / "persistence.json").exists()

    def test_bad_line_in_run_names_the_snapshot_file(self, corpus_dir, tmp_path, capsys):
        root, paths, corpus = corpus_dir
        bad = tmp_path / "bad.jsonl"
        bad.write_text(open(paths["SNP3"]).read() + '{"snapshot": "SNP3"}\n')
        cfg = make_config(paths, corpus, tmp_path / "out")
        cfg["snapshots"]["SNP3"] = str(bad)
        n_lines = len(bad.read_text().splitlines())
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert (f"stage 'ingest' failed: {bad}: line {n_lines}: field 'service' is missing"
                in capsys.readouterr().err)

    def test_config_built_in_python_is_checked_by_the_pipeline(self, tmp_path):
        config = RunConfig(snapshots={"S1": str(write_tiny_pages(tmp_path))},
                           out_dir=str(tmp_path / "out"), k_hubs="5")
        with pytest.raises(UsageError, match="config key 'k_hubs' must be an integer >= 1"):
            run_pipeline(config)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,text,line", [
        pytest.param(["compare", "--a", "{bad}", "--b", "{partition}", "--out", "{out}"],
                     "vertex,cluster\na.onion,x\n", 2, id="partition-cluster"),
        pytest.param(["fit", "--degrees-csv", "{bad}", "--out", "{out}"],
                     "degree\n3\n\nabc\n", 4, id="degree-cell"),
        pytest.param(["stats", "corr", "--vertex-csv", "{bad}", "--out", "{out}"],
                     f"{VERTEX_HEADER}\na.onion,1,2\n", 2, id="vertex-row-length"),
        pytest.param(["stats", "corr", "--vertex-csv", "{bad}", "--out", "{out}"],
                     f"{VERTEX_HEADER}\na.onion,1.5,1,1{',' * 9}\n", 2, id="vertex-degree"),
        pytest.param(METRICS_ARGV, "service,snapshot,tree_height,chars,links,lcratio\n"
                     "a.onion,S1,0,10,1,zz\n", 2, id="summaries-lcratio"),
        pytest.param(METRICS_ARGV, "service,snapshot,tree_height,chars,links\n"
                     "a.onion,S1,0,10,1\n", None, id="summaries-no-lcratio"),
        # "\udcXX" stands for the byte 0xXX, which does not decode
        pytest.param(["compare", "--a", "{bad}", "--b", "{partition}", "--out", "{out}"],
                     "\udcffvertex,cluster\na.onion,0\n", 1, id="partition-first-byte"),
        pytest.param(["fit", "--degrees-csv", "{bad}", "--out", "{out}"],
                     "degree\n3\n\udce9\n", 3, id="degree-byte"),
        pytest.param(METRICS_ARGV, "service,snapshot,tree_height,chars,links,lcratio\n"
                     + "a.onion,S1,0,10,1,0.1\n" * 600 + "b\udcff.onion,S1,0,10,1,0.1\n", 602,
                     id="summaries-byte-past-8-KiB"),
        pytest.param(["compare", "--a", "{bad}", "--b", "{partition}", "--out", "{out}"],
                     "vertex,label\na.onion,0\n", 1, id="partition-header"),
        pytest.param(["stats", "corr", "--vertex-csv", "{bad}", "--out", "{out}"],
                     "vertex,degree\na.onion,1\n", 1, id="vertex-header"),
    ])
    def test_malformed_table_is_2_and_names_the_file(self, tmp_path, capsys, argv, text, line):
        files = {"bad": tmp_path / "bad.csv", "partition": tmp_path / "part.csv",
                 "graph": tmp_path / "g.tsv", "out": tmp_path / "out.json",
                 "vertices": tmp_path / "v.csv"}
        files["bad"].write_bytes(text.encode("utf-8", "surrogateescape"))
        files["partition"].write_text("vertex,cluster\na.onion,0\n")
        files["graph"].write_text("# directed\na.onion\tb.onion\t1\n")
        assert main([arg.format(**files) for arg in argv]) == 2
        where = f"{files['bad']}: " + (f"line {line}: " if line else "")
        assert capsys.readouterr().err.startswith(f"error: {where}")
        assert not files["out"].exists()

    def test_compare_of_header_only_partitions(self, tmp_path, capsys):
        empty, out = tmp_path / "empty.csv", tmp_path / "ami.json"
        empty.write_text("vertex,cluster\n")
        argv = ["compare", "--a", str(empty), "--b", str(empty), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {empty} and {empty}: empty partitions\n"
        assert not out.exists()
        assert main([*argv, "--restrict-common"]) == 0
        assert json.loads(out.read_text()) == {"ami": None, "common_vertices": 0}

    def test_compare_of_different_vertex_sets_names_both_files(self, tmp_path, capsys):
        a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "ami.json"
        a.write_text("vertex,cluster\na.onion,0\nb.onion,1\n")
        b.write_text("vertex,cluster\na.onion,0\nc.onion,1\n")
        assert main(["compare", "--a", str(a), "--b", str(b), "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == f"error: {a} and {b}: partitions cover different vertex sets\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["metrics", "--graph", "{graph}", "--global-json", "{out}", "--vertex-csv", "{vertices}"],
        ["fit", "--graph", "{graph}", "--out", "{out}"],
        ["communities", "--graph", "{graph}", "--out", "{out}"],
        ["bowtie", "--graph", "{graph}", "--out", "{out}"],
        ["stats", "prevalence", "--labels", "{labels}", "--graph", "{graph}", "--out", "{out}"],
    ], ids=lambda argv: "-".join(argv[:2]).replace("--graph", "").strip("-"))
    def test_header_only_graph_is_2_and_names_the_file(self, tmp_path, capsys, argv):
        files = {"graph": tmp_path / "empty.tsv", "out": tmp_path / "out",
                 "vertices": tmp_path / "v.csv", "labels": tmp_path / "labels.csv"}
        files["graph"].write_text("# directed\n")
        files["labels"].write_text("service,class,language\na.onion,Drugs,en\n")
        assert main([arg.format(**files) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {files['graph']}: empty graph\n"
        assert not files["out"].exists()

    def test_build_may_write_an_empty_graph(self, tmp_path):
        empty, out = tmp_path / "empty.tsv", tmp_path / "g.tsv"
        empty.write_text("# directed\n")
        assert main(["build", "--combine", "union", "--inputs", str(empty), str(empty),
                     "--out", str(out)]) == 0
        assert read_graph_file(out).N == 0

    @pytest.mark.parametrize("argv, message", [
        (["--combine", "union"], "--combine needs --inputs graph files"),
        ([], "either page files or --combine must be given"),
        (["{pages}"], "--snapshot is required when files span snapshots"),
    ])
    def test_build_usage_error_is_1_and_writes_nothing(self, tmp_path, capsys, argv, message):
        pages = write_tiny_pages(tmp_path)
        with open(pages, "a") as fh:
            fh.write(json.dumps({"snapshot": "S2", "service": "a.onion", "path": "/", "depth": 0,
                                 "chars": 100, "links": []}) + "\n")
        out = tmp_path / "g.tsv"
        assert main(["build", *(a.format(pages=pages) for a in argv), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == [pages.name]

    def test_failed_build_keeps_the_earlier_graph(self, tmp_path, monkeypatch):
        pages, out = write_tiny_pages(tmp_path), tmp_path / "g.tsv"
        assert main(["build", str(pages), "--out", str(out)]) == 0
        earlier, files = out.read_bytes(), sorted(os.listdir(tmp_path))

        def partial_write(g, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("# directed\na.onion\tb.onion\t1\n")
            raise DataError("injected write failure")

        monkeypatch.setattr(cli, "write_graph_file", partial_write)
        assert main(["build", str(pages), "--out", str(out)]) == 2
        assert out.read_bytes() == earlier
        assert sorted(os.listdir(tmp_path)) == files

    def test_failed_rename_keeps_the_earlier_output(self, tmp_path, monkeypatch):
        pages, graph, out = write_tiny_pages(tmp_path), tmp_path / "g.tsv", tmp_path / "b.json"
        assert main(["build", str(pages), "--out", str(graph)]) == 0
        assert main(["bowtie", "--graph", str(graph), "--out", str(out)]) == 0
        earlier, files = out.read_bytes(), sorted(os.listdir(tmp_path))

        def failing_replace(src, dst):
            raise PermissionError(f"injected rename failure: {src} -> {dst}")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert main(["bowtie", "--graph", str(graph), "--out", str(out)]) == 3
        assert out.read_bytes() == earlier
        assert sorted(os.listdir(tmp_path)) == files

    def test_run_rejects_a_record_of_another_snapshot(self, tmp_path, capsys):
        pages = tmp_path / "pages_SNP1.jsonl"
        pages.write_text(write_tiny_pages(tmp_path).read_text().replace('"S1"', '"SNP1"'))
        out = tmp_path / "out"
        config = write_config(tmp_path, {"snapshots": {"SNP1": str(pages)}, "out_dir": str(out)})
        assert main(["run", "--config", str(config)]) == 0
        earlier = tree_of(out)
        with open(pages, "a") as fh:
            fh.write(json.dumps({"snapshot": "SNP2", "service": "a.onion", "path": "/", "depth": 0,
                                 "chars": 100, "links": []}) + "\n")
        capsys.readouterr()
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "stage 'ingest' failed" in err
        assert f"{pages}: records for ['SNP2'] found in the 'SNP1' file" in err
        assert tree_of(out) == earlier

    def test_every_config_key_has_a_type_check(self):
        assert set(cli._CONFIG_TYPES) == {f.name for f in fields(RunConfig)}


# -- byte mutants of every input ---------------------------------------------------------


@pytest.fixture(scope="module")
def valid_inputs(corpus_dir, tmp_path_factory):
    """kind -> (a valid file of that kind, the argv that reads it as {x})."""
    root, paths, corpus = corpus_dir
    d = tmp_path_factory.mktemp("inputs")
    tiny = write_tiny_pages(d)
    for argv in (["build", paths["SNP1"], "--out", d / "g.tsv"],
                 ["build", tiny, "--out", d / "tiny.tsv"],
                 ["communities", "--graph", d / "g.tsv", "--out", d / "part.csv"],
                 ["metrics", "--graph", d / "g.tsv", "--global-json", d / "global.json",
                  "--vertex-csv", d / "v.csv"],
                 ["ingest", paths["SNP1"], "--out-dir", d / "ingest"]):
        assert main([str(arg) for arg in argv]) == 0
    # compact, so that few mutants keep it valid, and with paths relative to
    # the test's directory, so that its bytes, and so its mutants, are the
    # same on every machine and a mutated out_dir stays inside that directory
    (d / "config.json").write_text(json.dumps({"snapshots": {"S1": tiny.name}, "out_dir": "out"},
                                              separators=(",", ":")))
    return {
        "pages": (paths["SNP1"], ["ingest", "{x}", "--out-dir", "{out}"]),
        "graph": (d / "g.tsv", ["bowtie", "--graph", "{x}", "--out", "{out}"]),
        "labels": (paths["labels"], ["stats", "prevalence", "--labels", "{x}",
                                     "--graph", d / "g.tsv", "--out", "{out}"]),
        "partition": (d / "part.csv", ["compare", "--a", "{x}", "--b", d / "part.csv",
                                       "--restrict-common", "--out", "{out}"]),
        "vertex-csv": (d / "v.csv", ["stats", "corr", "--vertex-csv", "{x}", "--out", "{out}"]),
        "summaries": (d / "ingest" / "summaries.csv",
                      ["metrics", "--graph", d / "tiny.tsv", "--summaries", "{x}",
                       "--global-json", "{out}", "--vertex-csv", "{out}.csv"]),
        "config": (d / "config.json", ["run", "--config", "{x}"]),
    }


@pytest.mark.parametrize("kind", ["pages", "graph", "labels", "partition", "vertex-csv",
                                  "summaries", "config"])
def test_byte_mutants_are_never_internal_errors(valid_inputs, tmp_path, monkeypatch, capsys,
                                                kind):
    """45 mutants of each input, each with 1-3 random byte edits: none may
    exit 3, and an exit 2 names the mutated file (a config's, or a file the
    config names)."""
    monkeypatch.chdir(tmp_path)
    write_tiny_pages(tmp_path)  # the page file the config names
    source, argv = valid_inputs[kind]
    with open(source, "rb") as fh:
        good = fh.read()
    mutant = tmp_path / f"mutant{os.path.splitext(source)[1]}"
    argv = [str(arg).format(x=mutant, out=tmp_path / "out") for arg in argv]
    rng = random.Random(kind)
    failures, undecodable = [], 0
    for _ in range(45):
        data = bytearray(good)
        for _ in range(rng.randint(1, 3)):
            at, edit = rng.randrange(len(data) + 1), rng.choice("ird")
            if edit == "i" or at == len(data):
                data.insert(at, rng.randrange(256))
            elif edit == "r":
                data[at] = rng.randrange(256)
            else:
                del data[at]
        mutant.write_bytes(bytes(data))
        code = main(argv)
        err = capsys.readouterr().err
        undecodable += "is not UTF-8" in err
        named = str(mutant) in err or kind == "config" and (
            "s1.jsonl" in err or "missing page file" in err)
        if code not in (0, 1, 2) or code == 2 and not named:
            failures.append((code, err))
    assert failures == []
    assert undecodable >= 10


class TestRunPipeline:
    def test_end_to_end_and_manifest(self, corpus_dir, tmp_path):
        root, paths, corpus = corpus_dir
        cfg = make_config(paths, corpus, tmp_path / "out")
        config = RunConfig.from_dict(cfg)
        manifest = run_pipeline(config)
        listed = {a["path"] for a in manifest["artifacts"]}
        # every artifact on disk is in the manifest, and vice versa
        on_disk = set()
        for dirpath, _, files in os.walk(tmp_path / "out"):
            for f in files:
                rel = os.path.relpath(os.path.join(dirpath, f), tmp_path / "out")
                if rel != "manifest.json":
                    on_disk.add(rel.replace(os.sep, "/"))
        assert listed == on_disk
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_reruns_are_byte_identical(self, corpus_dir, tmp_path):
        root, paths, corpus = corpus_dir
        m1 = run_pipeline(RunConfig.from_dict(make_config(paths, corpus, tmp_path / "a")))
        m2 = run_pipeline(RunConfig.from_dict(make_config(paths, corpus, tmp_path / "b")))
        assert m1["artifacts"] == m2["artifacts"]

    def test_no_labels_stage_skipped(self, corpus_dir, tmp_path):
        root, paths, corpus = corpus_dir
        cfg = make_config(paths, corpus, tmp_path / "out")
        cfg["labels"] = None
        manifest = run_pipeline(RunConfig.from_dict(cfg))
        assert {"stage": "stats.labels", "reason": "no labels configured"} in manifest["skipped"]
        assert not any(a["path"].endswith("gain.csv") for a in manifest["artifacts"])

    def test_fit_error_is_written_and_the_run_goes_on(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"snapshots": {"S1": str(write_tiny_pages(tmp_path))}, "out_dir": str(out),
               "fit_min_tail": 1000}  # more than any tail holds
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
        fits = sorted((out / "fits").iterdir())
        assert [f.name for f in fits] == ["dsg_S1.in.json", "dsg_S1.out.json",
                                          "dsg_union.in.json", "dsg_union.out.json",
                                          "usg_S1.degree.json", "usg_union.degree.json"]
        for fit in fits:
            assert list(json.loads(fit.read_text())) == ["error"]

    def test_labels_of_no_vertex_skip_the_label_stats(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("service,class,language\nzzz.onion,Drugs,en\n")
        cfg = RunConfig.from_dict({"snapshots": {"S1": str(write_tiny_pages(tmp_path))},
                                   "labels": str(labels), "out_dir": str(tmp_path / "out")})
        manifest = run_pipeline(cfg)
        names = ("dsg_S1", "dsg_union", "usg_S1", "usg_union")
        skipped = {s["stage"] for s in manifest["skipped"]}
        assert {f"stats.{mode}.{name}" for mode in ("prevalence", "gain") for name in names} \
            <= skipped
        assert not any(a["path"].endswith((".prevalence.json", ".gain.csv"))
                       for a in manifest["artifacts"])

    def test_stage_error_names_stage_and_cleans_up(self, corpus_dir, tmp_path):
        root, paths, corpus = corpus_dir
        # two snapshots sharing no mutual edge at all: undirected
        # intersection comes out empty and the graphs stage must abort
        s1 = tmp_path / "s1.jsonl"
        s2 = tmp_path / "s2.jsonl"
        s1.write_text(
            '{"snapshot": "S1", "service": "a.onion", "path": "/", "depth": 0, "chars": 10, "links": ["b.onion"]}\n'
            '{"snapshot": "S1", "service": "b.onion", "path": "/", "depth": 0, "chars": 10, "links": ["a.onion"]}\n'
        )
        s2.write_text(
            '{"snapshot": "S2", "service": "c.onion", "path": "/", "depth": 0, "chars": 10, "links": ["d.onion"]}\n'
            '{"snapshot": "S2", "service": "d.onion", "path": "/", "depth": 0, "chars": 10, "links": ["c.onion"]}\n'
        )
        out = tmp_path / "out"
        cfg = RunConfig.from_dict(
            {"snapshots": {"S1": str(s1), "S2": str(s2)}, "out_dir": str(out)}
        )
        with pytest.raises(StageError, match="graphs"):
            run_pipeline(cfg)
        leftovers = [f for _, _, fs in os.walk(out) for f in fs]
        assert leftovers == []

    def test_run_subcommand_with_overrides(self, corpus_dir, tmp_path, capsys):
        root, paths, corpus = corpus_dir
        cfg = make_config(paths, corpus, tmp_path / "out")
        cfg_path = write_config(tmp_path, cfg)
        rc = main(["run", "--config", str(cfg_path), "--k-hubs", "5",
                   "--set", "component_policy=whole"])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["k_hubs"] == 5
        assert manifest["config"]["component_policy"] == "whole"

    def test_env_defaults_respected(self, corpus_dir, tmp_path, monkeypatch):
        root, paths, corpus = corpus_dir
        monkeypatch.setenv("ONIONGRAPH_K_HUBS", "7")
        cfg_path = write_config(tmp_path, make_config(paths, corpus, tmp_path / "out"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["k_hubs"] == 7

    def test_config_file_beats_environment(self, corpus_dir, tmp_path, monkeypatch):
        root, paths, corpus = corpus_dir
        monkeypatch.setenv("ONIONGRAPH_K_HUBS", "7")
        cfg = make_config(paths, corpus, tmp_path / "out", k_hubs=9)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["k_hubs"] == 9

    @pytest.mark.parametrize("argv,k_hubs", [(["--set", "k_hubs=11", "--k-hubs", "5"], 5),
                                             (["--set", "k_hubs=11"], 11), ([], 9)])
    def test_later_sources_win(self, corpus_dir, tmp_path, monkeypatch, argv, k_hubs):
        root, paths, corpus = corpus_dir
        monkeypatch.setenv("ONIONGRAPH_K_HUBS", "7")
        cfg = make_config(paths, corpus, tmp_path / "out", k_hubs=9, graph_sets=["union"],
                          directedness=["directed"])
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), *argv]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["k_hubs"] == k_hubs

    @pytest.mark.parametrize("case", [
        pytest.param(lambda out, pages: ({"snapshots": {"S1": pages}}, ["--out-dir", out]),
                     id="out_dir-from-flag"),
        pytest.param(lambda out, pages: ({"snapshots": {"S1": pages}},
                                         ["--set", f"out_dir={out}"]), id="out_dir-from-set"),
        pytest.param(lambda out, pages: ({"snapshots": {"S1": pages}, "out_dir": out,
                                          "k_hubs": "5"}, ["--k-hubs", "5"]),
                     id="k_hubs-from-flag"),
        pytest.param(lambda out, pages: ({"out_dir": out}, ["--set", f"snapshots.S1={pages}"]),
                     id="snapshot-from-set"),
    ])
    def test_later_source_supplies_or_replaces_a_value(self, tmp_path, case):
        out, pages = str(tmp_path / "out"), str(write_tiny_pages(tmp_path))
        cfg, argv = case(out, pages)
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), *argv]) == 0
        config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
        assert (config["out_dir"], config["snapshots"]) == (out, {"S1": pages})
        assert config["k_hubs"] == (5 if "--k-hubs" in argv else 25)

    def test_unknown_config_key_rejected(self, tmp_path):
        with pytest.raises(Exception, match="unknown config"):
            RunConfig.from_dict({"snapshots": {}, "out_dir": "x", "bogus": 1})


def test_dump_json_sorts_and_strips_nan():
    text = dump_json({"b": float("nan"), "a": 1})
    assert text.index('"a"') < text.index('"b"')
    assert "NaN" not in text and "null" in text


def tree_of(root):
    """Every entry below `root`, links not followed: file bytes, a link's
    target, or None for a directory."""
    tree = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for entry in dirnames + filenames:
            full = os.path.join(dirpath, entry)
            rel = os.path.relpath(full, root)
            if os.path.islink(full):
                tree[rel] = ("link", os.readlink(full))
            elif os.path.isdir(full):
                tree[rel] = None
            else:
                with open(full, "rb") as fh:
                    tree[rel] = fh.read()
    return tree


def assert_holds_exactly(out, manifest):
    """`out` holds the manifest's files and nothing else (no staging or
    set-aside directory either)."""
    listed = {a["path"] for a in manifest["artifacts"]} | {"manifest.json"}
    assert files_under(out) == listed
    assert sorted(os.listdir(out)) == sorted({p.split("/")[0] for p in listed})


class TestOutputDirectory:
    def test_failed_rerun_keeps_previous_run(self, corpus_dir, tmp_path, monkeypatch):
        root, paths, corpus = corpus_dir
        out = tmp_path / "out"
        cfg = make_config(paths, corpus, out)
        manifest = run_pipeline(RunConfig.from_dict(cfg))
        manifest_bytes = (out / "manifest.json").read_bytes()

        def failing_bowtie(g):
            raise DataError("injected bow-tie failure")

        monkeypatch.setattr(cli, "bowtie_decompose", failing_bowtie)
        with pytest.raises(StageError, match="bowtie"):
            run_pipeline(RunConfig.from_dict(cfg))
        assert (out / "manifest.json").read_bytes() == manifest_bytes
        assert_holds_exactly(out, manifest)
        for artifact in manifest["artifacts"]:
            assert sha256_file(out / artifact["path"]) == artifact["sha256"]
        assert os.listdir(tmp_path) == ["out"]

    def test_failed_publish_restores_previous_run(self, corpus_dir, tmp_path, monkeypatch):
        root, paths, corpus = corpus_dir
        out = tmp_path / "out"
        cfg = make_config(paths, corpus, out)
        run_pipeline(RunConfig.from_dict(cfg))
        before = tree_of(out)
        real_replace = os.replace

        def replace(src, dst):
            # fail halfway: after the earlier stage directories have moved in
            if ".staging-" in os.fspath(src) and os.path.basename(src) == "metrics":
                raise OSError("injected rename failure")
            return real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace)
        with pytest.raises(StageError, match="manifest"):
            run_pipeline(RunConfig.from_dict(cfg))
        assert tree_of(out) == before
        assert os.listdir(tmp_path) == ["out"]

    def test_rerun_with_fewer_graphs_leaves_only_its_files(self, corpus_dir, tmp_path):
        root, paths, corpus = corpus_dir
        out = tmp_path / "out"
        run_pipeline(RunConfig.from_dict(make_config(paths, corpus, out)))
        os.chmod(out, 0o750)
        inode = os.stat(out).st_ino
        manifest = run_pipeline(
            RunConfig.from_dict(make_config(paths, corpus, out, graph_sets=["union"]))
        )
        assert_holds_exactly(out, manifest)
        assert os.listdir(tmp_path) == ["out"]
        # the run replaces out_dir's entries, not out_dir itself
        assert (os.stat(out).st_ino, stat.S_IMODE(os.stat(out).st_mode)) == (inode, 0o750)

    def test_symlinked_out_dir_is_written_through_the_link(self, corpus_dir, tmp_path):
        root, paths, corpus = corpus_dir
        (tmp_path / "target").mkdir()
        out = tmp_path / "out"
        out.symlink_to(tmp_path / "target")
        for _ in range(2):
            manifest = run_pipeline(RunConfig.from_dict(make_config(paths, corpus, out)))
        assert out.is_symlink()
        assert_holds_exactly(tmp_path / "target", manifest)
        assert sorted(os.listdir(tmp_path)) == ["out", "target"]

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores directory permissions")
    def test_out_dir_under_read_only_parent(self, corpus_dir, tmp_path):
        root, paths, corpus = corpus_dir
        out = tmp_path / "parent" / "out"
        out.mkdir(parents=True)
        os.chmod(out.parent, 0o555)
        try:
            for _ in range(2):
                manifest = run_pipeline(RunConfig.from_dict(make_config(paths, corpus, out)))
        finally:
            os.chmod(out.parent, 0o755)
        assert_holds_exactly(out, manifest)

    def test_bad_labels_fail_before_any_page_is_parsed(self, corpus_dir, tmp_path,
                                                        monkeypatch, capsys):
        root, paths, corpus = corpus_dir
        labels = tmp_path / "labels.csv"
        labels.write_text("service,class,language\nsome.onion,NoSuchClass,en\n")
        parsed = []
        monkeypatch.setattr(cli, "parse_pages_file", lambda path: parsed.append(path) or [])
        cfg = make_config(paths, corpus, tmp_path / "out", labels=str(labels))
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert parsed == []
        assert (f"stage 'setup' failed: {labels}: line 2: unknown content class"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("occupant", [
        "regular-file", "dangling-symlink", "foreign-files", "foreign-manifest",
        "run-and-foreign-file", "run-and-git", "run-and-file-in-stage-dir",
        "run-and-leftover-staging", "undecodable-manifest", "config-not-an-object",
    ])
    def test_unowned_out_dir_is_refused(self, corpus_dir, tmp_path, occupant):
        root, paths, corpus = corpus_dir
        out = tmp_path / "out"
        cfg = make_config(paths, corpus, out)
        if occupant == "regular-file":
            out.write_text("not a run\n")
        elif occupant == "dangling-symlink":
            out.symlink_to(tmp_path / "missing")
        elif occupant.startswith("run-"):
            # an earlier run, plus one file that its manifest does not list
            run_pipeline(RunConfig.from_dict(cfg))
            extra = out / {"run-and-foreign-file": "notes.txt",
                           "run-and-git": ".git/HEAD",
                           "run-and-file-in-stage-dir": "metrics/notes.txt",
                           "run-and-leftover-staging": ".staging-x/manifest.json"}[occupant]
            extra.parent.mkdir(exist_ok=True)
            extra.write_text("not a run\n")
        elif occupant == "undecodable-manifest":
            # the manifest of an empty run, but for one byte that is not UTF-8
            out.mkdir()
            (out / "manifest.json").write_bytes(b'{"artifacts": [], "config": {"\xff": 1}}\n')
        elif occupant == "config-not-an-object":
            out.mkdir()
            (out / "manifest.json").write_text('{"artifacts": [], "config": []}\n')
        else:
            out.mkdir()
            (out / "index.html").write_text("not a run\n")
            if occupant == "foreign-manifest":
                (out / "manifest.json").write_text('{"name": "an app", "version": "1"}\n')
        cfg_path = write_config(tmp_path, cfg)
        before = tree_of(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert tree_of(tmp_path) == before


# -- the per-graph analyses of `run` on a pool of worker processes ------------------

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the worker pool forks its workers")


def force_workers(monkeypatch, workers):
    """Make `run` use `workers` worker processes (1: analyse in this process);
    return the worker counts of the pools it starts."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def pool(max_workers, **kwargs):
        pools.append(max_workers)
        return real_pool(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return pools


def run_main(tmp_path, cfg, capsys):
    """Exit code and standard error of `oniongraph run` on `cfg`."""
    capsys.readouterr()
    code = main(["run", "--config", str(write_config(tmp_path, cfg))])
    return code, capsys.readouterr().err


@needs_fork
class TestWorkerPool:
    def test_pool_and_in_process_write_the_same_run(self, corpus_dir, tmp_path, monkeypatch):
        root, paths, corpus = corpus_dir
        out = tmp_path / "out"
        cfg = make_config(paths, corpus, out, fit_bootstrap=PARITY_BOOTSTRAP)
        trees = {}
        for workers in (2, 1):
            pools = force_workers(monkeypatch, workers)
            run_pipeline(RunConfig.from_dict(cfg))
            assert pools == ([2] if workers == 2 else [])
            trees[workers] = tree_of(out)
        assert trees[2] == trees[1]
        assert len([rel for rel in trees[1] if rel.endswith(".partition.csv")]) == 10

    def test_first_failure_in_stage_order_is_reported(self, corpus_dir, run_out, tmp_path,
                                                       monkeypatch, capsys):
        root, paths, corpus = corpus_dir
        cfg = make_config(paths, corpus, tmp_path / "out")
        real_louvain = cli.louvain

        def louvain(g, seed):
            if not g.directed:
                raise DataError(f"injected louvain failure on N={g.N} M={g.M}")
            return real_louvain(g, seed=seed)

        def bowtie(g):
            raise DataError(f"injected bow-tie failure on N={g.N} M={g.M}")

        monkeypatch.setattr(cli, "louvain", louvain)
        monkeypatch.setattr(cli, "bowtie_decompose", bowtie)
        reported = {}
        for workers in (1, 2):
            pools = force_workers(monkeypatch, workers)
            reported[workers] = run_main(tmp_path, cfg, capsys)
        assert pools == [2]
        # a stage-by-stage run over the graphs in name order meets the
        # communities stage of usg_SNP1 before any directed graph's bow-tie
        first = read_graph_file(run_out / "graphs" / "usg_SNP1.tsv")
        message = f"stage 'communities' failed: injected louvain failure on N={first.N} M={first.M}"
        assert reported[1] == reported[2] == (2, f"error: {message}\n")
        assert os.listdir(tmp_path / "out") == []

    def test_killed_worker_fails_the_run_and_keeps_the_previous_one(
            self, corpus_dir, tmp_path, monkeypatch, capsys):
        root, paths, corpus = corpus_dir
        cfg = make_config(paths, corpus, tmp_path / "out")
        assert run_main(tmp_path, cfg, capsys)[0] == 0
        before = tree_of(tmp_path)
        parent = os.getpid()

        def in_usg_louvain(g):
            if not g.directed:
                os._exit(1)

        def in_dsg_bowtie(g):
            # a DSG's bow-tie comes after its metrics, fits and partition are staged
            staging, = glob.glob(str(tmp_path / "out" / ".staging-*"))
            name, = [os.path.basename(p)[:-len(".tsv")]
                     for p in glob.glob(f"{staging}/graphs/dsg_*.tsv") if read_graph_file(p) == g]
            if not os.path.exists(f"{staging}/communities/{name}.partition.csv"):
                raise AssertionError(f"{name}: no partition staged before its bow-tie")
            os._exit(1)

        for name, kill in (("louvain", in_usg_louvain), ("bowtie_decompose", in_dsg_bowtie)):
            def dying(g, *args, real=getattr(cli, name), kill=kill, **kwargs):
                if os.getpid() != parent:
                    kill(g)
                return real(g, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(cli, name, dying)
                pools = force_workers(patch, 2)
                code, err = run_main(tmp_path, cfg, capsys)
            assert (code, pools) == (3, [2])
            assert err.startswith("error: stage 'workers' failed: ")
            # no .staging-* or .old-* directory is left behind either
            assert tree_of(tmp_path) == before


# -- parity: each subcommand writes byte for byte what `run` writes ----------------

PARITY_GRAPHS = ["dsg_SNP1", "dsg_intersection", "dsg_union",
                 "usg_SNP1", "usg_intersection", "usg_union"]
PARITY_SEED_LOUVAIN = 3
PARITY_BOOTSTRAP = 2
VERTEX_CSV_DIRECTEDNESS = pytest.mark.xfail(
    strict=True,
    reason="known defect: read_vertex_metrics_csv infers directedness from in/out "
           "degree equality, so an undirected vertex CSV reads back as directed",
)


@pytest.fixture(scope="module")
def run_out(corpus_dir, tmp_path_factory):
    root, paths, corpus = corpus_dir
    out = tmp_path_factory.mktemp("parity") / "out"
    cfg = make_config(paths, corpus, out, seed_louvain=PARITY_SEED_LOUVAIN,
                      fit_bootstrap=PARITY_BOOTSTRAP)
    run_pipeline(RunConfig.from_dict(cfg))
    return out


def assert_same_bytes(produced, artifact):
    assert produced.read_bytes() == artifact.read_bytes()


def page_files(name, paths, corpus):
    """The page files a graph is built from: its own snapshot, or all of them."""
    snap = name.split("_", 1)[1]
    snaps = [snap] if snap in corpus.spec.snapshots else corpus.spec.snapshots
    return [str(paths[s]) for s in snaps]


class TestSubcommandParity:
    def test_ingest(self, corpus_dir, run_out, tmp_path):
        root, paths, corpus = corpus_dir
        assert main(["ingest", *(str(paths[s]) for s in corpus.spec.snapshots),
                     "--out-dir", str(tmp_path)]) == 0
        for fname in ("summaries.csv", "persistence.json"):
            assert_same_bytes(tmp_path / fname, run_out / "ingest" / fname)

    @pytest.mark.parametrize("name", PARITY_GRAPHS)
    def test_metrics(self, corpus_dir, run_out, tmp_path, name):
        root, paths, corpus = corpus_dir
        assert main(["ingest", *page_files(name, paths, corpus),
                     "--out-dir", str(tmp_path)]) == 0
        assert main(["metrics", "--graph", str(run_out / "graphs" / f"{name}.tsv"),
                     "--summaries", str(tmp_path / "summaries.csv"),
                     "--global-json", str(tmp_path / "global.json"),
                     "--vertex-csv", str(tmp_path / "vertices.csv"),
                     "--hub-curve-json", str(tmp_path / "hubreach.json"),
                     "--k-hubs", "25"]) == 0
        for suffix in ("global.json", "vertices.csv", "hubreach.json"):
            assert_same_bytes(tmp_path / suffix, run_out / "metrics" / f"{name}.{suffix}")

    @pytest.mark.parametrize("name,kind", [
        (name, kind) for name in PARITY_GRAPHS
        for kind in (("in", "out") if name.startswith("dsg") else ("degree",))
    ])
    def test_fit(self, run_out, tmp_path, name, kind):
        out = tmp_path / "fit.json"
        assert main(["fit", "--graph", str(run_out / "graphs" / f"{name}.tsv"),
                     "--degree", "total" if kind == "degree" else kind,
                     "--min-tail", "20", "--bootstrap", str(PARITY_BOOTSTRAP),
                     "--seed-fit", "0", "--out", str(out)]) == 0
        assert_same_bytes(out, run_out / "fits" / f"{name}.{kind}.json")

    @pytest.mark.parametrize("name", PARITY_GRAPHS)
    def test_communities(self, run_out, tmp_path, name):
        out = tmp_path / "partition.csv"
        assert main(["communities", "--graph", str(run_out / "graphs" / f"{name}.tsv"),
                     "--seed-louvain", str(PARITY_SEED_LOUVAIN), "--out", str(out)]) == 0
        assert_same_bytes(out, run_out / "communities" / f"{name}.partition.csv")

    @pytest.mark.parametrize("name", [n for n in PARITY_GRAPHS if n.startswith("dsg")])
    def test_bowtie(self, run_out, tmp_path, name):
        out = tmp_path / "bowtie.json"
        assert main(["bowtie", "--graph", str(run_out / "graphs" / f"{name}.tsv"),
                     "--out", str(out)]) == 0
        assert_same_bytes(out, run_out / "bowtie" / f"{name}.json")

    @pytest.mark.parametrize("mode,name", [
        pytest.param(mode, name, marks=VERTEX_CSV_DIRECTEDNESS)
        if name.startswith("usg") and mode != "prevalence" else (mode, name)
        for mode in ("corr", "prevalence", "gain") for name in PARITY_GRAPHS
    ])
    def test_stats(self, corpus_dir, run_out, tmp_path, mode, name):
        root, paths, corpus = corpus_dir
        artifact = run_out / "stats" / f"{name}.{mode}.{'json' if mode == 'prevalence' else 'csv'}"
        inputs = {
            "corr": ["--vertex-csv", str(run_out / "metrics" / f"{name}.vertices.csv")],
            "prevalence": ["--labels", str(paths["labels"]),
                           "--graph", str(run_out / "graphs" / f"{name}.tsv")],
            "gain": ["--vertex-csv", str(run_out / "metrics" / f"{name}.vertices.csv"),
                     "--labels", str(paths["labels"])],
        }[mode]
        out = tmp_path / artifact.name
        assert main(["stats", mode, *inputs, "--out", str(out)]) == 0
        assert_same_bytes(out, artifact)


# SHA-256 of `run` outputs on the test corpus, recorded while the global
# metrics still came from their own distance pass
METRIC_PINS = {
    "dsg_union.global.json": "c9a9d3236baa90a2e94bca226f3a3adfa9e2101741664c8f636db1e5a3b4b7e1",
    "dsg_union.vertices.csv": "3ffd0ea778981687316d92b12a8b7cc2f9889a31ffd4906b14a5ca6abd9a9ab9",
    "usg_union.global.json": "9084fea95f930e827d1092b02f75d801a9604ec43b3e3c6e9f1fe3e638ea455a",
    "usg_union.vertices.csv": "117cf07f1585feb57d77b46770b0718a1de647998a9da786a453e0c34b5ad6fb",
}


@pytest.mark.parametrize("name", sorted(METRIC_PINS))
def test_metric_artifacts_match_pins(run_out, name):
    assert sha256_file(run_out / "metrics" / name) == METRIC_PINS[name]


def test_ami_matrix_is_exactly_symmetric(run_out):
    payload = json.loads((run_out / "communities" / "ami_matrix.json").read_text())
    ami, common = payload["ami"], payload["common_vertices"]
    assert len(ami) == len(payload["graphs"]) == 10
    assert ami == [list(row) for row in zip(*ami)]
    assert common == [list(row) for row in zip(*common)]
