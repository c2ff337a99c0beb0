"""Working memory linear in the input: closed pairs over the distance pass's
row blocks, AMI on the sparse contingency table, and a `run` parent that
holds no page record when it forks its workers.

The budget tests run their kernel in a fresh interpreter and read its peak
RSS: on inputs where a product or table quadratic in a hub's degree or in
the cluster count would take hundreds of MiB, the process must stay under
BUDGET_MIB, which covers the imports (about 70 MiB) with room to spare.
"""

import gc
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oniongraph
from oniongraph import cli, metrics
from oniongraph.cli import RunConfig, run_pipeline
from oniongraph.graphs import ServiceGraph
from oniongraph.records import PageRecord
from oniongraph.synth import CorpusSpec, generate_corpus

from oracles import adjacency_bool, closed_pairs_oracle, random_digraph, random_undirected, vid

BUDGET_MIB = 150


def peak_rss_mib(code: str) -> float:
    """Peak RSS in MiB of a fresh interpreter that runs `code`."""
    code += "\nimport resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    env = {**os.environ, "PYTHONPATH": str(Path(oniongraph.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]) / 1024


STAR = """
import numpy as np
from oniongraph.graphs import ServiceGraph
from oniongraph.metrics import vertex_metrics
k = 4000
vertices = ("hub",) + tuple(f"leaf{i:05d}" for i in range(k))  # sorted: the hub first
vm = vertex_metrics(ServiceGraph.from_arrays(False, vertices, np.zeros(k, dtype=np.int64),
                                             np.arange(1, k + 1), np.ones(k, dtype=np.int64)))
assert vm.global_metrics.clustering == 0.0
"""

SINGLETONS = """
import numpy as np
from oniongraph.community import Partition, ami
n, singletons = 10_000, 4000
rng = np.random.default_rng(1)
vertices = tuple(f"v{i:05d}" for i in range(n))
labels = np.concatenate([rng.integers(0, 10, n - singletons), 10 + np.arange(singletons)])
score = ami(Partition.of(vertices, labels), Partition.of(vertices, labels[rng.permutation(n)]))
assert abs(score) < 0.05
"""


class TestMemoryBudget:
    def test_vertex_metrics_of_a_4000_leaf_star(self):
        # the whole product A S holds 4000^2 entries, 16 million
        assert peak_rss_mib(STAR) < BUDGET_MIB

    def test_ami_of_partitions_with_4000_singletons(self):
        # the dense contingency table holds 4010^2 cells, 16 million
        assert peak_rss_mib(SINGLETONS) < BUDGET_MIB


def star(k, directed):
    """A hub linked with k leaves (both ways when directed), and one
    leaf-to-leaf link so that some pairs close."""
    edges = [("hub.onion", vid(i), 1) for i in range(k)] + [(vid(0), vid(1), 1)]
    if directed:
        edges += [(vid(i), "hub.onion", 1) for i in range(k)]
    return ServiceGraph.from_edges(directed, edges)


def transitivity_oracle(g):
    """Closed pairs over ordered (out-)neighbor pairs, NaN below 2 neighbors,
    divided as vertex_metrics divides them."""
    k = adjacency_bool(g).sum(axis=1).astype(np.int64)
    expected = np.full(g.N, np.nan)
    expected[k >= 2] = closed_pairs_oracle(g)[k >= 2] / (k * (k - 1))[k >= 2]
    return expected


class TestClosedPairsInBlocks:
    """vertex_metrics counts closed pairs in the distance pass's row blocks."""

    # rows per block on 35 vertices: 1, 1 and 29
    @pytest.mark.parametrize("budget", [1, 64, 1024])
    @pytest.mark.parametrize("seed", range(2))
    def test_random_graphs_match_the_pair_count(self, seed, budget, monkeypatch):
        rng = np.random.default_rng(90 + seed)
        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", budget)
        for g in (random_digraph(rng, 35, 0.15), random_undirected(rng, 35, 0.15)):
            assert np.array_equal(metrics.vertex_metrics(g).transitivity, transitivity_oracle(g),
                                  equal_nan=True)

    @pytest.mark.parametrize("directed", [True, False])
    def test_a_hub_row_larger_than_the_budget(self, directed, monkeypatch):
        # the hub's row alone exceeds the budget, so it is a block by itself
        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", 10)
        g = star(40, directed)
        assert np.array_equal(metrics.vertex_metrics(g).transitivity, transitivity_oracle(g),
                              equal_nan=True)


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the worker pool forks its workers")


@pytest.mark.parametrize("workers", [pytest.param(2, marks=needs_fork), 1])
def test_no_page_record_is_alive_when_the_analyses_start(workers, tmp_path, monkeypatch):
    spec = CorpusSpec(n_services=300, community_size=30, n_linkers=100, seed=5,
                      snapshots=("MEM1", "MEM2", "MEM3"))
    paths = generate_corpus(spec).write(tmp_path / "corpus")  # no record kept here
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    alive = []
    real = cli._analyse_all

    def counting(*args):
        alive.append(sum(isinstance(obj, PageRecord) and obj.snapshot_id in spec.snapshots
                         for obj in gc.get_objects()))
        return real(*args)

    monkeypatch.setattr(cli, "_analyse_all", counting)
    manifest = run_pipeline(RunConfig.from_dict({
        "snapshots": {snap: paths[snap] for snap in spec.snapshots},
        "labels": paths["labels"],
        "out_dir": str(tmp_path / "out"),
    }))
    assert alive == [0]
    assert sum(a["path"].endswith(".partition.csv") for a in manifest["artifacts"]) == 10
