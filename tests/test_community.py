import hashlib
import io
import math
import random

import numpy as np
import pytest

from oniongraph import community
from oniongraph.community import (
    Partition,
    ami,
    ami_on_common,
    cluster_size_distribution,
    louvain,
    modularity,
    read_partition_csv,
    write_partition_csv,
)
from oniongraph.errors import DataError, ParseError
from oniongraph.graphs import ServiceGraph, build_dsg, to_usg, union
from oniongraph.synth import CorpusSpec, generate_corpus

from oracles import (
    expected_mi_oracle,
    expected_mi_sum_oracle,
    modularity_oracle,
    random_digraph,
    random_undirected,
    vid,
)


def ug(edges, isolated=()):
    return ServiceGraph.from_edges(False, edges, isolated_vertices=isolated)


def clique_pair(k=5, bridge_weight=1):
    """Two k-cliques joined by one bridge edge."""
    edges = []
    for block, offset in (("a", 0), ("b", k)):
        for i in range(k):
            for j in range(i + 1, k):
                edges.append((vid(offset + i), vid(offset + j), 1))
    edges.append((vid(0), vid(k), bridge_weight))
    planted = {vid(i): (0 if i < k else 1) for i in range(2 * k)}
    return ug(edges), Partition.from_labels(planted)


def weight_planted(blocks=4, size=8, intra=9, bridge=1, seed=0):
    """Ring of blocks: heavy intra-block edges, weight-1 bridges."""
    rng = np.random.default_rng(seed)
    edges = []
    planted = {}
    for b in range(blocks):
        members = [vid(b * size + i) for i in range(size)]
        for v in members:
            planted[v] = b
        for i in range(size):
            for j in range(i + 1, size):
                if i == (j - 1) or rng.random() < 0.4:
                    edges.append((members[i], members[j], intra))
        edges.append((members[0], vid(((b + 1) % blocks) * size), bridge))
    dedup = {}
    for u, v, w in edges:
        key = (min(u, v), max(u, v))
        dedup[key] = max(dedup.get(key, 0), w)
    return ug([(u, v, w) for (u, v), w in dedup.items()]), Partition.from_labels(planted)


@pytest.fixture(scope="module")
def default_union():
    spec = CorpusSpec()
    corpus = generate_corpus(spec)
    return union([build_dsg(corpus.pages[s], s) for s in spec.snapshots])


class TestLouvain:
    def test_two_cliques_recovered(self):
        g, planted = clique_pair(5)
        part = louvain(g, seed=3)
        # the planted split must not be beaten, and should be found exactly
        assert modularity(g, part) >= modularity(g, planted) - 1e-12
        assert ami(part, planted) == pytest.approx(1.0, abs=1e-9)

    def test_single_edge_single_cluster(self):
        g = ug([("a.onion", "b.onion", 1)])
        part = louvain(g)
        assert part.n_clusters == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_weight_planted_blocks_recovered_all_seeds(self, seed):
        g, planted = weight_planted()
        part = louvain(g, seed=seed)
        assert part.assignment.keys() == planted.assignment.keys()
        assert ami(part, planted) == pytest.approx(1.0, abs=1e-9)

    def test_never_below_singleton_partition(self):
        rng = np.random.default_rng(17)
        edges = {}
        for _ in range(60):
            i, j = rng.integers(0, 25, size=2)
            if i != j:
                edges[(vid(min(i, j)), vid(max(i, j)))] = int(rng.integers(1, 6))
        g = ug([(u, v, w) for (u, v), w in edges.items()])
        singletons = Partition.from_labels({v: i for i, v in enumerate(g.vertices)})
        for seed in range(5):
            part = louvain(g, seed=seed)
            assert modularity(g, part) >= modularity(g, singletons) - 1e-12

    def test_deterministic_for_fixed_seed(self):
        g, _ = weight_planted(seed=2)
        assert louvain(g, seed=11).assignment == louvain(g, seed=11).assignment

    def test_directed_input_symmetrized(self):
        g = ServiceGraph.from_edges(
            True,
            [("a.onion", "b.onion", 3), ("b.onion", "a.onion", 2), ("c.onion", "a.onion", 1)],
        )
        part = louvain(g, seed=0)
        assert part.n_vertices == 3

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError):
            louvain(ServiceGraph.from_edges(False, []))

    @pytest.mark.parametrize("kind,seed,sha256", [
        ("dsg", 0, "7070a1fc201db140363e8d2a99ee5ec900546e57e76d5718bf269917d1236533"),
        ("dsg", 1, "64cb0e1294423a46119e1442fb7c275fe0f3d99491500694982dee06361c52f7"),
        ("dsg", 3, "ba9af3cf4cb83029f677149e852223dc2c49762cb4f030fb7275766929a9a73c"),
        ("usg", 0, "399aec64a92094fbd03d15b3a2b8e31cd889fe403cbc2e28ce7a0f3ba9c5eb35"),
    ])
    def test_default_corpus_union_partitions_pinned(self, default_union, kind, seed, sha256):
        # partition CSV bytes recorded with the dict-of-neighbours Louvain;
        # a change here means the visit or tie-breaking order moved (seed 1
        # changes if rows list their columns in ascending order)
        g = default_union if kind == "dsg" else to_usg(default_union)
        buf = io.StringIO()
        write_partition_csv(louvain(g, seed=seed), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == sha256

    @pytest.mark.parametrize("seed", range(6))
    def test_local_moves_end_with_no_improving_move(self, seed):
        rng = np.random.default_rng(seed)
        g = (random_digraph if seed % 2 else random_undirected)(rng, 30, 0.12)
        rows = np.concatenate([g.edge_src, g.edge_dst])
        cols = np.concatenate([g.edge_dst, g.edge_src])
        weights = np.tile(g.edge_weight, 2)
        indptr, indices, data, strength = community._csr(rows * g.N + cols, weights, g.N)
        found, _ = community._one_level(
            indptr.tolist(), indices.tolist(), data.tolist(), strength.tolist(),
            strength.sum(), random.Random(seed),
        )
        labels = dict(zip(g.vertices, found))
        q = modularity_oracle(g, labels)
        # moving u into a neighbour's community changes Q by twice the gain
        # that _one_level compares with _GAIN_EPS
        for s, d in zip(rows.tolist(), cols.tolist()):
            u, target = g.vertices[s], labels[g.vertices[d]]
            if target != labels[u]:
                moved = modularity_oracle(g, {**labels, u: target})
                assert moved - q <= 2 * community._GAIN_EPS + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_modularity_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = (random_digraph if seed % 2 else random_undirected)(rng, 40, 0.08)
        part = louvain(g, seed=seed)
        q = modularity(g, part)
        assert q == pytest.approx(modularity_oracle(g, part.assignment), abs=1e-9)
        singletons = {v: i for i, v in enumerate(g.vertices)}
        assert q >= modularity_oracle(g, singletons)


class TestModularity:
    def test_singleton_partition_of_single_edge(self):
        g = ug([("a.onion", "b.onion", 1)])
        q = modularity(g, Partition.from_labels({"a.onion": 0, "b.onion": 1}))
        # oracle: direct formula, 2m = 2, each vertex strength 1:
        # Q = 0 - 2 * (1/2)^2 = -0.5
        assert q == pytest.approx(-0.5, abs=1e-12)

    def test_two_disconnected_cliques_split(self):
        g, planted = clique_pair(5)
        # remove the bridge to get two pure components
        edges = [
            (g.vertices[s], g.vertices[d], int(w))
            for s, d, w in zip(g.edge_src, g.edge_dst, g.edge_weight)
            if not (g.vertices[s] == vid(0) and g.vertices[d] == vid(5))
        ]
        g2 = ug(edges)
        assert modularity(g2, planted) == pytest.approx(0.5, abs=1e-12)

    def test_random_partition_never_beats_louvain(self):
        rng = np.random.default_rng(23)
        g, _ = weight_planted(seed=5)
        best = modularity(g, louvain(g, seed=0))
        for _ in range(10):
            labels = {v: int(rng.integers(0, 4)) for v in g.vertices}
            assert modularity(g, Partition.from_labels(labels)) <= best + 1e-12

    def test_bounds(self):
        g, planted = clique_pair(4)
        q = modularity(g, planted)
        assert -0.5 <= q <= 1.0

    def test_uncovered_vertex_rejected(self):
        g = ug([("a.onion", "b.onion", 1)])
        with pytest.raises(DataError, match="misses"):
            modularity(g, Partition.from_labels({"a.onion": 0}))


class TestAmi:
    def test_self_comparison_is_one(self):
        rng = np.random.default_rng(3)
        p = Partition.from_labels({vid(i): int(rng.integers(0, 7)) for i in range(200)})
        assert ami(p, p) == pytest.approx(1.0, abs=1e-9)

    def test_relabeling_invariance(self):
        labels = {vid(i): i % 4 for i in range(40)}
        p1 = Partition.from_labels(labels)
        p2 = Partition.from_labels({v: (c + 2) % 4 for v, c in labels.items()})
        assert ami(p1, p2) == pytest.approx(1.0, abs=1e-9)

    def test_independent_random_partitions_near_zero(self):
        # mean |AMI| over 100 trials of independent uniform partitions
        rng = np.random.default_rng(42)
        total = 0.0
        trials = 100
        for _ in range(trials):
            p1 = Partition.from_labels({vid(i): int(rng.integers(0, 10)) for i in range(1000)})
            p2 = Partition.from_labels({vid(i): int(rng.integers(0, 10)) for i in range(1000)})
            total += abs(ami(p1, p2))
        assert total / trials <= 0.05

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        p1 = Partition.from_labels({vid(i): int(rng.integers(0, 5)) for i in range(120)})
        p2 = Partition.from_labels({vid(i): int(rng.integers(0, 3)) for i in range(120)})
        assert ami(p1, p2) == pytest.approx(ami(p2, p1), abs=1e-12)

    def test_domain_mismatch_rejected(self):
        p1 = Partition.from_labels({vid(0): 0, vid(1): 1})
        p2 = Partition.from_labels({vid(0): 0, vid(2): 1})
        with pytest.raises(DataError, match="vertex sets"):
            ami(p1, p2)

    def test_trivial_partitions_equal(self):
        p = Partition.from_labels({vid(0): 0, vid(1): 0})
        assert ami(p, p) == 1.0

    def test_common_restriction(self):
        p1 = Partition.from_labels({vid(i): i % 2 for i in range(10)})
        p2 = Partition.from_labels({vid(i): i % 2 for i in range(5, 15)})
        score, n_common = ami_on_common(p1, p2)
        assert n_common == 5
        assert score == pytest.approx(1.0, abs=1e-9)
        score, n_common = ami_on_common(
            Partition.from_labels({vid(0): 0}), Partition.from_labels({vid(99): 0})
        )
        assert math.isnan(score) and n_common == 0


def table_with_marginals(row_sums, col_sums):
    """A contingency table with these row and column sums."""
    x = np.repeat(np.arange(len(row_sums)), row_sums)
    y = np.repeat(np.arange(len(col_sums)), col_sums)
    table = np.zeros((len(row_sums), len(col_sums)), dtype=np.int64)
    np.add.at(table, (x, y), 1)
    return table


class TestExpectedMi:
    @pytest.mark.parametrize("row_sums,col_sums", [
        ([1, 1], [1, 1]),
        ([2, 1], [1, 1, 1]),
        ([2, 2, 3], [3, 4]),  # repeated row sums
        ([1, 2, 4], [3, 2, 1, 1]),  # all-distinct row sums
        ([3, 3], [2, 2, 2]),  # repeated on both sides
        ([7], [2, 5]),  # a single row
        ([1, 6], [7]),  # a single column
        ([1] * 7, [1] * 7),
        ([5, 1, 1], [1, 1, 5]),
    ])
    def test_matches_permutation_enumeration(self, row_sums, col_sums):
        n = sum(row_sums)
        emi = community._expected_mi(table_with_marginals(row_sums, col_sums), n)
        oracle = expected_mi_oracle(row_sums, col_sums)
        assert emi == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        assert expected_mi_sum_oracle(row_sums, col_sums) == pytest.approx(
            oracle, rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_hypergeometric_sum_on_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 400))
        # few clusters give repeated sizes, many give mostly distinct ones
        k1, k2 = (int(k) for k in rng.integers(1, [6, 40]))
        x = rng.integers(0, k1, n)
        y = rng.integers(0, k2, n) if seed % 2 else (x + rng.integers(0, 2, n)) % k2
        table = np.zeros((k1, k2), dtype=np.int64)
        np.add.at(table, (x, y), 1)
        table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
        rows, cols = table.sum(axis=1).tolist(), table.sum(axis=0).tolist()
        assert community._expected_mi(table, n) == pytest.approx(
            expected_mi_sum_oracle(rows, cols), rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("shape", [(1, 5), (4, 1)])
    def test_trivial_side_is_exactly_zero(self, shape):
        rng = np.random.default_rng(1)
        table = rng.integers(1, 9, size=shape)
        assert community._expected_mi(table, int(table.sum())) == 0.0


class TestClusterSizes:
    def test_singletons(self):
        p = Partition.from_labels({vid(i): i for i in range(5)})
        assert cluster_size_distribution(p) == [1, 1, 1, 1, 1]

    def test_one_cluster(self):
        p = Partition.from_labels({vid(i): 0 for i in range(9)})
        assert cluster_size_distribution(p) == [9]

    def test_planted_sizes_sorted(self):
        labels = {vid(i): 0 for i in range(7)}
        labels.update({vid(10 + i): 1 for i in range(2)})
        labels[vid(20)] = 2
        p = Partition.from_labels(labels)
        sizes = cluster_size_distribution(p)
        assert sizes == [7, 2, 1]
        assert sum(sizes) == p.n_vertices


def test_partition_csv_round_trip():
    p = Partition.from_labels({vid(i): i % 3 for i in range(8)})
    buf = io.StringIO()
    write_partition_csv(p, buf)
    buf.seek(0)
    assert read_partition_csv(buf).assignment == p.assignment


def test_partition_csv_vertex_listed_twice_names_the_second_line():
    buf = io.StringIO("vertex,cluster\na.onion,0\nb.onion,1\n\na.onion,1\n")
    with pytest.raises(ParseError, match=r"^line 5: vertex 'a.onion' listed twice$"):
        read_partition_csv(buf)
