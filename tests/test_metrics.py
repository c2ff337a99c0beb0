import math

import numpy as np
import pytest

from oniongraph import metrics
from oniongraph.errors import DataError
from oniongraph.graphs import ServiceGraph, giant_wcc
from oniongraph.metrics import (
    assortativity,
    centralization,
    compute_global_metrics,
    distance_stats,
    global_transitivity,
    hits,
    hub_reach_curve,
    pagerank,
    read_vertex_metrics_csv,
    vertex_metrics,
    write_vertex_metrics_csv,
)

from oracles import (
    adjacency_bool,
    betweenness_oracle,
    closeness_oracle,
    distance_stats_oracle,
    eccentricity_oracle,
    floyd_warshall,
    global_transitivity_oracle,
    hits_oracle,
    local_efficiency_oracle,
    local_transitivity_oracle,
    pagerank_oracle,
    random_digraph,
    random_undirected,
    vid,
)


def dg(edges, isolated=()):
    return ServiceGraph.from_edges(True, edges, isolated_vertices=isolated)


def ug(edges, isolated=()):
    return ServiceGraph.from_edges(False, edges, isolated_vertices=isolated)


TRIANGLE = [("a.onion", "b.onion", 1), ("b.onion", "c.onion", 1), ("a.onion", "c.onion", 1)]
PATH3 = [("a.onion", "b.onion", 1), ("b.onion", "c.onion", 1)]


def star(n=6, directed=True):
    edges = [("hub.onion", f"leaf{i}.onion", 1) for i in range(n - 1)]
    return ServiceGraph.from_edges(directed, edges)


def cycle(n=5, directed=False):
    edges = [(vid(i), vid((i + 1) % n), 1) for i in range(n)]
    return ServiceGraph.from_edges(directed, edges)


class TestDistanceStats:
    def test_single_directed_edge(self):
        stats = distance_stats(dg([("a.onion", "b.onion", 1)]))
        assert stats.diameter == 1
        assert stats.avg_distance == 1.0
        assert stats.global_efficiency == 0.5

    def test_directed_three_cycle(self):
        # six ordered pairs: three at distance 1, three at distance 2
        stats = distance_stats(cycle(3, directed=True))
        assert stats.global_efficiency == pytest.approx(0.75, abs=1e-12)
        assert stats.diameter == 2
        assert stats.avg_distance == pytest.approx(1.5, abs=1e-12)

    def test_undirected_path(self):
        stats = distance_stats(ug(PATH3))
        assert stats.diameter == 2
        assert stats.avg_distance == pytest.approx(4 / 3, abs=1e-12)

    def test_single_vertex_rejected(self):
        with pytest.raises(DataError):
            distance_stats(ServiceGraph.from_edges(True, [], isolated_vertices=["a.onion"]))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_digraph(rng, int(rng.integers(5, 40)), 0.1)
        stats = distance_stats(g)
        d, avg, eglo = distance_stats_oracle(floyd_warshall(g))
        assert stats.diameter == d
        assert stats.avg_distance == pytest.approx(avg, abs=1e-12, nan_ok=True)
        assert stats.global_efficiency == pytest.approx(eglo, abs=1e-12)

    def test_removing_edge_never_increases_efficiency(self):
        rng = np.random.default_rng(11)
        g = random_digraph(rng, 18, 0.15)
        base = distance_stats(g).global_efficiency
        triples = list(zip(g.edge_src.tolist(), g.edge_dst.tolist(), g.edge_weight.tolist()))
        for drop in range(0, len(triples), max(1, len(triples) // 5)):
            kept = [
                (g.vertices[s], g.vertices[d], w)
                for i, (s, d, w) in enumerate(triples)
                if i != drop
            ]
            smaller = ServiceGraph.from_edges(True, kept, isolated_vertices=g.vertices)
            assert distance_stats(smaller).global_efficiency <= base + 1e-12

    def test_undirected_connected_inequalities(self):
        rng = np.random.default_rng(3)
        g = giant_wcc(random_undirected(rng, 25, 0.15))
        stats = distance_stats(g)
        assert stats.avg_distance >= 1.0
        assert stats.diameter >= stats.avg_distance
        assert stats.global_efficiency >= 1.0 / stats.diameter - 1e-12


class TestAssortativity:
    def test_star_has_no_variance(self):
        assert math.isnan(assortativity(star(6, directed=False)))

    def test_four_path_matches_direct_pearson(self):
        g = ug([(vid(0), vid(1), 1), (vid(1), vid(2), 1), (vid(2), vid(3), 1)])
        # oracle: Pearson over the doubled edge list
        deg = {vid(0): 1, vid(1): 2, vid(2): 2, vid(3): 1}
        pairs = []
        for u, v in [(vid(0), vid(1)), (vid(1), vid(2)), (vid(2), vid(3))]:
            pairs.append((deg[u], deg[v]))
            pairs.append((deg[v], deg[u]))
        x = np.array([p[0] for p in pairs], dtype=float)
        y = np.array([p[1] for p in pairs], dtype=float)
        expected = float(np.corrcoef(x, y)[0, 1])
        assert assortativity(g) == pytest.approx(expected, abs=1e-12)

    def test_hubs_to_sinks_is_disassortative(self):
        # one big out-hub feeding in-degree-1 sinks, plus three out-degree-1
        # vertices converging on a shared in-hub
        edges = [(vid(0), vid(10 + i), 1) for i in range(8)]
        edges += [(vid(1 + i), vid(30), 1) for i in range(3)]
        g = dg(edges)
        rho = assortativity(g)
        assert rho < 0
        # oracle: direct Pearson over (source out-degree, target in-degree)
        x = g.out_degrees()[g.edge_src].astype(float)
        y = g.in_degrees()[g.edge_dst].astype(float)
        assert rho == pytest.approx(float(np.corrcoef(x, y)[0, 1]), abs=1e-12)


class TestCentralization:
    def test_directed_out_star(self):
        assert centralization(star(7, directed=True)) == pytest.approx(1.0)

    def test_undirected_star(self):
        assert centralization(star(7, directed=False)) == pytest.approx(1.0)

    def test_cycle_is_uncentralized(self):
        assert centralization(cycle(6)) == 0.0

    def test_small_graph_rejected(self):
        with pytest.raises(DataError):
            centralization(ug([("a.onion", "b.onion", 1)]))


class TestGlobalTransitivity:
    def test_directed_feed_forward_triangle(self):
        g = dg(TRIANGLE)
        # two ordered out-pairs at a, both closed by the b->c edge
        assert global_transitivity(g) == pytest.approx(1.0)

    def test_undirected_triangle(self):
        assert global_transitivity(ug(TRIANGLE)) == pytest.approx(1.0)

    def test_undirected_star_has_no_closed_triplet(self):
        assert global_transitivity(star(6, directed=False)) == 0.0

    def test_no_triples_is_nan(self):
        assert math.isnan(global_transitivity(ug([("a.onion", "b.onion", 1)])))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_on_digraphs_with_reciprocal_edges(self, seed):
        rng = np.random.default_rng(40 + seed)
        g = random_digraph(rng, int(rng.integers(10, 40)), 0.2)
        a = adjacency_bool(g)
        assert (a & a.T).any()  # a reciprocated pair must still count once
        assert global_transitivity(g) == pytest.approx(global_transitivity_oracle(g), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_on_undirected_graphs(self, seed):
        rng = np.random.default_rng(50 + seed)
        g = random_undirected(rng, int(rng.integers(10, 40)), 0.2)
        assert global_transitivity(g) == pytest.approx(global_transitivity_oracle(g), abs=1e-12)


class TestVertexMetrics:
    def test_path_betweenness_and_eccentricity(self):
        vm = vertex_metrics(ug(PATH3))
        b = vm.vertices.index("b.onion")
        a = vm.vertices.index("a.onion")
        assert vm.betweenness[b] == pytest.approx(2.0)  # ordered pairs (a,c), (c,a)
        assert vm.betweenness[a] == 0.0
        assert vm.eccentricity[a] == 2.0

    def test_star_center_closeness(self):
        vm = vertex_metrics(star(8, directed=False))
        hub = vm.vertices.index("hub.onion")
        assert vm.closeness[hub] == pytest.approx(1.0)

    def test_symmetric_cycle_pagerank_uniform(self):
        n = 7
        g = cycle(n, directed=True)
        vm = vertex_metrics(g)
        assert np.allclose(vm.pagerank, 1.0 / n, atol=1e-9)

    def test_hub_and_sinks_hits_fixed_point(self):
        g = star(6, directed=True)
        vm = vertex_metrics(g)
        hub = vm.vertices.index("hub.onion")
        leaves = [i for i in range(g.N) if i != hub]
        assert vm.hubscore[hub] == pytest.approx(1.0)
        assert np.allclose(vm.hubscore[leaves], 0.0, atol=1e-9)
        assert np.allclose(vm.authscore[leaves], vm.authscore[leaves][0], atol=1e-9)
        assert vm.authscore[hub] == pytest.approx(0.0, abs=1e-9)

    def test_pagerank_sums_to_one_and_scale_invariant(self):
        rng = np.random.default_rng(5)
        g = random_digraph(rng, 30, 0.1)
        pr = pagerank(g, weighted=True)
        assert pr.sum() == pytest.approx(1.0, abs=1e-9)
        scaled = ServiceGraph.from_edges(
            True,
            [(g.vertices[s], g.vertices[d], int(w) * 3) for s, d, w in
             zip(g.edge_src, g.edge_dst, g.edge_weight)],
            isolated_vertices=g.vertices,
        )
        assert np.allclose(pagerank(scaled, weighted=True), pr, atol=1e-9)

    def test_hits_unit_norms(self):
        rng = np.random.default_rng(6)
        g = random_digraph(rng, 25, 0.12)
        hub, auth = hits(g)
        assert np.linalg.norm(hub) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(auth) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("seed,directed", [(0, True), (1, True), (2, False), (3, False)])
    def test_rank_scores_match_dense_oracles(self, seed, directed, weighted):
        rng = np.random.default_rng(40 + seed)
        if directed:
            g = random_digraph(rng, 25, 0.12)
            # drop the out-edges of two vertices so the walk has dangling ends
            keep = (g.edge_src != 0) & (g.edge_src != 7)
            g = ServiceGraph(True, g.vertices, g.edge_src[keep], g.edge_dst[keep],
                             g.edge_weight[keep])
            assert np.any(g.out_degrees() == 0)
        else:
            g = random_undirected(rng, 25, 0.15)
        assert pagerank(g, weighted=weighted) == pytest.approx(
            pagerank_oracle(g, weighted=weighted), abs=1e-9
        )
        hub, auth = hits(g, weighted=weighted)
        hub_oracle, auth_oracle = hits_oracle(g, weighted=weighted)
        assert hub == pytest.approx(hub_oracle, abs=1e-9)
        assert auth == pytest.approx(auth_oracle, abs=1e-9)

    @pytest.mark.parametrize("seed,directed", [(0, True), (1, True), (2, False), (3, False)])
    def test_suite_matches_oracles_on_random_graphs(self, seed, directed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        g = random_digraph(rng, n, 0.08) if directed else random_undirected(rng, n, 0.1)
        vm = vertex_metrics(g)
        dist = floyd_warshall(g)
        np.testing.assert_allclose(vm.betweenness, betweenness_oracle(g), atol=1e-9)
        np.testing.assert_allclose(vm.closeness, closeness_oracle(dist), atol=1e-9)
        np.testing.assert_allclose(vm.eccentricity, eccentricity_oracle(dist), atol=1e-9)
        np.testing.assert_allclose(
            vm.efficiency, local_efficiency_oracle(g, dist), atol=1e-9, equal_nan=True
        )
        np.testing.assert_allclose(
            vm.transitivity, local_transitivity_oracle(g), atol=1e-9, equal_nan=True
        )

    @pytest.mark.parametrize("seed,directed", [(20, True), (21, False)])
    def test_suite_matches_oracles_across_distance_blocks(self, seed, directed, monkeypatch):
        rng = np.random.default_rng(seed)
        n = 7 * 4 + 3  # four full blocks of 7 sources and a ragged one of 3
        g = random_digraph(rng, n, 0.05) if directed else random_undirected(rng, n, 0.06)
        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", 7 * n)
        dist = floyd_warshall(g)
        assert np.isinf(dist).any()
        vm = vertex_metrics(g)
        np.testing.assert_allclose(vm.betweenness, betweenness_oracle(g), atol=1e-9)
        np.testing.assert_allclose(vm.closeness, closeness_oracle(dist), atol=1e-9)
        np.testing.assert_array_equal(vm.eccentricity, eccentricity_oracle(dist))
        np.testing.assert_allclose(
            vm.efficiency, local_efficiency_oracle(g, dist), atol=1e-9, equal_nan=True
        )
        np.testing.assert_allclose(
            vm.transitivity, local_transitivity_oracle(g), atol=1e-9, equal_nan=True
        )
        stats = distance_stats(g)
        d, avg, eglo = distance_stats_oracle(dist)
        assert stats.diameter == d
        assert stats.avg_distance == pytest.approx(avg, abs=1e-12)
        assert stats.global_efficiency == pytest.approx(eglo, abs=1e-12)

    def test_degree_one_vertex_gets_nan_locals(self):
        vm = vertex_metrics(dg([("a.onion", "b.onion", 1)]))
        a = vm.vertices.index("a.onion")
        assert math.isnan(vm.efficiency[a]) and math.isnan(vm.transitivity[a])

    def test_lcratio_passthrough(self):
        vm = vertex_metrics(ug(PATH3), lcratio_by_service={"a.onion": 0.25})
        assert vm.lcratio[vm.vertices.index("a.onion")] == 0.25
        assert math.isnan(vm.lcratio[vm.vertices.index("b.onion")])


class TestHubReach:
    def test_out_star_single_hub_covers_everything(self):
        curve = hub_reach_curve(star(9, directed=True), k=3)
        assert curve[0] == pytest.approx(1.0)

    def test_two_disjoint_hubs_each_half(self):
        edges = [("a-hub.onion", f"a{i}.onion", 1) for i in range(4)]
        edges += [("b-hub.onion", f"b{i}.onion", 1) for i in range(4)]
        curve = hub_reach_curve(ServiceGraph.from_edges(True, edges), k=2)
        # oracle: explicit neighborhood union
        assert curve.tolist() == pytest.approx([0.5, 1.0])

    def test_truncated_at_n(self):
        g = dg([("a.onion", "b.onion", 1)])
        assert hub_reach_curve(g, k=10).size == 2

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(9)
        g = giant_wcc(random_digraph(rng, 40, 0.08))
        curve = hub_reach_curve(g, k=25)
        assert np.all(np.diff(curve) >= -1e-15)
        assert curve[-1] <= 1.0 + 1e-15

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError):
            hub_reach_curve(ServiceGraph.from_edges(True, []))


@pytest.mark.parametrize("seed", range(6))
def test_metric_ranges_on_random_graphs(seed):
    rng = np.random.default_rng(300 + seed)
    directed = seed % 2 == 0
    n = int(rng.integers(8, 50))
    g = random_digraph(rng, n, 0.1) if directed else random_undirected(rng, n, 0.12)
    if g.M == 0 or g.N < 3:
        return
    gm = compute_global_metrics(g)
    assert 0.0 <= gm.global_efficiency <= 1.0
    if math.isfinite(gm.avg_distance):
        assert gm.diameter >= gm.avg_distance
    if not math.isnan(gm.assortativity):
        assert -1.0 - 1e-12 <= gm.assortativity <= 1.0 + 1e-12
    tr = gm.transitivity if directed else gm.clustering
    if tr is not None and not math.isnan(tr):
        assert 0.0 <= tr <= 1.0
    cen = gm.out_centralization if directed else gm.centralization
    assert 0.0 <= cen <= 1.0 + 1e-12

    vm = vertex_metrics(g)
    assert vm.pagerank.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(vm.pagerank >= 0)
    assert np.all(vm.betweenness >= -1e-12)
    for arr in (vm.efficiency, vm.transitivity):
        finite = arr[np.isfinite(arr)]
        assert np.all(finite >= -1e-12) and np.all(finite <= 1.0 + 1e-12)


def test_global_metrics_container_fields():
    gm = compute_global_metrics(dg(TRIANGLE))
    d = gm.to_dict()
    assert d["directed"] and "out_centralization" in d and "clustering" not in d
    gm = compute_global_metrics(ug(TRIANGLE))
    d = gm.to_dict()
    assert not d["directed"] and "clustering" in d and "transitivity" not in d
    assert d["avg_degree"] == pytest.approx(2.0)


def test_vertex_metrics_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    g = random_digraph(rng, 15, 0.15)
    vm = vertex_metrics(g, lcratio_by_service={g.vertices[0]: 0.125})
    path = tmp_path / "vm.csv"
    with open(path, "w") as fh:
        write_vertex_metrics_csv(vm, fh)
    with open(path) as fh:
        back = read_vertex_metrics_csv(fh)
    assert back.vertices == vm.vertices
    np.testing.assert_allclose(back.betweenness, vm.betweenness, atol=0)
    np.testing.assert_allclose(back.lcratio, vm.lcratio, equal_nan=True)
    np.testing.assert_array_equal(back.in_degree, vm.in_degree)
