import functools
import io
import math
import warnings

import numpy as np
import pytest
from scipy.sparse import csgraph

from oniongraph import metrics
from oniongraph.errors import DataError
from oniongraph.graphs import ServiceGraph, giant_wcc
from oniongraph.metrics import (
    VERTEX_CSV_COLUMNS,
    assortativity,
    centralization,
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
    brandes_accumulate_oracle,
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


def global_of(g):
    return vertex_metrics(g).global_metrics


def global_transitivity(g):
    gm = global_of(g)
    return gm.transitivity if g.directed else gm.clustering


class TestDistanceStats:
    def test_single_directed_edge(self):
        stats = global_of(dg([("a.onion", "b.onion", 1)]))
        assert stats.diameter == 1
        assert stats.avg_distance == 1.0
        assert stats.global_efficiency == 0.5

    def test_directed_three_cycle(self):
        # six ordered pairs: three at distance 1, three at distance 2
        stats = global_of(cycle(3, directed=True))
        assert stats.global_efficiency == pytest.approx(0.75, abs=1e-12)
        assert stats.diameter == 2
        assert stats.avg_distance == pytest.approx(1.5, abs=1e-12)

    def test_undirected_path(self):
        stats = global_of(ug(PATH3))
        assert stats.diameter == 2
        assert stats.avg_distance == pytest.approx(4 / 3, abs=1e-12)

    def test_single_vertex_has_no_distances(self):
        gm = global_of(ServiceGraph.from_edges(True, [], isolated_vertices=["a.onion"]))
        assert gm.n == 1 and gm.m == 0 and gm.diameter == 0
        for value in (gm.avg_distance, gm.global_efficiency, gm.assortativity,
                      gm.out_centralization, gm.transitivity):
            assert math.isnan(value)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_digraph(rng, int(rng.integers(5, 40)), 0.1)
        stats = global_of(g)
        d, avg, eglo = distance_stats_oracle(floyd_warshall(g))
        assert stats.diameter == d
        assert stats.avg_distance == pytest.approx(avg, abs=1e-12, nan_ok=True)
        assert stats.global_efficiency == pytest.approx(eglo, abs=1e-12)

    def test_removing_edge_never_increases_efficiency(self):
        rng = np.random.default_rng(11)
        g = random_digraph(rng, 18, 0.15)
        base = global_of(g).global_efficiency
        triples = list(zip(g.edge_src.tolist(), g.edge_dst.tolist(), g.edge_weight.tolist()))
        for drop in range(0, len(triples), max(1, len(triples) // 5)):
            kept = [
                (g.vertices[s], g.vertices[d], w)
                for i, (s, d, w) in enumerate(triples)
                if i != drop
            ]
            smaller = ServiceGraph.from_edges(True, kept, isolated_vertices=g.vertices)
            assert global_of(smaller).global_efficiency <= base + 1e-12

    def test_undirected_connected_inequalities(self):
        rng = np.random.default_rng(3)
        g = giant_wcc(random_undirected(rng, 25, 0.15))
        stats = global_of(g)
        assert stats.avg_distance >= 1.0
        assert stats.diameter >= stats.avg_distance
        assert stats.global_efficiency >= 1.0 / stats.diameter - 1e-12


class TestAssortativity:
    def test_star_has_no_variance(self):
        assert math.isnan(assortativity(star(6, directed=False)))

    @pytest.mark.parametrize("directed", [True, False])
    def test_one_edge_and_no_edge_are_nan(self, directed):
        # a single edge is one observation, which supports no correlation
        one = ServiceGraph.from_edges(directed, [(vid(0), vid(1), 1)])
        none = ServiceGraph.from_edges(directed, [], isolated_vertices=[vid(0), vid(1)])
        assert math.isnan(assortativity(one))
        assert math.isnan(assortativity(none))

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

    def test_small_graph_is_nan(self):
        pair = ug([("a.onion", "b.onion", 1)])
        assert math.isnan(centralization(pair))
        assert math.isnan(centralization(dg([("a.onion", "b.onion", 1)])))
        gm = global_of(pair)
        assert math.isnan(gm.centralization)
        assert (gm.diameter, gm.avg_distance, gm.global_efficiency) == (1, 1.0, 1.0)


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



def sink_heavy_digraph(seed):
    """A random digraph in which only every third vertex has out-edges."""
    g = random_digraph(np.random.default_rng(seed), 30, 0.2)
    keep = g.edge_src % 3 == 0
    return ServiceGraph.from_arrays(True, g.vertices, g.edge_src[keep], g.edge_dst[keep],
                                    g.edge_weight[keep])


def sparse_undirected(seed):
    return random_undirected(np.random.default_rng(seed), 30, 0.1)


BRANDES_GRAPHS = {
    **{f"sinks-{seed}": functools.partial(sink_heavy_digraph, seed) for seed in range(3)},
    **{f"undirected-{seed}": functools.partial(sparse_undirected, seed) for seed in range(3)},
    "star": star,
    "undirected-star": functools.partial(star, directed=False),
    "path": functools.partial(dg, PATH3),
    "undirected-path": functools.partial(ug, PATH3),
    # component_policy "whole" keeps a vertex of no edge in the analysed graph
    "isolated": functools.partial(dg, PATH3, isolated=["z.onion"]),
    "undirected-isolated": functools.partial(ug, PATH3, isolated=["z.onion"]),
}


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

    def test_hits_hub_and_authority_differ_on_an_undirected_star(self):
        # W is symmetric, yet on a bipartite graph the power iteration leaves
        # the two vectors apart, so an undirected graph needs both
        hub, auth = hits(star(4, directed=False))
        assert hub == pytest.approx([0.5] * 4, abs=1e-9)
        assert auth == pytest.approx([math.sqrt(3) / 2] + [1 / (2 * math.sqrt(3))] * 3, abs=1e-9)

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
        gm = vm.global_metrics
        d, avg, eglo = distance_stats_oracle(dist)
        assert gm.diameter == d
        assert gm.avg_distance == pytest.approx(avg, abs=1e-12)
        assert gm.global_efficiency == pytest.approx(eglo, abs=1e-12)
        tra = gm.transitivity if directed else gm.clustering
        assert tra == pytest.approx(global_transitivity_oracle(g), abs=1e-12)

    @pytest.mark.parametrize("blocked", [False, True])
    @pytest.mark.parametrize("seed,directed", [(22, True), (23, False)])
    def test_distance_blocks_are_int64_with_minus_one_where_unreached(
            self, seed, directed, blocked, monkeypatch):
        rng = np.random.default_rng(seed)
        r = random_digraph(rng, 31, 0.05) if directed else random_undirected(rng, 31, 0.06)
        edges = [(r.vertices[u], r.vertices[v]) for u, v in zip(r.edge_src, r.edge_dst)]
        g = ServiceGraph.from_edges(directed, edges, isolated_vertices=r.vertices + ("zzz.onion",))
        if blocked:
            monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", 7 * g.N)
        a = g.adjacency()
        dist = floyd_warshall(g)
        expected = np.where(np.isfinite(dist), dist, -1).astype(np.int64)
        assert (expected[-1, :-1] == -1).all()  # zzz.onion, the isolated vertex
        sources = []
        for rows, d in metrics._distance_blocks(a):
            assert d.dtype == np.int64
            # scipy's symmetrization and unit weights change no distance
            unit = csgraph.shortest_path(a, method="D", directed=directed, unweighted=True,
                                         indices=rows)
            np.testing.assert_array_equal(d, np.where(np.isfinite(unit), unit, -1))
            np.testing.assert_array_equal(d, expected[rows])
            sources.extend(rows.tolist())
        assert sources == list(range(g.N))

    @pytest.mark.parametrize("directed", [True, False])
    def test_one_vertex_raises_no_warning(self, directed):
        g = ServiceGraph.from_edges(directed, [], isolated_vertices=["a.onion"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vm = vertex_metrics(g)
        for column in (vm.betweenness, vm.closeness, vm.eccentricity):
            assert column.tolist() == [0.0]

    @pytest.mark.parametrize("name", sorted(BRANDES_GRAPHS))
    def test_betweenness_matches_the_every_source_kernel_bit_for_bit(self, monkeypatch, name):
        g = BRANDES_GRAPHS[name]()
        sources = []
        real = metrics._brandes_accumulate

        def counted(dist, esrc, edst, source, n, betweenness):
            sources.append(source)
            real(dist, esrc, edst, source, n, betweenness)

        monkeypatch.setattr(metrics, "_brandes_accumulate", counted)
        vm = vertex_metrics(g)
        # the kernel runs once for each source with an out-edge (any edge
        # when undirected), in source order
        a = g.adjacency()
        assert sources == [s for s in range(g.N) if a.indptr[s + 1] > a.indptr[s]]
        esrc = g.edge_src if g.directed else np.concatenate([g.edge_src, g.edge_dst])
        edst = g.edge_dst if g.directed else np.concatenate([g.edge_dst, g.edge_src])
        expected = np.zeros(g.N)
        for s, row in enumerate(floyd_warshall(g)):
            dist = np.where(np.isfinite(row), row, -1).astype(np.int64)
            brandes_accumulate_oracle(dist, esrc, edst, s, g.N, expected)
        assert vm.betweenness.tobytes() == expected.tobytes()


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
    vm = vertex_metrics(g)
    gm = vm.global_metrics
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

    assert vm.pagerank.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(vm.pagerank >= 0)
    assert np.all(vm.betweenness >= -1e-12)
    for arr in (vm.efficiency, vm.transitivity):
        finite = arr[np.isfinite(arr)]
        assert np.all(finite >= -1e-12) and np.all(finite <= 1.0 + 1e-12)


def test_global_metrics_container_fields():
    gm = global_of(dg(TRIANGLE))
    d = gm.to_dict()
    assert d["directed"] and "out_centralization" in d and "clustering" not in d
    gm = global_of(ug(TRIANGLE))
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
    assert back.global_metrics is None


def test_undirected_vertex_metrics_csv_round_trip():
    rng = np.random.default_rng(13)
    g = random_undirected(rng, 20, 0.2)
    vm = vertex_metrics(g, lcratio_by_service={g.vertices[1]: 0.5})
    text = io.StringIO()
    write_vertex_metrics_csv(vm, text)
    back = read_vertex_metrics_csv(io.StringIO(text.getvalue()))
    assert vm.global_metrics is not None and back.global_metrics is None
    assert back.vertices == vm.vertices
    for name in VERTEX_CSV_COLUMNS[1:]:
        np.testing.assert_array_equal(getattr(back, name), getattr(vm, name))
    again = io.StringIO()
    write_vertex_metrics_csv(back, again)
    assert again.getvalue() == text.getvalue()
