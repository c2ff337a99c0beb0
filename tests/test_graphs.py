import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oniongraph import graphs
from oniongraph.errors import DataError, UsageError
from oniongraph.graphs import (
    ServiceGraph,
    build_dsg,
    giant_wcc,
    intersect,
    is_onion_id,
    read_graph_file,
    to_usg,
    union,
    write_graph_file,
)
from oniongraph.records import PageRecord

from oracles import (
    dsg_oracle,
    giant_wcc_oracle,
    induced_oracle,
    intersect_oracle,
    union_oracle,
    usg_oracle,
    vid,
)


def page(service, links, snapshot="S1", path="/", depth=0, chars=100):
    return PageRecord(snapshot, service, path, depth, chars, tuple(links))


def dg(edges, isolated=()):
    return ServiceGraph.from_edges(True, edges, isolated_vertices=isolated)


def ug(edges, isolated=()):
    return ServiceGraph.from_edges(False, edges, isolated_vertices=isolated)


class TestServiceGraph:
    def test_vertices_sorted_and_counts(self):
        g = dg([("b.onion", "a.onion", 2)])
        assert g.vertices == ("a.onion", "b.onion")
        assert g.N == 2 and g.M == 1

    def test_self_loop_rejected(self):
        with pytest.raises(DataError, match="self-loop"):
            dg([("a.onion", "a.onion", 1)])

    def test_undirected_canonical_order(self):
        g1 = ug([("b.onion", "a.onion", 3)])
        g2 = ug([("a.onion", "b.onion", 3)])
        assert g1 == g2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            ug([("a.onion", "b.onion", 1), ("b.onion", "a.onion", 2)])

    def test_degrees(self):
        g = dg([("a.onion", "b.onion", 1), ("a.onion", "c.onion", 1), ("b.onion", "c.onion", 1)])
        a, b, c = (g.index[v] for v in ("a.onion", "b.onion", "c.onion"))
        assert g.out_degrees()[a] == 2 and g.in_degrees()[a] == 0
        assert g.in_degrees()[c] == 2
        assert g.degrees()[b] == 2

    def test_neighbors(self):
        g = dg([("a.onion", "b.onion", 1), ("c.onion", "b.onion", 1)])
        edges = g.edge_weight_map()
        assert sorted(u for u, v in edges if v == "b.onion") == ["a.onion", "c.onion"]
        assert not [v for u, v in edges if u == "b.onion"]


class TestBuildDsg:
    def test_flattened_links_become_weight(self):
        g = build_dsg([page("a.onion", ["b.onion"] * 3)])
        assert g.edge_weight_map() == {("a.onion", "b.onion"): 3}

    def test_self_links_dropped(self):
        g = build_dsg([page("a.onion", ["a.onion"])])
        assert g.M == 0 and g.vertices == ("a.onion",)

    def test_empty_snapshot(self):
        g = build_dsg([])
        assert g.N == 0 and g.M == 0

    def test_surface_web_targets_ignored(self):
        g = build_dsg([page("a.onion", ["http://example.com", "example.com", "b.onion"])])
        assert g.vertices == ("a.onion", "b.onion")

    def test_uncrawled_onion_target_becomes_vertex(self):
        g = build_dsg([page("a.onion", ["ghost.onion"])])
        assert "ghost.onion" in g.vertices

    def test_isolated_crawled_service_kept(self):
        g = build_dsg([page("a.onion", ["b.onion"]), page("lonely.onion", [])])
        assert "lonely.onion" in g.vertices

    def test_mixed_snapshots_rejected(self):
        with pytest.raises(DataError, match="snapshot"):
            build_dsg([page("a.onion", [], snapshot="S1"), page("b.onion", [], snapshot="S2")])

    def test_snapshot_filter(self):
        pages = [page("a.onion", ["b.onion"], snapshot="S1")]
        g = build_dsg(pages, snapshot_id="S1")
        assert g.M == 1


def test_is_onion_id():
    assert is_onion_id("abc.onion")
    assert not is_onion_id(".onion")
    assert not is_onion_id("example.com")


class TestToUsg:
    def test_mutual_pair_only(self):
        g = dg([("a.onion", "b.onion", 1), ("b.onion", "a.onion", 1), ("a.onion", "c.onion", 1)])
        u = to_usg(g)
        assert u.vertices == ("a.onion", "b.onion")
        assert u.edge_weight_map() == {("a.onion", "b.onion"): 1}

    def test_no_mutual_pair_gives_empty_graph(self):
        u = to_usg(dg([("a.onion", "b.onion", 1), ("b.onion", "c.onion", 1)]))
        assert u.N == 0 and u.M == 0

    def test_weight_is_min_of_directions(self):
        g = dg([("a.onion", "b.onion", 2), ("b.onion", "a.onion", 5)])
        u = to_usg(g)
        # oracle: per-pair min over the reciprocal edge pair
        assert u.edge_weight_map()[("a.onion", "b.onion")] == min(2, 5)

    def test_undirected_input_rejected(self):
        with pytest.raises(UsageError):
            to_usg(ug([("a.onion", "b.onion", 1)]))


class TestIntersectUnion:
    def test_intersection_min_weight(self):
        g1 = dg([("a.onion", "b.onion", 2), ("b.onion", "c.onion", 1)])
        g2 = dg([("a.onion", "b.onion", 7)])
        gi = intersect([g1, g2])
        assert gi.edge_weight_map() == {("a.onion", "b.onion"): 2}
        assert gi.vertices == ("a.onion", "b.onion")

    def test_disjoint_edge_sets_give_empty(self):
        gi = intersect([dg([("a.onion", "b.onion", 1)]), dg([("b.onion", "c.onion", 1)])])
        assert gi.N == 0

    def test_union_max_weight(self):
        g1 = dg([("a.onion", "b.onion", 2)])
        g2 = dg([("a.onion", "b.onion", 7), ("b.onion", "c.onion", 1)])
        gu = union([g1, g2])
        assert gu.edge_weight_map() == {("a.onion", "b.onion"): 7, ("b.onion", "c.onion"): 1}

    def test_union_single_input_is_identity(self):
        g = dg([("a.onion", "b.onion", 2)])
        assert union([g]) == g

    def test_intersect_requires_two(self):
        with pytest.raises(UsageError):
            intersect([dg([("a.onion", "b.onion", 1)])])

    def test_mixed_directedness_rejected(self):
        with pytest.raises(UsageError):
            union([dg([("a.onion", "b.onion", 1)]), ug([("a.onion", "b.onion", 1)])])

    def test_three_random_graphs_match_brute_force(self):
        rng = np.random.default_rng(42)
        names = [f"v{i:02d}.onion" for i in range(12)]
        graph_maps = []
        for _ in range(3):
            edges = {}
            for _ in range(30):
                i, j = rng.integers(0, len(names), size=2)
                if i != j:
                    edges[(names[i], names[j])] = int(rng.integers(1, 9))
            graph_maps.append(edges)
        gs = [dg([(u, v, w) for (u, v), w in m.items()]) for m in graph_maps]

        # oracle: sorted edge-list intersection / merge with min/max weights
        common = set(graph_maps[0]) & set(graph_maps[1]) & set(graph_maps[2])
        expected_i = {k: min(m[k] for m in graph_maps) for k in common}
        assert intersect(gs).edge_weight_map() == expected_i

        everything = set().union(*graph_maps)
        expected_u = {k: max(m[k] for m in graph_maps if k in m) for k in everything}
        assert union(gs).edge_weight_map() == expected_u


class TestGiantWcc:
    def test_largest_component_wins(self):
        g = dg(
            [
                ("a.onion", "b.onion", 1),
                ("b.onion", "c.onion", 1),
                ("c.onion", "d.onion", 1),
                ("d.onion", "e.onion", 1),
                ("x.onion", "y.onion", 1),
                ("y.onion", "z.onion", 1),
            ]
        )
        w = giant_wcc(g)
        assert w.vertices == ("a.onion", "b.onion", "c.onion", "d.onion", "e.onion")

    def test_connected_graph_is_identity(self):
        g = ug([("a.onion", "b.onion", 1), ("b.onion", "c.onion", 1)])
        assert giant_wcc(g) == g

    def test_tie_break_lexicographic(self):
        g = ug([("m.onion", "n.onion", 1), ("a.onion", "z.onion", 1)])
        assert giant_wcc(g).vertices == ("a.onion", "z.onion")

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError):
            giant_wcc(ServiceGraph.from_edges(True, []))

    def test_component_sizes_match_label_propagation_oracle(self):
        rng = np.random.default_rng(7)
        names = [f"v{i:02d}.onion" for i in range(30)]
        edges = set()
        for _ in range(25):
            i, j = rng.integers(0, 30, size=2)
            if i != j:
                edges.add((names[i], names[j]))
        g = dg([(u, v, 1) for u, v in edges])

        # oracle: label propagation to fixpoint on the undirected view
        labels = {v: v for v in g.vertices}
        changed = True
        while changed:
            changed = False
            for u, v in edges:
                lo = min(labels[u], labels[v])
                for x in (u, v):
                    if labels[x] != lo:
                        labels[x] = lo
                        changed = True
        sizes = {}
        for v in g.vertices:
            sizes[labels[v]] = sizes.get(labels[v], 0) + 1
        assert giant_wcc(g).N == max(sizes.values())
        members = {}
        for i, v in enumerate(g.vertices):
            members.setdefault(labels[v], []).append(i)
        expected = min(members.values(), key=lambda m: (-len(m), m[0]))
        assert giant_wcc(g).vertices == tuple(g.vertices[i] for i in expected)


# hypothesis: random graph triples obey the algebra invariants
edge_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(1, 9)),
    max_size=25,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(e1=edge_strategy, e2=edge_strategy, e3=edge_strategy)
def test_intersection_subset_of_union_and_weight_rules(e1, e2, e3):
    def build(raw):
        dedup = {}
        for i, j, w in raw:
            if i != j:
                dedup[(f"v{i}.onion", f"v{j}.onion")] = w
        return dg([(u, v, w) for (u, v), w in dedup.items()])

    gs = [build(e) for e in (e1, e2, e3)]
    gi, gu = intersect(gs), union(gs)
    mi, mu = gi.edge_weight_map(), gu.edge_weight_map()
    assert set(mi) <= set(mu)
    maps = [g.edge_weight_map() for g in gs]
    for key, w in mi.items():
        assert w == min(m[key] for m in maps)
    for key, w in mu.items():
        assert w == max(m[key] for m in maps if key in m)
    # idempotence / commutativity on edge sets
    assert intersect([gi, gi]) == gi
    assert union([gs[2], gs[0], gs[1]]) == gu


@settings(max_examples=40, deadline=None, derandomize=True)
@given(raw=edge_strategy)
def test_usg_edge_set_definition_and_min_degree(raw):
    dedup = {}
    for i, j, w in raw:
        if i != j:
            dedup[(f"v{i}.onion", f"v{j}.onion")] = w
    g = dg([(u, v, w) for (u, v), w in dedup.items()])
    u = to_usg(g)
    expected = {
        (a, b): min(dedup[(a, b)], dedup[(b, a)])
        for (a, b) in dedup
        if a < b and (b, a) in dedup
    }
    assert u.edge_weight_map() == expected
    if u.N:
        assert u.degrees().min() >= 1


def test_graph_file_round_trip(tmp_path):
    g = dg(
        [("a.onion", "b.onion", 3), ("b.onion", "c.onion", 1)],
        isolated=["lonely.onion"],
    )
    path = tmp_path / "g.tsv"
    write_graph_file(g, path)
    assert read_graph_file(path) == g

    u = ug([("a.onion", "b.onion", 2)], isolated=["solo.onion"])
    write_graph_file(u, tmp_path / "u.tsv")
    assert read_graph_file(tmp_path / "u.tsv") == u


def test_graph_file_reader_shares_equal_ids(tmp_path, monkeypatch):
    path = tmp_path / "g.tsv"
    path.write_text("# directed\n# vertex a.onion\na.onion\tb.onion\t1\n"
                    "b.onion\ta.onion\t2\nc.onion\tb.onion\t1\n")
    read = {}
    real = graphs._from_ids

    def spy(directed, sources, targets, weights, isolated=()):
        read.update(sources=sources, targets=targets)
        return real(directed, sources, targets, weights, isolated)

    expected = dg([("a.onion", "b.onion", 1), ("b.onion", "a.onion", 2),
                   ("c.onion", "b.onion", 1)])
    monkeypatch.setattr(graphs, "_from_ids", spy)
    g = read_graph_file(path)
    assert g == expected
    sources, targets = read["sources"], read["targets"]
    assert sources[0] is targets[1]  # a.onion
    assert targets[0] is sources[1] is targets[2]  # b.onion
    assert {id(v) for v in g.vertices} == {id(v) for v in sources + targets}


def test_graph_file_missing_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a.onion\tb.onion\t1\n")
    with pytest.raises(DataError, match="header"):
        read_graph_file(path)


@pytest.mark.parametrize(
    "body, edges, isolated",
    [
        ("a.onion\tb.onion\t1\n\t\t\nb.onion\tc.onion\t2\n",
         [("a.onion", "b.onion", 1), ("b.onion", "c.onion", 2)], []),
        ("a.onion\tb.onion\t1\n \t \t \n", [("a.onion", "b.onion", 1)], []),
        ("a.onion\tb.onion\t1\n# vertex z.onion\n", [("a.onion", "b.onion", 1)], ["z.onion"]),
        ("a.onion\tb.onion\t 3 \n", [("a.onion", "b.onion", 3)], []),
        ("a.onion\tb.onion\t4", [("a.onion", "b.onion", 4)], []),
        ("\t\t\n", [], []),
        ("a\tb\t 2 \n", [("a", "b", 2)], []),
    ],
)
def test_graph_file_reader_accepts(tmp_path, body, edges, isolated):
    path = tmp_path / "g.tsv"
    path.write_text("# directed\n" + body)
    assert read_graph_file(path) == dg(edges, isolated)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a.onion\tb.onion\t1\n# directed\n", "missing '# directed|undirected' header"),
        ("", "missing '# directed|undirected' header"),
        ("# directed\na.onion\tb.onion\t1\n# undirected\n", "duplicate header at line 3"),
        ("# directed\na.onion\tb.onion\n", "expected 'src\\ttarget\\tweight' at line 2"),
        ("# directed\na.onion\tb.onion\t1\t1\n", "expected 'src\\ttarget\\tweight' at line 2"),
        ("# directed\na.onion\tb.onion\t1\nb.onion\tc.onion\tx\n", "bad weight at line 3: 'x'"),
        ("# directed\na.onion\tb.onion\t\n", "bad weight at line 2: ''"),
        ("# directed\n#a.onion\tb.onion\t1\n",
         "unrecognized comment at line 2: '#a.onion\\tb.onion\\t1'"),
        # the graph the lines make is checked after the last line, so no line is named
        ("# directed\na.onion\tb.onion\t1\na.onion\tb.onion\t2\n",
         "duplicate edge ('a.onion', 'b.onion')"),
        ("# directed\na.onion\ta.onion\t1\n", "self-loop on 'a.onion' is not allowed"),
        ("# directed\na.onion\tb.onion\t0\n", "edge ('a.onion', 'b.onion') has non-positive weight 0"),
        # "\udcXX" stands for the byte 0xXX, which does not decode
        pytest.param("\udcff# directed\n", "line 1: byte ff is not UTF-8 (invalid start byte)",
                     id="first-byte"),
        pytest.param("# directed\n" + "".join(f"a{i}.onion\tb.onion\t1\n" for i in range(600))
                     + "c\udce9.onion\td.onion\t1\n",
                     "line 602: byte e9 is not UTF-8 (invalid continuation byte)",
                     id="byte-past-8-KiB"),
    ],
)
def test_graph_file_reader_rejects(tmp_path, text, message):
    path = tmp_path / "g.tsv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(DataError) as info:
        read_graph_file(path)
    assert str(info.value) == f"{path}: {message}"


def test_graph_file_round_trips_awkward_ids(tmp_path):
    g = dg([("a b.onion", "#b.onion", 2), (" c.onion ", "a b.onion", 1)], isolated=["#x", "y z"])
    write_graph_file(g, tmp_path / "g.tsv")
    assert read_graph_file(tmp_path / "g.tsv") == g


@pytest.mark.parametrize(
    "edges, isolated, bad",
    [
        ([("#a.onion", "b.onion", 1)], [], "#a.onion"),
        ([("a.onion", "b.onion", 1)], ["c.onion "], "c.onion "),
        ([("a.onion", "b.onion", 1)], ["z.onion ", " y.onion"], " y.onion"),
        ([("a.onion", "b.onion", 1)], [""], ""),
        ([("a\tx.onion", "b.onion", 1)], [], "a\tx.onion"),
        ([("a.onion", "b\nx.onion", 1)], [], "b\nx.onion"),
        ([("a.onion", "b.onion", 1)], ["c\rx.onion"], "c\rx.onion"),
    ],
)
def test_graph_file_rejects_ids_it_cannot_carry(tmp_path, edges, isolated, bad):
    path = tmp_path / "g.tsv"
    path.write_text("previous\n")
    with pytest.raises(DataError, match=re.escape(repr(bad))):
        write_graph_file(dg(edges, isolated), path)
    assert path.read_text() == "previous\n"
    with pytest.raises(DataError):
        write_graph_file(dg(edges, isolated), tmp_path / "new.tsv")
    assert not (tmp_path / "new.tsv").exists()


@pytest.mark.parametrize(
    "directed, edges, match",
    [
        (True, [("a.onion", "b.onion", 1), ("c.onion", "c.onion", 1)], "self-loop on 'c.onion'"),
        (False, [("c.onion", "c.onion", 2)], "self-loop on 'c.onion'"),
        (True, [("a.onion", "b.onion", 0)], r"\('a.onion', 'b.onion'\) has non-positive weight 0"),
        (False, [("b.onion", "a.onion", -2)], r"\('b.onion', 'a.onion'\) has non-positive weight -2"),
        (True, [("a.onion", "b.onion", 1), ("a.onion", "b.onion", 2)], "duplicate edge"),
        (
            False,
            [("a.onion", "b.onion", 1), ("b.onion", "a.onion", 2)],
            r"duplicate edge \('b.onion', 'a.onion'\)",
        ),
    ],
)
def test_bad_edges_rejected_by_from_edges_and_reader(tmp_path, directed, edges, match):
    with pytest.raises(DataError, match=match):
        ServiceGraph.from_edges(directed, edges)
    path = tmp_path / "bad.tsv"
    rows = "".join(f"{u}\t{v}\t{w}\n" for u, v, w in edges)
    path.write_text(("# directed\n" if directed else "# undirected\n") + rows)
    with pytest.raises(DataError, match=match):
        read_graph_file(path)


# -- array transforms against the dict oracles ---------------------------


def assert_matches(g, expected):
    vertices, edges = expected
    assert g.vertices == vertices
    assert g.edge_weight_map() == edges
    keys = list(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
    assert keys == sorted(keys)
    assert g.directed or all(s < d for s, d in keys)


def random_graph(rng, directed):
    """Graph on a random subset of a shared id pool (so inputs differ in
    their vertex sets), isolated vertices included; a third of the draws are
    edgeless, and dense directed draws hold reciprocal edges. Undirected
    edges are given in random orientation."""
    ids = [vid(i) for i in range(14) if rng.random() < 0.7]
    p = float(rng.choice([0.0, 0.15, 0.4]))
    edges = []
    for a, u in enumerate(ids):
        for v in ids[a + 1 :]:
            for s, t in ((u, v), (v, u)) if directed else [(u, v)[:: rng.choice([1, -1])]]:
                if rng.random() < p:
                    edges.append((s, t, int(rng.integers(1, 6))))
    return ServiceGraph.from_edges(directed, edges, isolated_vertices=ids)


@pytest.mark.parametrize("directed", [True, False])
def test_successors_csr_is_the_sorted_edge_list(directed):
    g = random_graph(np.random.default_rng(4), directed)
    src, dst, wgt = g.edge_src, g.edge_dst, g.edge_weight
    if not directed:
        src, dst, wgt = np.r_[src, dst], np.r_[dst, src], np.r_[wgt, wgt]
    order = np.lexsort((dst, src))
    indptr, indices, weights = g.successors_csr()
    assert g.M > 0
    assert indptr.dtype == np.int64 and indices.dtype == np.int64
    assert indptr.tolist() == np.searchsorted(src[order], np.arange(g.N + 1)).tolist()
    assert indices.tolist() == dst[order].tolist()
    assert weights.tolist() == wgt[order].tolist()
    assert all(np.all(np.diff(indices[a:b]) > 0) for a, b in zip(indptr[:-1], indptr[1:]))


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("seed", range(10))
def test_transforms_match_dict_oracles(seed, directed):
    rng = np.random.default_rng(seed)
    gs = [random_graph(rng, directed) for _ in range(3)]
    for k in (1, 2, 3):
        assert_matches(union(gs[:k]), union_oracle(gs[:k]))
    for k in (2, 3):
        assert_matches(intersect(gs[:k]), intersect_oracle(gs[:k]))
    for g in gs:
        if directed:
            assert_matches(to_usg(g), usg_oracle(g))
        if g.N:
            assert_matches(giant_wcc(g), giant_wcc_oracle(g))
        keep = [v for v in g.vertices if rng.random() < 0.5]
        assert_matches(g.subgraph(keep), induced_oracle(g, keep))


def test_transforms_on_edgeless_and_isolated_inputs():
    empty = dg([], isolated=["a.onion", "b.onion", "z.onion"])
    g = dg([("a.onion", "b.onion", 2), ("b.onion", "a.onion", 3)], isolated=["z.onion"])
    u = ug([("b.onion", "a.onion", 4)], isolated=["c.onion", "z.onion"])
    assert_matches(union([empty]), union_oracle([empty]))
    assert_matches(union([empty, g]), union_oracle([empty, g]))
    assert_matches(intersect([empty, g]), intersect_oracle([empty, g]))
    assert_matches(intersect([g, g]), intersect_oracle([g, g]))
    assert_matches(to_usg(empty), usg_oracle(empty))
    assert_matches(to_usg(g), usg_oracle(g))
    for graph in (empty, g, u):
        assert_matches(giant_wcc(graph), giant_wcc_oracle(graph))
        for keep in ([], ["z.onion"], ["a.onion", "z.onion"]):
            assert_matches(graph.subgraph(keep), induced_oracle(graph, keep))


@pytest.mark.parametrize("seed", range(6))
def test_build_dsg_matches_link_count_oracle(seed):
    rng = np.random.default_rng(seed)
    services = [vid(i) for i in range(10)]
    # uncrawled onion targets, surface-web targets and a bare ".onion"
    targets = services + [vid(i) for i in range(10, 14)] + ["example.com", ".onion", "x.org"]
    pages = [
        page(
            services[int(rng.integers(0, len(services)))],
            [targets[int(j)] for j in rng.integers(0, len(targets), size=int(rng.integers(0, 12)))],
            path=f"/{k}",
        )
        for k in range(25)
    ]
    assert_matches(build_dsg(pages), dsg_oracle(pages))
