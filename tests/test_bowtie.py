from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oniongraph.bowtie import CLASSES, bowtie_decompose
from oniongraph.errors import DataError
from oniongraph.graphs import ServiceGraph

from oracles import bowtie_oracle, random_digraph, vid


def dg(edges, isolated=()):
    return ServiceGraph.from_edges(True, edges, isolated_vertices=isolated)


def test_seven_vertex_worked_example():
    # A<->B core; C feeds it; D drains it; E detours C->D; F dangles off C;
    # G floats free
    g = dg(
        [
            ("a.onion", "b.onion", 1),
            ("b.onion", "a.onion", 1),
            ("c.onion", "a.onion", 1),
            ("b.onion", "d.onion", 1),
            ("c.onion", "e.onion", 1),
            ("e.onion", "d.onion", 1),
            ("c.onion", "f.onion", 1),
        ],
        isolated=["g.onion"],
    )
    result = bowtie_decompose(g)
    assert result.assignment == {
        "a.onion": "LSCC",
        "b.onion": "LSCC",
        "c.onion": "IN",
        "d.onion": "OUT",
        "e.onion": "TUBES",
        "f.onion": "TENDRILS",
        "g.onion": "DISCONNECTED",
    }
    assert result.assignment == bowtie_oracle(g)
    assert not result.degenerate_lscc


def test_strongly_connected_graph_is_all_lscc():
    n = 6
    g = dg([(vid(i), vid((i + 1) % n), 1) for i in range(n)])
    result = bowtie_decompose(g)
    assert result.counts["LSCC"] == n
    assert all(result.counts[c] == 0 for c in CLASSES if c != "LSCC")


def test_out_star_singleton_tie_break():
    # no cycle: every SCC is a singleton; the smallest id wins the tie
    g = dg([("hub.onion", f"leaf{i}.onion", 1) for i in range(4)])
    result = bowtie_decompose(g)
    assert result.degenerate_lscc
    assert result.assignment == bowtie_oracle(g)
    # "hub.onion" sorts before "leafN.onion", so the hub is the LSCC and
    # every leaf is reachable from it
    assert result.assignment["hub.onion"] == "LSCC"
    assert all(result.assignment[f"leaf{i}.onion"] == "OUT" for i in range(4))


def test_star_with_early_leaf_id_puts_hub_in_IN():
    g = dg([("m-hub.onion", f"{c}.onion", 1) for c in "az"])
    result = bowtie_decompose(g)
    # singleton LSCC lands on "a.onion"; the hub reaches it, the other leaf
    # hangs off IN
    assert result.assignment == bowtie_oracle(g)
    assert result.assignment["a.onion"] == "LSCC"
    assert result.assignment["m-hub.onion"] == "IN"
    assert result.assignment["z.onion"] == "TENDRILS"


def test_classes_partition_vertices():
    rng = np.random.default_rng(0)
    g = random_digraph(rng, 60, 0.03)
    result = bowtie_decompose(g)
    assert sum(result.counts.values()) == g.N
    assert sum(result.fractions.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_matches_reachability_oracle_on_random_digraphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 80))
    g = random_digraph(rng, n, float(rng.uniform(0.005, 0.08)))
    result = bowtie_decompose(g)
    oracle = bowtie_oracle(g)
    assert result.assignment == oracle
    tally = Counter(oracle.values())
    assert list(result.counts.items()) == [(c, tally[c]) for c in CLASSES]
    assert all(type(k) is int for k in result.counts.values())
    assert list(result.fractions.items()) == [(c, tally[c] / g.N) for c in CLASSES]
    assert result.to_dict()["n"] == g.N


def test_lscc_contraction_consistency():
    # IN is exactly the set reaching the contracted LSCC, OUT exactly the
    # set it reaches
    rng = np.random.default_rng(99)
    g = random_digraph(rng, 40, 0.06)
    result = bowtie_decompose(g)
    oracle = bowtie_oracle(g)
    assert {v for v, c in result.assignment.items() if c == "IN"} == {
        v for v, c in oracle.items() if c == "IN"
    }
    assert {v for v, c in result.assignment.items() if c == "OUT"} == {
        v for v, c in oracle.items() if c == "OUT"
    }


def test_undirected_rejected():
    with pytest.raises(DataError):
        bowtie_decompose(ServiceGraph.from_edges(False, [("a.onion", "b.onion", 1)]))


def test_empty_rejected():
    with pytest.raises(DataError):
        bowtie_decompose(ServiceGraph.from_edges(True, []))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    raw=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
    n_free=st.integers(0, 3),
)
def test_partition_property_on_arbitrary_digraphs(raw, n_free):
    edges = {(vid(i), vid(j)) for i, j in raw if i != j}
    g = ServiceGraph.from_edges(
        True,
        [(u, v, 1) for u, v in edges],
        isolated_vertices=[vid(90 + i) for i in range(n_free)] + [vid(0)],
    )
    result = bowtie_decompose(g)
    assert sorted(result.assignment) == sorted(g.vertices)
    assert set(result.assignment.values()) <= set(CLASSES)
    assert result.assignment == bowtie_oracle(g)
