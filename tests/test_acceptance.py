"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from oniongraph.bowtie import CLASSES, bowtie_decompose
from oniongraph.cli import RunConfig, run_pipeline
from oniongraph.community import (
    Partition, ami, ami_on_common, louvain, modularity, read_partition_csv,
)
from oniongraph.fitting import (
    compare_fits,
    fit_lognormal,
    fit_power_law,
    sample_lognormal,
    sample_power_law,
)
from oniongraph.graphs import ServiceGraph, intersect, to_usg, union
from oniongraph.metrics import (
    centralization,
    pagerank,
    vertex_metrics,
)
from oniongraph.stats import info_gain
from oniongraph.synth import CorpusSpec, generate_corpus

from oracles import (
    betweenness_oracle,
    bowtie_oracle,
    closeness_oracle,
    eccentricity_oracle,
    floyd_warshall,
    local_efficiency_oracle,
    local_transitivity_oracle,
    random_digraph,
    random_undirected,
    vid,
)


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}", flush=True)


def test_criterion_1_bowtie_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(10_001)
    for trial in range(200):
        n = int(rng.integers(20, 201))
        p = float(rng.uniform(0.005, 0.05))
        g = random_digraph(rng, n, p)
        result = bowtie_decompose(g)
        assert result.assignment == bowtie_oracle(g), f"trial {trial} mismatch"
        counts = {c: 0 for c in CLASSES}
        for c in result.assignment.values():
            counts[c] += 1
        assert sum(counts.values()) == g.N
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"bow-tie suite took {elapsed:.1f}s"
    report(1, f"200 random digraphs match the transitive-closure oracle exactly "
              f"({elapsed:.1f}s)")


def test_criterion_2_centrality_oracle_equivalence():
    rng = np.random.default_rng(20_002)
    for trial in range(100):
        n = int(rng.integers(10, 101))
        directed = trial % 2 == 0
        p = float(rng.uniform(0.02, 0.12))
        g = random_digraph(rng, n, p) if directed else random_undirected(rng, n, p)
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
    report(2, "betweenness/closeness/eccentricity/efficiency/transitivity match "
              "brute force on 100 random graphs at 1e-9")


def test_criterion_3_analytic_fixed_points():
    three_cycle = ServiceGraph.from_edges(
        True, [(vid(0), vid(1), 1), (vid(1), vid(2), 1), (vid(2), vid(0), 1)]
    )
    assert vertex_metrics(three_cycle).global_metrics.global_efficiency == 0.75

    out_star = ServiceGraph.from_edges(
        True, [("hub.onion", f"leaf{i}.onion", 1) for i in range(6)]
    )
    assert centralization(out_star) == 1.0

    star = ServiceGraph.from_edges(
        False, [("hub.onion", f"leaf{i}.onion", 1) for i in range(6)]
    )
    assert centralization(star) == 1.0

    cycle = ServiceGraph.from_edges(
        False, [(vid(i), vid((i + 1) % 8), 1) for i in range(8)]
    )
    assert centralization(cycle) == 0.0

    triangle = ServiceGraph.from_edges(
        False, [(vid(0), vid(1), 1), (vid(1), vid(2), 1), (vid(0), vid(2), 1)]
    )
    assert vertex_metrics(triangle).global_metrics.clustering == 1.0

    n = 9
    directed_cycle = ServiceGraph.from_edges(
        True, [(vid(i), vid((i + 1) % n), 1) for i in range(n)]
    )
    assert np.abs(pagerank(directed_cycle) - 1.0 / n).max() < 1e-9

    path = ServiceGraph.from_edges(
        False, [("a.onion", "b.onion", 1), ("b.onion", "c.onion", 1)]
    )
    vm = vertex_metrics(path)
    assert vm.betweenness[vm.vertices.index("b.onion")] == 2.0
    report(3, "three-cycle efficiency, star centralizations, cycle, triangle, "
              "uniform pagerank, and path betweenness are exact")


def test_criterion_4_power_law_recovery():
    start = time.monotonic()
    in_range = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        sample = sample_power_law(2.5, 1, 10_000, rng)
        fit = fit_power_law(sample)
        if 2.4 <= fit.alpha <= 2.6:
            in_range += 1
    assert in_range >= 19, f"only {in_range}/20 seeds recovered alpha"

    decisive = 0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        sample = sample_lognormal(1.0, 0.5, 1, 10_000, rng)
        pl = fit_power_law(sample, xmin=1)
        ln = fit_lognormal(sample, 1)
        cmp_ = compare_fits(sample, 1, pl, ln)
        if cmp_.loglik_ratio < 0 and cmp_.p_value < 0.1:
            decisive += 1
    assert decisive >= 18, f"only {decisive}/20 seeds preferred the log-normal"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"fitting suite took {elapsed:.1f}s"
    report(4, f"alpha recovered in {in_range}/20 seeds, log-normal preferred in "
              f"{decisive}/20 ({elapsed:.1f}s)")


def _two_cliques(k=5):
    edges = []
    for offset in (0, k):
        for i in range(k):
            for j in range(i + 1, k):
                edges.append((vid(offset + i), vid(offset + j), 1))
    edges.append((vid(0), vid(k), 1))
    planted = {vid(i): (0 if i < k else 1) for i in range(2 * k)}
    return ServiceGraph.from_edges(False, edges), Partition.from_labels(planted)


def _weight_planted(blocks=4, size=8, intra=9, bridge=1):
    rng = np.random.default_rng(0)
    edges = {}
    planted = {}
    for b in range(blocks):
        members = [vid(b * size + i) for i in range(size)]
        for v in members:
            planted[v] = b
        for i in range(size):
            for j in range(i + 1, size):
                if i == j - 1 or rng.random() < 0.4:
                    edges[(members[i], members[j])] = intra
        nxt = vid(((b + 1) % blocks) * size)
        edges[tuple(sorted((members[0], nxt)))] = bridge
    g = ServiceGraph.from_edges(False, [(u, v, w) for (u, v), w in edges.items()])
    return g, Partition.from_labels(planted)


def test_criterion_5_community_suite():
    g1, p1 = _two_cliques()
    g2, p2 = _weight_planted()
    for seed in range(20):
        part1 = louvain(g1, seed=seed)
        assert ami(part1, p1) > 1 - 1e-9, f"cliques not recovered at seed {seed}"
        part2 = louvain(g2, seed=seed)
        assert ami(part2, p2) > 1 - 1e-9, f"planted blocks not recovered at seed {seed}"

    rng = np.random.default_rng(5)
    p = Partition.from_labels({vid(i): int(rng.integers(0, 6)) for i in range(300)})
    assert abs(ami(p, p) - 1.0) < 1e-9

    total = 0.0
    for _ in range(100):
        a = Partition.from_labels({vid(i): int(rng.integers(0, 10)) for i in range(1000)})
        b = Partition.from_labels({vid(i): int(rng.integers(0, 10)) for i in range(1000)})
        total += abs(ami(a, b))
    assert total / 100 <= 0.05

    for seed in range(5):
        g = random_undirected(np.random.default_rng(100 + seed), 40, 0.1)
        if g.M == 0:
            continue
        singletons = Partition.from_labels({v: i for i, v in enumerate(g.vertices)})
        assert modularity(g, louvain(g, seed=seed)) >= modularity(g, singletons) - 1e-12
    report(5, "planted partitions recovered for all 20 seeds, AMI(p,p)=1, null AMI "
              "near 0, louvain never below singletons")


def test_criterion_6_information_gain_suite():
    res = info_gain(np.full(40, 2.5), np.arange(40) < 10)
    assert res.gain_bits == 0.0

    res = info_gain(np.array([1.0, 1.0, 0.0, 0.0]), np.array([True, True, False, False]))
    assert abs(res.gain_bits - 1.0) < 1e-12
    res = info_gain(np.array([0.0, 0.0, 3.0, 3.0]), np.array([True, True, False, False]))
    assert abs(res.gain_bits - 1.0) < 1e-12
    # general indicator: metric concentrated on a class of prevalence 1/4
    res = info_gain(np.array([1.0, 0, 0, 0]), np.array([True, False, False, False]))
    assert abs(res.gain_bits - math.log2(4)) < 1e-12

    rng = np.random.default_rng(6)
    values = rng.random(1000)
    total = 0.0
    for _ in range(100):
        members = rng.random(1000) < 0.5
        total += info_gain(values, members).gain_bits
    assert total / 100 <= 0.01

    members = rng.random(200) < 0.3
    vals = rng.random(200)
    a = info_gain(vals, members).gain_bits
    b = info_gain(vals * 1234.5, members).gain_bits
    assert abs(a - b) < 1e-12
    report(6, "constant metric gain 0, indicator cases match closed form, null "
              "mean below 0.01 bits, rescaling invariant")


def test_criterion_7_graph_algebra_properties():
    rng = np.random.default_rng(70_007)
    for trial in range(100):
        n = int(rng.integers(5, 30))
        gs = [random_digraph(rng, n, float(rng.uniform(0.05, 0.25))) for _ in range(3)]
        maps = [g.edge_weight_map() for g in gs]
        gi, gu = intersect(gs), union(gs)
        mi, mu = gi.edge_weight_map(), gu.edge_weight_map()
        common = set(maps[0]) & set(maps[1]) & set(maps[2])
        assert set(mi) == common
        assert set(mu) == set().union(*maps)
        assert set(mi) <= set(mu)
        for key, w in mi.items():
            assert w == min(m[key] for m in maps)
        for key, w in mu.items():
            assert w == max(m[key] for m in maps if key in m)
        u = to_usg(gs[0])
        expected = {
            (a, b): min(maps[0][(a, b)], maps[0][(b, a)])
            for (a, b) in maps[0]
            if a < b and (b, a) in maps[0]
        }
        assert u.edge_weight_map() == expected
    report(7, "usg reduction, intersection, and union match edge-set oracles on "
              "100 random triples with min/max weight rules")


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_pipeline")
    corpus = generate_corpus(CorpusSpec())
    paths = corpus.write(root / "corpus")
    start = time.monotonic()
    manifests = []
    for run in ("run1", "run2"):
        config = RunConfig(
            snapshots={s: paths[s] for s in corpus.spec.snapshots},
            labels=paths["labels"],
            out_dir=str(root / run),
        )
        manifests.append(run_pipeline(config))
    elapsed = time.monotonic() - start
    return corpus, root, manifests, elapsed


def test_criterion_8_end_to_end_determinism_and_structure(pipeline_runs):
    corpus, root, manifests, elapsed = pipeline_runs
    # both runs together stay under the two-minute budget for one run
    assert elapsed < 120.0, f"two pipeline runs took {elapsed:.1f}s"
    assert manifests[0]["artifacts"] == manifests[1]["artifacts"]

    hub_curve = json.loads((root / "run1" / "metrics" / "dsg_union.hubreach.json").read_text())
    assert hub_curve["curve"][0] >= 0.60

    persistence = json.loads((root / "run1" / "ingest" / "persistence.json").read_text())
    full_pattern = "+".join(sorted(corpus.spec.snapshots))
    assert persistence["membership_counts"][full_pattern] == corpus.planted["n_core"]

    with open(root / "run1" / "communities" / "usg_union.partition.csv") as fh:
        part = read_partition_csv(fh)
    planted = Partition.from_labels(corpus.planted["communities"])
    score = ami_on_common(part, planted)[0]
    assert score >= 0.9, f"AMI vs planted communities was {score:.3f}"
    report(8, f"pipeline deterministic ({elapsed:.0f}s for two runs), hub curve "
              f"first entry {hub_curve['curve'][0]:.2f}, retention exact, "
              f"planted-community AMI {score:.2f}")


def test_criterion_9_qualitative_shape(pipeline_runs):
    corpus, root, manifests, _ = pipeline_runs
    fit_out = json.loads((root / "run1" / "fits" / "dsg_union.out.json").read_text())
    fit_in = json.loads((root / "run1" / "fits" / "dsg_union.in.json").read_text())
    assert "error" not in fit_out and "error" not in fit_in
    assert fit_out["alpha"] < fit_in["alpha"], (
        f"out alpha {fit_out['alpha']:.2f} not below in alpha {fit_in['alpha']:.2f}"
    )

    bowtie = json.loads((root / "run1" / "bowtie" / "dsg_union.json").read_text())
    out_fraction = bowtie["fractions"]["OUT"]
    lscc_fraction = bowtie["fractions"]["LSCC"]
    assert out_fraction > 0.80, f"OUT fraction {out_fraction:.3f}"
    assert lscc_fraction <= 0.15, f"LSCC fraction {lscc_fraction:.3f} not small"
    report(9, f"out-degree alpha {fit_out['alpha']:.2f} < in-degree alpha "
              f"{fit_in['alpha']:.2f}; OUT {out_fraction:.0%} with LSCC "
              f"{lscc_fraction:.0%}")
