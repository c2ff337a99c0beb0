"""Building service graphs and comparing their global structure.

From each snapshot we build the directed service graph (an edge per linked
service pair, weighted by hyperlink multiplicity) and reduce it to the
undirected mutual-link graph. Intersection and union graphs separate the
stable core from everything seen at least once. Global metrics are
computed on the giant weakly connected component, distances unweighted,
as reductions of the same all-sources pass that gives the per-vertex metrics.
"""

from oniongraph import (
    CorpusSpec,
    build_dsg,
    generate_corpus,
    giant_wcc,
    hub_reach_curve,
    intersect,
    to_usg,
    union,
    vertex_metrics,
)

corpus = generate_corpus(CorpusSpec(n_services=300, community_size=25, n_linkers=100, seed=5))
snaps = corpus.spec.snapshots

dsgs = {s: build_dsg(corpus.pages[s], s) for s in snaps}
usgs = {s: to_usg(dsgs[s]) for s in snaps}

graphs = {f"dsg_{s}": dsgs[s] for s in snaps}
graphs["dsg_intersection"] = intersect(list(dsgs.values()))
graphs["dsg_union"] = union(list(dsgs.values()))
graphs["usg_union"] = union(list(usgs.values()))

header = f"{'graph':18s} {'N':>5s} {'M':>6s} {'<deg>':>6s} {'rho':>7s} {'d':>3s} {'<dist>':>7s} {'E_glo':>6s}"
print(header)
for name, g in graphs.items():
    gm = vertex_metrics(giant_wcc(g)).global_metrics
    rho = "n/a" if gm.assortativity != gm.assortativity else f"{gm.assortativity:+.3f}"
    print(f"{name:18s} {gm.n:5d} {gm.m:6d} {gm.avg_degree:6.2f} {rho:>7s} "
          f"{gm.diameter:3d} {gm.avg_distance:7.3f} {gm.global_efficiency:6.3f}")

# how much of the graph the biggest out-hubs reach in one click
curve = hub_reach_curve(giant_wcc(graphs["dsg_union"]), k=10)
print("\ncumulative hub reach (top 10 out-hubs):")
print("  " + " ".join(f"{v:.2f}" for v in curve))
