"""Community structure and the bow-tie map of a directed service graph.

Louvain runs on edge weights (a repeated hyperlink is harder to break), so
the mutual-link blocks planted in the corpus come back as communities, and
partition agreement across graphs is scored with adjusted mutual
information. The bow-tie decomposition then shows the hub-dominated
shape: a small strongly connected core with almost everything in OUT.
"""

from oniongraph import (
    CorpusSpec,
    Partition,
    ami_on_common,
    bowtie_decompose,
    build_dsg,
    generate_corpus,
    louvain,
    modularity,
    to_usg,
    union,
)

corpus = generate_corpus(CorpusSpec())
snaps = corpus.spec.snapshots
dsgs = {s: build_dsg(corpus.pages[s], s) for s in snaps}
usgu = union([to_usg(dsgs[s]) for s in snaps])
dsgu = union(list(dsgs.values()))

part = louvain(usgu, seed=0)
print(f"louvain on the mutual-link union: {part.n_clusters} clusters, "
      f"sizes {part.cluster_sizes()}")
print(f"modularity: {modularity(usgu, part):.3f}")

planted = Partition.from_labels(corpus.planted["communities"])
print(f"AMI vs planted blocks: {ami_on_common(part, planted)[0]:.3f}")

# stability across snapshots: cluster each snapshot graph and compare
parts = {s: louvain(to_usg(dsgs[s]), seed=0) for s in snaps}
for a in snaps:
    for b in snaps:
        if a < b:
            score, n = ami_on_common(parts[a], parts[b])
            print(f"AMI {a} vs {b} on {n} shared vertices: {score:.3f}")

print("\nbow-tie decomposition of the directed union:")
result = bowtie_decompose(dsgu)
for cls in ("LSCC", "IN", "OUT", "TUBES", "TENDRILS", "DISCONNECTED"):
    print(f"  {cls:13s} {result.counts[cls]:5d}  ({result.fractions[cls]:.1%})")
