"""Community structure: seeded weighted Louvain, modularity, AMI.

Directed graphs are symmetrized before clustering (w'_uv = w_uv + w_vu):
modularity is computed on symmetric weights throughout. Louvain's output
depends on visit order, so the local-moving phase shuffles vertices with
an explicit seed; the same seed always reproduces the same partition.

Internally each level's symmetric adjacency is one CSR (indptr, indices,
data) built by `_csr`: level 0 from every edge in both directions, each
later level from the previous CSR with both endpoints mapped to their
community. It follows the doubled-diagonal convention: a supernode's
self-entry holds twice its internal weight, so vertex strength is a plain
row sum and 2m is the grand total at every aggregation level.

Each row lists its columns in the order of their first entry (for level 0,
edge order), not in ascending order. The local moves visit a vertex's
neighbour communities in that order and keep the first of equally good
moves, so this order is part of what a seed reproduces: sorting the
columns changes the partitions of some graphs.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DataError, ParseError
from .graphs import ServiceGraph

_GAIN_EPS = 1e-12
DEFAULT_LOUVAIN_SEED = 0


@dataclass(frozen=True)
class Partition:
    """Vertex -> dense integer cluster labels (0..k-1)."""

    assignment: dict[str, int]

    @classmethod
    def from_labels(cls, labels: dict) -> "Partition":
        """Relabel arbitrary cluster labels densely, by first appearance in
        sorted-vertex order (deterministic)."""
        dense: dict = {}
        assignment = {}
        for v in sorted(labels):
            raw = labels[v]
            if raw not in dense:
                dense[raw] = len(dense)
            assignment[v] = dense[raw]
        return cls(assignment)

    @property
    def n_vertices(self) -> int:
        return len(self.assignment)

    @property
    def n_clusters(self) -> int:
        return len(set(self.assignment.values())) if self.assignment else 0

    def cluster_sizes(self) -> list[int]:
        counts: dict[int, int] = {}
        for c in self.assignment.values():
            counts[c] = counts.get(c, 0) + 1
        return sorted(counts.values(), reverse=True)

    def restricted_to(self, vertices) -> "Partition":
        keep = {v: self.assignment[v] for v in vertices if v in self.assignment}
        return Partition.from_labels(keep)


def cluster_size_distribution(p: Partition) -> list[int]:
    """Cluster sizes in non-increasing order; sums to the vertex count."""
    return p.cluster_sizes()


def write_partition_csv(p: Partition, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["vertex", "cluster"])
    for v in sorted(p.assignment):
        writer.writerow([v, p.assignment[v]])


def read_partition_csv(fh) -> Partition:
    """Inverse of write_partition_csv; errors name the line and `fh.name`."""
    source = getattr(fh, "name", None)
    reader = csv.reader(fh)
    if next(reader, None) != ["vertex", "cluster"]:
        raise ParseError("partition CSV must start with 'vertex,cluster'", 1, source)
    labels = {}
    for row in reader:
        if not row:
            continue
        try:
            vertex, cluster = row
            if vertex in labels:
                raise ParseError(f"vertex {vertex!r} listed twice", reader.line_num, source)
            labels[vertex] = int(cluster)
        except ValueError:
            raise ParseError(f"bad partition row {row!r}", reader.line_num, source) from None
    return Partition.from_labels(labels)


# -- modularity ----------------------------------------------------------------


def modularity(g: ServiceGraph, p: Partition) -> float:
    """Weighted Newman modularity of the partition on the symmetrized graph."""
    missing = [v for v in g.vertices if v not in p.assignment]
    if missing:
        raise DataError(f"partition misses {len(missing)} vertices (e.g. {missing[0]!r})")
    if g.M == 0:
        raise DataError("modularity of an edgeless graph")
    labels = np.array([p.assignment[v] for v in g.vertices], dtype=np.int64)
    # symmetrized weights: every stored edge counts in both directions, so a
    # mutual directed pair folds to w_uv + w_vu automatically
    w = g.edge_weight.astype(np.float64)
    two_m = 2.0 * w.sum()
    strength = np.bincount(g.edge_src, w, g.N) + np.bincount(g.edge_dst, w, g.N)
    intra = 2.0 * w[labels[g.edge_src] == labels[g.edge_dst]].sum()
    cluster_strength = np.bincount(labels, strength)
    return intra / two_m - float((cluster_strength / two_m) @ (cluster_strength / two_m))


# -- Louvain ---------------------------------------------------------------------


def _csr(keys, weights, n):
    """Sum the entries (key row * n + col, weight) into CSR arrays
    (indptr, indices, data) over n vertices, plus the row sums (vertex
    strengths). Each row keeps its columns in the order of their first
    entry, which is the order the local moves visit them in. Weights are
    link counts at every level, so data stays integer and every sum is
    exact."""
    keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    data = np.bincount(inverse, weights=weights).astype(np.int64)
    seq = np.lexsort((first, keys // n))
    keys, data = keys[seq], data[seq]
    rows = keys // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, keys % n, data, np.bincount(rows, data, n)


def _one_level(indptr, indices, data, strength, two_m, rng) -> tuple[list[int], bool]:
    """Local-moving phase to a local optimum over one level's CSR lists;
    returns (community, improved).

    Move gain is compared up to a positive factor: moving u from cu to c
    improves Q iff (w_uc - w_ucu)/two_m - k_u (S_c - S_cu)/two_m^2 > 0,
    with u's strength removed from both community totals.
    """
    n = len(indptr) - 1
    community = list(range(n))
    comm_strength = list(strength)
    order = list(range(n))
    improved = False
    moved = True
    while moved:
        moved = False
        rng.shuffle(order)
        for u in order:
            cu = community[u]
            ku = strength[u]
            links: dict[int, float] = {}
            lo, hi = indptr[u], indptr[u + 1]
            for v, w in zip(indices[lo:hi], data[lo:hi]):
                if v != u:
                    cv = community[v]
                    links[cv] = links.get(cv, 0.0) + w
            comm_strength[cu] -= ku
            base = links.get(cu, 0.0)
            best_c, best_gain = cu, 0.0
            for c, w_uc in links.items():
                if c == cu:
                    continue
                gain = (w_uc - base) / two_m \
                    - ku * (comm_strength[c] - comm_strength[cu]) / (two_m * two_m)
                if gain > best_gain + _GAIN_EPS:
                    best_c, best_gain = c, gain
            community[u] = best_c
            comm_strength[best_c] += ku
            if best_c != cu:
                moved = True
                improved = True
    return community, improved


def louvain(g: ServiceGraph, seed: int = DEFAULT_LOUVAIN_SEED) -> Partition:
    """Iterated local moving + aggregation until no level improves modularity."""
    if g.N == 0:
        raise DataError("louvain of an empty graph")
    if g.M == 0:
        return Partition.from_labels({v: i for i, v in enumerate(g.vertices)})
    rng = random.Random(seed)
    n = g.N
    # per edge, (src, dst) then (dst, src)
    keys = np.column_stack([g.edge_src * n + g.edge_dst, g.edge_dst * n + g.edge_src]).ravel()
    indptr, indices, data, strength = _csr(keys, np.repeat(g.edge_weight, 2), n)
    two_m = float(strength.sum())
    node_to_current = np.arange(n)
    while True:
        community, improved = _one_level(
            indptr.tolist(), indices.tolist(), data.tolist(), strength.tolist(), two_m, rng
        )
        if not improved:
            break
        # supernodes numbered by first appearance in vertex order
        _, first, inverse = np.unique(community, return_index=True, return_inverse=True)
        node_map = np.argsort(np.argsort(first))[inverse]
        rows = node_map[np.repeat(np.arange(n), np.diff(indptr))]
        n = len(first)
        indptr, indices, data, strength = _csr(rows * n + node_map[indices], data, n)
        node_to_current = node_map[node_to_current]
    return Partition.from_labels(dict(zip(g.vertices, node_to_current.tolist())))


# -- adjusted mutual information ----------------------------------------------


def _contingency(p1: Partition, p2: Partition):
    vertices = sorted(p1.assignment)
    a = np.array([p1.assignment[v] for v in vertices], dtype=np.int64)
    b = np.array([p2.assignment[v] for v in vertices], dtype=np.int64)
    r, c = int(a.max()) + 1, int(b.max()) + 1
    table = np.zeros((r, c), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    return table


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def _mutual_information(table: np.ndarray, n: int) -> float:
    nz = table > 0
    pij = table[nz] / n
    pi = table.sum(axis=1) / n
    pj = table.sum(axis=0) / n
    outer = np.outer(pi, pj)[nz]
    return float((pij * np.log(pij / outer)).sum())


def _expected_mi(table: np.ndarray, n: int) -> float:
    """Exact expected MI under the permutation (hypergeometric) model.

    A cell's expected share depends only on its row sum a and column sum b,
    so each distinct (a, b) pair is evaluated once, weighted by the number
    of cells that share it, with every k term of every pair in one
    flattened expression.
    """
    a, a_cells = np.unique(table.sum(axis=1), return_counts=True)
    b, b_cells = np.unique(table.sum(axis=0), return_counts=True)
    cells = np.outer(a_cells, b_cells).ravel()
    a, b = np.repeat(a, b.size), np.tile(b, a.size)
    log_fact = gammaln(np.arange(1.0, n + 2))  # log_fact[x] = log(x!)
    log_pair = log_fact[a] + log_fact[b] + log_fact[n - a] + log_fact[n - b] - log_fact[n]
    lo = np.maximum(1, a + b - n)
    terms = np.minimum(a, b) - lo + 1
    pair = np.repeat(np.arange(a.size), terms)
    k = lo[pair] + np.arange(pair.size) - np.repeat(np.cumsum(terms) - terms, terms)
    a, b = a[pair], b[pair]
    log_p = (log_pair[pair] - log_fact[k] - log_fact[a - k] - log_fact[b - k]
             - log_fact[n - a - b + k])
    return float((cells[pair] * (k / n) * np.log(n * k / (a * b)) * np.exp(log_p)).sum())


def ami(p1: Partition, p2: Partition) -> float:
    """Adjusted mutual information with arithmetic-mean normalization:
    (MI - E[MI]) / (mean(H1, H2) - E[MI]) under the permutation model.

    1 for identical partitions (up to relabeling), ~0 for independent ones.
    Requires identical vertex domains.
    """
    if set(p1.assignment) != set(p2.assignment):
        raise DataError("partitions cover different vertex sets")
    n = p1.n_vertices
    if n == 0:
        raise DataError("empty partitions")
    table = _contingency(p1, p2)
    if table.shape == (1, 1):
        return 1.0  # both trivial: identical by definition
    mi = _mutual_information(table, n)
    emi = _expected_mi(table, n)
    h1 = _entropy(table.sum(axis=1), n)
    h2 = _entropy(table.sum(axis=0), n)
    denom = 0.5 * (h1 + h2) - emi
    if abs(denom) < 1e-15:
        return 1.0 if abs(mi - emi) < 1e-15 else 0.0
    return (mi - emi) / denom


def ami_on_common(p1: Partition, p2: Partition) -> tuple[float, int]:
    """AMI restricted to the shared vertex set; returns (score, n_common).

    Score is NaN when fewer than 2 vertices are shared.
    """
    common = set(p1.assignment) & set(p2.assignment)
    if len(common) < 2:
        return math.nan, len(common)
    return ami(p1.restricted_to(common), p2.restricted_to(common)), len(common)
