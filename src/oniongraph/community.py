"""Community structure: seeded weighted Louvain, modularity, AMI.

Directed graphs are symmetrized before clustering (w'_uv = w_uv + w_vu):
modularity is computed on symmetric weights throughout. Louvain's output
depends on visit order, so the local-moving phase shuffles vertices with
an explicit seed; the same seed always reproduces the same partition.

Internally each level's symmetric adjacency is one CSR (indptr, indices,
data) built by `_csr`: level 0 from every edge in both directions, each
later level from the previous CSR with both endpoints mapped to their
community. A level holds only the links between two different supernodes:
the local moves never read a community's internal weight. Vertex strengths
are computed once at level 0, and a supernode's strength is the sum of its
members' strengths, so 2m stays the level-0 total at every level.

Each row lists its columns in the order of their first entry (for level 0,
edge order), not in ascending order. The local moves keep the first of
equally good moves in that order, so this order is part of what a seed
reproduces: sorting the columns changes the partitions of some graphs.

The local moves keep each vertex's neighbour-community weights up to date
as vertices move, instead of rescanning its row on every visit (the
modularity gain of Blondel et al., J. Stat. Mech. 2008, P10008, with
Louvain's sequential visits kept). A clear best move does not depend on
the order the weights are held in; a near-tie (two gains within
_GAIN_EPS) replays the row scan. All weights are integers, so the gains
are the row scan's floats and the partitions are the same as a row scan's.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DataError, ParseError
from .graphs import ServiceGraph

_GAIN_EPS = 1e-12
_CHUNK = 1 << 14  # CSR entries converted to lists at a time
DEFAULT_LOUVAIN_SEED = 0


def _first_appearance(raw) -> np.ndarray:
    """int64 labels 0..k-1 of `raw`, numbered in order of first appearance."""
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse].astype(np.int64)


@dataclass(frozen=True, eq=False)
class Partition:
    """Sorted vertices and aligned int64 cluster labels, numbered 0..k-1 in
    order of first appearance (`labels[i]` is the cluster of `vertices[i]`)."""

    vertices: tuple[str, ...]
    labels: np.ndarray

    @classmethod
    def of(cls, vertices, raw) -> "Partition":
        """Relabel `raw`, aligned with the sorted `vertices`, by first appearance."""
        return cls(tuple(vertices), _first_appearance(raw))

    @classmethod
    def from_labels(cls, labels: dict) -> "Partition":
        """Partition of a vertex -> label dict, relabelled by `of`."""
        vertices = sorted(labels)
        return cls.of(vertices, [labels[v] for v in vertices])

    @property
    def assignment(self) -> dict[str, int]:
        return dict(zip(self.vertices, self.labels.tolist()))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def cluster_sizes(self) -> list[int]:
        """Cluster sizes in non-increasing order; sums to the vertex count."""
        return sorted(np.bincount(self.labels).tolist(), reverse=True)


def write_partition_csv(p: Partition, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["vertex", "cluster"])
    writer.writerows(zip(p.vertices, p.labels.tolist()))


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
    _, in_g, in_p = np.intersect1d(g.vertices, p.vertices, assume_unique=True,
                                   return_indices=True)
    if len(in_g) < g.N:
        missing = np.delete(g.vertices, in_g)
        raise DataError(f"partition misses {len(missing)} vertices (e.g. {str(missing[0])!r})")
    if g.M == 0:
        raise DataError("modularity of an edgeless graph")
    labels = p.labels[in_p]  # in_g is 0..N-1, since g.vertices is sorted
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
    """Sum the entries (key row * n + col, weight) that join two different
    vertices into CSR arrays (indptr, indices, data) over n vertices; an
    entry on the diagonal is dropped. Each row keeps its columns in the
    order of their first entry, which is the order the local moves visit
    them in. Weights are link counts at every level, so data stays integer
    and every sum is exact."""
    off = keys // n != keys % n
    keys, first, inverse = np.unique(keys[off], return_index=True, return_inverse=True)
    data = np.bincount(inverse, weights=weights[off]).astype(np.int64)
    seq = np.lexsort((first, keys // n))
    keys, data = keys[seq], data[seq]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n, data


def _near_tie_move(candidates, cu, around, ku, comm_strength, two_m):
    """The row scan's move for a vertex of strength `ku` in community `cu`
    whose two best gains are within _GAIN_EPS: the first of the equally good
    moves, over its neighbour communities `candidates` in row order. `around`
    holds their link weights; `comm_strength` has u's strength removed."""
    base = around.get(cu, 0)
    s_cu = comm_strength[cu]
    best_c, best_gain = cu, 0.0
    for c in candidates:
        if c != cu:
            gain = (around[c] - base) / two_m - ku * (comm_strength[c] - s_cu) / (two_m * two_m)
            if gain > best_gain + _GAIN_EPS:
                best_c, best_gain = c, gain
    return best_c


def _one_level(indptr, indices, data, strength, two_m, rng) -> tuple[list[int], bool]:
    """Local-moving phase to a local optimum over one level's CSR (arrays or
    lists) and vertex strengths (a list of floats); returns (community,
    improved).

    Move gain is compared up to a positive factor: moving u from cu to c
    improves Q iff (w_uc - w_ucu)/two_m - k_u (S_c - S_cu)/two_m^2 > 0,
    with u's strength removed from both community totals.

    `links[u]` maps each community next to u to its summed link weight.
    The first sweep, which moves most vertices while the maps would be
    largest, builds it on each visit and drops it. From the second sweep on,
    u's first visit keeps it, and each move of a neighbour updates it; a
    community whose weight drops to 0 leaves it. A visit takes the best gain
    when it beats every other by more than _GAIN_EPS; on a near-tie it
    replays the row scan (`_near_tie_move`). Weights and strengths are
    integers held exactly in floats, so every gain is the row scan's float
    and the partition is the row scan's partition.
    """
    # every column naming vertex v is the same `int` object, so `cols` costs
    # one pointer per entry; converting in chunks keeps the temporary ints few
    n = len(indptr) - 1
    ids = list(range(n))
    cols: list[int] = []
    for lo in range(0, len(indices), _CHUNK):
        cols += map(ids.__getitem__, np.asarray(indices[lo:lo + _CHUNK]).tolist())
    ptr, wts = np.asarray(indptr).tolist(), np.asarray(data).tolist()
    community = list(range(n))
    comm_strength = list(strength)
    links: list[dict | None] = [None] * n
    keep_links = False
    two_m2 = two_m * two_m
    order = list(range(n))
    improved = False
    moved = True
    while moved:
        moved = False
        rng.shuffle(order)
        for u in order:
            cu = community[u]
            ku = strength[u]
            lo, hi = ptr[u], ptr[u + 1]
            around = links[u]
            if around is None:
                around = {}
                for v, w in zip(cols[lo:hi], wts[lo:hi]):
                    cv = community[v]
                    around[cv] = around.get(cv, 0) + w
                if keep_links:
                    links[u] = around
            comm_strength[cu] -= ku
            s_cu = comm_strength[cu]
            base = around.get(cu, 0)
            best_c, top, second = cu, -math.inf, -math.inf
            for c, w_uc in around.items():
                if c != cu:
                    gain = (w_uc - base) / two_m - ku * (comm_strength[c] - s_cu) / two_m2
                    if gain > top:
                        best_c, top, second = c, gain, top
                    elif gain > second:
                        second = gain
            if not top > _GAIN_EPS:
                best_c = cu
            elif not top > second + _GAIN_EPS:
                best_c = _near_tie_move(
                    dict.fromkeys(map(community.__getitem__, cols[lo:hi])),
                    cu, around, ku, comm_strength, two_m,
                )
            community[u] = best_c
            comm_strength[best_c] += ku
            if best_c != cu:
                moved = improved = True
                for v, w in zip(cols[lo:hi], wts[lo:hi]):
                    near = links[v]
                    if near is not None:
                        left = near[cu] - w
                        if left:
                            near[cu] = left
                        else:
                            del near[cu]
                        near[best_c] = near.get(best_c, 0) + w
        keep_links = True
    return community, improved


def louvain(g: ServiceGraph, seed: int = DEFAULT_LOUVAIN_SEED) -> Partition:
    """Iterated local moving + aggregation until no level improves modularity."""
    if g.N == 0:
        raise DataError("louvain of an empty graph")
    rng = random.Random(seed)
    n = g.N
    w = g.edge_weight.astype(np.float64)
    strength = np.bincount(g.edge_src, w, n) + np.bincount(g.edge_dst, w, n)
    two_m = float(strength.sum())
    # per edge, (src, dst) then (dst, src)
    indptr, indices, data = _csr(
        np.column_stack([g.edge_src * n + g.edge_dst, g.edge_dst * n + g.edge_src]).ravel(),
        np.repeat(g.edge_weight, 2), n,
    )
    node_to_current = np.arange(n)
    while True:
        community, improved = _one_level(indptr, indices, data, strength.tolist(), two_m, rng)
        if not improved:
            break
        node_map = _first_appearance(community)  # supernodes, in vertex order
        rows = node_map[np.repeat(np.arange(n), np.diff(indptr))]
        n = int(node_map.max()) + 1
        indptr, indices, data = _csr(rows * n + node_map[indices], data, n)
        strength = np.bincount(node_map, strength, n)
        node_to_current = node_map[node_to_current]
    # every level numbers by first appearance, so these labels are already dense
    return Partition(g.vertices, node_to_current)


# -- adjusted mutual information ----------------------------------------------


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def _mutual_information(a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                        n: int) -> float:
    """MI of aligned dense label arrays with label counts `rows` and `cols`, over
    the nonzero cells of their table only, summed in row-major order."""
    keys, counts = np.unique(a * cols.size + b, return_counts=True)
    i, j = np.divmod(keys, cols.size)
    pij = counts / n
    outer = (rows / n)[i] * (cols / n)[j]
    return float((pij * np.log(pij / outer)).sum())


def _expected_mi(rows: np.ndarray, cols: np.ndarray, n: int) -> float:
    """Exact expected MI under the permutation (hypergeometric) model of a
    table whose row and column sums are `rows` and `cols`.

    A cell's expected share depends only on its row sum a and column sum b,
    so each distinct (a, b) pair is evaluated once, weighted by the number
    of cells that share it, with every k term of every pair in one
    flattened expression.
    """
    a, a_cells = np.unique(rows, return_counts=True)
    b, b_cells = np.unique(cols, return_counts=True)
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
    if p1.vertices != p2.vertices:
        raise DataError("partitions cover different vertex sets")
    n = p1.n_vertices
    if n == 0:
        raise DataError("empty partitions")
    rows, cols = np.bincount(p1.labels), np.bincount(p2.labels)
    if rows.size == cols.size == 1:
        return 1.0  # both trivial: identical by definition
    mi = _mutual_information(p1.labels, p2.labels, rows, cols, n)
    emi = _expected_mi(rows, cols, n)
    h1 = _entropy(rows, n)
    h2 = _entropy(cols, n)
    denom = 0.5 * (h1 + h2) - emi
    if abs(denom) < 1e-15:
        return 1.0 if abs(mi - emi) < 1e-15 else 0.0
    return (mi - emi) / denom


def ami_on_common(p1: Partition, p2: Partition) -> tuple[float, int]:
    """AMI restricted to the shared vertex set; returns (score, n_common).

    Score is NaN when fewer than 2 vertices are shared. Both restrictions are
    relabelled by first appearance: the table's order fixes the AMI's bits.
    """
    # both vertex tuples are sorted, so their shared members come in the same
    # order on each side: a membership mask per side restricts both
    in_1 = np.fromiter(map(frozenset(p2.vertices).__contains__, p1.vertices), bool,
                       p1.n_vertices)
    in_2 = np.fromiter(map(frozenset(p1.vertices).__contains__, p2.vertices), bool,
                       p2.n_vertices)
    common = tuple(itertools.compress(p1.vertices, in_1))
    if len(common) < 2:
        return math.nan, len(common)
    score = ami(Partition.of(common, p1.labels[in_1]), Partition.of(common, p2.labels[in_2]))
    return score, len(common)
