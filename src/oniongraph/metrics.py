"""Global and per-vertex topology metrics.

`vertex_metrics` makes one all-sources distance pass per graph. It returns
the per-vertex vectors and, as reductions of the same pass, the global
metrics (`VertexMetrics.global_metrics`): diameter is the largest
eccentricity, mean distance and global efficiency sum the reached pairs,
and transitivity or clustering sums the per-vertex closed pairs.

All distance-based quantities are unweighted: edge weights express link
multiplicity (endorsement strength), not length, so they never alter
shortest paths. Weights do enter PageRank and HITS by default, where they
bias the random surfer / endorsement flow; a flag turns that off.

Infinite distances are handled with the finite-paths convention: means and
maxima run over finite ordered pairs only, and 1/inf counts as 0 in the
efficiency sums. A metric with no value on a small graph is NaN: mean
distance with no reached pair, global efficiency below 2 vertices,
centralization below 3.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.sparse import csgraph

from .errors import DataError, ParseError, UsageError
from .graphs import ServiceGraph

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-12
HITS_TOL = 1e-12

VERTEX_CSV_COLUMNS = [
    "vertex",
    "in_degree",
    "out_degree",
    "degree",
    "betweenness",
    "closeness",
    "pagerank",
    "authscore",
    "hubscore",
    "efficiency",
    "transitivity",
    "eccentricity",
    "lcratio",
]
# columns written and read as integers; the rest are floats, NaN left empty
_COUNT_COLUMNS = ("in_degree", "out_degree", "degree")


# -- distance pass ------------------------------------------------------------

# Sources per distance block are chosen so that a float64 block holds at most
# this many entries (1 MiB). A full N x N matrix costs 8 N^2 bytes: 800 MB at
# N = 10 000, and already a measurable share of peak memory at N ~ 1000.
# Every blocked product of vertex_metrics takes the same rows, so the same
# bound holds for it: the rows of A S (closed pairs) have at most N entries.
_BLOCK_ENTRIES = 2**17


def _distance_blocks(a, directed: bool):
    """Yield (rows, D) for consecutive blocks of source vertices of the
    adjacency matrix `a`: D[i, v] is the unweighted distance from rows[i]
    to v, np.inf when unreachable."""
    n = a.shape[0]
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        yield rows, csgraph.shortest_path(
            a, method="D", directed=directed, unweighted=True, indices=rows
        )


def _brandes_accumulate(dist, esrc, edst, source, n, betweenness) -> None:
    """Add one source's dependency contributions to the betweenness vector.

    Works level-by-level on the shortest-path DAG edges (dist[head] ==
    dist[tail] + 1): path counts flow forward, dependencies flow backward,
    all in bulk array operations. The source must have an out-edge, so the
    DAG has at least one edge.
    """
    dag = (dist[esrc] >= 0) & (dist[edst] == dist[esrc] + 1)
    se, te = esrc[dag], edst[dag]
    lev = dist[te]
    order = np.argsort(lev, kind="stable")
    se, te, lev = se[order], te[order], lev[order]
    max_level = int(lev[-1])
    # cuts[L] = first edge whose head sits deeper than level L, so the
    # level-L edges occupy cuts[L-1]:cuts[L]
    cuts = np.searchsorted(lev, np.arange(1, max_level + 2))
    sigma = np.zeros(n)
    sigma[source] = 1.0
    for level in range(1, max_level + 1):
        a, b = cuts[level - 1], cuts[level]
        np.add.at(sigma, te[a:b], sigma[se[a:b]])
    delta = np.zeros(n)
    for level in range(max_level, 0, -1):
        a, b = cuts[level - 1], cuts[level]
        np.add.at(delta, se[a:b], sigma[se[a:b]] / sigma[te[a:b]] * (1.0 + delta[te[a:b]]))
    betweenness += delta
    betweenness[source] -= delta[source]


# -- global metrics ---------------------------------------------------------


def assortativity(g: ServiceGraph) -> float:
    """Degree correlation across edges.

    Directed: Pearson correlation of (source out-degree, target in-degree)
    over the edge list. Undirected: the same over the doubled edge list,
    reported as NaN when every edge carries the same unordered
    endpoint-degree pair (a star, a regular graph): one distinct
    observation supports no correlation.
    """
    if g.M == 0:
        return math.nan
    if g.directed:
        x = g.out_degrees()[g.edge_src].astype(np.float64)
        y = g.in_degrees()[g.edge_dst].astype(np.float64)
    else:
        deg = g.degrees().astype(np.float64)
        a, b = deg[g.edge_src], deg[g.edge_dst]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if (lo == lo[0]).all() and (hi == hi[0]).all():
            return math.nan
        x = np.concatenate([a, b])
        y = np.concatenate([b, a])
    return _pearson(x, y)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two float64 vectors; NaN when either is constant."""
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return math.nan
    return float(xc @ yc) / denom


def centralization(g: ServiceGraph) -> float:
    """Degree centralization: 1 on a star, 0 when all degrees are equal.

    Directed graphs use out-degrees with an (N-1)^2 normalizer; undirected
    use plain degrees with (N-1)(N-2). NaN below 3 vertices.
    """
    n = g.N
    if n < 3:
        return math.nan
    if g.directed:
        deg = g.out_degrees()
        return float(n * deg.max() - deg.sum()) / ((n - 1) ** 2)
    deg = g.degrees()
    return float(n * deg.max() - deg.sum()) / ((n - 1) * (n - 2))


@dataclass(frozen=True)
class GlobalMetrics:
    """Whole-graph metrics; vertex_metrics fills them from its distance pass."""

    directed: bool
    n: int
    m: int
    avg_degree: float
    assortativity: float
    diameter: int
    avg_distance: float
    global_efficiency: float
    # directed-only
    max_in_degree_norm: float | None = None
    max_out_degree_norm: float | None = None
    out_centralization: float | None = None
    transitivity: float | None = None
    # undirected-only
    max_degree_norm: float | None = None
    centralization: float | None = None
    clustering: float | None = None

    def to_dict(self) -> dict:
        """The fields, less those of the other directedness (left None)."""
        return {k: v for k, v in asdict(self).items() if v is not None}


# -- rank scores -------------------------------------------------------------


def pagerank(
    g: ServiceGraph,
    weighted: bool = True,
    damping: float = PAGERANK_DAMPING,
    tol: float = PAGERANK_TOL,
    max_iter: int = 10_000,
) -> np.ndarray:
    """Power-iteration PageRank with uniform teleport; dangling mass is
    spread uniformly. Returns a vector summing to 1.

    Each step is one sparse product P^T x, with P the weight matrix W
    divided row by row by its out-strength (undirected graphs walk both
    directions of every edge).
    """
    n = g.N
    if n == 0:
        raise DataError("pagerank of an empty graph")
    p = g.adjacency(weighted)
    out_strength = p @ np.ones(n)
    dangling = out_strength == 0.0
    p.data /= np.repeat(out_strength, np.diff(p.indptr))
    p_t = p.T
    x = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(max_iter):
        x_old = x
        x = damping * (p_t @ x) + damping * x[dangling].sum() / n + base
        if np.abs(x - x_old).sum() < tol:
            break
    return x / x.sum()


def hits(
    g: ServiceGraph,
    weighted: bool = True,
    tol: float = HITS_TOL,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, np.ndarray]:
    """HITS hub/authority scores by power iteration, each vector normalized
    to unit Euclidean norm. Each step is two sparse products with the
    weight matrix W: authorities W^T h, then hubs W a."""
    n = g.N
    if n == 0:
        raise DataError("hits of an empty graph")
    w = g.adjacency(weighted)
    hub = np.full(n, 1.0 / math.sqrt(n))
    auth = np.zeros(n)
    if w.nnz == 0:
        return hub, hub.copy()
    # positive weights and a positive start keep both norms above 0
    w_t = w.T
    for _ in range(max_iter):
        auth_new = w_t @ hub
        auth_new /= np.linalg.norm(auth_new)
        hub_new = w @ auth_new
        hub_new /= np.linalg.norm(hub_new)
        done = np.abs(hub_new - hub).max() < tol and np.abs(auth_new - auth).max() < tol
        hub, auth = hub_new, auth_new
        if done:
            break
    return hub, auth


# -- per-vertex metrics -------------------------------------------------------


@dataclass
class VertexMetrics:
    """Per-vertex metric vectors aligned with `vertices`; NaN marks
    not-a-value entries (e.g. local efficiency of a degree-1 vertex).
    `global_metrics` is None when the vectors were read back from CSV."""

    directed: bool
    vertices: tuple[str, ...]
    in_degree: np.ndarray
    out_degree: np.ndarray
    degree: np.ndarray
    betweenness: np.ndarray
    closeness: np.ndarray
    pagerank: np.ndarray
    authscore: np.ndarray
    hubscore: np.ndarray
    efficiency: np.ndarray
    transitivity: np.ndarray
    eccentricity: np.ndarray
    lcratio: np.ndarray = field(default=None)
    global_metrics: GlobalMetrics | None = None

    def metric_columns(self) -> dict[str, np.ndarray]:
        """Metric name -> float vector in VERTEX_CSV_COLUMNS order, adapted
        to directedness (undirected graphs report a single degree column)."""
        skip = {"vertex"} if self.directed else {"vertex", "in_degree", "out_degree"}
        return {
            name: np.asarray(getattr(self, name), dtype=np.float64)
            for name in VERTEX_CSV_COLUMNS
            if name not in skip
        }


def vertex_metrics(
    g: ServiceGraph,
    lcratio_by_service: dict[str, float] | None = None,
    weighted_rank: bool = True,
) -> VertexMetrics:
    """Compute the per-vertex metric suite and the global metrics in one
    all-sources pass.

    Betweenness follows Brandes over ordered (s, t) pairs; closeness uses
    incoming distances with the reachable-count rescaling so disconnected
    graphs stay comparable; eccentricity is the max finite outgoing
    distance. Local efficiency/transitivity look at the (out-)neighborhood
    and are NaN below degree 2. The global metrics reduce the same
    distances and closed pairs (see the module docstring); graphs of 1 or 2
    vertices are accepted, with NaN where a global metric has no value.
    """
    n = g.N
    if n == 0:
        raise DataError("vertex metrics of an empty graph")
    a = g.adjacency()
    if g.directed:
        esrc, edst = g.edge_src, g.edge_dst
    else:
        esrc = np.concatenate([g.edge_src, g.edge_dst])
        edst = np.concatenate([g.edge_dst, g.edge_src])

    betweenness = np.zeros(n)
    ecc = np.zeros(n)
    sum_in = np.zeros(n)  # sum of finite d(u, v) over sources u (into v)
    cnt_in = np.zeros(n, dtype=np.int64)
    eff_sum = np.zeros(n)
    # closed[u]: ordered pairs of distinct (out-)neighbors of u linked in at
    # least one direction, rowsum((A S) * A) with S the 0/1 symmetrization of
    # A, so a reciprocated pair still counts once
    sym = (a + a.T > 0).astype(np.float64) if g.directed else a
    closed = np.zeros(n, dtype=np.int64)
    inv_sum = 0.0  # sum of 1/d(u, v) over reached pairs, for global efficiency

    for rows, d in _distance_blocks(a, g.directed):
        reached = np.isfinite(d) & (d > 0)  # finite and not the source itself
        d_reached = np.where(reached, d, 0.0)
        ecc[rows] = d_reached.max(axis=1)
        sum_in += d_reached.sum(axis=0)
        cnt_in += reached.sum(axis=0)
        # local efficiency: eff_sum[v] gains 1/d(u, w) for each neighbor u
        # of v among the block's sources and each neighbor w of v;
        # (A @ inv.T)[v, u] sums over w, A's column slice keeps u adjacent to v
        inv = np.divide(1.0, d, out=np.zeros_like(d), where=reached)
        inv_sum += float(inv[reached].sum())
        eff_sum += np.asarray(a[:, rows[0] : rows[-1] + 1].multiply(a @ inv.T).sum(axis=1)).ravel()
        closed[rows] = (a[rows] @ sym).multiply(a[rows]).sum(axis=1)
        dist = np.where(np.isfinite(d), d, -1).astype(np.int64)
        for s, row in zip(rows.tolist(), dist):
            if a.indptr[s + 1] > a.indptr[s]:  # a source with no out-edge adds nothing
                _brandes_accumulate(row, esrc, edst, s, n, betweenness)

    closeness = np.zeros(n)
    nontrivial = cnt_in > 0
    if n > 1:
        r = cnt_in[nontrivial].astype(np.float64)
        closeness[nontrivial] = (r / (n - 1)) * (r / sum_in[nontrivial])

    out_deg = g.out_degrees()
    in_deg = g.in_degrees()
    degree = out_deg + in_deg

    # the local metrics look at out-neighbors (all neighbors when undirected)
    k = out_deg if g.directed else degree
    ordered = k * (k - 1)  # ordered pairs of distinct (out-)neighbors
    local = k >= 2
    efficiency = np.full(n, np.nan)
    efficiency[local] = eff_sum[local] / ordered[local]
    transitivity = np.full(n, np.nan)
    transitivity[local] = closed[local] / ordered[local]

    pr = pagerank(g, weighted=weighted_rank)
    hub, auth = hits(g, weighted=weighted_rank)

    lcr = np.full(n, np.nan)
    if lcratio_by_service is not None:
        for i, vid in enumerate(g.vertices):
            if vid in lcratio_by_service:
                lcr[i] = lcratio_by_service[vid]

    pair_count = int(cnt_in.sum())
    triples = int(ordered.sum())
    global_transitivity = int(closed.sum()) / triples if triples else math.nan
    cen = centralization(g)
    if g.directed:
        by_directedness = dict(
            max_in_degree_norm=float(in_deg.max()) / n,
            max_out_degree_norm=float(out_deg.max()) / n,
            out_centralization=cen,
            transitivity=global_transitivity,
        )
    else:
        by_directedness = dict(
            max_degree_norm=float(degree.max()) / n,
            centralization=cen,
            clustering=global_transitivity,
        )
    global_metrics = GlobalMetrics(
        directed=g.directed,
        n=n,
        m=g.M,
        avg_degree=(g.M if g.directed else 2 * g.M) / n,
        assortativity=assortativity(g),
        diameter=int(ecc.max()),
        avg_distance=int(sum_in.sum()) / pair_count if pair_count else math.nan,
        global_efficiency=inv_sum / (n * (n - 1)) if n > 1 else math.nan,
        **by_directedness,
    )

    return VertexMetrics(
        directed=g.directed,
        vertices=g.vertices,
        in_degree=in_deg,
        out_degree=out_deg,
        degree=degree,
        betweenness=betweenness,
        closeness=closeness,
        pagerank=pr,
        authscore=auth,
        hubscore=hub,
        efficiency=efficiency,
        transitivity=transitivity,
        eccentricity=ecc,
        lcratio=lcr,
        global_metrics=global_metrics,
    )


def hub_reach_curve(g: ServiceGraph, k: int = 25) -> np.ndarray:
    """Cumulative fraction of the graph covered by the top hubs.

    Vertices are ranked by out-degree (directed) or degree (undirected),
    ties broken by vertex id; entry i is the fraction of vertices that are
    among the first i+1 hubs or out-neighbors of one of them. Meant to be
    called on the giant component. Truncated at N entries.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    n = g.N
    if n == 0:
        raise DataError("hub reach of an empty graph")
    deg = g.out_degrees() if g.directed else g.degrees()
    order = np.lexsort((np.arange(n), -deg))  # vertices sorted, so index = id order
    a = g.adjacency()
    covered = np.zeros(n, dtype=bool)
    curve = np.zeros(min(k, n))
    for i in range(curve.size):
        hub = int(order[i])
        covered[hub] = True
        covered[a.indices[a.indptr[hub] : a.indptr[hub + 1]]] = True
        curve[i] = covered.sum() / n
    return curve


def write_vertex_metrics_csv(vm: VertexMetrics, fh) -> None:
    """One row per vertex; not-a-value cells are left empty."""
    columns = [list(vm.vertices)]
    for name in VERTEX_CSV_COLUMNS[1:]:
        if name in _COUNT_COLUMNS:
            columns.append(np.asarray(getattr(vm, name), dtype=np.int64).tolist())
        else:
            values = np.asarray(getattr(vm, name), dtype=np.float64).tolist()
            columns.append(["" if math.isnan(v) else repr(v) for v in values])
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(VERTEX_CSV_COLUMNS)
    writer.writerows(zip(*columns))


def read_vertex_metrics_csv(fh) -> VertexMetrics:
    """Inverse of write_vertex_metrics_csv (count columns as ints, empty
    cells as NaN, no global metrics). Directedness is inferred from in/out
    degree equality. Errors name the line and `fh.name`."""
    source = getattr(fh, "name", None)
    reader = csv.reader(fh)
    if next(reader, None) != VERTEX_CSV_COLUMNS:
        raise ParseError("unexpected vertex metrics CSV header", 1, source)
    kinds = [str] + [int if name in _COUNT_COLUMNS else float for name in VERTEX_CSV_COLUMNS[1:]]
    rows = []
    for row in reader:
        try:
            rows.append([np.nan if kind is float and cell == "" else kind(cell)
                         for kind, cell in zip(kinds, row, strict=True)])
        except ValueError:
            raise ParseError(f"bad vertex metrics row {row!r}", reader.line_num, source) from None
    columns = {
        name: np.array([r[j] for r in rows], dtype=np.int64 if kinds[j] is int else np.float64)
        for j, name in enumerate(VERTEX_CSV_COLUMNS) if j > 0
    }
    return VertexMetrics(
        directed=not np.array_equal(columns["in_degree"], columns["out_degree"]),
        vertices=tuple(r[0] for r in rows),
        **columns,
    )
