"""Global and per-vertex topology metrics.

All distance-based quantities are unweighted: edge weights express link
multiplicity (endorsement strength), not length, so they never alter
shortest paths. Weights do enter PageRank and HITS by default, where they
bias the random surfer / endorsement flow; a flag turns that off.

Infinite distances are handled with the finite-paths convention: means and
maxima run over finite ordered pairs only, and 1/inf counts as 0 in the
efficiency sums.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.sparse import csgraph

from .errors import DataError, UsageError
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


# -- distance pass ------------------------------------------------------------

# Sources per distance block are chosen so that a float64 block holds at most
# this many entries (1 MiB). A full N x N matrix costs 8 N^2 bytes: 800 MB at
# N = 10 000, and already a measurable share of peak memory at N ~ 1000.
_BLOCK_ENTRIES = 2**17


def _distance_blocks(g: ServiceGraph):
    """Yield (rows, D) for consecutive blocks of source vertices: D[i, v] is
    the unweighted distance from rows[i] to v, np.inf when unreachable."""
    a = g.adjacency()
    n = g.N
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        yield rows, csgraph.shortest_path(
            a, method="D", directed=g.directed, unweighted=True, indices=rows
        )


def _closed_pairs(g: ServiceGraph) -> np.ndarray:
    """Per vertex, the ordered pairs of distinct (out-)neighbors linked in at
    least one direction: rowsum((A S) * A) with A the 0/1 adjacency and S its
    0/1 symmetrization, so a reciprocated pair still counts once."""
    a = g.adjacency()
    s = (a + a.T > 0).astype(np.float64) if g.directed else a
    return np.asarray((a @ s).multiply(a).sum(axis=1), dtype=np.int64).ravel()


def _brandes_accumulate(dist, esrc, edst, source, n, betweenness) -> None:
    """Add one source's dependency contributions to the betweenness vector.

    Works level-by-level on the shortest-path DAG edges (dist[head] ==
    dist[tail] + 1): path counts flow forward, dependencies flow backward,
    all in bulk array operations.
    """
    dag = (dist[esrc] >= 0) & (dist[edst] == dist[esrc] + 1)
    if not np.any(dag):
        return
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


@dataclass(frozen=True)
class DistanceStats:
    diameter: int
    avg_distance: float
    global_efficiency: float


def distance_stats(g: ServiceGraph) -> DistanceStats:
    """Diameter, mean shortest-path length over finite ordered pairs, and
    global efficiency (1/(N(N-1)) * sum of inverse distances, 1/inf = 0)."""
    n = g.N
    if n < 2:
        raise DataError("distance statistics need at least 2 vertices")
    diameter = 0
    finite_sum = 0
    finite_count = 0
    inv_sum = 0.0
    for _, d in _distance_blocks(g):
        reach = d[np.isfinite(d) & (d > 0)]
        if reach.size:
            diameter = max(diameter, int(reach.max()))
            finite_sum += int(reach.sum())
            finite_count += int(reach.size)
            inv_sum += float((1.0 / reach).sum())
    avg = finite_sum / finite_count if finite_count else math.nan
    return DistanceStats(diameter, avg, inv_sum / (n * (n - 1)))


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
        pairs = {(min(p, q), max(p, q)) for p, q in zip(a.tolist(), b.tolist())}
        if len(pairs) == 1:
            return math.nan
        x = np.concatenate([a, b])
        y = np.concatenate([b, a])
    if x.size < 2:
        return math.nan
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return math.nan
    return float(xc @ yc) / denom


def centralization(g: ServiceGraph) -> float:
    """Degree centralization: 1 on a star, 0 when all degrees are equal.

    Directed graphs use out-degrees with an (N-1)^2 normalizer; undirected
    use plain degrees with (N-1)(N-2).
    """
    n = g.N
    if n < 3:
        raise DataError("centralization needs at least 3 vertices")
    if g.directed:
        deg = g.out_degrees()
        return float(n * deg.max() - deg.sum()) / ((n - 1) ** 2)
    deg = g.degrees()
    return float(n * deg.max() - deg.sum()) / ((n - 1) * (n - 2))


def global_transitivity(g: ServiceGraph) -> float:
    """Directed: fraction of ordered out-neighbor pairs (v, w) of any vertex
    that are themselves linked in at least one direction. Undirected: closed
    triplets over all triplets. NaN when no open triple exists."""
    k = np.diff(g.successors_csr()[0])
    triples = int((k * (k - 1)).sum())
    if triples == 0:
        return math.nan
    return int(_closed_pairs(g).sum()) / triples


@dataclass(frozen=True)
class GlobalMetrics:
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


def compute_global_metrics(g: ServiceGraph) -> GlobalMetrics:
    """Assemble the full global-metrics record for one graph."""
    stats = distance_stats(g)
    rho = assortativity(g)
    cen = centralization(g)
    tra = global_transitivity(g)
    if g.directed:
        return GlobalMetrics(
            directed=True,
            n=g.N,
            m=g.M,
            avg_degree=g.M / g.N,
            assortativity=rho,
            diameter=stats.diameter,
            avg_distance=stats.avg_distance,
            global_efficiency=stats.global_efficiency,
            max_in_degree_norm=float(g.in_degrees().max()) / g.N,
            max_out_degree_norm=float(g.out_degrees().max()) / g.N,
            out_centralization=cen,
            transitivity=tra,
        )
    return GlobalMetrics(
        directed=False,
        n=g.N,
        m=g.M,
        avg_degree=2.0 * g.M / g.N,
        assortativity=rho,
        diameter=stats.diameter,
        avg_distance=stats.avg_distance,
        global_efficiency=stats.global_efficiency,
        max_degree_norm=float(g.degrees().max()) / g.N,
        centralization=cen,
        clustering=tra,
    )


# -- rank scores -------------------------------------------------------------


def _transition_arrays(g: ServiceGraph, weighted: bool):
    """Edge arrays doubled for undirected graphs, weights as float."""
    if g.directed:
        src, dst = g.edge_src, g.edge_dst
        w = g.edge_weight.astype(np.float64)
    else:
        src = np.concatenate([g.edge_src, g.edge_dst])
        dst = np.concatenate([g.edge_dst, g.edge_src])
        w = np.concatenate([g.edge_weight, g.edge_weight]).astype(np.float64)
    if not weighted:
        w = np.ones_like(w)
    return src, dst, w


def pagerank(
    g: ServiceGraph,
    weighted: bool = True,
    damping: float = PAGERANK_DAMPING,
    tol: float = PAGERANK_TOL,
    max_iter: int = 10_000,
) -> np.ndarray:
    """Power-iteration PageRank with uniform teleport; dangling mass is
    spread uniformly. Returns a vector summing to 1."""
    n = g.N
    if n == 0:
        raise DataError("pagerank of an empty graph")
    src, dst, w = _transition_arrays(g, weighted)
    out_strength = np.zeros(n)
    np.add.at(out_strength, src, w)
    dangling = out_strength == 0.0
    norm_w = w / out_strength[src]
    x = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(max_iter):
        contrib = np.zeros(n)
        np.add.at(contrib, dst, norm_w * x[src])
        x_new = damping * contrib + damping * x[dangling].sum() / n + base
        if np.abs(x_new - x).sum() < tol:
            x = x_new
            break
        x = x_new
    return x / x.sum()


def hits(
    g: ServiceGraph,
    weighted: bool = True,
    tol: float = HITS_TOL,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, np.ndarray]:
    """HITS hub/authority scores by power iteration, each vector normalized
    to unit Euclidean norm."""
    n = g.N
    if n == 0:
        raise DataError("hits of an empty graph")
    src, dst, w = _transition_arrays(g, weighted)
    hub = np.full(n, 1.0 / math.sqrt(n))
    auth = np.zeros(n)
    if src.size == 0:
        return hub, hub.copy()
    for _ in range(max_iter):
        auth_new = np.zeros(n)
        np.add.at(auth_new, dst, w * hub[src])
        norm = np.linalg.norm(auth_new)
        if norm > 0:
            auth_new /= norm
        hub_new = np.zeros(n)
        np.add.at(hub_new, src, w * auth_new[dst])
        norm = np.linalg.norm(hub_new)
        if norm > 0:
            hub_new /= norm
        if np.abs(hub_new - hub).max() < tol and np.abs(auth_new - auth).max() < tol:
            hub, auth = hub_new, auth_new
            break
        hub, auth = hub_new, auth_new
    return hub, auth


# -- per-vertex metrics -------------------------------------------------------


@dataclass
class VertexMetrics:
    """Per-vertex metric vectors aligned with `vertices`; NaN marks
    not-a-value entries (e.g. local efficiency of a degree-1 vertex)."""

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

    def metric_columns(self) -> dict[str, np.ndarray]:
        """Metric name -> vector, adapted to directedness (undirected graphs
        report a single degree column)."""
        cols: dict[str, np.ndarray] = {}
        if self.directed:
            cols["in_degree"] = self.in_degree.astype(np.float64)
            cols["out_degree"] = self.out_degree.astype(np.float64)
        cols["degree"] = self.degree.astype(np.float64)
        cols.update(
            betweenness=self.betweenness,
            closeness=self.closeness,
            pagerank=self.pagerank,
            authscore=self.authscore,
            hubscore=self.hubscore,
            efficiency=self.efficiency,
            transitivity=self.transitivity,
            eccentricity=self.eccentricity,
            lcratio=self.lcratio,
        )
        return cols


def vertex_metrics(
    g: ServiceGraph,
    lcratio_by_service: dict[str, float] | None = None,
    weighted_rank: bool = True,
) -> VertexMetrics:
    """Compute the full per-vertex metric suite in one all-sources pass.

    Betweenness follows Brandes over ordered (s, t) pairs; closeness uses
    incoming distances with the reachable-count rescaling so disconnected
    graphs stay comparable; eccentricity is the max finite outgoing
    distance. Local efficiency/transitivity look at the (out-)neighborhood
    and are NaN below degree 2.
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

    for rows, d in _distance_blocks(g):
        reached = np.isfinite(d) & (d > 0)  # finite and not the source itself
        d_reached = np.where(reached, d, 0.0)
        ecc[rows] = d_reached.max(axis=1)
        sum_in += d_reached.sum(axis=0)
        cnt_in += reached.sum(axis=0)
        # local efficiency: eff_sum[v] gains 1/d(u, w) for each neighbor u
        # of v among the block's sources and each neighbor w of v;
        # (A @ inv.T)[v, u] sums over w, A's column slice keeps u adjacent to v
        inv = np.divide(1.0, d, out=np.zeros_like(d), where=reached)
        eff_sum += np.asarray(a[:, rows[0] : rows[-1] + 1].multiply(a @ inv.T).sum(axis=1)).ravel()
        dist = np.where(np.isfinite(d), d, -1).astype(np.int64)
        for s, row in zip(rows.tolist(), dist):
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
    k = np.diff(a.indptr)
    local = k >= 2
    pairs = (k * (k - 1))[local]
    efficiency = np.full(n, np.nan)
    efficiency[local] = eff_sum[local] / pairs
    transitivity = np.full(n, np.nan)
    transitivity[local] = _closed_pairs(g)[local] / pairs

    pr = pagerank(g, weighted=weighted_rank)
    hub, auth = hits(g, weighted=weighted_rank)

    lcr = np.full(n, np.nan)
    if lcratio_by_service is not None:
        for i, vid in enumerate(g.vertices):
            if vid in lcratio_by_service:
                lcr[i] = lcratio_by_service[vid]

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
    indptr, indices, _ = g.successors_csr()
    covered = np.zeros(n, dtype=bool)
    curve = np.zeros(min(k, n))
    for i in range(curve.size):
        hub = int(order[i])
        covered[hub] = True
        covered[indices[indptr[hub] : indptr[hub + 1]]] = True
        curve[i] = covered.sum() / n
    return curve


def write_vertex_metrics_csv(vm: VertexMetrics, fh) -> None:
    """One row per vertex; not-a-value cells are left empty."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(VERTEX_CSV_COLUMNS)
    arrays = {
        "in_degree": vm.in_degree,
        "out_degree": vm.out_degree,
        "degree": vm.degree,
        "betweenness": vm.betweenness,
        "closeness": vm.closeness,
        "pagerank": vm.pagerank,
        "authscore": vm.authscore,
        "hubscore": vm.hubscore,
        "efficiency": vm.efficiency,
        "transitivity": vm.transitivity,
        "eccentricity": vm.eccentricity,
        "lcratio": vm.lcratio,
    }
    for i, vid in enumerate(vm.vertices):
        row = [vid]
        for name in VERTEX_CSV_COLUMNS[1:]:
            value = arrays[name][i]
            if isinstance(value, (np.floating, float)) and math.isnan(float(value)):
                row.append("")
            elif name in ("in_degree", "out_degree", "degree"):
                row.append(int(value))
            else:
                row.append(repr(float(value)))
        writer.writerow(row)


def read_vertex_metrics_csv(fh) -> "VertexMetrics":
    """Inverse of write_vertex_metrics_csv (degree columns as ints, empty
    cells as NaN). Directedness is inferred from in/out degree equality."""
    reader = csv.reader(fh)
    header = next(reader)
    if header != VERTEX_CSV_COLUMNS:
        raise DataError("unexpected vertex metrics CSV header")
    rows = list(reader)
    vertices = tuple(r[0] for r in rows)

    def col(name, dtype=np.float64):
        j = VERTEX_CSV_COLUMNS.index(name)
        vals = [r[j] for r in rows]
        if dtype is np.int64:
            return np.array([int(v) for v in vals], dtype=np.int64)
        return np.array([float(v) if v != "" else np.nan for v in vals])

    in_deg = col("in_degree", np.int64)
    out_deg = col("out_degree", np.int64)
    return VertexMetrics(
        directed=not np.array_equal(in_deg, out_deg),
        vertices=vertices,
        in_degree=in_deg,
        out_degree=out_deg,
        degree=col("degree", np.int64),
        betweenness=col("betweenness"),
        closeness=col("closeness"),
        pagerank=col("pagerank"),
        authscore=col("authscore"),
        hubscore=col("hubscore"),
        efficiency=col("efficiency"),
        transitivity=col("transitivity"),
        eccentricity=col("eccentricity"),
        lcratio=col("lcratio"),
    )
