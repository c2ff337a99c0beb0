"""Brute-force reference implementations used to verify the library.

Everything here is deliberately independent of the package internals:
distances come from Floyd-Warshall min-plus iteration, path counts from a
DP over the distance matrix, reachability from boolean matrix closure,
expected MI from enumerating permutations, rank scores and modularity from
dense matrices.
"""

import itertools
import math

import numpy as np
from scipy.special import zeta

from oniongraph.graphs import ServiceGraph


def vid(i):
    return f"v{i:03d}.onion"


def random_digraph(rng, n, p, max_weight=5):
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                edges.append((vid(i), vid(j), int(rng.integers(1, max_weight + 1))))
    return ServiceGraph.from_edges(True, edges, isolated_vertices=[vid(i) for i in range(n)])


def random_undirected(rng, n, p, max_weight=5):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((vid(i), vid(j), int(rng.integers(1, max_weight + 1))))
    return ServiceGraph.from_edges(False, edges, isolated_vertices=[vid(i) for i in range(n)])


def adjacency_bool(g):
    a = np.zeros((g.N, g.N), dtype=bool)
    a[g.edge_src, g.edge_dst] = True
    if not g.directed:
        a[g.edge_dst, g.edge_src] = True
    return a


def floyd_warshall(g):
    """All-pairs unweighted distances; np.inf for unreachable pairs."""
    n = g.N
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    a = adjacency_bool(g)
    dist[a] = 1.0
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


def path_counts(g, dist):
    """sigma[s, t] = number of shortest s->t paths, from the distance matrix."""
    n = g.N
    a = adjacency_bool(g)
    sigma = np.zeros((n, n))
    for s in range(n):
        sigma[s, s] = 1.0
        finite = np.isfinite(dist[s])
        for v in np.argsort(dist[s])[: int(finite.sum())]:
            v = int(v)
            if v == s:
                continue
            preds = np.flatnonzero(a[:, v] & (dist[s] == dist[s, v] - 1))
            sigma[s, v] = sigma[s, preds].sum()
    return sigma


def betweenness_oracle(g):
    """BC(v) = sum over ordered finite (s,t), s != v != t, of
    sigma_st(v)/sigma_st with sigma_st(v) = sigma_sv * sigma_vt when v lies
    on a shortest path."""
    n = g.N
    dist = floyd_warshall(g)
    sigma = path_counts(g, dist)
    bc = np.zeros(n)
    idx = np.arange(n)
    for s in range(n):
        ds = dist[s]
        on_path = (ds[:, None] + dist) == ds[None, :]
        valid = on_path & np.isfinite(dist) & np.isfinite(ds[:, None])
        valid[:, s] = False
        valid[s, :] = False
        valid[idx, idx] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = np.where(valid, sigma[s][:, None] * sigma / sigma[s][None, :], 0.0)
        contrib[:, ~np.isfinite(ds) | (sigma[s] == 0)] = 0.0
        bc += contrib.sum(axis=1)
    return bc


def closeness_oracle(dist):
    """Incoming-distance closeness with reachable-count rescaling."""
    n = dist.shape[0]
    cc = np.zeros(n)
    for v in range(n):
        col = dist[:, v]
        finite = np.isfinite(col) & (col > 0)
        r = int(finite.sum())
        if r and n > 1:
            cc[v] = (r / (n - 1)) * (r / col[finite].sum())
    return cc


def eccentricity_oracle(dist):
    n = dist.shape[0]
    ecc = np.zeros(n)
    for v in range(n):
        row = dist[v]
        finite = np.isfinite(row) & (row > 0)
        ecc[v] = row[finite].max() if finite.any() else 0.0
    return ecc


def local_efficiency_oracle(g, dist):
    n = g.N
    a = adjacency_bool(g)
    eff = np.full(n, np.nan)
    for v in range(n):
        nbrs = np.flatnonzero(a[v])
        k = nbrs.size
        if k < 2:
            continue
        total = 0.0
        for u in nbrs:
            for w in nbrs:
                if u != w and np.isfinite(dist[u, w]):
                    total += 1.0 / dist[u, w]
        eff[v] = total / (k * (k - 1))
    return eff


def local_transitivity_oracle(g):
    n = g.N
    a = adjacency_bool(g)
    tra = np.full(n, np.nan)
    for v in range(n):
        nbrs = np.flatnonzero(a[v])
        k = nbrs.size
        if k < 2:
            continue
        count = 0
        for u in nbrs:
            for w in nbrs:
                if u != w and (a[u, w] or a[w, u]):
                    count += 1
        tra[v] = count / (k * (k - 1))
    return tra


def global_transitivity_oracle(g):
    """Ordered (out-)neighbor pairs linked in either direction, over all
    ordered (out-)neighbor pairs; NaN when there are none."""
    a = adjacency_bool(g)
    closed = 0
    triples = 0
    for v in range(g.N):
        nbrs = np.flatnonzero(a[v])
        triples += nbrs.size * (nbrs.size - 1)
        for u in nbrs:
            for w in nbrs:
                if u != w and (a[u, w] or a[w, u]):
                    closed += 1
    return closed / triples if triples else float("nan")


def distance_stats_oracle(dist):
    n = dist.shape[0]
    off = ~np.eye(n, dtype=bool)
    finite = np.isfinite(dist) & off
    diameter = int(dist[finite].max()) if finite.any() else 0
    avg = float(dist[finite].mean()) if finite.any() else float("nan")
    inv = np.where(finite, 1.0 / np.where(finite, dist, 1.0), 0.0)
    eglo = float(inv.sum()) / (n * (n - 1)) if n > 1 else float("nan")
    return diameter, avg, eglo


def reachability_closure(g):
    """Boolean matrix R with R[u, v] = True iff a path (possibly empty) u->v exists."""
    a = adjacency_bool(g)
    r = a | np.eye(g.N, dtype=bool)
    while True:
        nxt = r | (r @ r)
        if np.array_equal(nxt, r):
            return r
        r = nxt


def bowtie_oracle(g):
    """Literal component definitions applied to the transitive closure."""
    n = g.N
    a = adjacency_bool(g)
    reach = reachability_closure(g)
    # strongly connected components from mutual reachability
    mutual = reach & reach.T
    seen = np.zeros(n, dtype=bool)
    sccs = []
    for v in range(n):
        if not seen[v]:
            members = np.flatnonzero(mutual[v])
            seen[members] = True
            sccs.append(members)
    sccs.sort(key=lambda m: (-m.size, int(m.min())))
    lscc = set(sccs[0].tolist())

    classes = {}
    lscc_arr = np.array(sorted(lscc))
    to_lscc = reach[:, lscc_arr].any(axis=1)
    from_lscc = reach[lscc_arr, :].any(axis=0)
    in_set = {v for v in range(n) if v not in lscc and to_lscc[v]}
    out_set = {v for v in range(n) if v not in lscc and from_lscc[v]}
    rest = [v for v in range(n) if v not in lscc and v not in in_set and v not in out_set]
    in_arr = np.array(sorted(in_set), dtype=int)
    out_arr = np.array(sorted(out_set), dtype=int)
    for v in rest:
        from_in = bool(reach[in_arr, v].any()) if in_arr.size else False
        to_out = bool(reach[v, out_arr].any()) if out_arr.size else False
        if from_in and to_out:
            classes[v] = "TUBES"
        elif from_in or to_out:
            classes[v] = "TENDRILS"
        else:
            classes[v] = "DISCONNECTED"
    for v in lscc:
        classes[v] = "LSCC"
    for v in in_set:
        classes[v] = "IN"
    for v in out_set:
        classes[v] = "OUT"
    return {g.vertices[v]: classes[v] for v in range(n)}


# -- graph construction and set algebra, on id-keyed dicts ------------------
#
# Each oracle returns (sorted vertex tuple, {(u, v): weight}) in the shape of
# (g.vertices, g.edge_weight_map()).


def _touched(edges):
    return tuple(sorted({x for pair in edges for x in pair}))


def dsg_oracle(pages):
    """Count the links of each (service, onion target) pair, dropping
    self-links and targets outside the onion namespace."""
    vertices = {p.service_id for p in pages}
    weights = {}
    for p in pages:
        for t in p.out_links:
            if t != p.service_id and t.endswith(".onion") and len(t) > len(".onion"):
                weights[(p.service_id, t)] = weights.get((p.service_id, t), 0) + 1
                vertices.add(t)
    return tuple(sorted(vertices)), weights


def union_oracle(graphs):
    merged = {}
    for g in graphs:
        for key, w in g.edge_weight_map().items():
            merged[key] = max(w, merged.get(key, w))
    return _touched(merged), merged


def intersect_oracle(graphs):
    maps = [g.edge_weight_map() for g in graphs]
    common = set(maps[0]).intersection(*maps[1:])
    edges = {key: min(m[key] for m in maps) for key in common}
    return _touched(edges), edges


def usg_oracle(g):
    wmap = g.edge_weight_map()
    edges = {
        (u, v): min(w, wmap[(v, u)]) for (u, v), w in wmap.items() if u < v and (v, u) in wmap
    }
    return _touched(edges), edges


def induced_oracle(g, keep):
    keep = set(keep)
    edges = {(u, v): w for (u, v), w in g.edge_weight_map().items() if u in keep and v in keep}
    return tuple(sorted(keep)), edges


def giant_wcc_oracle(g):
    """Label propagation to a fixpoint on the undirected view; the largest
    component wins, ties going to the one with the smallest id."""
    label = {v: v for v in g.vertices}
    changed = True
    while changed:
        changed = False
        for u, v in g.edge_weight_map():
            lo = min(label[u], label[v])
            for x in (u, v):
                if label[x] != lo:
                    label[x] = lo
                    changed = True
    members = {}
    for v in g.vertices:
        members.setdefault(label[v], []).append(v)
    return induced_oracle(g, min(members.values(), key=lambda m: (-len(m), m[0])))


def power_law_draw_oracle(alpha, xmin, u):
    """One inverse-CDF draw of the discrete power law on Python ints: the
    smallest x >= xmin with 1 - zeta(alpha, x + 1) / zeta(alpha, xmin) >= u,
    found by doubling an upper bound and then bisecting."""
    z0 = zeta(alpha, xmin)

    def covers(x):
        return 1.0 - zeta(alpha, x + 1) / z0 >= u

    lo, hi = xmin, xmin
    while not covers(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if covers(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _mutual_information(x, y):
    """MI (natural log) of two label sequences of equal length."""
    n = len(x)
    joint, px, py = {}, {}, {}
    for a, b in zip(x, y):
        joint[a, b] = joint.get((a, b), 0) + 1
        px[a] = px.get(a, 0) + 1
        py[b] = py.get(b, 0) + 1
    return sum(c / n * math.log(n * c / (px[a] * py[b])) for (a, b), c in joint.items())


def expected_mi_oracle(row_sums, col_sums):
    """Expected MI of two clusterings with these cluster sizes under the
    permutation model, by averaging over every permutation (n <= 7)."""
    n = sum(row_sums)
    assert n == sum(col_sums) and n <= 7
    x = [i for i, a in enumerate(row_sums) for _ in range(a)]
    y = [j for j, b in enumerate(col_sums) for _ in range(b)]
    perms = list(itertools.permutations(y))
    return math.fsum(_mutual_information(x, p) for p in perms) / len(perms)


def expected_mi_sum_oracle(row_sums, col_sums):
    """The same expectation as a hypergeometric sum over every cell and every
    cell count k (Vinh, Epps & Bailey 2010, eq. 24a), on Python floats."""
    n = sum(row_sums)
    lg = math.lgamma
    total = []
    for a in row_sums:
        for b in col_sums:
            for k in range(max(1, a + b - n), min(a, b) + 1):
                log_p = (lg(a + 1) + lg(b + 1) + lg(n - a + 1) + lg(n - b + 1) - lg(n + 1)
                         - lg(k + 1) - lg(a - k + 1) - lg(b - k + 1) - lg(n - a - b + k + 1))
                total.append(k / n * math.log(n * k / (a * b)) * math.exp(log_p))
    return math.fsum(total)


def _dense_weights(g, weighted=True):
    """Dense W[u, v]: the weight of edge u->v (both directions when
    undirected), 1 per edge when not weighted."""
    w = np.zeros((g.N, g.N))
    weights = g.edge_weight if weighted else np.ones(g.M)
    w[g.edge_src, g.edge_dst] = weights
    if not g.directed:
        w[g.edge_dst, g.edge_src] = weights
    return w


def pagerank_oracle(g, weighted=True, damping=0.85):
    """Power iteration on the dense Google matrix: row-normalized weights,
    dangling rows replaced by the uniform row, damped uniform teleport."""
    n = g.N
    w = _dense_weights(g, weighted)
    out = w.sum(axis=1, keepdims=True)
    walk = np.where(out > 0, w / np.where(out > 0, out, 1.0), 1.0 / n)
    google = damping * walk + (1.0 - damping) / n
    x = np.full(n, 1.0 / n)
    for _ in range(100_000):
        x_new = google.T @ x
        if np.abs(x_new - x).sum() < 1e-15:
            break
        x = x_new
    return x_new / x_new.sum()


def hits_oracle(g, weighted=True):
    """(hub, authority) by dense power iteration from the uniform hub vector:
    a = W^T h, h = W a, each scaled to unit Euclidean norm."""
    w = _dense_weights(g, weighted)
    hub = np.full(g.N, 1.0 / math.sqrt(g.N))
    auth = np.zeros(g.N)
    for _ in range(1_000_000):
        auth_new = w.T @ hub
        auth_new /= np.linalg.norm(auth_new)
        hub_new = w @ auth_new
        hub_new /= np.linalg.norm(hub_new)
        if max(np.abs(hub_new - hub).max(), np.abs(auth_new - auth).max()) < 1e-15:
            break
        hub, auth = hub_new, auth_new
    return hub_new, auth_new


def modularity_oracle(g, labels):
    """Newman modularity (1/2m) sum_ij [A_ij - k_i k_j / 2m] [c_i == c_j] on
    the dense symmetrized weight matrix A = W + W^T (W itself when
    undirected); `labels` maps vertex id -> cluster."""
    w = _dense_weights(g)
    a = w + w.T if g.directed else w
    k = a.sum(axis=1)
    two_m = k.sum()
    c = np.array([labels[v] for v in g.vertices])
    same = c[:, None] == c[None, :]
    return float(((a - np.outer(k, k) / two_m) * same).sum() / two_m)
