"""Brute-force reference implementations used to verify the library.

Everything here is deliberately independent of the package internals:
distances come from Floyd-Warshall min-plus iteration, path counts from a
DP over the distance matrix, reachability from boolean matrix closure,
expected MI from enumerating permutations, rank scores and modularity from
dense matrices. The fit solvers are ported from scipy.optimize, so their
references are scipy.optimize itself. The AMI-on-common-vertices oracle is
compared bit for bit, so it replays only the dict path that builds the
contingency table and scores that table with the package's own kernels.
The Brandes kernel oracle is also compared bit for bit: it is the
per-source kernel as it was when every source, even one with no out-edge,
ran it.
"""

import itertools
import json
import math
import random

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import zeta

from oniongraph import community
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


def brandes_accumulate_oracle(dist, esrc, edst, source, n, betweenness):
    """One source's Brandes dependencies added to `betweenness`, level by
    level over the shortest-path DAG edges; a source whose DAG is empty
    adds nothing."""
    dag = (dist[esrc] >= 0) & (dist[edst] == dist[esrc] + 1)
    if not np.any(dag):
        return
    se, te = esrc[dag], edst[dag]
    lev = dist[te]
    order = np.argsort(lev, kind="stable")
    se, te, lev = se[order], te[order], lev[order]
    max_level = int(lev[-1])
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


def closed_pairs_oracle(g):
    """Per vertex, the ordered pairs of distinct (out-)neighbors linked in
    either direction, counted pair by pair."""
    a = adjacency_bool(g)
    closed = np.zeros(g.N, dtype=np.int64)
    for v in range(g.N):
        nbrs = np.flatnonzero(a[v])
        closed[v] = sum(1 for u in nbrs for w in nbrs if u != w and (a[u, w] or a[w, u]))
    return closed


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


def bounded_brent_oracle(f, bounds, xatol, maxiter):
    """scipy's bounded Brent minimizer of the scalar function f."""
    res = minimize_scalar(f, bounds=bounds, method="bounded",
                          options={"xatol": xatol, "maxiter": maxiter})
    return float(res.x)


def nelder_mead_oracle(f, x0, xatol, fatol, maxiter):
    """scipy's Nelder-Mead minimizer of f from x0."""
    res = minimize(f, x0=x0, method="Nelder-Mead",
                   options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter})
    return res.x


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


def _dense_labels_oracle(labels):
    """A vertex -> label dict relabelled 0..k-1 by first appearance in
    sorted-vertex order."""
    dense: dict = {}
    assignment = {}
    for v in sorted(labels):
        raw = labels[v]
        if raw not in dense:
            dense[raw] = len(dense)
        assignment[v] = dense[raw]
    return assignment


def ami_on_common_oracle(labels1, labels2):
    """AMI of two vertex -> label dicts on their shared vertices, by the dict
    path: the set intersection, each side restricted and relabelled densely,
    and the contingency table filled from lookups in sorted-vertex order.
    Returns (score, n_common); the score is NaN below 2 shared vertices."""
    common = set(labels1) & set(labels2)
    if len(common) < 2:
        return math.nan, len(common)
    d1 = _dense_labels_oracle({v: labels1[v] for v in common})
    d2 = _dense_labels_oracle({v: labels2[v] for v in common})
    vertices = sorted(d1)
    a = np.array([d1[v] for v in vertices], dtype=np.int64)
    b = np.array([d2[v] for v in vertices], dtype=np.int64)
    table = np.zeros((int(a.max()) + 1, int(b.max()) + 1), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    n = len(vertices)
    if table.shape == (1, 1):
        return 1.0, n
    # the kernels take the label arrays and the table's marginals
    mi = community._mutual_information(a, b, table.sum(axis=1), table.sum(axis=0), n)
    emi = community._expected_mi(table.sum(axis=1), table.sum(axis=0), n)
    h1 = community._entropy(table.sum(axis=1), n)
    h2 = community._entropy(table.sum(axis=0), n)
    denom = 0.5 * (h1 + h2) - emi
    if abs(denom) < 1e-15:
        return (1.0 if abs(mi - emi) < 1e-15 else 0.0), n
    return (mi - emi) / denom, n


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


def _louvain_csr_oracle(keys, weights, n):
    """The CSR arrays of the row-scan Louvain: entries (row * n + col,
    weight) summed, each row's columns in order of their first entry."""
    keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    data = np.bincount(inverse, weights=weights).astype(np.int64)
    seq = np.lexsort((first, keys // n))
    keys, data = keys[seq], data[seq]
    rows = keys // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, keys % n, data, np.bincount(rows, data, n)


def _one_level_row_scan_oracle(indptr, indices, data, strength, two_m, rng, eps=1e-12):
    """Louvain local moves that rebuild a vertex's neighbour-community
    weights from its CSR row on every visit and keep the first of equally
    good moves in row order."""
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
            links = {}
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
                if gain > best_gain + eps:
                    best_c, best_gain = c, gain
            community[u] = best_c
            comm_strength[best_c] += ku
            if best_c != cu:
                moved = True
                improved = True
    return community, improved


def louvain_row_scan_oracle(g, seed=0):
    """Seeded Louvain with row-scan local moves (vertices shuffled by
    `random.Random(seed)`, supernodes numbered by first appearance); returns
    the raw vertex -> community labels, before dense relabelling."""
    rng = random.Random(seed)
    n = g.N
    if g.M == 0:
        return {v: i for i, v in enumerate(g.vertices)}
    keys = np.column_stack([g.edge_src * n + g.edge_dst, g.edge_dst * n + g.edge_src]).ravel()
    indptr, indices, data, strength = _louvain_csr_oracle(keys, np.repeat(g.edge_weight, 2), n)
    two_m = float(strength.sum())
    node_to_current = np.arange(n)
    while True:
        community, improved = _one_level_row_scan_oracle(
            indptr.tolist(), indices.tolist(), data.tolist(), strength.tolist(), two_m, rng
        )
        if not improved:
            break
        _, first, inverse = np.unique(community, return_index=True, return_inverse=True)
        node_map = np.argsort(np.argsort(first))[inverse]
        rows = node_map[np.repeat(np.arange(n), np.diff(indptr))]
        n = len(first)
        indptr, indices, data, strength = _louvain_csr_oracle(
            rows * n + node_map[indices], data, n
        )
        node_to_current = node_map[node_to_current]
    return dict(zip(g.vertices, node_to_current.tolist()))


PAGE_FIELDS = ("snapshot", "service", "path", "depth", "chars", "links")


def page_line_oracle(line):
    """One non-blank page-record line read with `json.loads` and isinstance
    checks: the ParseError message (without its line prefix) for a bad line,
    else the tuple of the record's six field values."""
    try:
        obj = json.loads(line.strip())
    except json.JSONDecodeError as exc:
        return f"invalid JSON ({exc.msg})"
    if not isinstance(obj, dict):
        return "record is not a JSON object"
    for name in PAGE_FIELDS:
        if name not in obj:
            return f"field '{name}' is missing"
    snapshot, service, path, depth, chars, links = (obj[name] for name in PAGE_FIELDS)

    def count(v):
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    for name, ok, why in (
        ("snapshot", isinstance(snapshot, str) and snapshot != "", "must be a non-empty string"),
        ("service", isinstance(service, str) and service != "", "must be a non-empty string"),
        ("path", isinstance(path, str), "must be a string"),
        ("depth", count(depth), "must be a non-negative integer"),
        ("chars", count(chars), "must be a non-negative integer"),
        ("links", isinstance(links, list) and all(isinstance(t, str) for t in links),
         "must be an array of strings"),
    ):
        if not ok:
            return f"field '{name}' {why}"
    return snapshot, service, path, depth, chars, tuple(links)
