"""Service graphs: construction from page records and set-algebra transforms.

A ServiceGraph is a simple weighted graph over service ids. Parallel
hyperlinks are flattened onto one edge whose integer weight is the link
multiplicity; self-loops never exist. Undirected edges are stored with
canonically ordered endpoints (smaller vertex index first), everything is
sorted, so equal graphs have identical representations.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_array

from .errors import DataError, UsageError
from .records import PageRecord


def is_onion_id(service_id: str) -> bool:
    """True for ids inside the crawled onion namespace; everything else
    (surface-web targets) is ignored when building graphs."""
    return service_id.endswith(".onion") and len(service_id) > len(".onion")


class ServiceGraph:
    """Immutable weighted simple graph with deterministic vertex order.

    Vertices are service-id strings kept sorted; edges live in three
    parallel arrays (src index, dst index, weight) sorted by (src, dst).
    """

    __slots__ = (
        "directed",
        "vertices",
        "edge_src",
        "edge_dst",
        "edge_weight",
        "_index",
        "_succ",
        "_pred",
        "_edge_key_set",
    )

    def __init__(self, directed: bool, vertices, edge_src, edge_dst, edge_weight):
        self.directed = bool(directed)
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edge_src = np.asarray(edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self.edge_weight = np.asarray(edge_weight, dtype=np.int64)
        self._index: dict[str, int] | None = None
        self._succ = None
        self._pred = None
        self._edge_key_set: set[tuple[int, int]] | None = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        directed: bool,
        edges: Iterable[tuple],
        isolated_vertices: Iterable[str] = (),
    ) -> "ServiceGraph":
        """Build a graph from (source, target, weight) triples.

        Weights default to 1 when a triple is given as a pair. Raises
        DataError on self-loops, non-positive weights, or duplicate edges
        (after canonicalization for undirected graphs).
        """
        weight_map: dict[tuple[str, str], int] = {}
        vertex_set: set[str] = set(isolated_vertices)
        for edge in edges:
            if len(edge) == 2:
                u, v, w = edge[0], edge[1], 1
            else:
                u, v, w = edge
            if u == v:
                raise DataError(f"self-loop on {u!r} is not allowed")
            w = int(w)
            if w < 1:
                raise DataError(f"edge ({u!r}, {v!r}) has non-positive weight {w}")
            key = (u, v) if directed or u <= v else (v, u)
            if key in weight_map:
                raise DataError(f"duplicate edge ({u!r}, {v!r})")
            weight_map[key] = w
            vertex_set.add(u)
            vertex_set.add(v)
        vertices = tuple(sorted(vertex_set))
        index = {vid: i for i, vid in enumerate(vertices)}
        if weight_map:
            triples = sorted((index[u], index[v], w) for (u, v), w in weight_map.items())
            src, dst, wgt = zip(*triples)
        else:
            src, dst, wgt = (), (), ()
        return cls(directed, vertices, src, dst, wgt)

    # -- basic accessors ----------------------------------------------

    @property
    def N(self) -> int:
        return len(self.vertices)

    @property
    def M(self) -> int:
        return len(self.edge_src)

    @property
    def index(self) -> dict[str, int]:
        if self._index is None:
            self._index = {vid: i for i, vid in enumerate(self.vertices)}
        return self._index

    def edge_keys(self) -> set[tuple[int, int]]:
        if self._edge_key_set is None:
            self._edge_key_set = set(zip(self.edge_src.tolist(), self.edge_dst.tolist()))
        return self._edge_key_set

    def has_edge_ids(self, u: str, v: str) -> bool:
        iu, iv = self.index.get(u), self.index.get(v)
        if iu is None or iv is None:
            return False
        if not self.directed and iu > iv:
            iu, iv = iv, iu
        return (iu, iv) in self.edge_keys()

    def edge_weight_map(self) -> dict[tuple[str, str], int]:
        """Edges keyed by id pair (canonical order for undirected graphs)."""
        return {
            (self.vertices[s], self.vertices[d]): int(w)
            for s, d, w in zip(self.edge_src, self.edge_dst, self.edge_weight)
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, ServiceGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self.vertices == other.vertices
            and np.array_equal(self.edge_src, other.edge_src)
            and np.array_equal(self.edge_dst, other.edge_dst)
            and np.array_equal(self.edge_weight, other.edge_weight)
        )

    def __hash__(self):
        return hash((self.directed, self.vertices, self.edge_src.tobytes(), self.edge_dst.tobytes()))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"ServiceGraph({kind}, N={self.N}, M={self.M})"

    # -- adjacency (CSR) ----------------------------------------------

    def _build_csr(self, src: np.ndarray, dst: np.ndarray, wgt: np.ndarray):
        order = np.lexsort((dst, src))
        indices = dst[order]
        weights = wgt[order]
        counts = np.bincount(src, minlength=self.N)
        indptr = np.zeros(self.N + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, indices, weights

    def successors_csr(self):
        """(indptr, indices, weights) following edge direction; for
        undirected graphs this is the symmetric adjacency."""
        if self._succ is None:
            if self.directed:
                self._succ = self._build_csr(self.edge_src, self.edge_dst, self.edge_weight)
            else:
                src = np.concatenate([self.edge_src, self.edge_dst])
                dst = np.concatenate([self.edge_dst, self.edge_src])
                wgt = np.concatenate([self.edge_weight, self.edge_weight])
                self._succ = self._build_csr(src, dst, wgt)
        return self._succ

    def adjacency(self) -> csr_array:
        """0/1 sparse adjacency matrix of successors_csr (symmetric for
        undirected graphs)."""
        indptr, indices, _ = self.successors_csr()
        return csr_array((np.ones(indices.size), indices, indptr), shape=(self.N, self.N))

    def predecessors_csr(self):
        if self._pred is None:
            if self.directed:
                self._pred = self._build_csr(self.edge_dst, self.edge_src, self.edge_weight)
            else:
                self._pred = self.successors_csr()
        return self._pred

    def out_neighbors(self, i: int) -> np.ndarray:
        indptr, indices, _ = self.successors_csr()
        return indices[indptr[i] : indptr[i + 1]]

    def in_neighbors(self, i: int) -> np.ndarray:
        indptr, indices, _ = self.predecessors_csr()
        return indices[indptr[i] : indptr[i + 1]]

    # -- degrees --------------------------------------------------------

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_src, minlength=self.N)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_dst, minlength=self.N)

    def degrees(self) -> np.ndarray:
        """Total degree: in+out for directed graphs, plain degree otherwise."""
        return self.out_degrees() + self.in_degrees()

    # -- subgraphs -------------------------------------------------------

    def subgraph(self, vertex_ids: Iterable[str]) -> "ServiceGraph":
        """Induced subgraph on the given vertices (kept even if isolated)."""
        keep = set(vertex_ids)
        unknown = keep.difference(self.vertices)
        if unknown:
            raise UsageError(f"unknown vertices: {sorted(unknown)[:3]}...")
        keep_idx = np.zeros(self.N, dtype=bool)
        for vid in keep:
            keep_idx[self.index[vid]] = True
        mask = keep_idx[self.edge_src] & keep_idx[self.edge_dst]
        edges = (
            (self.vertices[s], self.vertices[d], int(w))
            for s, d, w in zip(self.edge_src[mask], self.edge_dst[mask], self.edge_weight[mask])
        )
        return ServiceGraph.from_edges(self.directed, edges, isolated_vertices=keep)


# -- builders -----------------------------------------------------------


def build_dsg(pages: Sequence[PageRecord], snapshot_id: str | None = None) -> ServiceGraph:
    """Build the directed service graph of one snapshot.

    A vertex is created for every crawled service and for every onion-id
    link target (even if never crawled). An edge u->v aggregates all
    hyperlinks from pages of u to v; intra-service links and non-onion
    targets are dropped.
    """
    seen_snapshots = {p.snapshot_id for p in pages}
    if snapshot_id is None:
        if len(seen_snapshots) > 1:
            raise DataError(f"records span {len(seen_snapshots)} snapshots; pass snapshot_id")
        snapshot_pages = list(pages)
    else:
        if seen_snapshots - {snapshot_id}:
            raise DataError(
                f"records for snapshot(s) {sorted(seen_snapshots - {snapshot_id})} "
                f"found while building {snapshot_id!r}"
            )
        snapshot_pages = [p for p in pages if p.snapshot_id == snapshot_id]

    crawled = {p.service_id for p in snapshot_pages}
    weights: dict[tuple[str, str], int] = {}
    for page in snapshot_pages:
        src = page.service_id
        for target in page.out_links:
            if target == src or not is_onion_id(target):
                continue
            key = (src, target)
            weights[key] = weights.get(key, 0) + 1
    edges = ((u, v, w) for (u, v), w in weights.items())
    return ServiceGraph.from_edges(True, edges, isolated_vertices=crawled)


def to_usg(dsg: ServiceGraph) -> ServiceGraph:
    """Reduce a directed graph to its mutual-link undirected graph.

    An undirected edge {u, v} exists iff both u->v and v->u do; its weight
    is the minimum of the two directed weights. The result is edge-induced:
    vertices without a mutual edge are dropped.
    """
    if not dsg.directed:
        raise UsageError("to_usg expects a directed graph")
    keys = dsg.edge_keys()
    wmap = {(int(s), int(d)): int(w) for s, d, w in zip(dsg.edge_src, dsg.edge_dst, dsg.edge_weight)}
    edges = []
    for (s, d) in keys:
        if s < d and (d, s) in keys:
            edges.append((dsg.vertices[s], dsg.vertices[d], min(wmap[(s, d)], wmap[(d, s)])))
    return ServiceGraph.from_edges(False, edges)


def _check_same_directedness(graphs: Sequence[ServiceGraph]) -> bool:
    kinds = {g.directed for g in graphs}
    if len(kinds) > 1:
        raise UsageError("cannot combine directed and undirected graphs")
    return kinds.pop()


def intersect(graphs: Sequence[ServiceGraph]) -> ServiceGraph:
    """Edge-induced intersection: edges present in every input (matched on
    endpoints, not weight), each with the minimum available weight."""
    graphs = list(graphs)
    if len(graphs) < 2:
        raise UsageError("intersection needs at least 2 graphs")
    directed = _check_same_directedness(graphs)
    maps = [g.edge_weight_map() for g in graphs]
    common = set(maps[0])
    for m in maps[1:]:
        common &= set(m)
    edges = ((u, v, min(m[(u, v)] for m in maps)) for (u, v) in common)
    return ServiceGraph.from_edges(directed, edges)


def union(graphs: Sequence[ServiceGraph]) -> ServiceGraph:
    """Edge-induced union: edges present in at least one input, each with
    the maximum weight among the inputs that contain it."""
    graphs = list(graphs)
    if not graphs:
        raise UsageError("union needs at least 1 graph")
    directed = _check_same_directedness(graphs)
    merged: dict[tuple[str, str], int] = {}
    for g in graphs:
        for key, w in g.edge_weight_map().items():
            if key not in merged or w > merged[key]:
                merged[key] = w
    edges = ((u, v, w) for (u, v), w in merged.items())
    return ServiceGraph.from_edges(directed, edges)


def weakly_connected_components(g: ServiceGraph) -> list[np.ndarray]:
    """Vertex-index arrays of the weakly connected components, each sorted,
    ordered by (size desc, smallest vertex index asc)."""
    _, label = csgraph.connected_components(g.adjacency(), directed=True, connection="weak")
    # a stable sort keeps each component's members in ascending index order
    order = np.argsort(label, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(label))])
    components = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    components.sort(key=lambda comp: (-comp.size, int(comp[0])))
    return components


def giant_wcc(g: ServiceGraph) -> ServiceGraph:
    """Subgraph induced by the largest weakly connected component.

    Ties between equally sized components go to the one containing the
    lexicographically smallest vertex id.
    """
    if g.N == 0:
        raise DataError("empty graph has no giant component")
    components = weakly_connected_components(g)
    giant = components[0]
    return g.subgraph(g.vertices[i] for i in giant)


# -- file format ----------------------------------------------------------
#
# Header line "# directed" or "# undirected", optional "# vertex <id>"
# lines for isolated vertices, then one edge per line:
# "source<TAB>target<TAB>weight". Round-trips losslessly.


def write_graph_file(g: ServiceGraph, path) -> None:
    isolated = set(range(g.N))
    isolated -= set(g.edge_src.tolist())
    isolated -= set(g.edge_dst.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# directed\n" if g.directed else "# undirected\n")
        for i in sorted(isolated):
            fh.write(f"# vertex {g.vertices[i]}\n")
        for s, d, w in zip(g.edge_src, g.edge_dst, g.edge_weight):
            fh.write(f"{g.vertices[s]}\t{g.vertices[d]}\t{int(w)}\n")


def read_graph_file(path) -> ServiceGraph:
    directed: bool | None = None
    isolated: list[str] = []
    edges: list[tuple[str, str, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body in ("directed", "undirected"):
                    if directed is not None:
                        raise DataError(f"{path}: duplicate header at line {line_no}")
                    directed = body == "directed"
                elif body.startswith("vertex "):
                    isolated.append(body[len("vertex ") :].strip())
                else:
                    raise DataError(f"{path}: unrecognized comment at line {line_no}: {line!r}")
                continue
            if directed is None:
                raise DataError(f"{path}: missing '# directed|undirected' header")
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}: expected 'src\\ttarget\\tweight' at line {line_no}")
            try:
                w = int(parts[2])
            except ValueError as exc:
                raise DataError(f"{path}: bad weight at line {line_no}: {parts[2]!r}") from exc
            edges.append((parts[0], parts[1], w))
    if directed is None:
        raise DataError(f"{path}: missing '# directed|undirected' header")
    return ServiceGraph.from_edges(directed, edges, isolated_vertices=isolated)
