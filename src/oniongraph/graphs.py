"""Service graphs: construction from page records and set-algebra transforms.

A ServiceGraph is a simple weighted graph over service ids. Parallel
hyperlinks are flattened onto one edge whose integer weight is the link
multiplicity; self-loops never exist. Undirected edges are stored with
canonically ordered endpoints (smaller vertex index first), everything is
sorted, so equal graphs have identical representations.
"""

from __future__ import annotations

from itertools import compress
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
    )

    def __init__(self, directed: bool, vertices, edge_src, edge_dst, edge_weight):
        self.directed = bool(directed)
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edge_src = np.asarray(edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self.edge_weight = np.asarray(edge_weight, dtype=np.int64)
        self._index: dict[str, int] | None = None
        self._succ = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_arrays(
        cls, directed: bool, vertices: tuple[str, ...], src, dst, weight
    ) -> "ServiceGraph":
        """Build a graph from a sorted, duplicate-free vertex tuple and
        parallel arrays of edge source index, target index (positions in
        that tuple) and weight.

        Raises DataError on self-loops, non-positive weights, or duplicate
        edges (after canonicalization for undirected graphs).
        """
        src, dst, weight = (np.asarray(a, dtype=np.int64) for a in (src, dst, weight))
        loops = np.flatnonzero(src == dst)
        if loops.size:
            raise DataError(f"self-loop on {vertices[src[loops[0]]]!r} is not allowed")
        bad = np.flatnonzero(weight < 1)
        if bad.size:
            u, v, w = vertices[src[bad[0]]], vertices[dst[bad[0]]], weight[bad[0]]
            raise DataError(f"edge ({u!r}, {v!r}) has non-positive weight {w}")
        lo, hi = (src, dst) if directed else (np.minimum(src, dst), np.maximum(src, dst))
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        dup = np.flatnonzero((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1]))
        if dup.size:
            i = order[dup[0] + 1]
            raise DataError(f"duplicate edge ({vertices[src[i]]!r}, {vertices[dst[i]]!r})")
        return cls(directed, vertices, lo, hi, weight[order])

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
        sources, targets, weights = [], [], []
        for edge in edges:
            if len(edge) == 2:
                u, v, w = edge[0], edge[1], 1
            else:
                u, v, w = edge
            sources.append(u)
            targets.append(v)
            weights.append(int(w))
        return _from_ids(directed, sources, targets, weights, isolated_vertices)

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

    def successors_csr(self):
        """(indptr, indices, weights) following edge direction; for
        undirected graphs this is the symmetric adjacency."""
        if self._succ is None:
            src, dst, wgt = self.edge_src, self.edge_dst, self.edge_weight
            if not self.directed:
                src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
                wgt = np.concatenate([wgt, wgt])
            order = np.lexsort((dst, src))
            indptr = np.zeros(self.N + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.N), out=indptr[1:])
            self._succ = indptr, dst[order], wgt[order]
        return self._succ

    def adjacency(self) -> csr_array:
        """0/1 sparse adjacency matrix of successors_csr (symmetric for
        undirected graphs)."""
        indptr, indices, _ = self.successors_csr()
        return csr_array((np.ones(indices.size), indices, indptr), shape=(self.N, self.N))

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
        mask = np.zeros(self.N, dtype=bool)
        mask[[self.index[vid] for vid in keep]] = True
        return _induced(
            self.directed, self.vertices, mask, self.edge_src, self.edge_dst, self.edge_weight
        )


def _lookup(vertices: tuple[str, ...], *id_lists) -> list[np.ndarray]:
    """Positions in `vertices` of the ids of each list, as index arrays."""
    index = {vid: i for i, vid in enumerate(vertices)}
    return [np.fromiter(map(index.__getitem__, ids), np.int64, len(ids)) for ids in id_lists]


def _from_ids(directed, sources, targets, weights, isolated=()) -> ServiceGraph:
    """Graph from parallel lists of source ids, target ids and weights."""
    vertices = tuple(sorted(set(sources).union(targets, isolated)))
    src, dst = _lookup(vertices, sources, targets)
    return ServiceGraph.from_arrays(directed, vertices, src, dst, weights)


def _induced(directed, vertices, mask, src, dst, weight) -> ServiceGraph:
    """Graph on the vertices where `mask` holds, with the edges whose
    endpoints both hold; vertex indices are renumbered in order."""
    renumber = np.cumsum(mask) - 1
    kept = mask[src] & mask[dst]
    return ServiceGraph.from_arrays(
        directed,
        tuple(compress(vertices, mask.tolist())),
        renumber[src[kept]],
        renumber[dst[kept]],
        weight[kept],
    )


def _edge_induced(directed, vertices, src, dst, weight) -> ServiceGraph:
    """Graph on the edges given, dropping every vertex none of them touches."""
    mask = np.zeros(len(vertices), dtype=bool)
    mask[src] = True
    mask[dst] = True
    return _induced(directed, vertices, mask, src, dst, weight)


# -- builders -----------------------------------------------------------


def build_dsg(pages: Sequence[PageRecord], snapshot_id: str | None = None) -> ServiceGraph:
    """Build the directed service graph of one snapshot.

    A vertex is created for every crawled service and for every onion-id
    link target (even if never crawled). An edge u->v aggregates all
    hyperlinks from pages of u to v; intra-service links and non-onion
    targets are dropped.
    """
    seen_snapshots = {p.snapshot_id for p in pages}
    if snapshot_id is None and len(seen_snapshots) > 1:
        raise DataError(f"records span {len(seen_snapshots)} snapshots; pass snapshot_id")
    if snapshot_id is not None and seen_snapshots - {snapshot_id}:
        raise DataError(
            f"records for snapshot(s) {sorted(seen_snapshots - {snapshot_id})} "
            f"found while building {snapshot_id!r}"
        )

    crawled = {p.service_id for p in pages}
    linked = {t for p in pages for t in p.out_links}
    onion = {t for t in linked if is_onion_id(t)}
    sources: list[str] = []
    targets: list[str] = []
    for page in pages:
        kept = [t for t in page.out_links if t in onion and t != page.service_id]
        sources.extend([page.service_id] * len(kept))
        targets.extend(kept)
    vertices = tuple(sorted(crawled.union(targets)))
    n = len(vertices)
    src, dst = _lookup(vertices, sources, targets)
    # one edge per distinct (source, target) key, weighted by its link count
    keys, counts = np.unique(src * n + dst, return_counts=True)
    src, dst = np.divmod(keys, max(n, 1))
    return ServiceGraph.from_arrays(True, vertices, src, dst, counts)


def to_usg(dsg: ServiceGraph) -> ServiceGraph:
    """Reduce a directed graph to its mutual-link undirected graph.

    An undirected edge {u, v} exists iff both u->v and v->u do; its weight
    is the minimum of the two directed weights. The result is edge-induced:
    vertices without a mutual edge are dropped.
    """
    if not dsg.directed:
        raise UsageError("to_usg expects a directed graph")
    src, dst, weight = dsg.edge_src, dsg.edge_dst, dsg.edge_weight
    # edges are sorted by (src, dst), so their keys are sorted too; the
    # sentinel gives a reverse key past the last edge something to miss
    keys = np.append(src * dsg.N + dst, -1)
    reverse_keys = dst * dsg.N + src
    rev = np.searchsorted(keys[:-1], reverse_keys)
    mutual = (src < dst) & (keys[rev] == reverse_keys)
    rev = rev[mutual]
    return _edge_induced(
        False, dsg.vertices, src[mutual], dst[mutual], np.minimum(weight[mutual], weight[rev])
    )


def _check_same_directedness(graphs: Sequence[ServiceGraph]) -> bool:
    kinds = {g.directed for g in graphs}
    if len(kinds) > 1:
        raise UsageError("cannot combine directed and undirected graphs")
    return kinds.pop()


def _combine(graphs: list[ServiceGraph], reduce: np.ufunc, min_count: int) -> ServiceGraph:
    """Edge-induced graph of the edges found in at least `min_count` inputs
    (matched on endpoint ids), each weighted by `reduce` over its inputs."""
    directed = _check_same_directedness(graphs)
    vertices = tuple(sorted(set().union(*(g.vertices for g in graphs))))
    n = len(vertices)
    # both vocabularies are sorted, so the renumbering keeps canonical edge order
    joints = _lookup(vertices, *(g.vertices for g in graphs))
    keys = np.concatenate([j[g.edge_src] * n + j[g.edge_dst] for j, g in zip(joints, graphs)])
    weights = np.concatenate([g.edge_weight for g in graphs])
    order = np.argsort(keys, kind="stable")
    keys, weights = keys[order], weights[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(starts, append=keys.size)
    kept = counts >= min_count
    weights = reduce.reduceat(weights, starts)[kept] if starts.size else weights
    src, dst = np.divmod(keys[starts][kept], max(n, 1))
    return _edge_induced(directed, vertices, src, dst, weights)


def intersect(graphs: Sequence[ServiceGraph]) -> ServiceGraph:
    """Edge-induced intersection: edges present in every input (matched on
    endpoints, not weight), each with the minimum available weight."""
    graphs = list(graphs)
    if len(graphs) < 2:
        raise UsageError("intersection needs at least 2 graphs")
    return _combine(graphs, np.minimum, len(graphs))


def union(graphs: Sequence[ServiceGraph]) -> ServiceGraph:
    """Edge-induced union: edges present in at least one input, each with
    the maximum weight among the inputs that contain it."""
    graphs = list(graphs)
    if not graphs:
        raise UsageError("union needs at least 1 graph")
    return _combine(graphs, np.maximum, 1)


def largest_component(label: np.ndarray) -> np.ndarray:
    """Mask of the largest component of a labelling (one component label per
    vertex); ties go to the component holding the smallest vertex index."""
    return label == label[np.argmax(np.bincount(label)[label])]


def giant_wcc(g: ServiceGraph) -> ServiceGraph:
    """Subgraph induced by the largest weakly connected component.

    Ties between equally sized components go to the one containing the
    lexicographically smallest vertex id.
    """
    if g.N == 0:
        raise DataError("empty graph has no giant component")
    _, label = csgraph.connected_components(g.adjacency(), directed=True, connection="weak")
    return _induced(g.directed, g.vertices, largest_component(label), g.edge_src, g.edge_dst,
                    g.edge_weight)


# -- file format ----------------------------------------------------------
#
# Header line "# directed" or "# undirected", optional "# vertex <id>"
# lines for isolated vertices, then one edge per line:
# "source<TAB>target<TAB>weight". Round-trips losslessly for every graph
# write_graph_file accepts.


def write_graph_file(g: ServiceGraph, path) -> None:
    """Write `g` as a graph TSV. Raises DataError, before the file is
    opened, on the first vertex id the format cannot carry: one holding a
    tab, CR or LF, an edge source starting with "#", or an isolated id that
    is empty or has surrounding whitespace."""
    isolated = np.ones(g.N, dtype=bool)
    isolated[g.edge_src] = False
    isolated[g.edge_dst] = False
    is_source = np.zeros(g.N, dtype=bool)
    is_source[g.edge_src] = True
    for vid, lone, source in zip(g.vertices, isolated.tolist(), is_source.tolist()):
        if (
            "\t" in vid
            or "\n" in vid
            or "\r" in vid
            or (source and vid.startswith("#"))
            or (lone and (not vid or vid != vid.strip()))
        ):
            raise DataError(f"vertex id {vid!r} cannot be stored in a graph file")
    names = g.vertices
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# directed\n" if g.directed else "# undirected\n")
        fh.writelines(f"# vertex {names[i]}\n" for i in np.flatnonzero(isolated).tolist())
        fh.writelines(
            f"{names[s]}\t{names[d]}\t{w}\n"
            for s, d, w in zip(g.edge_src.tolist(), g.edge_dst.tolist(), g.edge_weight.tolist())
        )


def read_graph_file(path) -> ServiceGraph:
    directed: bool | None = None
    isolated: list[str] = []
    sources: list[str] = []
    targets: list[str] = []
    weights: list[int] = []
    ids: dict[str, str] = {}  # one str per distinct id, as in records.iter_pages
    same = ids.setdefault
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
                weights.append(int(parts[2]))
            except ValueError as exc:
                raise DataError(f"{path}: bad weight at line {line_no}: {parts[2]!r}") from exc
            sources.append(same(parts[0], parts[0]))
            targets.append(same(parts[1], parts[1]))
    if directed is None:
        raise DataError(f"{path}: missing '# directed|undirected' header")
    return _from_ids(directed, sources, targets, weights, isolated)
