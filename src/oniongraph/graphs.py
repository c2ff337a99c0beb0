"""Service graphs: construction from page records and set-algebra transforms.

A ServiceGraph is a simple weighted graph over service ids. Parallel
hyperlinks are flattened onto one edge whose integer weight is the link
multiplicity; self-loops never exist. Undirected edges are stored with
canonically ordered endpoints (smaller vertex index first), everything is
sorted, so equal graphs have identical representations.
"""

from __future__ import annotations

import functools
from itertools import compress
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_array

from .errors import DataError, UsageError, open_input
from .records import PageRecord


def is_onion_id(service_id: str) -> bool:
    """True for ids inside the crawled onion namespace; everything else
    (surface-web targets, and ids holding a tab, CR or LF, which no graph
    file can carry) is ignored when building graphs."""
    return (service_id.endswith(".onion") and len(service_id) > len(".onion")
            and "\t" not in service_id and "\r" not in service_id and "\n" not in service_id)


class ServiceGraph:
    """Immutable weighted simple graph with deterministic vertex order.

    Vertices are service-id strings kept sorted; edges live in three
    parallel arrays (src index, dst index, weight) sorted by (src, dst).
    The graph is these five fields and holds no lazily built state: the
    vertex index and the sparse adjacency are made afresh on each call.
    """

    __slots__ = ("directed", "vertices", "edge_src", "edge_dst", "edge_weight")

    def __init__(self, directed: bool, vertices, edge_src, edge_dst, edge_weight):
        self.directed = bool(directed)
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edge_src = np.asarray(edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self.edge_weight = np.asarray(edge_weight, dtype=np.int64)

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
        """Vertex id -> position in `vertices`, built on each call."""
        return {vid: i for i, vid in enumerate(self.vertices)}

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

    def adjacency(self, weighted: bool = False) -> csr_array:
        """A fresh float sparse matrix with rows sorted by column, following
        edge direction (symmetric for undirected graphs): the edge weights
        when `weighted`, else 1 for every edge."""
        data = self.edge_weight.astype(np.float64) if weighted else np.ones(self.M)
        a = _weight_matrix(self.N, self.edge_src, self.edge_dst, data)
        # canonical undirected edges lie above the diagonal, so none overlap
        return a if self.directed else a + a.T

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
        mask = np.fromiter((vid in keep for vid in self.vertices), bool, self.N)
        return _induced(
            self.directed, self.vertices, mask, self.edge_src, self.edge_dst, self.edge_weight
        )


def _weight_matrix(n: int, src, dst, weight) -> csr_array:
    """n x n sparse matrix holding weight[i] at (src[i], dst[i])."""
    return csr_array((weight, (src, dst)), shape=(n, n))


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
    w = _weight_matrix(dsg.N, dsg.edge_src, dsg.edge_dst, dsg.edge_weight)
    both = w.minimum(w.T).tocoo()  # 0, so not stored, where either way is missing
    upper = both.row < both.col  # each pair once, smaller index first
    return _edge_induced(False, dsg.vertices, both.row[upper], both.col[upper], both.data[upper])


def _combine(graphs: list[ServiceGraph], reduce) -> ServiceGraph:
    """Edge-induced graph of `reduce` (csr_array.minimum or .maximum) over
    the inputs' weight matrices on their joint vertices (edges matched on
    endpoint ids); a minimum is 0, so no edge, unless every input has it."""
    if len({g.directed for g in graphs}) > 1:
        raise UsageError("cannot combine directed and undirected graphs")
    vertices = tuple(sorted(set().union(*(g.vertices for g in graphs))))
    # both vocabularies are sorted, so the renumbering keeps canonical edge order
    joints = _lookup(vertices, *(g.vertices for g in graphs))
    combined = functools.reduce(reduce, (
        _weight_matrix(len(vertices), j[g.edge_src], j[g.edge_dst], g.edge_weight)
        for j, g in zip(joints, graphs)
    )).tocoo()
    return _edge_induced(graphs[0].directed, vertices, combined.row, combined.col, combined.data)


def intersect(graphs: Sequence[ServiceGraph]) -> ServiceGraph:
    """Edge-induced intersection: edges present in every input (matched on
    endpoints, not weight), each with the minimum available weight."""
    graphs = list(graphs)
    if len(graphs) < 2:
        raise UsageError("intersection needs at least 2 graphs")
    return _combine(graphs, csr_array.minimum)


def union(graphs: Sequence[ServiceGraph]) -> ServiceGraph:
    """Edge-induced union: edges present in at least one input, each with
    the maximum weight among the inputs that contain it."""
    graphs = list(graphs)
    if not graphs:
        raise UsageError("union needs at least 1 graph")
    return _combine(graphs, csr_array.maximum)


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
    with open_input(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            parts = raw.split("\t")
            # the one edge-line parse; int() ignores whitespace around the weight
            if len(parts) == 3 and directed is not None and raw[0] != "#":
                try:
                    weights.append(int(parts[2]))
                except ValueError:
                    pass  # a blank line such as "\t\t", or a bad weight: see below
                else:
                    sources.append(same(parts[0], parts[0]))
                    targets.append(same(parts[1], parts[1]))
                    continue
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
            if len(parts) != 3:
                raise DataError(f"{path}: expected 'src\\ttarget\\tweight' at line {line_no}")
            weight = parts[2].rstrip("\n")  # the edge branch above rejected it
            raise DataError(f"{path}: bad weight at line {line_no}: {weight!r}")
    if directed is None:
        raise DataError(f"{path}: missing '# directed|undirected' header")
    try:
        return _from_ids(directed, sources, targets, weights, isolated)
    except DataError as exc:  # a self-loop, a weight below 1 or a repeated edge
        raise DataError(f"{path}: {exc}") from None
