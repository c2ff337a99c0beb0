"""Bow-tie decomposition of directed graphs.

Vertices are split relative to the largest strongly connected component:
IN reaches it, OUT is reachable from it, TUBES lie on IN->OUT detours
around it, TENDRILS hang off exactly one side, DISCONNECTED is the rest.
Acyclic graphs get a singleton LSCC (the component holding the
lexicographically smallest vertex id among the largest); the report flags
that degenerate case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from .errors import DataError
from .graphs import ServiceGraph, largest_component

CLASSES = ("LSCC", "IN", "OUT", "TUBES", "TENDRILS", "DISCONNECTED")


@dataclass(frozen=True)
class BowTieAssignment:
    assignment: dict[str, str]
    counts: dict[str, int]
    fractions: dict[str, float]
    lscc_size: int
    degenerate_lscc: bool  # True when the LSCC is a single vertex

    def to_dict(self) -> dict:
        return {
            "counts": {c: self.counts[c] for c in CLASSES},
            "fractions": {c: self.fractions[c] for c in CLASSES},
            "lscc_size": self.lscc_size,
            "degenerate_lscc": self.degenerate_lscc,
            "n": sum(self.counts.values()),
        }


def _reachable_from(a, seeds: np.ndarray) -> np.ndarray:
    """Mask of the vertices reachable in `a` from any seed (seeds included)."""
    if not seeds.size:
        return np.zeros(a.shape[0], dtype=bool)
    return np.isfinite(csgraph.dijkstra(a, indices=seeds, min_only=True, unweighted=True))


def bowtie_decompose(g: ServiceGraph) -> BowTieAssignment:
    """Partition the vertices of a directed graph into the six bow-tie
    classes. Ties for the largest SCC break toward the component holding
    the smallest vertex id (vertices are stored sorted, so index order is
    id order)."""
    if not g.directed:
        raise DataError("bow-tie decomposition needs a directed graph")
    if g.N == 0:
        raise DataError("empty graph")
    n = g.N
    a = g.adjacency()
    reverse = a.T.tocsr()
    _, label = csgraph.connected_components(a, directed=True, connection="strong")
    in_lscc = largest_component(label)
    lscc = np.flatnonzero(in_lscc)
    from_lscc = _reachable_from(a, lscc)
    to_lscc = _reachable_from(reverse, lscc)

    out_mask = from_lscc & ~in_lscc
    in_mask = to_lscc & ~in_lscc
    rest = ~(in_lscc | out_mask | in_mask)

    from_in = _reachable_from(a, np.flatnonzero(in_mask))
    to_out = _reachable_from(reverse, np.flatnonzero(out_mask))

    # Index into CLASSES; the masks are disjoint and listed in CLASSES order.
    masks = [in_lscc, in_mask, out_mask, rest & from_in & to_out, rest & (from_in ^ to_out)]
    code = np.select(masks, list(range(len(masks))), default=CLASSES.index("DISCONNECTED"))

    assignment = {v: CLASSES[c] for v, c in zip(g.vertices, code.tolist())}
    counts = dict(zip(CLASSES, np.bincount(code, minlength=len(CLASSES)).tolist()))
    fractions = {c: counts[c] / n for c in CLASSES}
    return BowTieAssignment(
        assignment=assignment,
        counts=counts,
        fractions=fractions,
        lscc_size=int(lscc.size),
        degenerate_lscc=lscc.size == 1,
    )
