"""Page-record ingestion and per-service snapshot summaries.

Input is a normalized JSON-lines format, one crawled page per line:

    {"snapshot": "SNP1", "service": "abc.onion", "path": "/",
     "depth": 0, "chars": 1200, "links": ["x.onion", "x.onion"]}

Unknown fields are ignored. Duplicate entries in "links" are preserved:
they carry the hyperlink multiplicity that later becomes edge weight.

There is one parser, the generator `iter_pages` (`iter_pages_file` over a
file); `parse_pages` and `parse_pages_file` are lists of it. Within one
parse an id seen before is the earlier `str` object, so records cost
memory per distinct service id rather than per link, and
`summarize_services` folds pages as they arrive, so summaries of a stream
of files (`oniongraph ingest`) never hold a list of records.

Each line goes straight to the scanner `json.loads` runs
(`JSONDecoder().scan_once`), which skips `json.loads`'s own checks. A line
the scanner rejects, or does not consume whole, is parsed again by
`json.loads`, so the error message is the one `json.loads` gives.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import DataError, ParseError, open_input

# LCRatio band for directory-like services: one link every 200 chars up to
# one link every 20 chars (closed bounds).
BAND_LO = 1.0 / 200.0
BAND_HI = 1.0 / 20.0

SUMMARY_CSV_HEADER = ["service", "snapshot", "tree_height", "chars", "links", "lcratio"]


@dataclass(frozen=True)
class PageRecord:
    """One crawled page of a hidden service in one snapshot."""

    snapshot_id: str
    service_id: str
    page_path: str
    depth: int
    char_count: int
    out_links: tuple[str, ...]


@dataclass(frozen=True)
class ServiceSummary:
    """Per-(snapshot, service) aggregate of the service's crawled pages.

    tree_profile is the sorted multiset of (page_path, depth) pairs; two
    snapshots of a service are considered structurally identical when their
    profiles are equal.
    """

    service_id: str
    snapshot_id: str
    tree_height: int
    char_count: int
    link_count: int
    lcratio: float
    tree_profile: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class PersistenceReport:
    """Cross-snapshot service persistence statistics.

    membership_counts maps a sorted tuple of snapshot ids (the set of
    snapshots in which a service was crawled) to the number of services
    with exactly that membership pattern.
    """

    snapshots: tuple[str, ...]
    membership_counts: dict[tuple[str, ...], int]
    tree_persistent_count: int
    char_persistent_count: int
    band_fraction_per_snapshot: dict[str, float]

    @property
    def total_services(self) -> int:
        return sum(self.membership_counts.values())

    def to_dict(self) -> dict:
        return {
            "snapshots": list(self.snapshots),
            "membership_counts": {
                "+".join(pattern): count
                for pattern, count in sorted(self.membership_counts.items())
            },
            "tree_persistent_count": self.tree_persistent_count,
            "char_persistent_count": self.char_persistent_count,
            "band_fraction_per_snapshot": dict(sorted(self.band_fraction_per_snapshot.items())),
            "total_services": self.total_services,
        }


_REQUIRED_FIELDS = ("snapshot", "service", "path", "depth", "chars", "links")
_STR_ONLY = {str}
_scan = json.JSONDecoder().scan_once


def _field_error(name: str, why: str, line_no: int, source) -> ParseError:
    return ParseError(f"field '{name}' {why}", line_no, source)


def iter_pages(lines: Iterable[str], source=None) -> Iterator[PageRecord]:
    """Parse JSON-lines page records lazily, in input order.

    Blank lines are skipped. Raises ParseError (with the 1-based line
    number, and `source` when given) for malformed JSON, missing fields, or
    out-of-domain values. Within one parse, every snapshot id, service id
    and link target equal to one seen before is the earlier `str` object,
    so the records cost memory per distinct id, not per link.
    """
    ids: dict[str, str] = {}  # lives as long as this parse; sys.intern would be immortal
    same = ids.setdefault
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = _scan(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(line):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line_no, source) from exc
        if type(obj) is not dict:
            raise ParseError("record is not a JSON object", line_no, source)
        try:
            snapshot = obj["snapshot"]
            service = obj["service"]
            path = obj["path"]
            depth = obj["depth"]
            chars = obj["chars"]
            links = obj["links"]
        except KeyError:
            name = next(name for name in _REQUIRED_FIELDS if name not in obj)
            raise _field_error(name, "is missing", line_no, source) from None
        # decoded JSON holds exactly dict, list, str, int, float, bool and
        # None, so `type(x) is int` is an integer and never a bool
        if type(snapshot) is not str or not snapshot:
            raise _field_error("snapshot", "must be a non-empty string", line_no, source)
        if type(service) is not str or not service:
            raise _field_error("service", "must be a non-empty string", line_no, source)
        # the service ids a graph file can carry as a vertex
        if (service[0] == "#" or service != service.strip()
                or "\t" in service or "\r" in service or "\n" in service):
            raise _field_error("service", "must not start with '#', hold a tab, CR or LF, "
                               "or start or end with whitespace", line_no, source)
        if type(path) is not str:
            raise _field_error("path", "must be a string", line_no, source)
        if type(depth) is not int or depth < 0:
            raise _field_error("depth", "must be a non-negative integer", line_no, source)
        if type(chars) is not int or chars < 0:
            raise _field_error("chars", "must be a non-negative integer", line_no, source)
        if type(links) is not list or not set(map(type, links)) <= _STR_ONLY:
            raise _field_error("links", "must be an array of strings", line_no, source)
        yield PageRecord(
            snapshot_id=same(snapshot, snapshot),
            service_id=same(service, service),
            page_path=path,
            depth=depth,
            char_count=chars,
            out_links=tuple(map(same, links, links)),
        )


def iter_pages_file(path) -> Iterator[PageRecord]:
    """`iter_pages` over a file; parse and decode errors name the file."""
    with open_input(path) as fh:
        yield from iter_pages(fh, source=path)


def parse_pages(lines: Iterable[str]) -> list[PageRecord]:
    """`iter_pages` as a list."""
    return list(iter_pages(lines))


def parse_pages_file(path) -> list[PageRecord]:
    """`iter_pages_file` as a list."""
    return list(iter_pages_file(path))


def summarize_services(pages: Iterable[PageRecord]) -> dict[tuple[str, str], ServiceSummary]:
    """Aggregate pages into one ServiceSummary per (snapshot, service) pair,
    folding them as they arrive, so `pages` may be a one-shot generator.

    tree_height is the maximum page depth, char/link counts are sums over
    pages (duplicate links counted), and lcratio is links/chars with the
    zero-chars case pinned to 0 so the metric stays total. Keys are in
    first-appearance order.
    """
    folds: dict[tuple[str, str], list] = {}  # key -> [chars, links, (path, depth) pairs]
    for page in pages:
        key = (page.snapshot_id, page.service_id)
        fold = folds.get(key)
        if fold is None:
            fold = folds[key] = [0, 0, []]
        fold[0] += page.char_count
        fold[1] += len(page.out_links)
        fold[2].append((page.page_path, page.depth))
    summaries: dict[tuple[str, str], ServiceSummary] = {}
    for (snapshot_id, service_id), (chars, links, pairs) in folds.items():
        summaries[(snapshot_id, service_id)] = ServiceSummary(
            service_id=service_id,
            snapshot_id=snapshot_id,
            tree_height=max(depth for _, depth in pairs),
            char_count=chars,
            link_count=links,
            lcratio=(links / chars) if chars > 0 else 0.0,
            tree_profile=tuple(sorted(pairs)),
        )
    return summaries


def persistence_report(summaries: Mapping[tuple[str, str], ServiceSummary]) -> PersistenceReport:
    """Compute membership patterns, structural/char persistence, and the
    LCRatio band fraction per snapshot.

    Requires summaries spanning at least two snapshots. A service is
    tree-persistent when its tree_profile is identical in every snapshot
    (which implies membership in all of them), char-persistent when its
    char_count is.
    """
    snapshots = tuple(sorted({snap for snap, _ in summaries}))
    if len(snapshots) < 2:
        raise DataError("insufficient snapshots: persistence needs at least 2")

    by_service: dict[str, dict[str, ServiceSummary]] = {}
    for (snap, svc), summary in summaries.items():
        by_service.setdefault(svc, {})[snap] = summary

    membership_counts = dict(Counter(tuple(sorted(p)) for p in by_service.values()))
    in_all = [p.values() for p in by_service.values() if len(p) == len(snapshots)]
    tree_persistent = sum(len({s.tree_profile for s in p}) == 1 for p in in_all)
    char_persistent = sum(len({s.char_count for s in p}) == 1 for p in in_all)

    band_fraction: dict[str, float] = {}
    for snap in snapshots:
        in_snap = [s for (sn, _), s in summaries.items() if sn == snap]
        hits = sum(1 for s in in_snap if BAND_LO <= s.lcratio <= BAND_HI)
        band_fraction[snap] = hits / len(in_snap)

    return PersistenceReport(
        snapshots=snapshots,
        membership_counts=membership_counts,
        tree_persistent_count=tree_persistent,
        char_persistent_count=char_persistent,
        band_fraction_per_snapshot=band_fraction,
    )


def write_summary_csv(summaries: Mapping[tuple[str, str], ServiceSummary], fh) -> None:
    """Write the summary table as CSV (service,snapshot,tree_height,chars,links,lcratio)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SUMMARY_CSV_HEADER)
    for (snap, svc) in sorted(summaries, key=lambda k: (k[1], k[0])):
        s = summaries[(snap, svc)]
        writer.writerow(
            [s.service_id, s.snapshot_id, s.tree_height, s.char_count, s.link_count, repr(s.lcratio)]
        )
