import json
import tracemalloc

import pytest

from oniongraph.errors import DataError, ParseError
from oniongraph.records import (
    PageRecord,
    iter_pages,
    iter_pages_file,
    parse_pages,
    parse_pages_file,
    persistence_report,
    summarize_services,
    write_summary_csv,
)
from oniongraph.synth import CorpusSpec, generate_corpus

from oracles import page_line_oracle


def make_line(**overrides):
    base = {
        "snapshot": "S1",
        "service": "abc.onion",
        "path": "/",
        "depth": 0,
        "chars": 100,
        "links": ["x.onion"],
    }
    base.update(overrides)
    return json.dumps(base)


def page(snapshot="S1", service="a.onion", path="/", depth=0, chars=100, links=()):
    return PageRecord(snapshot, service, path, depth, chars, tuple(links))


class TestParsePages:
    def test_identity_mapping(self):
        records = parse_pages([make_line()])
        assert records == [
            PageRecord("S1", "abc.onion", "/", 0, 100, ("x.onion",))
        ]

    def test_empty_stream(self):
        assert parse_pages([]) == []

    def test_negative_depth_names_field(self):
        with pytest.raises(ParseError, match="depth"):
            parse_pages([make_line(depth=-1)])

    def test_missing_field_named(self):
        record = json.loads(make_line())
        del record["chars"]
        with pytest.raises(ParseError, match="chars"):
            parse_pages([json.dumps(record)])

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_pages([make_line(), "{not json"])

    def test_unknown_fields_ignored(self):
        records = parse_pages([make_line(extra="whatever", ranking=3)])
        assert records[0].service_id == "abc.onion"

    def test_duplicate_links_preserved(self):
        records = parse_pages([make_line(links=["x.onion", "x.onion", "y.onion"])])
        assert records[0].out_links == ("x.onion", "x.onion", "y.onion")

    def test_blank_lines_skipped(self):
        assert len(parse_pages(["", make_line(), "  \n"])) == 1

    def test_bool_depth_rejected(self):
        with pytest.raises(ParseError, match="depth"):
            parse_pages([make_line(depth=True)])


def without(*names):
    record = json.loads(make_line())
    for name in names:
        del record[name]
    return json.dumps(record)


class TestParserMatchesJsonLoadsReference:
    @pytest.mark.parametrize("line", [
        "{not json",
        "{} x",
        make_line() + " x",
        make_line() + " {}",
        "\ufeff" + make_line(),
        "[1]",
        "1",
        '"record"',
        "null",
        '{"snapshot": "S1"',
        '{"snapshot": "S1",}',
        '{"snapshot": "S\\x"}',
        "{'snapshot': 'S1'}",
        make_line(depth=True),
        make_line(depth=1.0),
        make_line(depth=-1),
        make_line(chars=1.0),
        make_line(chars=False),
        make_line(chars="100"),
        make_line(links=[1]),
        make_line(links=[[]]),
        make_line(links=["x.onion", None]),
        make_line(links="x.onion"),
        make_line(links={"x.onion": 1}),
        make_line(snapshot=""),
        make_line(service=5),
        make_line(path=None),
        without("path", "snapshot"),
        without("links", "depth"),
        without(*("snapshot", "service", "path", "depth", "chars", "links")),
    ])
    def test_bad_line_message(self, line):
        expected = page_line_oracle(line)
        assert isinstance(expected, str)
        with pytest.raises(ParseError) as info:
            parse_pages([make_line(), line])
        assert str(info.value) == f"line 2: {expected}"

    @pytest.mark.parametrize("service", ["#a.onion", "a\t.onion", "a\r.onion", "a\n.onion",
                                         " a.onion", "a.onion ", "a.onion\u00a0"])
    def test_service_id_no_graph_file_can_carry(self, service):
        with pytest.raises(ParseError) as info:
            parse_pages([make_line(), make_line(service=service)])
        assert str(info.value) == ("line 2: field 'service' must not start with '#', hold a "
                                   "tab, CR or LF, or start or end with whitespace")

    @pytest.mark.parametrize("line", [
        make_line(),
        "  " + make_line() + "\t\n",
        make_line(links=[], path="", depth=10**30, chars=0),
        make_line(service="\u00e9.onion", links=["\ud83d\ude00.onion"], extra=[1, {"a": None}]),
        '{"links": ["a.onion"], "chars": 5, "depth": 1, "path": "/p", "service": "s.onion", '
        '"snapshot": "S2", "snapshot": "S3"}',
    ])
    def test_good_line_record(self, line):
        (record,) = parse_pages([line])
        assert (record.snapshot_id, record.service_id, record.page_path, record.depth,
                record.char_count, record.out_links) == page_line_oracle(line)


class TestSharedIds:
    def test_equal_ids_are_one_object_within_a_parse(self):
        lines = [
            make_line(service="a.onion", links=["b.onion", "c.onion", "b.onion"]),
            make_line(service="b.onion", links=["a.onion", "c.onion"]),
            make_line(service="a.onion", path="/x", links=["c.onion"]),
        ]
        a1, b, a2 = parse_pages(lines)
        assert a1.service_id is a2.service_id is b.out_links[0]
        assert a1.out_links[0] is a1.out_links[2] is b.service_id
        assert a1.out_links[1] is b.out_links[1] is a2.out_links[0]
        assert a1.snapshot_id is b.snapshot_id is a2.snapshot_id

    def test_one_object_per_distinct_link_target(self, tmp_path):
        paths = generate_corpus(CorpusSpec()).write(tmp_path)
        records = parse_pages_file(paths["SNP1"])
        targets = [t for r in records for t in r.out_links]
        assert len(targets) > 5 * len(set(targets))
        assert len({id(t) for t in targets}) == len(set(targets))

    def test_generator_is_lazy(self):
        pages = iter_pages([make_line(), "{not json"])
        assert next(pages).service_id == "abc.onion"
        with pytest.raises(ParseError, match="line 2"):
            next(pages)


class TestParseErrorsNameTheFile:
    def test_file_and_line_in_message(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text(make_line() + "\n" + make_line(depth=-1) + "\n")
        for parse in (parse_pages_file, lambda p: list(iter_pages_file(p))):
            with pytest.raises(ParseError) as info:
                parse(path)
            assert str(info.value) == (
                f"{path}: line 2: field 'depth' must be a non-negative integer")
            assert info.value.line_no == 2

    # 200 lines of about 100 bytes run past the text reader's first 8 KiB chunk
    @pytest.mark.parametrize("n_before, newline", [
        (0, "\n"), (200, "\n"), (200, "\r\n"), (200, "\r"),
    ])
    def test_undecodable_byte_names_file_and_line(self, tmp_path, n_before, newline):
        path = tmp_path / "b.jsonl"
        good = (make_line() + newline).encode()
        path.write_bytes(good * n_before + b"\xff" + good)
        for parse in (parse_pages_file, lambda p: list(iter_pages_file(p))):
            with pytest.raises(ParseError) as info:
                parse(path)
            assert str(info.value) == (
                f"{path}: line {n_before + 1}: byte ff is not UTF-8 (invalid start byte)")
            assert info.value.line_no == n_before + 1

    def test_lines_alone_carry_no_source(self):
        with pytest.raises(ParseError) as info:
            parse_pages([make_line(), "{not json"])
        assert str(info.value).startswith("line 2: invalid JSON (")


class TestSummarize:
    def test_aggregation_forced_by_definitions(self):
        pages = [
            page(path="/", depth=0, chars=100, links=["b.onion"]),
            page(path="/sub", depth=2, chars=50, links=["b.onion", "c.onion", "c.onion"]),
        ]
        summaries = summarize_services(pages)
        s = summaries[("S1", "a.onion")]
        assert s.tree_height == 2
        assert s.char_count == 150
        assert s.link_count == 4
        assert s.lcratio == pytest.approx(4 / 150)
        assert s.tree_profile == (("/", 0), ("/sub", 2))

    def test_zero_chars_gives_zero_ratio(self):
        summaries = summarize_services([page(chars=0, links=[])])
        assert summaries[("S1", "a.onion")].lcratio == 0.0

    def test_services_aggregate_independently(self):
        pages = [page(service="a.onion", chars=10), page(service="b.onion", chars=20)]
        summaries = summarize_services(pages)
        assert summaries[("S1", "a.onion")].char_count == 10
        assert summaries[("S1", "b.onion")].char_count == 20

    def test_link_count_counts_duplicate_occurrences(self):
        pages = [page(links=["b.onion", "b.onion"])]
        assert summarize_services(pages)[("S1", "a.onion")].link_count == 2


class TestSummarizeStream:
    """A one-shot generator of pages summarizes exactly like a list of them."""

    @staticmethod
    def assert_same_as_list(pages):
        expected = summarize_services(list(pages))
        got = summarize_services(p for p in pages)
        assert got == expected
        assert list(got) == list(expected)  # first-appearance order

    def test_default_corpus(self):
        corpus = generate_corpus(CorpusSpec())
        self.assert_same_as_list([p for snap in corpus.spec.snapshots
                                  for p in corpus.pages[snap]])

    @pytest.mark.parametrize("pages", [
        [page(chars=0, links=[]), page(path="/x", depth=1, chars=0, links=[])],
        [page(path="/", depth=0), page(path="/", depth=0, links=["b.onion"]),
         page(path="/", depth=3)],
        [page(snapshot="S1", service="a.onion"), page(snapshot="S2", service="b.onion"),
         page(snapshot="S1", service="b.onion", depth=2, chars=7, links=["a.onion"] * 3)],
    ], ids=["zero-chars", "repeated-paths", "one-snapshot-only"])
    def test_hand_made(self, pages):
        self.assert_same_as_list(pages)

    def test_repeated_paths_stay_in_the_profile(self):
        pages = [page(path="/", depth=1), page(path="/", depth=0), page(path="/", depth=1)]
        s = summarize_services(iter(pages))[("S1", "a.onion")]
        assert s.tree_profile == (("/", 0), ("/", 1), ("/", 1))
        assert s.tree_height == 1

    def test_streaming_peak_stays_below_the_list_path(self, tmp_path):
        corpus = generate_corpus(CorpusSpec())
        files = list(corpus.write(tmp_path)[snap] for snap in corpus.spec.snapshots)

        def traced_peak(summarize):
            tracemalloc.start()
            try:
                summarize()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        listed = traced_peak(
            lambda: summarize_services([p for f in files for p in parse_pages_file(f)]))
        streamed = traced_peak(
            lambda: summarize_services(p for f in files for p in iter_pages_file(f)))
        assert streamed <= 0.75 * listed


def corpus_summaries(spec):
    """spec: mapping service -> {snapshot: (chars, profile)}."""
    pages = []
    for service, snaps in spec.items():
        for snap, (chars, paths) in snaps.items():
            for p, d in paths:
                pages.append(page(snapshot=snap, service=service, path=p, depth=d, chars=chars))
    return summarize_services(pages)


class TestPersistence:
    ROOT = (("/", 0),)
    DEEP = (("/", 0), ("/x", 1))

    def test_fully_persistent_service(self):
        summaries = corpus_summaries(
            {"a.onion": {"S1": (5, self.ROOT), "S2": (5, self.ROOT), "S3": (5, self.ROOT)}}
        )
        report = persistence_report(summaries)
        assert report.membership_counts == {("S1", "S2", "S3"): 1}
        assert report.tree_persistent_count == 1
        assert report.char_persistent_count == 1

    def test_reappearing_service_pattern(self):
        summaries = corpus_summaries(
            {
                "a.onion": {"S1": (5, self.ROOT), "S2": (5, self.ROOT), "S3": (5, self.ROOT)},
                "b.onion": {"S1": (5, self.ROOT), "S3": (5, self.ROOT)},
            }
        )
        report = persistence_report(summaries)
        assert report.membership_counts[("S1", "S3")] == 1

    def test_membership_counts_against_set_oracle(self):
        # churn corpus with known per-snapshot service sets
        sets = {
            "S1": {"a.onion", "b.onion", "c.onion", "e.onion"},
            "S2": {"a.onion", "c.onion", "d.onion"},
            "S3": {"a.onion", "b.onion", "d.onion", "f.onion"},
        }
        spec = {}
        for snap, services in sets.items():
            for svc in services:
                spec.setdefault(svc, {})[snap] = (7, self.ROOT)
        report = persistence_report(corpus_summaries(spec))

        # oracle: direct set operations over the service-id sets
        all_services = set().union(*sets.values())
        expected = {}
        for svc in all_services:
            pattern = tuple(sorted(snap for snap in sets if svc in sets[snap]))
            expected[pattern] = expected.get(pattern, 0) + 1
        assert report.membership_counts == expected
        assert report.total_services == len(all_services)

    def test_tree_change_breaks_tree_persistence_only(self):
        # chars per page chosen so the snapshot totals stay equal (10 = 2*5)
        summaries = corpus_summaries(
            {"a.onion": {"S1": (10, self.ROOT), "S2": (5, self.DEEP)}}
        )
        report = persistence_report(summaries)
        assert report.tree_persistent_count == 0
        assert report.char_persistent_count == 1

    def test_char_change_breaks_char_persistence_only(self):
        summaries = corpus_summaries(
            {"a.onion": {"S1": (5, self.ROOT), "S2": (9, self.ROOT)}}
        )
        report = persistence_report(summaries)
        assert report.tree_persistent_count == 1
        assert report.char_persistent_count == 0

    def test_single_snapshot_rejected(self):
        summaries = corpus_summaries({"a.onion": {"S1": (5, self.ROOT)}})
        with pytest.raises(DataError, match="insufficient snapshots"):
            persistence_report(summaries)

    def test_band_bounds_are_closed(self):
        pages = [
            page(snapshot="S1", service="lo.onion", chars=200, links=["t.onion"]),  # exactly 1/200
            page(snapshot="S1", service="hi.onion", chars=20, links=["t.onion"]),  # exactly 1/20
            page(snapshot="S1", service="out.onion", chars=10, links=["t.onion"]),  # 1/10, outside
            page(snapshot="S2", service="lo.onion", chars=200, links=["t.onion"]),
        ]
        report = persistence_report(summarize_services(pages))
        assert report.band_fraction_per_snapshot["S1"] == pytest.approx(2 / 3)
        assert report.band_fraction_per_snapshot["S2"] == pytest.approx(1.0)


def test_summary_csv_header_and_shape(tmp_path):
    summaries = summarize_services([page(), page(service="b.onion", snapshot="S2")])
    out = tmp_path / "summaries.csv"
    with open(out, "w") as fh:
        write_summary_csv(summaries, fh)
    lines = out.read_text().splitlines()
    assert lines[0] == "service,snapshot,tree_height,chars,links,lcratio"
    assert len(lines) == 3
