"""Metamorphic tests of `run`: the same crawl given in another form must
give the same artifacts.

Kernel oracles check each result against its definition on one input; these
tests check that a whole run does not depend on the order of its input
records or on how many times a snapshot is given.
"""

import json
import random

import pytest

from oniongraph.cli import RunConfig, run_pipeline
from oniongraph.synth import CorpusSpec, generate_corpus

SPEC = CorpusSpec(n_services=160, community_size=18, n_linkers=50, seed=11)
# the config keys that hold input or output paths
PATH_KEYS = ("snapshots", "labels", "out_dir")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The corpus's files, and the artifacts of one `run` over them."""
    root = tmp_path_factory.mktemp("metamorphic")
    paths = generate_corpus(SPEC).write(root / "corpus")
    return root, paths, run(paths, root / "out", {s: paths[s] for s in SPEC.snapshots})


def run(paths, out_dir, snapshots, labels=None):
    """Artifact path -> bytes, manifest.json included, of one `run` with hub
    curves on."""
    run_pipeline(RunConfig.from_dict({
        "snapshots": {snap: str(path) for snap, path in snapshots.items()},
        "labels": str(labels or paths["labels"]),
        "out_dir": str(out_dir),
        "fit_min_tail": 20,
        "k_hubs": 10,
    }))
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def manifest_without_paths(artifacts):
    manifest = json.loads(artifacts["manifest.json"])
    for key in PATH_KEYS:
        del manifest["config"][key]
    return manifest


def test_shuffled_records_and_labels_give_the_same_artifacts(corpus, tmp_path):
    root, paths, expected = corpus
    rng = random.Random(7)
    shuffled = {}
    for snap in SPEC.snapshots:
        lines = open(paths[snap], encoding="utf-8").read().splitlines(keepends=True)
        rng.shuffle(lines)
        shuffled[snap] = tmp_path / f"shuffled_{snap}.jsonl"
        shuffled[snap].write_text("".join(lines), encoding="utf-8")
    header, *rows = open(paths["labels"], encoding="utf-8").read().splitlines(keepends=True)
    rng.shuffle(rows)
    labels = tmp_path / "shuffled_labels.csv"
    labels.write_text(header + "".join(rows), encoding="utf-8")

    got = run(paths, tmp_path / "out", shuffled, labels)
    assert sorted(got) == sorted(expected)
    for rel in expected:
        if rel != "manifest.json":
            assert got[rel] == expected[rel], rel
    assert manifest_without_paths(got) == manifest_without_paths(expected)


def test_a_snapshot_given_twice_is_its_own_union_and_intersection(corpus, tmp_path):
    root, paths, _ = corpus
    # SNP1's records again, as snapshot SNP9
    twin = tmp_path / "pages_SNP9.jsonl"
    with open(paths["SNP1"], encoding="utf-8") as fh:
        records = [{**json.loads(line), "snapshot": "SNP9"} for line in fh]
    twin.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                    encoding="utf-8")

    got = run(paths, tmp_path / "out", {"SNP1": paths["SNP1"], "SNP9": twin})
    for kind in ("dsg", "usg"):
        own = f"{kind}_SNP1"
        for name in (f"{kind}_SNP9", f"{kind}_union", f"{kind}_intersection"):
            for rel in ("graphs/{}.tsv", "metrics/{}.global.json",
                        "metrics/{}.vertices.csv", "metrics/{}.hubreach.json",
                        "communities/{}.partition.csv"):
                assert got[rel.format(name)] == got[rel.format(own)], rel.format(name)
