"""Output check: artifact hashes and per-artifact numeric summaries.

An artifact's summary keeps the count, sum, position-weighted sum, minimum
and maximum of its finite numbers, plus a hash of everything else in it
(keys, headers, vertex ids, labels, nulls). Numbers are compared with a
relative tolerance of 1e-9 (the tolerance of `tests/oracles.py`), scaled
by the artifact's own magnitudes, so a kernel swap that moves only the last
float digit passes while a wrong value, a NaN that appears, a reordered row
or a changed label fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

RTOL = 1e-9


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _walk_json(obj, numbers: list[float], text: list[str]) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            text.append(str(key))
            _walk_json(value, numbers, text)
    elif isinstance(obj, list):
        text.append("[")
        for value in obj:
            _walk_json(value, numbers, text)
        text.append("]")
    elif isinstance(obj, (bool, int, float)) and math.isfinite(obj):
        numbers.append(float(obj))
    else:
        text.append(json.dumps(obj))


def _tokens(path) -> tuple[list[float], list[str]]:
    numbers: list[float] = []
    text: list[str] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if path.endswith(".json"):
            _walk_json(json.load(fh), numbers, text)
            return numbers, text
        delimiter = "\t" if path.endswith(".tsv") else ","
        for row in csv.reader(fh, delimiter=delimiter):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if math.isfinite(value):
                    numbers.append(value)
                else:
                    text.append(cell)
            text.append("\n")
    return numbers, text


def summarize(path) -> dict:
    numbers, text = _tokens(str(path))
    weights = [1.0 + (i % 101) for i in range(len(numbers))]
    return {
        "count": len(numbers),
        "sum": math.fsum(numbers),
        "abs_sum": math.fsum(abs(v) for v in numbers),
        "wsum": math.fsum(w * v for w, v in zip(weights, numbers)),
        "abs_wsum": math.fsum(w * abs(v) for w, v in zip(weights, numbers)),
        "min": min(numbers, default=0.0),
        "max": max(numbers, default=0.0),
        "text_sha256": hashlib.sha256("\x1f".join(text).encode()).hexdigest(),
    }


def summarize_all(out_dir, paths) -> dict[str, dict]:
    return {rel: summarize(os.path.join(out_dir, rel)) for rel in sorted(paths)}


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= RTOL * scale


def compare(reference: dict[str, dict], actual: dict[str, dict]) -> list[str]:
    """Human-readable differences between two summary maps; empty if they
    agree."""
    problems = []
    missing = sorted(set(reference) - set(actual))
    extra = sorted(set(actual) - set(reference))
    if missing:
        problems.append(f"missing artifacts: {missing[:5]} ({len(missing)} in all)")
    if extra:
        problems.append(f"unexpected artifacts: {extra[:5]} ({len(extra)} in all)")
    for rel in sorted(set(reference) & set(actual)):
        ref, got = reference[rel], actual[rel]
        if ref["count"] != got["count"]:
            problems.append(f"{rel}: {got['count']} numbers, reference has {ref['count']}")
            continue
        if ref["text_sha256"] != got["text_sha256"]:
            problems.append(f"{rel}: non-numeric content differs from the reference")
        peak = max(abs(ref["min"]), abs(ref["max"]))
        checks = (("sum", ref["abs_sum"]), ("wsum", ref["abs_wsum"]),
                  ("min", peak), ("max", peak))
        for key, scale in checks:
            if not _close(ref[key], got[key], scale):
                problems.append(f"{rel}: {key} {got[key]!r} != reference {ref[key]!r}")
    return problems


def artifact_hashes(kind: str, out_dir) -> tuple[dict[str, str], list[str]]:
    """Map of artifact path -> sha256, and any problems found.

    `run` outputs are the artifacts its manifest lists; each listed hash is
    checked against the file. Subcommand chains have no manifest, so every
    file under the output directory counts.
    """
    problems = []
    if kind == "run":
        manifest_path = os.path.join(out_dir, "manifest.json")
        if not os.path.exists(manifest_path):
            return {}, ["no manifest.json written"]
        with open(manifest_path, "r", encoding="utf-8") as fh:
            listed = {a["path"]: a["sha256"] for a in json.load(fh)["artifacts"]}
        for rel, digest in listed.items():
            full = os.path.join(out_dir, rel)
            if not os.path.exists(full) or sha256_file(full) != digest:
                problems.append(f"{rel}: file does not match its manifest hash")
        return listed, problems
    hashes = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            full = os.path.join(root, name)
            hashes[os.path.relpath(full, out_dir)] = sha256_file(full)
    return dict(sorted(hashes.items())), problems


def bytes_written(out_dir) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, files in os.walk(out_dir)
        for name in files
    )
