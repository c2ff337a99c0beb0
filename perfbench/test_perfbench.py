"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import outputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import outer\n")
    (pkg / "a.py").write_text(
        "def inner():\n    return 1\n\n\n"
        "def outer():\n    return inner() + inner()\n\n\n"
        "def _private():\n    return inner()\n"
    )
    (pkg / "b.py").write_text("from .a import inner\n\n\ndef caller():\n    return inner()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield importlib.import_module("toypkg")
    for name in [m for m in sys.modules if m == "toypkg" or m.startswith("toypkg.")]:
        del sys.modules[name]


def test_tracer_restores_attributes_and_computes_self_time(toy_package, tmp_path):
    a = importlib.import_module("toypkg.a")
    b = importlib.import_module("toypkg.b")
    originals = (a.inner, a.outer, b.inner, toy_package.outer)
    ticks = itertools.count()
    t = tracer.Tracer(package="toypkg", layers=("a", "b"), untraced=frozenset(),
                      clock=lambda: float(next(ticks)))
    t.install()
    # the imported name in b and the re-export in the package are wrapped too
    assert b.inner is not originals[2] and toy_package.outer is not originals[3]
    assert a.outer() == 2 and b.caller() == 1 and a._private() == 1
    t.restore()
    assert (a.inner, a.outer, b.inner, toy_package.outer) == originals
    t.save(tmp_path / "spans.npz")
    spans = tracer.Spans(tmp_path / "spans.npz")
    # ticks: outer [0, 5] around inner [1, 2] and [3, 4]; caller [6, 9] around
    # inner [7, 8]; _private is not traced, so its inner call [10, 11] is a root
    assert spans.self_of(["a.outer"]) == 3.0
    assert spans.self_of(["b.caller"]) == 2.0
    assert spans.self_of(["a.inner"]) == 4.0
    assert spans.calls(["a.inner"], outermost=False) == 4
    assert spans.time(["a.outer", "a.inner"]) == 7.0  # outer, inner under caller, root inner
    assert spans.time(["a.inner"], stop=["b.caller"]) == 3.0
    # self times add up to the root spans: outer 5 + caller 3 + inner 1
    assert spans.module_self("a") + spans.module_self("b") == 9.0
    assert spans.absent() == []
    assert spans.time(["a.removed"]) == 0.0
    assert spans.absent() == ["a.removed"]


def _summaries(directory: Path, values, label="g") -> dict:
    directory.mkdir()
    (directory / "m.json").write_text(json.dumps({"label": label, "x": list(values)}))
    rows = "".join(f"v{i},{v!r},{2 * v!r}\n" for i, v in enumerate(values))
    (directory / "m.csv").write_text("vertex,a,b\n" + rows)
    return outputs.summarize_all(directory, ["m.json", "m.csv"])


def test_output_check_tolerance(tmp_path):
    values = [0.125, 3.0e-4, 12.5, 7.0, 1.0 / 3.0, 0.0]
    reference = _summaries(tmp_path / "ref", values)
    assert outputs.compare(reference, _summaries(tmp_path / "e12", [v * (1 + 1e-12) for v in values])) == []
    problems = outputs.compare(reference, _summaries(tmp_path / "e6", [v * (1 + 1e-6) for v in values]))
    assert any(p.startswith("m.json") for p in problems)
    assert any(p.startswith("m.csv") for p in problems)
    # one value off, two values swapped, a changed label
    one = list(values)
    one[2] *= 1 + 1e-6
    assert outputs.compare(reference, _summaries(tmp_path / "one", one))
    swapped = [values[1], values[0], *values[2:]]
    assert outputs.compare(reference, _summaries(tmp_path / "swap", swapped))
    assert outputs.compare(reference, _summaries(tmp_path / "label", values, label="h"))


def test_failing_runs_count_toward_fail_ratio(tmp_path):
    def must_not_check(out_dir):
        raise AssertionError("outputs of a failed worker must not be checked")

    missing = [["run", "--config", str(tmp_path / "missing.json")]]
    samples = run.closed_loop(missing, tmp_path, 0.0, False, must_not_check)
    assert len(samples) == 1 and samples[0].problems
    assert run.fail_ratio(samples) == 1.0

    version = [["--version"]]  # exits 0 and writes nothing
    assert run.fail_ratio(run.closed_loop(version, tmp_path, 0.0, False, lambda d: [])) == 0.0
    wrong = run.closed_loop(version, tmp_path, 0.0, False, lambda d: ["differs"])
    assert run.fail_ratio(wrong) == 1.0


def test_benchmark_json_names_the_printed_metrics():
    with open(BENCH.parent / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    end_to_end = run.end_to_end_metrics([run.Sample(False, 1.0, 1.0, 1.0)], [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in end_to_end.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS
