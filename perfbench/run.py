"""oniongraph benchmark: one workload, measured in a closed loop.

    python3 perfbench/run.py --workload hub-800 --seed 1 --seconds 40 --trace 0

Run from the repository root (any checkout holding `src/oniongraph`).
Set-up generates the workload's corpus and writes its page records, labels
and run config, three times, timed. Then one client runs the workload
through `oniongraph.cli.main` in a fresh worker process, the next run only
after the previous one ended, until `--seconds` have passed. Every run's
outputs are checked against the reference recorded in `reference/` and
against the first run of the session. The last line of standard output is
a JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. `--workload all` runs every workload in turn. `--record`
rewrites a workload's reference from one run. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import outputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "out"
REFERENCE = BENCH / "reference"
SNAPSHOTS = ("SNP1", "SNP2", "SNP3")
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # CorpusSpec fields
    kind: str  # "run": one `run`; "stages": the standalone subcommand chain
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hub-800", {}, "run",
                 "default corpus through run: hub out-degree ~560 makes the pair loops "
                 "and the two all-sources BFS passes dominate"),
        Workload("sparse-2000",
                 {"n_services": 2000, "n_linkers": 1000, "hub_coverage": 0.02,
                  "linker_cap": 30},
                 "run",
                 "no large out-degree, many small Louvain clusters: BFS/Brandes and "
                 "exact expected-MI AMI dominate, triangle loops are cheap"),
        Workload("stages-6000", {"n_services": 6000, "n_linkers": 2400}, "stages",
                 "standalone subcommands over intermediate files: parsing, graph "
                 "building, TSV round trips, Louvain and bootstrap refits; no metrics"),
    )
}


def stage_argvs(pages: list[str], out: str) -> list[list[str]]:
    dsgs = [f"{out}/dsg_{snap}.tsv" for snap in SNAPSHOTS]
    argvs = [["ingest", *pages, "--out-dir", f"{out}/ingest"]]
    for snap, page_file in zip(SNAPSHOTS, pages):
        for kind in ("dsg", "usg"):
            argvs.append(["build", page_file, "--kind", kind, "--out", f"{out}/{kind}_{snap}.tsv"])
    return argvs + [
        ["build", "--combine", "union", "--inputs", *dsgs, "--out", f"{out}/dsg_union.tsv"],
        ["build", "--combine", "intersection", "--inputs", *dsgs,
         "--out", f"{out}/dsg_intersection.tsv"],
        ["build", "--combine", "union", "--giant", "--inputs", *dsgs,
         "--out", f"{out}/dsg_union_giant.tsv"],
        ["bowtie", "--graph", f"{out}/dsg_union.tsv", "--out", f"{out}/bowtie.json"],
        ["fit", "--graph", f"{out}/dsg_union.tsv", "--degree", "in", "--out", f"{out}/fit_in.json"],
        ["fit", "--graph", f"{out}/dsg_union.tsv", "--degree", "out", "--bootstrap", "10",
         "--out", f"{out}/fit_out.json"],
        ["communities", "--graph", f"{out}/dsg_union.tsv", "--out", f"{out}/union.partition.csv"],
        ["communities", "--graph", f"{out}/dsg_intersection.tsv",
         "--out", f"{out}/intersection.partition.csv"],
        ["compare", "--a", f"{out}/union.partition.csv", "--b", f"{out}/intersection.partition.csv",
         "--restrict-common", "--out", f"{out}/ami.json"],
    ]


def set_up(workload: Workload, seed: int, run_dir: Path) -> list[list[str]]:
    """Generate the corpus and write its page records (in an order drawn from
    the seed), labels and run config; return the worker's argument lists."""
    from oniongraph.synth import CorpusSpec, generate_corpus

    corpus_dir = run_dir / "corpus"
    corpus = generate_corpus(CorpusSpec(**workload.spec))
    rng = random.Random(seed)
    for snap in SNAPSHOTS:
        rng.shuffle(corpus.pages[snap])
    rng.shuffle(corpus.labels)
    paths = corpus.write(str(corpus_dir))
    out_dir = str(run_dir / "out")
    config = corpus_dir / "config.json"
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"snapshots": {snap: paths[snap] for snap in SNAPSHOTS},
                   "labels": paths["labels"], "out_dir": out_dir}, fh, indent=2, sort_keys=True)
    if workload.kind == "run":
        return [["run", "--config", str(config)]]
    return stage_argvs([paths[snap] for snap in SNAPSHOTS], out_dir)


def timed_set_up(workload: Workload, seed: int, run_dir: Path) -> tuple[list[list[str]], list[float]]:
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(run_dir / "corpus", ignore_errors=True)
        t0 = time.perf_counter()
        argvs = set_up(workload, seed, run_dir)
        times.append(time.perf_counter() - t0)
    return argvs, times


def worker_env() -> dict[str, str]:
    """The worker's environment: no ONIONGRAPH_* config defaults, oniongraph
    from this checkout, one thread per numeric library."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ONIONGRAPH_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(cmd: list[str], log_path: Path, timeout: float):
    """Run `cmd` to completion; return (exit code, rusage of that child)."""
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=log,
                                stderr=subprocess.STDOUT)
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


@dataclass
class Sample:
    traced: bool
    run_s: float
    cpu_s: float
    rss_mib: float
    problems: list[str] = field(default_factory=list)
    spans: str | None = None


class OutputCheck:
    """Compares the first good run of a session with the reference, and every
    later run's output hashes with that first run's."""

    def __init__(self, kind: str, reference: dict):
        self.kind = kind
        self.reference = reference
        self.first: dict[str, str] | None = None
        self.artifacts = 0
        self.bytes_written = 0

    def __call__(self, out_dir: Path) -> list[str]:
        hashes, problems = outputs.artifact_hashes(self.kind, out_dir)
        if problems:
            return problems
        if self.first is not None:
            return [] if hashes == self.first else ["output hashes differ from the session's first run"]
        problems = outputs.compare(self.reference, outputs.summarize_all(out_dir, hashes))
        if not problems:
            self.first = hashes
            self.artifacts = len(hashes)
            self.bytes_written = outputs.bytes_written(out_dir)
        return problems


def one_run(argvs, run_dir: Path, traced: bool, index: int, check) -> Sample:
    out_dir = run_dir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_path = run_dir / "result.json"
    result_path.unlink(missing_ok=True)
    job = {
        "src": str(SRC),
        "argvs": argvs,
        "result": str(result_path),
        "spans": str(run_dir / f"spans-{index}.npz") if traced else None,
    }
    job_path = run_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    t0 = time.perf_counter()
    code, usage = spawn([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                        run_dir / f"worker-{index}.log", WORKER_TIMEOUT_S)
    wall = time.perf_counter() - t0
    sample = Sample(traced, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    spans=job["spans"])
    if code != 0 or not result_path.exists():
        sample.problems.append(f"worker exited with code {code} (see {run_dir.name}/worker-{index}.log)")
        return sample
    result = json.loads(result_path.read_text(encoding="utf-8"))
    sample.run_s, sample.cpu_s = result["run_s"], result["cpu_s"]
    bad = [(argv[0], c) for argv, c in zip(argvs, result["codes"]) if c != 0]
    if bad:
        sample.problems.append(f"`{bad[0][0]}` exited with code {bad[0][1]}")
        return sample
    sample.problems.extend(check(out_dir))
    return sample


def closed_loop(argvs, run_dir: Path, seconds: float, trace: bool, check) -> list[Sample]:
    """One client, one run at a time, until `seconds` have passed (and, when
    tracing, at least one untraced and one traced run have been made)."""
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(samples) % 2 == 1
        samples.append(one_run(argvs, run_dir, traced, len(samples), check))
        if time.perf_counter() >= deadline and (not trace or len(samples) >= 2):
            return samples


def fail_ratio(samples: list[Sample]) -> float:
    return sum(1 for s in samples if s.problems) / len(samples)


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end_metrics(samples: list[Sample], setup_times: list[float]) -> dict:
    good = [s for s in samples if not s.problems] or samples
    return {
        "run_s": {"value": _median(s.run_s for s in good), "unit": "s"},
        "setup_s": {"value": _median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": _median(s.rss_mib for s in good), "unit": "MiB"},
    }


def traced_metrics(samples: list[Sample], check: OutputCheck) -> tuple[dict, list[str]]:
    traced = [s for s in samples if s.traced and s.spans and os.path.exists(s.spans)]
    plain = [s for s in samples if not s.traced and not s.problems]
    runs, absent = [], set()
    for s in traced:
        spans = tracer.Spans(s.spans)
        runs.append(tracer.layer_metrics(spans))
        absent.update(spans.absent())
    values = {name: _median(r[name] for r in runs) for name in (runs[0] if runs else {})}
    traced_run_s = _median(s.run_s for s in traced)
    values.update({
        "cli.artifacts": check.artifacts,
        "cli.bytes_written": check.bytes_written,
        "cli.cpu_s": _median(s.cpu_s for s in plain),
        "cli.traced_run_s": traced_run_s,
        "cli.trace_overhead_s": traced_run_s - _median(s.run_s for s in plain),
    })
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in tracer.LAYER_UNITS.items()}
    return metrics, sorted(absent)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "oniongraph").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree
    of its own (a parent directory's repository does not count)."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    import numpy
    import scipy

    import oniongraph

    return {
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "oniongraph": oniongraph.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def reference_path(workload: Workload) -> Path:
    return REFERENCE / f"{workload.name}.json"


def record(workload: Workload, seed: int, env: dict) -> int:
    """Run the workload once and write its output summaries as the reference."""
    run_dir = WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    argvs, _ = timed_set_up(workload, seed, run_dir)
    summaries = {}

    def keep(out_dir: Path) -> list[str]:
        hashes, problems = outputs.artifact_hashes(workload.kind, out_dir)
        summaries.update(outputs.summarize_all(out_dir, hashes))
        return problems

    sample = one_run(argvs, run_dir, False, 0, keep)
    if sample.problems:
        print("\n".join(sample.problems), file=sys.stderr)
        return 1
    REFERENCE.mkdir(exist_ok=True)
    reference = {"workload": workload.name, "recorded_with": env, "artifacts": summaries}
    reference_path(workload).write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(f"recorded {len(summaries)} artifacts to {reference_path(workload)}")
    return 0


def measure(workload: Workload, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    with open(reference_path(workload), "r", encoding="utf-8") as fh:
        check = OutputCheck(workload.kind, json.load(fh)["artifacts"])
    run_dir = WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        argvs, setup_times = timed_set_up(workload, seed, run_dir)
        samples = closed_loop(argvs, run_dir, seconds, trace, check)
        if trace:
            metrics, absent = traced_metrics(samples, check)
        else:
            metrics, absent = end_to_end_metrics(samples, setup_times), []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = sum(1 for s in samples if s.problems)
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "setup_s": setup_times, "absent": absent,
        "fail_ratio": fail_ratio(samples),
        "samples": [{"traced": s.traced, "run_s": s.run_s, "cpu_s": s.cpu_s,
                     "peak_rss_mb": s.rss_mib, "problems": s.problems} for s in samples],
        "summary": {"correct": failed == 0, "attempted": len(samples), "failed": failed,
                    "metrics": metrics},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    (WORK / "results" / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def report(result: dict) -> None:
    summary = result["summary"]
    print(f"{result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{summary['attempted']} runs, {summary['failed']} failed")
    for s in result["samples"]:
        for problem in s["problems"]:
            print(f"  problem: {problem}")
    for name, m in summary["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':32s} {result['fail_ratio']:.6g} ratio")
    if result["absent"]:
        print(f"  absent functions: {', '.join(result['absent'])}")
    print("  environment: " + " ".join(f"{k}={v}" for k, v in result["environment"].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the workload's reference from one run")
    args = parser.parse_args(argv)
    if not (SRC / "oniongraph" / "__init__.py").is_file():
        print(f"error: no oniongraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    chosen = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    if args.record:
        return max(record(w, args.seed, env) for w in chosen)
    results = [measure(w, args.seed, args.seconds, bool(args.trace), env) for w in chosen]
    for result in results:
        report(result)
    if len(results) == 1:
        final = results[0]["summary"]
    else:
        final = {
            "correct": all(r["summary"]["correct"] for r in results),
            "attempted": sum(r["summary"]["attempted"] for r in results),
            "failed": sum(r["summary"]["failed"] for r in results),
            "metrics": {f"{r['workload']}.{name}": m
                        for r in results for name, m in r["summary"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
