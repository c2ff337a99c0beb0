"""One timed workload run in a fresh process.

    python3 worker.py JOB.json

The job names the oniongraph source directory, the argument lists to pass
to `oniongraph.cli.main` in order, where to write the result and, for a
traced run, where to write the spans. oniongraph is imported before the
timer starts. The result holds the wall and CPU seconds of the calls and
their exit codes; the calls stop at the first non-zero exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    import oniongraph.cli

    src = os.path.realpath(job["src"])
    if not os.path.realpath(oniongraph.cli.__file__).startswith(src + os.sep):
        print(f"oniongraph was imported from {oniongraph.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    tracer = None
    if job["spans"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for argv in job["argvs"]:
            codes.append(oniongraph.cli.main(argv))
            if codes[-1] != 0:
                break
    finally:
        run_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.restore()
            tracer.save(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump({"run_s": run_s, "cpu_s": cpu_s, "codes": codes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
