"""One round of a workload, in a fresh single-threaded process.

    python3 bench/worker.py ROUND.json RESULT.json

ROUND.json gives the package source directory, the description files, the
job argv lists and whether to trace. The worker times set-up (importing
curvatroid.cli, then load_input on every input once), then runs every job
through curvatroid.cli.main with stdout captured, and writes RESULT.json.

Host speed on a shared machine drifts by tens of percent within seconds, so
every time is scaled to a reference speed. A SIGALRM timer samples the speed
every SAMPLE_EVERY_S by timing a short, fixed pure-Python loop between two
bytecodes of whatever runs. A job's time, less the time spent in samples, is
multiplied by REFERENCE_S over the mean sample time in a window around the
job: the job itself, or SAMPLE_WINDOW_S either side of its midpoint when it
is shorter. Raw seconds are reported alongside.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import io
import json
import os
import resource
import signal
import sys
from bisect import bisect_left
from math import gcd
from time import perf_counter

SAMPLE_EVERY_S = 0.02    # host-speed sampling interval
SAMPLE_WINDOW_S = 0.25   # least half-width of the window a job is scaled by
REFERENCE_S = 1.0e-4     # sample time at the speed all times are scaled to


def _reference_loop() -> None:
    # the program's kind of work: small-rational arithmetic, dict updates and
    # bit counting, all in pure Python
    num, den = 0, 1
    table: dict[int, int] = {}
    for i in range(1, 150):
        p, q = i % 7 + 1, i % 13 + 3
        num, den = num * q + p * den, den * q
        g = gcd(num, den)
        num //= g
        den //= g
        key = i & 255
        table[key] = table.get(key, 0) + (i * i) % 97
        x = i
        while x:
            x &= x - 1


class SpeedProbe:
    """Samples host speed from a SIGALRM timer while the round runs."""

    def __init__(self):
        self.at: list[float] = []    # sample start times, increasing
        self.took: list[float] = []  # sample durations

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _reference_loop()
        self.took.append(perf_counter() - start)
        self.at.append(start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """Raw seconds of work between start and end, less sampling, and the
        factor that converts them to reference-speed seconds."""
        inside = self.took[bisect_left(self.at, start):bisect_left(self.at, end)]
        half = max(SAMPLE_WINDOW_S, (end - start) / 2)
        mid = (start + end) / 2
        window = self.took[bisect_left(self.at, mid - half):bisect_left(self.at, mid + half)]
        window = window or self.took[-5:] or [REFERENCE_S]
        return end - start - sum(inside), REFERENCE_S * len(window) / sum(window)


def run_job(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:  # argparse rejects argv
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a traceback is a failed job, not a failed round
        code, error = None, f"{type(e).__name__}: {e}"
    return {"code": code, "error": error, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:]}


def run_round(spec: dict) -> dict:
    with SpeedProbe() as probe:
        start = perf_counter()
        sys.path.insert(0, spec["src"])
        import curvatroid.cli as cli
        from curvatroid.fileio import load_input

        loaded = [load_input(path) for path in spec["inputs"]]
        setup_end = perf_counter()
        del loaded
        gc.collect()

        tracer = None
        main = cli.main
        if spec["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            main = tracer.wrap("cli.job", cli.main)

        jobs = []
        for argv in spec["jobs"]:
            start_job = perf_counter()
            result = run_job(main, argv)
            result["span"] = (start_job, perf_counter())
            jobs.append(result)

    setup_raw, factor = probe.scale(start, setup_end)
    for job in jobs:
        job["raw_s"], job["factor"] = probe.scale(*job.pop("span"))
        job["seconds"] = job["raw_s"] * job["factor"]
    result = {"setup_s": setup_raw * factor, "setup_raw_s": setup_raw, "jobs": jobs,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "speed_samples": len(probe.took)}
    if tracer is not None:
        from spans import layer_metrics

        exact = [("--exact" in argv or "--all-pairs" in argv) for argv in spec["jobs"]]
        result["layers"] = layer_metrics(tracer.spans, [j["factor"] for j in jobs], exact)
        result["unmeasured"] = sorted(tracer.unmeasured)
        result["uncounted"] = sorted(tracer.uncounted)
        result["missing"] = tracer.missing
        if spec.get("spans_path"):
            with gzip.open(spec["spans_path"], "wt", encoding="utf-8") as fh:
                json.dump({"fields": ["layer", "start", "end", "parent", "count"],
                           "spans": tracer.spans}, fh)
    return result


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_round(spec)
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
