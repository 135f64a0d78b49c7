"""Seeded, layer-traced benchmark of the curvatroid command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all     # every workload, one after another

Run from a source checkout; the package is imported from ./src, nothing is
installed. Each round is one fresh single-threaded worker process that times
set-up and then runs every job of the workload through curvatroid.cli.main
(see worker.py). Rounds repeat one after another until --seconds have passed
and at least MIN_ROUNDS are done. Every job's output is checked; a job that
exits nonzero, raises, fails a check or prints different bytes in a later
round counts as failed.

With --trace 0 the end-to-end metrics are reported from untraced rounds.
With --trace 1 every other round is traced and the per-layer metrics are
reported. The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics. Details of each run (per-job stdout
digests, sample counts, failures) go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from statistics import median, quantiles
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORK_DIR = os.path.join(HERE, ".work")
GOLDENS = os.path.join(HERE, "goldens.json")

sys.path.insert(0, HERE)
from checks import check_job, oracle_kappa  # noqa: E402
from spans import LAYER_METRICS, unmeasured_metrics  # noqa: E402
from workloads import WORKLOADS, build_workload, write_inputs  # noqa: E402

MIN_ROUNDS = 3        # untraced runs: rounds for the per-job medians
MIN_TRACE_ROUNDS = 4  # traced runs: two untraced, two traced
SETUP_PROBES = 3      # extra set-up-only worker processes per run
RUN_LIMIT_S = 150     # start no round that would likely end after this
ORACLE_SAMPLES = 6    # pair jobs re-solved with networkx per run

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("pairs_per_s", "pairs/s"),
    ("pair_p50_ms", "ms"),
    ("pair_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class RoundFailed(Exception):
    """A worker process died or overran; its round has no results."""


def _run_round(spec: dict, workdir: str, index: int, timeout: float) -> dict:
    spec_path = os.path.join(workdir, f"round{index}.json")
    result_path = os.path.join(workdir, f"round{index}-result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env.pop("CURVATROID_THREADS", None)  # the CLI stays single-threaded
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        proc = subprocess.run([sys.executable, WORKER, spec_path, result_path],
                              cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round {index} overran {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RoundFailed(f"round {index} worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_rounds(workload, seconds: float, trace: bool, tag: str) -> tuple[list[dict], list[float]]:
    """Run set-up probes, then rounds of the workload until time is up.

    Returns the rounds (traced ones carry `traced: True`) and every set-up
    time measured, probes and rounds alike."""
    workdir = os.path.join(WORK_DIR, f"{tag}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    write_inputs(workload.files, workdir)
    os.makedirs(OUT_DIR, exist_ok=True)
    spec = {"src": SRC, "inputs": [name + ".json" for name in workload.files],
            "jobs": [job["argv"] for job in workload.jobs]}
    min_rounds = MIN_TRACE_ROUNDS if trace else MIN_ROUNDS
    rounds: list[dict] = []
    start = perf_counter()

    def left() -> float:  # a hung worker is killed before the run's deadline
        return max(start + RUN_LIMIT_S + 20 - perf_counter(), 1)

    try:
        probe = dict(spec, jobs=[], trace=False)
        setups = [_run_round(probe, workdir, -1 - i, left())["setup_s"]
                  for i in range(SETUP_PROBES)]
        while True:
            traced = trace and len(rounds) % 2 == 1
            spec["trace"] = traced
            spec["spans_path"] = os.path.join(OUT_DIR, f"{tag}-spans.json.gz")
            result = _run_round(spec, workdir, len(rounds), left())
            result["traced"] = traced
            rounds.append(result)
            elapsed = perf_counter() - start
            if len(rounds) >= min_rounds and elapsed >= seconds:
                break
            if len(rounds) >= 1 + trace and elapsed + elapsed / len(rounds) > RUN_LIMIT_S:
                print(f"note: stopping after {len(rounds)} rounds to stay within "
                      f"{RUN_LIMIT_S} s", file=sys.stderr)
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run is still using it
    return rounds, setups + [r["setup_s"] for r in rounds]


def check_rounds(workload, rounds: list[dict], goldens: dict, seed: int) -> dict:
    """Check every job of every round; returns attempted, failed, failures and
    the digests of the first round."""
    verdicts: dict[tuple[int, str], str | None] = {}
    first = [hashlib.sha256(j["stdout"].encode()).hexdigest() for j in rounds[0]["jobs"]]
    failures: list[str] = []
    attempted = 0
    for r, rnd in enumerate(rounds):
        for j, (job, result) in enumerate(zip(workload.jobs, rnd["jobs"])):
            attempted += 1
            digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
            key = (j, digest)
            if key not in verdicts:
                verdicts[key] = check_job(job, result, goldens)
            reason = verdicts[key]
            if reason is None and digest != first[j]:
                reason = "stdout differs from round 0"
            if reason is not None:
                failures.append(f"round {r} job {j} ({' '.join(job['argv'])}): {reason}")

    pair_jobs = [j for j, job in enumerate(workload.jobs) if job["kind"] == "pair"]
    rng = random.Random(f"oracle:{seed}")
    for j in sorted(rng.sample(pair_jobs, min(ORACLE_SAMPLES, len(pair_jobs)))):
        job, result = workload.jobs[j], rounds[0]["jobs"][j]
        if verdicts.get((j, first[j])) is not None:
            continue  # already failed
        argv = job["argv"]
        labels, bases = workload.structure[job["input"]]
        want = oracle_kappa(labels, bases, argv[argv.index("--s") + 1].split(","),
                            argv[argv.index("--t") + 1].split(","))
        got = _reported_kappa(result["stdout"], "--format" in argv)
        if got != str(want):
            failures.append(f"round 0 job {j} ({' '.join(argv)}): "
                            f"exactKappa {got} != networkx {want}")
    return {"attempted": attempted, "failed": len(failures), "failures": failures,
            "digests": first}


def _reported_kappa(stdout: str, csv_format: bool) -> str | None:
    if csv_format:
        for line in stdout.splitlines():
            if line.startswith("exactKappa,"):
                return line.split(",", 1)[1]
        return None
    return json.loads(stdout).get("exactKappa")


def job_medians(rounds: list[dict], key: str = "seconds") -> list[float]:
    """Each job's median time over the given rounds; a slow moment of the host
    then costs one round of one job, not a whole round."""
    return [median(r["jobs"][j][key] for r in rounds) for j in range(len(rounds[0]["jobs"]))]


def end_to_end_metrics(workload, rounds: list[dict], setups: list[float]) -> tuple[dict, dict]:
    plain = [r for r in rounds if not r["traced"]]
    seconds = job_medians(plain)
    curvature = [j for j, job in enumerate(workload.jobs) if job["kind"] == "curvature"]
    queries = [j for j, job in enumerate(workload.jobs) if job["kind"] in ("pair", "coupling")]
    pairs = sum(workload.jobs[j]["expect_pairs"] for j in curvature)
    latencies = [seconds[j] * 1000 for j in queries]
    values = {
        "setup_s": median(setups),
        "wall_s": sum(seconds),
        "pairs_per_s": pairs / sum(seconds[j] for j in curvature),
        "pair_p50_ms": median(latencies),
        "pair_p95_ms": quantiles(latencies, n=20)[18],
        "peak_rss_mb": median(r["rss_kb"] / 1024 for r in plain),
    }
    sizes = {"curvature_pairs_per_round": pairs, "pair_queries": len(latencies),
             "pair_query_kind": sorted({workload.jobs[j]["kind"] for j in queries}),
             "setup_samples": len(setups),
             "raw_wall_s": sum(job_medians(plain, "raw_s")),
             "round_wall_s": [sum(j["seconds"] for j in r["jobs"]) for r in plain]}
    return values, sizes


def layer_report(rounds: list[dict]) -> tuple[dict, set[str], bool]:
    """Per-layer values from the traced rounds: times as medians, counts from
    the first traced round. Also returns the unmeasured metrics and whether
    the counts repeated exactly in every traced round."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    unmeasured_layers = set().union(*(r["unmeasured"] for r in traced))
    uncounted = set().union(*(r["uncounted"] for r in traced))
    values: dict[str, float | int] = {}
    repeat = True
    for metric, unit, _ in LAYER_METRICS:
        if metric == "trace.overhead_s":
            continue
        if unit == "count":
            values[metric] = traced[0]["layers"][metric]
            repeat &= all(r["layers"][metric] == values[metric] for r in traced)
        else:
            values[metric] = median(r["layers"][metric] for r in traced)
    values["trace.overhead_s"] = sum(job_medians(traced)) - sum(job_medians(plain))
    return values, unmeasured_metrics(unmeasured_layers, uncounted), repeat


def run_workload(workload, name: str, seed: int, seconds: float, trace: bool,
                 goldens: dict) -> dict:
    """Run, check and summarise one workload; returns the result object."""
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    rounds, setups = run_rounds(workload, seconds, trace, tag)
    checked = check_rounds(workload, rounds, goldens, seed)
    metrics: dict[str, dict] = {}
    details = {"workload": name, "seed": seed, "rounds": len(rounds),
               "traced_rounds": sum(r["traced"] for r in rounds),
               "failures": checked["failures"][:50],
               "stdout_sha256": hashlib.sha256("".join(checked["digests"]).encode()).hexdigest(),
               "job_sha256": {" ".join(job["argv"]): d
                              for job, d in zip(workload.jobs, checked["digests"])}}
    if trace:
        values, unmeasured, repeat = layer_report(rounds)
        for metric, unit, _ in LAYER_METRICS:
            if metric in unmeasured:
                metrics[metric] = {"value": None, "unit": unit, "unmeasured": True}
            else:
                metrics[metric] = {"value": values[metric], "unit": unit}
        details["counts_repeat"] = repeat
        details["missing_targets"] = sorted(set().union(
            *(r["missing"] for r in rounds if r["traced"])))
    else:
        values, sizes = end_to_end_metrics(workload, rounds, setups)
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        details.update(sizes)
    details["metrics"] = metrics
    with open(os.path.join(OUT_DIR, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    return {"correct": checked["failed"] == 0, "attempted": checked["attempted"],
            "failed": checked["failed"], "metrics": metrics, "details": details}


def print_summary(result: dict) -> None:
    d = result["details"]
    ratio = result["failed"] / result["attempted"]
    print(f"{d['workload']} seed {d['seed']}: {d['rounds']} rounds "
          f"({d['traced_rounds']} traced), {result['attempted']} jobs attempted, "
          f"{result['failed']} failed, fail_ratio {ratio:.4g}")
    for name, m in result["metrics"].items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:28s} {value:>14s} {m['unit']}")
    if "curvature_pairs_per_round" in d:
        print(f"  input size: {d['curvature_pairs_per_round']} adjacent pairs in curvature "
              f"jobs; {d['pair_queries']} single-pair {'/'.join(d['pair_query_kind'])} queries, "
              f"each timed {d['rounds']} times; {d['setup_samples']} set-ups")
    if d.get("missing_targets"):
        print(f"  unmeasured: targets not found: {', '.join(d['missing_targets'])}")
    print(f"  stdout sha256 over all jobs: {d['stdout_sha256']}")
    for line in d["failures"][:10]:
        print(f"  FAIL {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "curvatroid", "cli.py")):
        print(f"error: no curvatroid sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            workload = build_workload(name, args.seed)
            results[name] = run_workload(workload, name, args.seed, args.seconds,
                                         bool(args.trace), goldens)
            print_summary(results[name])
    except RoundFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for r in results.values():
        r.pop("details")
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
