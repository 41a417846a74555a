"""twistkit benchmark: one workload, closed loop, single client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass runs the workload's whole
job list once, in a fresh interpreter (`worker.py`), one job at a time; the
number of passes follows from `--seconds` alone (see PASS_S).  Every job
output is checked against the oracles in `oracles.py`, outside the timed
region; a wrong output makes the run exit 1 with `"correct": false`.

With `--trace 0` the last line of standard output carries the end-to-end
metrics, medians over the passes, and the line before it the job count,
latency percentiles and failure ratio; with `--trace 1` the last line
carries the per-layer metrics of the first traced pass (see tracing.py), plus
the tracing overhead measured against untraced passes run between the traced
ones.  A record of the run with the machine it ran on goes to `.perfbench/`
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import OUT_DIR  # noqa: E402

MIN_SETUPS = 14  # set-up samples per run, at least
# Seconds of --seconds that one pass stands for.  A run makes
# round(--seconds / PASS_S) passes, a traced run that many / TRACED_PAIR
# pairs of a traced and an untraced pass, at least two, whatever the commit,
# so that every commit's medians and minima come from as many passes.  At the
# commit that introduced the benchmark (2 vCPUs, Python 3.11) a pass with its
# set-up-only spawns took about 6 s on theta_products, 3 s on dense_random
# and 6.5 s on forest_census; forest_census gets more passes than that
# allows because its pass times vary most within a run.
PASS_S = {"theta_products": 6.0, "dense_random": 3.5, "forest_census": 5.0}
TRACED_PAIR = 3
DEADLINE_S = 170  # a run ends well within the 180 s its caller allows

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed by name on the line before the result and kept in the run record,
# but not in the result: on the machine the benchmark was built on, the job
# percentiles spread over ten runs by up to 0.44 of their median
# (theta_products), beyond the largest bound a metric may have, and the
# failure ratio is zero on most workloads.
JOB_METRICS = {"jobs": "count", "job_p50_ms": "ms", "job_tail_ms": "ms",
               "failed_job_ratio": "ratio"}


class RunFailed(Exception):
    pass


def environment(seed):
    head = "unknown"
    if os.path.isdir(".git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              env=env, timeout=30)
        head = proc.stdout.strip() or "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m_start": os.getloadavg()[0],
        "seed": seed,
        "git_head": head,
    }


def spawn(workload, seed, trace, deadline, first_pass=False, setup_only=False):
    """Run worker.py once and return its record."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            repr(time.monotonic()), str(trace), str(int(first_pass))]
    if setup_only:
        argv.append("setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed("a pass did not end before the run's deadline") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload, seed, count, trace, deadline, after_each):
    """`count` passes, each followed by `after_each(pass)`, so what it
    samples spreads over the whole run.  The count is fixed, so that every
    commit's medians and minima come from the same number of passes; only
    a pass that would end after the run's deadline is left out."""
    start = time.monotonic()
    passes = []
    while len(passes) < count:
        if passes and time.monotonic() + (time.monotonic() - start) / len(passes) > deadline:
            break
        passes.append(spawn(workload, seed, trace, deadline, first_pass=not passes))
        after_each(passes[-1])
    return passes


def check_outputs(specs, passes):
    """Oracle-check each job's output the first time a pass sends one; every
    later pass must repeat it exactly.  A job that never completes has no
    output to check: it is a failed job (see `count_failures`), not a wrong
    result."""
    by_id = {spec["id"]: spec for spec in specs}
    errors = []
    first = {}
    for p in passes:
        for job_id, out in p.pop("outputs").items():
            if job_id not in first:
                first[job_id] = out
                problem = workloads.check(by_id[job_id], out)
                if problem:
                    errors.append(f"{job_id}: {problem}")
            elif out != first[job_id]:
                errors.append(f"{job_id}: output differs between passes")
    return errors


def count_failures(specs, passes):
    """(attempted, failed): an over-budget reach job is a miss, not a failure."""
    reach = {spec["id"] for spec in specs if spec["reach"]}
    attempted = failed = 0
    for p in passes:
        for job in p["jobs"]:
            attempted += 1
            if job["status"] == "error" or (job["status"] == "over_budget" and job["id"] not in reach):
                failed += 1
    return attempted, failed


def best_latencies(passes, completed_only=False):
    """Each job's fastest latency over the passes (a failed job's latency is
    its time at failure)."""
    best = {}
    for p in passes:
        for job in p["jobs"]:
            if job["status"] == "ok" or not completed_only:
                best[job["id"]] = min(best.get(job["id"], job["elapsed_s"]), job["elapsed_s"])
    return best


def end_to_end(specs, passes, setups):
    """`wall_s` is the median over the passes of the time a pass spends on
    the job list without its reach jobs: while they miss, they would add
    their budget, a constant, to it.  (Summing each job's fastest latency
    instead spread 1.3 to 2.6 times as much over five runs.)  The job
    metrics take each job's fastest latency over the passes, reach jobs
    included; a job that failed (typed error or over budget) in any pass
    counts once in `failed_job_ratio`."""
    reach = {spec["id"] for spec in specs if spec["reach"]}
    best = best_latencies(passes)
    failed = {job["id"] for p in passes for job in p["jobs"] if job["status"] != "ok"}
    latencies = sorted(best.values(), reverse=True)
    return {
        "wall_s": statistics.median(
            sum(job["elapsed_s"] for job in p["jobs"] if job["id"] not in reach) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
        "jobs": len(latencies),
        "job_p50_ms": statistics.median(latencies) * 1000,
        "job_tail_ms": latencies[10] * 1000,  # ten samples beyond it
        "failed_job_ratio": len(failed) / len(latencies),
    }


def per_layer(specs, untraced, traced):
    """The first traced pass's numbers.  Later traced passes skip the reach
    jobs, which add no counts while they miss, so they must repeat the counts."""
    values = dict(traced[0]["per_layer"])
    reach = {spec["id"] for spec in specs if spec["reach"]}
    if not any(job["id"] in reach and job["status"] == "ok" for job in traced[0]["jobs"]):
        for p in traced[1:]:
            if any(p["per_layer"][name] != values[name] for name in tracing.COUNTS):
                raise RunFailed("counts differ between traced passes")
    failed = {layer: 0 for layer in tracing.LAYERS + ("bench",)}
    values["reach.over_budget"] = 0
    for job in traced[0]["jobs"]:
        if job["status"] != "ok":
            failed[job["layer"]] += 1
            values["reach.over_budget"] += job["id"] in reach and job["status"] == "over_budget"
    values.update({f"{layer}.failed": n for layer, n in failed.items()})
    # tracing overhead: best traced over best untraced latencies, summed over
    # the jobs that completed in both kinds of pass
    plain, spanned = best_latencies(untraced, True), best_latencies(traced, True)
    both = plain.keys() & spanned.keys()
    values["trace.overhead_ratio"] = sum(spanned[j] for j in both) / sum(plain[j] for j in both)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "twistkit", "__init__.py")):
        print("run from the root of a twistkit checkout (src/twistkit not found)", file=sys.stderr)
        return 2

    env = environment(args.seed)
    specs = workloads.specs(args.workload, args.seed)
    try:
        if args.trace:
            untraced = []

            def untraced_pass(_):
                untraced.append(spawn(args.workload, args.seed, 0, deadline))

            count = max(2, round(args.seconds / (PASS_S[args.workload] * TRACED_PAIR)))
            passes = run_passes(args.workload, args.seed, count, 1, deadline, untraced_pass)
            metrics = per_layer(specs, untraced, passes)
            units = {name: "s" if name.endswith("_s") else "ratio" if "ratio" in name else "count"
                     for name in metrics}
            passes += untraced
        else:
            count = max(2, round(args.seconds / PASS_S[args.workload]))
            # each pass's own set-up, and enough set-up-only spawns after
            # each pass for MIN_SETUPS samples spread over the whole run
            setups = []
            extra = max(1, -(-(MIN_SETUPS - count) // count))

            def sample_setups(p):
                setups.append(p["setup_s"])
                for _ in range(extra):
                    setups.append(spawn(args.workload, args.seed, 0, deadline,
                                        setup_only=True)["setup_s"])

            passes = run_passes(args.workload, args.seed, count, 0, deadline, sample_setups)
            metrics = end_to_end(specs, passes, setups)
            units = END_TO_END
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3

    errors = check_outputs(specs, passes)
    attempted, failed = count_failures(specs, passes)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {} if errors else {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    job_metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in JOB_METRICS.items() if name in metrics and not errors}
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "passes": len(passes), "errors": errors,
                   "job_metrics": job_metrics, "jobs": [p["jobs"] for p in passes], **result},
                  fh, indent=1)
    for line in errors:
        print(f"wrong output: {line}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    if job_metrics:
        print("jobs " + json.dumps(job_metrics))
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
