"""One pass of one workload in a fresh interpreter (started by run.py).

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT TRACE FIRST_PASS [setup-only]

SPAWNED_AT is the parent's `time.monotonic()` just before the spawn (the
clock is system-wide on Linux), so set-up time covers interpreter start,
`import twistkit` and building the inputs.  The jobs then run one after
another, each under a SIGALRM budget of BUDGET_S.  Traced jobs run slower,
so a traced run gives each job TRACE_BUDGET_FACTOR times that, except reach
jobs: they are expected to miss the budget, and must miss it in traced and
untraced runs alike for the two to count the same completed work.  Reach
jobs run only when FIRST_PASS is 1: their cost is the budget, known without
repeating it.  The last line of standard output is
a JSON record of the pass with the outputs of the jobs that completed;
outputs are converted to plain data only after the last job and after the
peak RSS is read.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time


BUDGET_S = 3.0
TRACE_BUDGET_FACTOR = 4
OUT_DIR = ".perfbench"  # run records and spans, inside the checkout


class BudgetExceeded(BaseException):
    """The per-job budget ran out (a BaseException, so no `except Exception`
    inside the program can swallow it)."""


def _alarm(signum, frame):
    raise BudgetExceeded()


def main(argv):
    workload, seed, spawned_at, trace, first_pass = argv[:5]
    setup_only = len(argv) > 5
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.install()
    import jobs
    import workloads
    from twistkit.errors import TwistKitError

    specs = [spec for spec in workloads.specs(workload, int(seed))
             if first_pass == "1" or not spec["reach"]]
    built = [jobs.build(spec) for spec in specs]
    setup_s = time.monotonic() - float(spawned_at)
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    records, results = [], []
    for spec, (call, _) in zip(specs, built):
        record = {"id": spec["id"], "status": "ok", "error": None, "layer": None}
        if tracer:
            tracer.start_job(spec["id"])
        value = None
        start = time.perf_counter()
        budget = BUDGET_S * (TRACE_BUDGET_FACTOR if tracer and not spec["reach"] else 1)
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            value = call()
        except (BudgetExceeded, TwistKitError) as exc:
            signal.setitimer(signal.ITIMER_REAL, 0)
            record["status"] = "over_budget" if isinstance(exc, BudgetExceeded) else "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
            if tracer:
                record["layer"] = tracer.failed_layer(exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        record["elapsed_s"] = time.perf_counter() - start
        if tracer:
            tracer.end_job(record["status"] == "ok")
        records.append(record)
        results.append(value)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = {
        spec["id"]: plain(result)
        for spec, (_, plain), result, record in zip(specs, built, results, records)
        if record["status"] == "ok"
    }
    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "jobs": records, "outputs": outputs}
    if tracer:
        out["per_layer"] = tracer.per_layer()
    if tracer and first_pass == "1":  # the pass whose numbers a traced run reports
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip freeing the pass's objects one by one at exit (0.4 s after the
    # tree enumerations): nothing measures it, and it would lengthen every pass.
    os._exit(code)
