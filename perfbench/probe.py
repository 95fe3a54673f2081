"""One workload process: time its set-up and its operations, check the outputs.

    python3 perfbench/probe.py WORKLOAD SEED BUDGET_SECONDS

Sets up once, then runs the operation again and again, checking each
output, until one more operation would end past BUDGET_SECONDS from the
start of the process (at least one operation).  Prints one JSON line with
setup_s, run_s (one wall time per operation), ops (per operation),
attempted, failed and peak_rss_mb.  peak_rss_mb is ru_maxrss after the
first operation: what one user's process running the job once reaches.
run.py starts several of these per run, one after another, so every set-up
pays what a user's process pays: a cold import and a fresh heap.
"""

import json
import resource
import sys
import time
import traceback

from workloads import WORKLOADS, timed_setup


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(name: str, seed: int, budget: float) -> None:
    start = time.perf_counter()
    wl = WORKLOADS[name]
    rec = {"setup_s": None, "run_s": [], "ops": 0, "attempted": 0, "failed": 0, "peak_rss_mb": None}
    try:
        ctx, code, rec["setup_s"] = timed_setup(wl)
    except Exception:
        traceback.print_exc()
        rec.update(attempted=1, failed=1)
    while rec["setup_s"] is not None:
        rec["attempted"] += 1
        t0 = time.perf_counter()
        try:
            text, rec["ops"] = wl.operate(wl, ctx, code, seed)
            rec["run_s"].append(time.perf_counter() - t0)
            wl.check(wl, text, seed)
        except Exception:
            traceback.print_exc()
            rec["failed"] += 1
            break
        finally:
            if rec["peak_rss_mb"] is None:
                rec["peak_rss_mb"] = _peak_rss_mb()
        if time.perf_counter() - start + rec["run_s"][-1] > budget:
            break
    if rec["peak_rss_mb"] is None:
        rec["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(rec))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
