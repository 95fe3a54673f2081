"""Benchmark for polargrass: run one workload, check its output, print metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, with a table

With --trace 0 the run is untraced and reports the end-to-end metrics of
BENCHMARK.json.  It starts PROBES probe processes (probe.py) one after
another and shares --seconds among them.  Each probe does what a user's
process does: import polargrass and set up; then it runs the operation
and checks its output, again and again while its share of time lasts.
setup_s and peak_rss_mb are medians over the probes, run_s the median over
all their operations.  With --trace 1 the run works in this process.  It
wraps the layers' entry points in spans (see spans.py), alternates traced
and untraced operations, then drives the workload once through
polargrass.cli.main, and reports the per-layer metrics of BENCHMARK.json.
The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  The full record (provenance, every sample) and the
spans go to perfbench/out/.

A traced-run set-up, an operation and the CLI run each count as one
attempt, and so does a probe that fails before its first operation.  An
attempt fails if it raises, dies or its output check fails.  The failure
is counted and the run goes on.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback

from spans import Tracer, layer_metrics, median_metrics
from workloads import HERE, ROOT, SRC, WORKLOADS, expected_text, import_polargrass, run_cli, timed_setup

OUT = HERE / "out"
CHILD_TIMEOUT_S = 170
# An untraced run starts no probe after this and kills a probe that runs
# past it, so the run ends within its time limit even on a slow build.
RUN_DEADLINE_S = 150
# Probes per untraced run: setup_s is the median of their set-ups, run_s the
# median of all their operations.  Five give exhaustive_n2q5, whose operation
# takes about a fifth of run_seconds, five operations.
PROBES = 5


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _failure(what: str) -> None:
    print(f"FAILED: {what}", file=sys.stderr)
    traceback.print_exc()


# ---- provenance --------------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(
        ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30, check=False,
    )
    return res.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> tuple[str | None, int | None]:
    """BLAS name from numpy's build config; thread count from the loaded
    OpenBLAS, if there is one."""
    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _mem_total_kib() -> int | None:
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for ln in fh:
            if ln.startswith("MemTotal:"):
                return int(ln.split()[1])
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    blas, threads = _blas()
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kib": _mem_total_kib(),
        "seed": seed,
    }


# ---- timed units ---------------------------------------------------------------


def probe(wl, seed: int, budget: float, timeout: float) -> dict:
    """Set-up and operations in a fresh process (probe.py); a process that
    dies, hangs or prints no result counts as one failed attempt."""
    dead = {"setup_s": None, "run_s": [], "ops": 0, "attempted": 1, "failed": 1, "peak_rss_mb": None}
    try:
        res = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), wl.name, str(seed), f"{budget:.3f}"],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"FAILED: {wl.name} probe killed after {timeout:.0f} s", file=sys.stderr)
        return dead
    sys.stderr.write(res.stderr)
    try:
        return json.loads(res.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"FAILED: {wl.name} probe exited {res.returncode} without a result", file=sys.stderr)
        return dead


def operate(wl, ctx, code, seed: int) -> tuple[float, bool]:
    """One operation in this process: (wall seconds, output correct)."""
    t0 = time.perf_counter()
    try:
        text, _ = wl.operate(wl, ctx, code, seed)
        dt = time.perf_counter() - t0
        wl.check(wl, text, seed)
        return dt, True
    except Exception:
        dt = time.perf_counter() - t0
        _failure(f"{wl.name} operation")
        return dt, False


def _median(vals: list) -> float:
    vals = [v for v in vals if v is not None]
    return statistics.median(vals) if vals else 0.0


def run_untraced(wl, seed: int, seconds: int) -> dict:
    probes = []
    start = time.perf_counter()
    for i in range(PROBES):
        elapsed = time.perf_counter() - start
        if elapsed >= RUN_DEADLINE_S:
            break
        budget = (seconds - elapsed) / (PROBES - i)
        probes.append(probe(wl, seed, budget, RUN_DEADLINE_S - elapsed))
    run_s = _median([dt for p in probes for dt in p["run_s"]])
    ops = max(p["ops"] for p in probes)
    metrics = {
        "setup_s": _median([p["setup_s"] for p in probes]),
        "run_s": run_s,
        "ops_per_s": ops / run_s if run_s > 0 else 0.0,
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in probes]),
    }
    return {
        "attempted": sum(p["attempted"] for p in probes),
        "failed": sum(p["failed"] for p in probes),
        "metrics": metrics,
        "samples": {"probes": probes},
    }


def run_traced(wl, seed: int, seconds: int) -> tuple[dict, list[list]]:
    import_polargrass()
    import polargrass.cli as cli

    tracer = Tracer()
    attempted = failed = 0
    tracer.phase = "setup"
    tracer.install()
    try:
        ctx, code, _ = timed_setup(wl)
    except Exception:
        _failure(f"{wl.name} set-up")
        return {"attempted": 1, "failed": 1, "metrics": {}, "samples": {}}, tracer.spans
    finally:
        tracer.uninstall()
    attempted += 1

    traced: list[tuple[int, float]] = []
    untraced: list[float] = []
    start = time.perf_counter()
    while not traced or not untraced or time.perf_counter() - start < seconds:
        rep = len(traced) + len(untraced)
        if rep % 2 == 0:
            tracer.phase = f"rep{rep}"
            tracer.install()
            try:
                dt, ok = operate(wl, ctx, code, seed)
            finally:
                tracer.uninstall()
            traced.append((rep, dt))
        else:
            dt, ok = operate(wl, ctx, code, seed)
            untraced.append(dt)
        attempted += 1
        failed += not ok

    tracer.phase = "cli"
    tracer.install()
    try:
        rc, out = run_cli(tracer.wrap("cli.main", cli.main), wl.cli_argv)
        if rc != 0 or out != expected_text(wl, "cli"):
            raise AssertionError(f"`polargrass {' '.join(wl.cli_argv)}` exited {rc}; stdout equal: {out == expected_text(wl, 'cli')}")
    except Exception:
        _failure(f"{wl.name} CLI run")
        failed += 1
    finally:
        tracer.uninstall()
    attempted += 1

    per_rep = [layer_metrics(tracer.spans, {"setup", f"rep{rep}"}) for rep, _ in traced]
    metrics = median_metrics(per_rep)
    metrics["cli.self_s"] = layer_metrics(tracer.spans, {"cli"})["cli.self_s"]
    metrics["trace.run_s"] = statistics.median(dt for _, dt in traced)
    metrics["trace.untraced_run_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    samples = {
        "traced_run_s": [dt for _, dt in traced],
        "untraced_run_s": untraced,
        "per_rep": per_rep,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "samples": samples}, tracer.spans


# ---- one workload ----------------------------------------------------------------


def run_one(wl, seed: int, seconds: int, trace: bool) -> int:
    spec = _spec()
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    spans = None
    if trace:
        result, spans = run_traced(wl, seed, seconds)
    else:
        result = run_untraced(wl, seed, seconds)
    if result["metrics"] and set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {kind}")

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": wl.name,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(seed),
        **result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        payload = {"fields": ["name", "parent", "phase", "start", "end", "note"], "spans": spans}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(payload) + "\n", encoding="utf-8")

    attempted, failed = result["attempted"], result["failed"]
    print(f"{wl.name} seed {seed}: record in {OUT.relative_to(ROOT) / (stem + '.json')}")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} failed)")
    metrics = {
        name: {"value": result["metrics"].get(name, 0.0), "unit": unit} for name, unit in units.items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# ---- every workload ----------------------------------------------------------------


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, one after another; then a table."""
    rows = {}
    for name in WORKLOADS:
        for t in (0, 1) if trace else (0,):
            res = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(t)],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
            )
            sys.stderr.write(res.stderr)
            if res.returncode != 0:
                print(f"{name} (trace {t}) exited {res.returncode}", file=sys.stderr)
                return 1
            rows[name, t] = json.loads(res.stdout.splitlines()[-1])
    header = ["workload", "setup_s [s]", "run_s [s]", "ops_per_s [1/s]", "peak_rss_mb [MiB]", "fail_ratio"]
    if trace:
        header += ["trace overhead [s]"]
    print(" | ".join(header))
    for name in WORKLOADS:
        r = rows[name, 0]
        m = {k: v["value"] for k, v in r["metrics"].items()}
        cells = [name, f"{m['setup_s']:.3f}", f"{m['run_s']:.3f}", f"{m['ops_per_s']:.4g}",
                 f"{m['peak_rss_mb']:.0f}", f"{r['failed'] / r['attempted']:.3g}"]
        if trace:
            cells.append(f"{rows[name, 1]['metrics']['trace.overhead_s']['value']:+.3f}")
        print(" | ".join(cells))
    ok = all(r["correct"] for r in rows.values())
    summary = {f"{name}{'/trace' if t else ''}": r for (name, t), r in rows.items()}
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0


def main(argv=None) -> int:
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the probe.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = _spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if missing:
        raise RuntimeError(f"BENCHMARK.json workloads {sorted(missing)} are not in perfbench/workloads.py")
    if not (SRC / "polargrass" / "__init__.py").is_file():
        print(f"error: no polargrass sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
