"""The benchmark's workloads: set-up, one operation, and the output check.

Nothing here imports polargrass at module level: `timed_setup` times the
import itself, so the package must not be loaded before it runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"

SEARCH_SAMPLES = 1000  # the CLI default; keeps peak memory inside 8 GB
VERIFY_SAMPLES = 100  # the CLI default of `polargrass verify`
VERIFY_BUDGET = 10**7  # the CLI default exhaustive-scan budget


class OutputMismatch(Exception):
    """An operation returned an output that differs from the expected one."""


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    n: int
    builds_code: bool  # set-up includes standard_code(ctx, n)
    cli_argv: tuple[str, ...]
    operate: Callable  # (workload, ctx, code, seed) -> (output text, operations)
    check: Callable  # (workload, output text, seed) -> None, or raises


def expected_text(wl: Workload, kind: str) -> str:
    """Reference output: kind is 'lib' (library output at seed 0) or 'cli'."""
    return (EXPECTED / f"{wl.name}.{kind}.txt").read_text(encoding="utf-8")


def import_polargrass():
    """Import polargrass from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polargrass

    if SRC.resolve() not in Path(polargrass.__file__).resolve().parents:
        raise ImportError(f"polargrass imported from {polargrass.__file__}, not {SRC}")
    return polargrass


def timed_setup(wl: Workload):
    """Import polargrass, build the field and (for scans) the code.

    Returns (ctx, code, seconds); code is None for the verify workloads.
    """
    t0 = time.perf_counter()
    pg = import_polargrass()
    ctx = pg.field_ctx(wl.q)
    code = pg.standard_code(ctx, wl.n) if wl.builds_code else None
    return ctx, code, time.perf_counter() - t0


def run_cli(main, argv) -> tuple[int, str]:
    """Call a CLI entry point in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue()


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise OutputMismatch(what)


def _require_seed0_bytes(wl: Workload, text: str, seed: int) -> None:
    if seed == 0:
        _require(text == expected_text(wl, "lib"), "output bytes differ from the reference output")


# ---- exhaustive scan ---------------------------------------------------------


def _exhaustive(wl, ctx, code, seed):
    from polargrass.code import min_distance_exact

    q, k = code.params.q, code.params.K
    return f"{min_distance_exact(code)}\n", (q**k - 1) // (q - 1)


def _check_exhaustive(wl, text, seed):
    from polargrass.code import code_parameters

    claimed = code_parameters(wl.n, wl.q).d_claimed
    _require(text == f"{claimed}\n", f"exact minimum distance {text.strip()} != claimed {claimed}")
    _require(text == expected_text(wl, "lib"), "exact minimum distance differs from the reference output")


# ---- certified search --------------------------------------------------------


def _search(wl, ctx, code, seed):
    from polargrass.code import min_distance_certified

    rec = min_distance_certified(code, samples=SEARCH_SAMPLES, seed=seed)
    return json.dumps(rec, indent=2) + "\n", SEARCH_SAMPLES


def _check_search(wl, text, seed):
    rec = json.loads(text)
    want = json.loads(expected_text(wl, "lib"))
    _require(rec["claimed"] == want["claimed"], f"claimed {rec['claimed']} != {want['claimed']}")
    _require(rec["upper_bound"] == want["upper_bound"], f"upper bound {rec['upper_bound']} != {want['upper_bound']}")
    _require(rec["min_sampled"] >= want["claimed"], f"sampled weight {rec['min_sampled']} below the claim")
    _require(rec["samples_checked"] == SEARCH_SAMPLES, "wrong sample count")
    _require_seed0_bytes(wl, text, seed)


# ---- verify checks -----------------------------------------------------------


def _verify(wl, ctx, code, seed):
    from polargrass.counting import run_checks

    shared = {
        "n": wl.n,
        "q": wl.q,
        "samples": VERIFY_SAMPLES,
        "seed": seed,
        "budget": VERIFY_BUDGET,
    }
    reports = run_checks(["all"], shared)
    return json.dumps(reports, indent=2) + "\n", len(reports)


def _check_verify(wl, text, seed):
    got = [(r["check"], r["status"]) for r in json.loads(text)]
    want = [(r["check"], r["status"]) for r in json.loads(expected_text(wl, "lib"))]
    _require(got == want, f"check statuses {got} != {want}")
    _require_seed0_bytes(wl, text, seed)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="exhaustive_n2q5",
            q=5,
            n=2,
            builds_code=True,
            cli_argv=("verify", "--q", "5", "--n", "2", "--check", "min-distance-exact"),
            operate=_exhaustive,
            check=_check_exhaustive,
        ),
        Workload(
            name="search_n3q5",
            q=5,
            n=3,
            builds_code=True,
            cli_argv=("search", "--q", "5", "--n", "3"),
            operate=_search,
            check=_check_search,
        ),
        Workload(
            name="verify_n3q3",
            q=3,
            n=3,
            builds_code=False,
            cli_argv=("verify", "--q", "3", "--n", "3"),
            operate=_verify,
            check=_check_verify,
        ),
        Workload(
            name="verify_n2q9",
            q=9,
            n=2,
            builds_code=False,
            cli_argv=("verify", "--q", "9", "--n", "2"),
            operate=_verify,
            check=_check_verify,
        ),
    )
}
