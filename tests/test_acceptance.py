# tests/test_acceptance.py
#
# One test per release criterion; each prints a single pass/fail line that
# survives pytest's capture, then asserts.  Run order matters only for the
# line numbering, not for correctness.
import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import polargrass
from polargrass.cli import main
from polargrass.code import (
    build_code,
    codeword_from_form,
    min_distance_certified,
    min_distance_exact,
)
from polargrass.counting import (
    FormTable,
    verify_census_all,
    verify_grid_maxima,
    verify_line_count_identity,
    verify_line_types,
    verify_orbit_counts,
)
from polargrass.field import field_ctx
from polargrass.forms import canonical_form, standard_space
from polargrass.matrix import rank_np


@lru_cache(maxsize=None)
def the_code(q, n):
    return build_code(standard_space(field_ctx(q), n))


def report(capsys, num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_exact_minimum_distance(capsys):
    t0 = time.perf_counter()
    code3 = the_code(3, 2)
    d3 = min_distance_exact(code3)
    t3 = time.perf_counter() - t0
    t0 = time.perf_counter()
    code5 = the_code(5, 2)
    d5 = min_distance_exact(code5)
    t5 = time.perf_counter() - t0
    ok = (
        d3 == 18 == 3**3 - 3**2
        and (code3.params.N, code3.params.K) == (40, 10)
        and d5 == 100 == 5**3 - 5**2
        and (code5.params.N, code5.params.K) == (156, 10)
        and t3 < 10
        and t5 < 600
    )
    report(capsys, 1, ok, f"exhaustive d_min {d3} (q=3, {t3:.1f}s) and {d5} (q=5, {t5:.1f}s)")


def test_criterion_1_exact_minimum_distance_q7_cli(capsys):
    # 47,079,208 projective messages, hence the raised budget
    t0 = time.perf_counter()
    rc = main(["verify", "--q", "7", "--n", "2", "--check", "min-distance-exact",
               "--budget", "1000000000"])
    elapsed = time.perf_counter() - t0
    rep = json.loads(capsys.readouterr().out)[0]
    ok = rc == 0 and rep["status"] == "ok" and rep["observed"] == 294 == 7**3 - 7**2
    report(capsys, 1, ok, f"exhaustive d_min {rep['observed']} (q=7, CLI verify, {elapsed:.1f}s)")


def test_criterion_1_exact_minimum_distance_q9_cli(capsys):
    # 597,871 high parts of width 7 over F_9, about 1.6% of them scanned
    t0 = time.perf_counter()
    rc = main(["verify", "--q", "9", "--n", "2", "--check", "min-distance-exact",
               "--budget", "1000000000"])
    elapsed = time.perf_counter() - t0
    rep = json.loads(capsys.readouterr().out)[0]
    ok = rc == 0 and rep["status"] == "ok" and rep["observed"] == 648 == 9**3 - 9**2
    report(capsys, 1, ok, f"exhaustive d_min {rep['observed']} (q=9, CLI verify, {elapsed:.1f}s)")


def test_criterion_2_canonical_weight_med(capsys):
    t0 = time.perf_counter()
    code = the_code(3, 3)
    w = codeword_from_form(code, canonical_form(code.ctx, 3, 5, 1, 1)[1]).weight
    k = rank_np(code.ctx, code.generator)
    elapsed = time.perf_counter() - t0
    ok = (
        w == 1944 == 3**7 - 3**5
        and code.params.N == 3640
        and k == 21 == code.params.K
        and elapsed < 60
    )
    report(capsys, 2, ok, f"canonical weight {w}, N={code.params.N}, rank(G)={k} ({elapsed:.1f}s)")


def test_criterion_3_census_all_shapes(capsys):
    t0 = time.perf_counter()
    reports = [verify_census_all(FormTable(n, q)) for n, q in [(2, 3), (3, 3), (2, 5)]]
    elapsed = time.perf_counter() - t0
    shapes = sum(len(r["entries"]) for r in reports)
    ok = all(r["status"] == "ok" for r in reports) and elapsed < 300
    report(capsys, 3, ok, f"{shapes} closed censuses match scans at (2,3),(3,3),(2,5) ({elapsed:.1f}s)")


def test_criterion_4_line_count_identity(capsys):
    rep = verify_line_count_identity(FormTable(3, 3, samples=100, seed=0))
    ok = rep["status"] == "ok"
    report(capsys, 4, ok, f"(q+1)f = census sum = tau sum on 100 random forms at (3,3): {rep['observed']}")


def test_criterion_5_line_types_and_flags(capsys):
    rep = verify_line_types(FormTable(3, 3, samples=100, seed=0))
    ok = rep["status"] == "ok"
    report(capsys, 5, ok, f"five line types and flag identities on the same forms: {rep['observed']}")


def test_criterion_6_grid_maxima(capsys):
    reports = {(n, q): verify_grid_maxima(FormTable(n, q)) for n in (3, 4) for q in (3, 5)}
    ok = all(r["status"] == "ok" for r in reports.values())
    spots = {k: r["observed"]["argmax"] for k, r in reports.items()}
    report(capsys, 6, ok, f"grid argmax (2n-1, 1) with closed max and complement: {spots}")


def test_criterion_7_orbit_counts(capsys):
    reports = {(n, q): verify_orbit_counts(FormTable(n, q)) for n in (2, 3) for q in (3, 5)}
    ok = all(r["status"] == "ok" for r in reports.values())
    report(capsys, 7, ok, f"point orbit counts reproduced at n in {{2,3}}, q in {{3,5}}")


def test_criterion_8_no_counterexample_sampling(capsys):
    code = the_code(3, 3)
    rec = min_distance_certified(code, samples=10**4, seed=2026)
    ok = rec["min_sampled"] >= 1944 and rec["samples_checked"] == 10**4
    report(capsys, 8, ok, f"10^4 seeded random forms at (3,3): min sampled weight {rec['min_sampled']} >= 1944")


def test_criterion_9_reproducibility(capsys):
    # the children import the package this test imports
    env = dict(os.environ, PYTHONPATH=str(Path(polargrass.__file__).parents[1]))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "polargrass.cli", *argv],
            capture_output=True,
            env=env,
            timeout=300,
        ).stdout

    pairs = [
        (
            cli("search", "--q", "3", "--n", "2", "--samples", "300", "--seed", "5"),
            cli("verify", "--q", "3", "--n", "2", "--check", "grid-maxima"),
        )
        for _ in range(2)
    ]
    ok = pairs[0] == pairs[1] and all(p for pair in pairs for p in pair)
    report(capsys, 9, ok, "two runs of one search and one verify configuration give byte-identical stdout")
