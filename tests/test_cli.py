# tests/test_cli.py
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import polargrass
from polargrass import forms, geometry
from polargrass.cli import main
from polargrass.code import memory_estimate
from polargrass.counting import CHECKS
from polargrass.field import field_ctx
from polargrass.forms import canonical_form
from polargrass.matrix import format_matrix_text
from test_code import parse_code_text

F3 = field_ctx(3)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------
# build
# ---------------------------------------------------------
def test_build_small(capsys):
    rc, out, _ = run(capsys, "build", "--q", "3", "--n", "2")
    assert rc == 0
    assert out == "40 10 18\n"


def test_build_med(capsys):
    rc, out, _ = run(capsys, "build", "--q", "3", "--n", "3")
    assert rc == 0
    assert out == "3640 21 1944\n"


def test_build_extension_field(capsys):
    rc, out, _ = run(capsys, "build", "--q", "9", "--n", "2")
    assert rc == 0
    assert out == "820 10 648\n"


def test_build_wider_than_an_integer_key(capsys):
    # q^K = 79^10 >= 2^62: the lines are ordered with no integer key
    rc, out, _ = run(capsys, "build", "--q", "79", "--n", "2")
    assert (rc, out) == (0, "499360 10 486798\n")


@pytest.mark.parametrize("q", ["4", "12", "1"])
def test_build_rejects_bad_field(capsys, q):
    rc, _, err = run(capsys, "build", "--q", q, "--n", "2")
    assert rc == 2
    assert "error:" in err


def test_build_rejects_bad_extension(capsys):
    # --q names the field order; there is no separate extension degree
    with pytest.raises(SystemExit) as ex:
        main(["build", "--q", "3", "--e", "2", "--n", "2"])
    assert ex.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_build_writes_generator(tmp_path, capsys):
    path = tmp_path / "code.txt"
    rc, out, _ = run(capsys, "build", "--q", "3", "--n", "2", "-o", str(path))
    assert rc == 0 and out == "40 10 18\n"
    rec = parse_code_text(path.read_text())
    assert (rec["N"], rec["K"], rec["q"], rec["n"]) == (40, 10, 3, 2)
    assert rec["d_claimed"] == 18

    jpath = tmp_path / "code.json"
    rc, _, _ = run(capsys, "build", "--q", "3", "--n", "2", "--format", "json", "-o", str(jpath))
    assert rc == 0
    assert json.loads(jpath.read_text())["G"] == rec["G"]


def test_build_unwritable_output(capsys):
    rc, _, err = run(capsys, "build", "--q", "3", "--n", "2", "-o", "/no/such/dir/x.txt")
    assert rc == 3
    assert "error:" in err


# ---------------------------------------------------------
# verify
# ---------------------------------------------------------
def test_verify_single_check(capsys):
    rc, out, _ = run(capsys, "verify", "--q", "3", "--n", "3", "--check", "grid-maxima")
    assert rc == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["check"] == "grid-maxima"
    assert reports[0]["status"] == "ok"


def test_verify_unknown_check(capsys):
    rc, _, err = run(capsys, "verify", "--q", "3", "--n", "2", "--check", "nope")
    assert rc == 2
    assert "unknown check" in err


def test_verify_census_filter(capsys):
    rc, out, _ = run(
        capsys,
        "verify", "--q", "3", "--n", "3",
        "--check", "census-all", "--case", "1", "--r", "5", "--d", "1",
    )
    assert rc == 0
    reports = json.loads(out)
    entries = reports[0]["entries"]
    assert len(entries) == 1
    assert entries[0]["expected"] == [49, 72, 243, 0]
    assert entries[0]["observed"] == [49, 72, 243, 0]


def test_verify_filter_no_match(capsys):
    rc, _, err = run(
        capsys,
        "verify", "--q", "3", "--n", "2", "--check", "census-all", "--r", "9",
    )
    assert rc == 2
    assert "no census entry" in err


@pytest.mark.parametrize("case", ["2", "3", "4"])
def test_verify_equation_counts_are_case_1_entries(capsys, case):
    # equation-counts entries carry no case key: all are case-1 shapes
    rc, _, err = run(capsys, "verify", "--q", "3", "--n", "2", "--check", "equation-counts", "--case", case)
    assert rc == 2
    assert "no census entry matches" in err
    rc, out, _ = run(capsys, "verify", "--q", "3", "--n", "2", "--check", "equation-counts", "--case", "1")
    assert rc == 0
    assert len(json.loads(out)[0]["entries"]) == 4


@pytest.mark.parametrize(
    "check,flags,kept",
    [
        ("census-all", ["--r", "3"], 4),
        ("census-all", ["--case", "3"], 3),
        ("census-all", [], 6),
        ("equation-counts", ["--r", "1"], 2),
        ("equation-counts", [], 4),
    ],
)
def test_verify_filtered_report_counts_the_kept_entries(capsys, check, flags, kept):
    rc, out, _ = run(capsys, "verify", "--q", "3", "--n", "2", "--check", check, *flags)
    assert rc == 0
    report = json.loads(out)[0]
    assert len(report["entries"]) == kept
    assert report["observed"] == f"{kept} shapes checked"


def test_verify_filter_wrong_check(capsys):
    rc, _, err = run(
        capsys,
        "verify", "--q", "3", "--n", "2", "--check", "grid-maxima", "--r", "3",
    )
    assert rc == 2
    assert "filter" in err


def test_verify_all_skips_inapplicable(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("POLAR_BUDGET", raising=False)
    path = tmp_path / "report.json"
    rc, out, _ = run(
        capsys, "verify", "--q", "3", "--n", "2", "--samples", "10", "-o", str(path)
    )
    assert rc == 0
    assert "case-maxima: skipped" in out
    assert "min-distance-exact: ok" in out
    reports = json.loads(path.read_text())
    by_name = {r["check"]: r["status"] for r in reports}
    assert by_name["case-maxima"] == "skipped"
    assert all(s in ("ok", "skipped") for s in by_name.values())


def test_verify_budget_env_named_check(capsys, monkeypatch):
    monkeypatch.setenv("POLAR_BUDGET", "10")
    rc, _, err = run(
        capsys, "verify", "--q", "3", "--n", "2", "--check", "min-distance-exact"
    )
    assert rc == 2
    assert "budget" in err


def test_verify_budget_env_all_skips(capsys, monkeypatch):
    monkeypatch.setenv("POLAR_BUDGET", "10")
    rc, out, _ = run(capsys, "verify", "--q", "3", "--n", "2", "--samples", "5")
    assert rc == 0
    by_name = {r["check"]: r["status"] for r in json.loads(out)}
    assert by_name["min-distance-exact"] == "skipped"


def test_verify_budget_flag(capsys, monkeypatch):
    monkeypatch.delenv("POLAR_BUDGET", raising=False)
    rc, _, err = run(
        capsys,
        "verify", "--q", "3", "--n", "2", "--check", "min-distance-exact",
        "--budget", "10",
    )
    assert rc == 2
    assert "budget" in err


@pytest.mark.parametrize("command", ["verify", "search"])
def test_workers_is_not_an_option(capsys, command):
    with pytest.raises(SystemExit) as ex:
        main([command, "--q", "3", "--n", "2", "--workers", "1"])
    assert ex.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_verify_bad_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("POLAR_BUDGET", "abc")
    rc, out, err = run(capsys, "verify", "--q", "3", "--n", "2", "--check", "grid-maxima")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: POLAR_BUDGET")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "search"])
def test_negative_samples(capsys, command):
    rc, out, err = run(capsys, command, "--q", "3", "--n", "2", "--samples", "-5")
    assert rc == 2
    assert out == ""
    assert "samples" in err


@pytest.mark.parametrize("samples", [2**63 - 1, 2**63, 10**20])
def test_samples_past_memory_are_refused(capsys, samples):
    # the draw of the sampled forms is admitted before numpy is asked for it
    rc, _, err = run(capsys, "verify", "--q", "3", "--n", "2", "--samples", str(samples))
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,env,what",
    [
        (("verify", "--seed", "-1", "--check", "census-all"), None, "seed"),
        (("search", "--seed", "-1"), None, "seed"),
        (("verify", "--budget", "-1"), None, "budget"),
        (("verify", "--check", "min-distance-exact"), "-1", "POLAR_BUDGET"),
    ],
    ids=["verify-seed", "search-seed", "verify-budget", "verify-env-budget"],
)
def test_negative_seed_and_budget(capsys, monkeypatch, argv, env, what):
    # a negative seed reached numpy's generator as a traceback with exit 1,
    # and a negative budget skipped the exhaustive scan with exit 0
    if env is None:
        monkeypatch.delenv("POLAR_BUDGET", raising=False)
    else:
        monkeypatch.setenv("POLAR_BUDGET", env)
    rc, out, err = run(capsys, argv[0], "--q", "3", "--n", "2", *argv[1:])
    assert rc == 2
    assert out == ""
    assert err == f"error: {what} must be >= 0, got -1\n"


# ---------------------------------------------------------
# weight
# ---------------------------------------------------------
def write_form(tmp_path, name, af):
    path = tmp_path / name
    path.write_text(format_matrix_text(af.ctx.q, af.s))
    return str(path)


def test_weight_canonical_med(tmp_path, capsys):
    path = write_form(tmp_path, "canon.txt", canonical_form(F3, 3, 5, 1, 1)[1])
    rc, out, _ = run(capsys, "weight", path)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "weight 1944 r 5"
    assert lines[1] == "census 49 72 243 0 lines_on_quadric 1696 of 3640"


def test_weight_canonical_small(tmp_path, capsys):
    path = write_form(tmp_path, "canon2.txt", canonical_form(F3, 2, 3, 1, 1)[1])
    rc, out, _ = run(capsys, "weight", "--q", "3", path)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "weight 18 r 3"
    assert lines[1] == "census 7 6 27 0 lines_on_quadric 22 of 40"


def test_weight_transported_form(tmp_path, capsys):
    # the case-3 shape (r, d) = (5, 0), built in its own space
    # canonical_form(F3, 3, 5, 0, 3) and carried to the standard space by a
    # congruence of the two Gram matrices: e_0 ^ e_6
    moved = [[0] * 7 for _ in range(7)]
    moved[0][6], moved[6][0] = 1, 2
    path = tmp_path / "moved.txt"
    path.write_text(format_matrix_text(3, moved))
    rc, out, _ = run(capsys, "weight", str(path))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "weight 2160 r 5"
    assert lines[1] == "census 42 160 90 72 lines_on_quadric 1480 of 3640"


def test_weight_of_an_11x11_form(tmp_path, capsys):
    # its 24,209,680 lines would not fit in memory; its census does
    path = write_form(tmp_path, "canon5.txt", canonical_form(F3, 5, 9, 1, 1)[1])
    rc, out, _ = run(capsys, "weight", path)
    assert rc == 0
    assert out == "weight 14171760 r 9\ncensus 3361 6480 19683 0 lines_on_quadric 10037920 of 24209680\n"


@st.composite
def weight_files(draw):
    """Random bytes, or the bytes of a matrix file near a valid form file:
    a dim x dim alternating form, dim 3 to 13, over a field or a bad
    order, now and then with an entry out of range or off the alternating
    pattern, a broken header or a byte that is not UTF-8."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    dim = draw(st.integers(1, 6).map(lambda k: 2 * k + 1) | st.integers(3, 13))
    q = draw(st.sampled_from([3, 3, 3, 5, 9, 4, 1, 2049]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.integers(0, max(q, 2), (dim, dim)), 1)
    m = field_ctx(q).np_sub(upper, upper.T) if q in (3, 5, 9) else upper
    if draw(st.integers(0, 3)) == 0:
        m[rng.integers(dim), rng.integers(dim)] = draw(st.integers(-1, q))
    header = f"{dim} {dim} {q}"
    if draw(st.integers(0, 3)) == 0:
        header = draw(st.sampled_from([f"{dim + 1} {dim} {q}", f"{dim} {dim}", f"{dim} x {q}", f"-{dim} {dim} {q}", ""]))
    data = "\n".join([header] + [" ".join(map(str, row)) for row in m.tolist()]).encode()
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def test_weight_rejects_non_alternating(tmp_path, capsys):
    path = tmp_path / "sym.txt"
    path.write_text(format_matrix_text(3, np.eye(5, dtype=np.int64)))
    rc, _, err = run(capsys, "weight", str(path))
    assert rc == 2
    assert "error:" in err


def test_weight_rejects_wrong_field(tmp_path, capsys):
    path = write_form(tmp_path, "f3.txt", canonical_form(F3, 2, 3, 1, 1)[1])
    rc, _, err = run(capsys, "weight", "--q", "5", path)
    assert rc == 2
    assert "error:" in err


def test_weight_rejects_even_dimension(tmp_path, capsys):
    m = [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]
    path = tmp_path / "even.txt"
    path.write_text(format_matrix_text(3, m))
    rc, _, err = run(capsys, "weight", str(path))
    assert rc == 2
    assert "odd dimension" in err


def test_weight_missing_file(capsys):
    rc, _, err = run(capsys, "weight", "/no/such/file.txt")
    assert rc == 3
    assert "error:" in err


# ---------------------------------------------------------
# search
# ---------------------------------------------------------
def test_search_report(capsys):
    rc, out, _ = run(capsys, "search", "--q", "3", "--n", "2", "--samples", "200", "--seed", "3")
    assert rc == 0
    rec = json.loads(out)
    assert rec["claimed"] == 18
    assert rec["upper_bound"] == 18
    assert rec["samples_checked"] == 200
    assert rec["min_sampled"] >= 18


def test_search_same_seed_same_bytes(capsys):
    args = ("search", "--q", "3", "--n", "2", "--samples", "100", "--seed", "9")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_search_samples_past_the_budget_are_refused(capsys, monkeypatch):
    # 10^11 samples ran past a 20 s timeout; they are refused before the
    # code is built, by the exhaustive scan's default budget
    monkeypatch.delenv("POLAR_BUDGET", raising=False)
    start = time.perf_counter()
    rc, out, err = run(capsys, "search", "--q", "3", "--n", "2", "--samples", str(10**11))
    assert time.perf_counter() - start < 1
    assert (rc, out, err) == (2, "", "error: 100000000000 samples exceed the budget 10000000\n")


@pytest.mark.parametrize("budget,rc", [("10", 2), ("100", 0)])
def test_search_samples_within_polar_budget(capsys, monkeypatch, budget, rc):
    monkeypatch.setenv("POLAR_BUDGET", budget)
    got, out, err = run(capsys, "search", "--q", "3", "--n", "2", "--samples", "20")
    assert got == rc
    assert err == ("" if rc == 0 else "error: 20 samples exceed the budget 10\n")
    assert rc == 2 or json.loads(out)["samples_checked"] == 20


def test_search_out_of_memory(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("polargrass.cli.min_distance_certified", exhausted)
    rc, out, err = run(capsys, "search", "--q", "3", "--n", "2")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


# ---------------------------------------------------------
# parameters too big for memory
# ---------------------------------------------------------
RLIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from polargrass.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_rlimited(*argv, script=RLIMITED_MAIN):
    """The CLI in a child process whose address space is capped at 1 GiB,
    so a wrongly admitted size fails there instead of filling the host.
    One BLAS thread keeps the child's address space independent of the
    host's core count."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(polargrass.__file__).parents[1]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )


@pytest.mark.parametrize(
    "argv,what",
    [
        (("build", "--q", "3", "--n", "99999"), "a Gram matrix of dimension 199999"),
        (("build", "--q", "3", "--n", "5"), "the code of n=5, q=3"),
        (("search", "--q", "3", "--n", "5"), "the code of n=5, q=3"),
        (("verify", "--q", "3", "--n", "5", "--check", "line-count-identity"),
         "the singular lines of Q(10, 3)"),
        (("verify", "--q", "3", "--n", "9", "--check", "orbit-counts"),
         "the points of PG(18, 3)"),
    ],
    ids=["build-gram", "build-code", "search-code", "verify-lines", "verify-points"],
)
def test_too_large_parameters_rejected(argv, what):
    res = run_rlimited(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {what} needs at least ")
    assert res.stderr.endswith(" GiB available\n")
    assert "Traceback" not in res.stderr


def test_weight_too_large_rejected(tmp_path):
    # weight builds no lines, so its only refusal is at the points
    path = tmp_path / "form17.txt"
    path.write_text(format_matrix_text(3, np.zeros((17, 17), dtype=np.int64)))
    res = run_rlimited("weight", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("error: the points of PG(16, 3) needs at least ")


def test_admitted_parameters_run_under_rlimit():
    res = run_rlimited("build", "--q", "3", "--n", "2")
    assert (res.returncode, res.stdout) == (0, "40 10 18\n")


def test_closed_form_checks_run_where_the_code_would_not_fit():
    # grid-maxima and case-maxima build no points, lines or code
    res = run_rlimited(
        "verify", "--q", "3", "--n", "5", "--check", "grid-maxima", "--check", "case-maxima"
    )
    assert res.returncode == 0, res.stderr
    reports = json.loads(res.stdout)
    assert [(r["check"], r["status"]) for r in reports] == [
        ("grid-maxima", "ok"),
        ("case-maxima", "ok"),
    ]


@pytest.mark.parametrize("n", [1, 0, -1])
@pytest.mark.parametrize("check", ["all", *sorted(CHECKS)])
def test_verify_below_n2_is_inadmissible(capsys, check, n):
    # the form table rejected no n: `all` and most checks ended in a
    # traceback with exit 1, grid-maxima in a TypeError
    rc, out, err = run(capsys, "verify", "--q", "3", "--n", str(n), "--check", check)
    assert rc == 2
    assert out == ""
    assert err == f"error: need n >= 2, got {n}\n"


def test_verify_admits_the_points_before_any_shape():
    # at n = 100 the canonical shapes, each with a Gram inverse, ran for
    # minutes; the points are refused first, under the 1 GiB cap too
    res = run_rlimited("verify", "--q", "3", "--n", "100")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: the points of PG(200, 3) needs at least over 2^100 bytes")
    assert "Traceback" not in res.stderr


def test_closed_form_checks_run_at_n_100(capsys):
    rc, out, _ = run(capsys, "verify", "--q", "3", "--n", "100", "--check", "grid-maxima", "--check", "case-maxima")
    assert rc == 0
    assert [(r["check"], r["status"]) for r in json.loads(out)] == [("grid-maxima", "ok"), ("case-maxima", "ok")]


@pytest.mark.parametrize("check", ["grid-maxima", "case-maxima"])
def test_maxima_past_the_budget_exit_2(monkeypatch, capsys, check):
    # 126^3 steps times the 5 bits of 27 pass the default budget 10^7
    monkeypatch.delenv("POLAR_BUDGET", raising=False)
    rc, out, err = run(capsys, "verify", "--q", "27", "--n", "126", "--check", check)
    assert (rc, out) == (2, "")
    assert err.startswith("error: the maxima at n = 126 over F_27 take n^3 * 5 = 10001880 steps")


@pytest.mark.parametrize("name", list(CHECKS))
def test_every_check_runs_or_refuses_at_n_100(capsys, name):
    # a check either runs or is refused with exit 2, never with a traceback
    rc, _, err = run(capsys, "verify", "--q", "3", "--n", "100", "--check", name)
    assert rc in (0, 2)
    assert "Traceback" not in err
    assert rc == 0 or err.startswith("error: ")


TIMED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from polargrass.cli import main
start = time.perf_counter()
rc = main(sys.argv[1:])
print(rc, time.perf_counter() - start)
"""


@pytest.mark.parametrize("name", ["line-count-identity", "line-type-census", "min-distance-exact", "grid-maxima",
                                  "case-maxima"])
def test_checks_at_n_2_63_are_refused_at_once(monkeypatch, name):
    # these five computed a power of q with about 2^64 digits before any
    # admission, and ran past a 5 s timeout; each now exits 2 within 1 s
    monkeypatch.delenv("POLAR_BUDGET", raising=False)
    res = run_rlimited("verify", "--q", "3", "--n", str(2**63), "--check", name, script=TIMED_MAIN)
    rc, seconds = res.stdout.split()
    assert rc == "2" and float(seconds) < 1
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


# ---------------------------------------------------------
# any command line
# ---------------------------------------------------------
NEGATIVE = [-1, -(2**63), -(2**64) - 1]
HUGE = [2**63 - 1, 2**63, 2**64 + 1, 10**30]
ODD_BUDGETS = ["", " ", "abc", "-1", "-0", "0", "10", " 100 ", "+7", "1e3", "0x10", "1_000", "1.5",
               "٣", "9" * 5000, "10000000000"]


def values(*small):
    return st.sampled_from([*small, *NEGATIVE, *HUGE])


@st.composite
def command_lines(draw):
    """(argv, weight file bytes or None, POLAR_BUDGET or None); argv's
    paths start with {tmp}.

    Fields: every order but 3, 5 and 9 is refused, 2039 by memory.  Sizes:
    n = 2, n <= 1, negative n and n past 2^63 everywhere.  Samples: a few, or past every valid budget drawn, which is at
    most 10^10.  POLAR_BUDGET is unset, malformed or small."""
    command = draw(st.sampled_from(["build", "verify", "weight", "search"]))
    field = ["--q", str(draw(st.sampled_from([3, 5, 9]) | st.sampled_from([0, 1, 2, 4, 12, 2039, 2187, *NEGATIVE, *HUGE])))]
    sizes = [1, 0, *NEGATIVE, *HUGE]
    size = ["--n", str(draw(st.just(2) | st.sampled_from(sizes)))]
    out = draw(st.sampled_from(["{tmp}/out.txt", "{tmp}/missing/out.txt"]))
    opt = {}
    if command == "build":
        opt["--format"] = draw(st.sampled_from(["text", "json"]))
        opt["-o"] = draw(st.none() | st.just(out))
    elif command == "verify" and draw(st.booleans()):
        opt["--samples"] = draw(st.none() | values(0, 1, 5))
        opt["--seed"] = draw(st.none() | values(0, 7))
        opt["--budget"] = draw(st.none() | values(0, 10, 10**7))
        opt["--r"] = draw(st.none() | values(0, 1, 2))
        opt["--d"] = draw(st.none() | values(0, 1))
        opt["--case"] = draw(st.none() | st.sampled_from([1, 2, 3, 4]))
    if command == "verify":
        opt["-o"] = draw(st.none() | st.just(out))
    elif command == "search":
        opt["--samples"] = draw(values(0, 1, 20))
        opt["--seed"] = draw(st.none() | values(0, 7))
        opt["-o"] = out
    argv = [command] + ([] if command == "weight" else field + size)
    argv += [f"{name}={value}" for name, value in opt.items() if value is not None]
    argv += [f"--check={name}" for name in draw(st.lists(st.sampled_from(["all", "nope", *CHECKS]), max_size=2))
             if command == "verify"]
    data = None
    if command == "weight":
        argv += draw(st.sampled_from([[], field]))
        data = draw(weight_files())
        argv.append(draw(st.just("{tmp}/form.txt") | st.sampled_from(["{tmp}/missing.txt", "{tmp}"])))
    return argv, data, draw(st.none() | st.sampled_from(ODD_BUDGETS))


def available_64_mib(monkeypatch):
    """64 MiB available to check_memory, so no admitted size is large."""
    proc_kib = forms._proc_kib
    monkeypatch.setattr(forms, "_proc_kib", lambda path, key: 64 << 10 if key == "MemAvailable" else proc_kib(path, key))


@given(command_lines())
@example((["weight", "{tmp}/form.txt"], b"\xff\xfe\x00", None))
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_on_any_command_line_exits_cleanly(tmp_path, capsys, monkeypatch, line):
    # main returns 0, 2 (bad or refused input) or 3 (I/O), each refusal on
    # stderr starting with "error: ", or 1 only with a witness file; no
    # exception escapes.  Every size that would do real work is small.
    argv, data, budget = line
    available_64_mib(monkeypatch)
    if budget is None:
        monkeypatch.delenv("POLAR_BUDGET", raising=False)
    else:
        monkeypatch.setenv("POLAR_BUDGET", budget)
    if data is not None:
        (tmp_path / "form.txt").write_bytes(data)
    witness = tmp_path / "out.txt"
    witness.unlink(missing_ok=True)
    rc, _, err = run(capsys, *[arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert rc in (0, 1, 2, 3)
    assert rc != 1 or (argv[0] == "search" and witness.exists())
    assert rc in (0, 1) or err.startswith("error: ")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 27])
@pytest.mark.parametrize("command", ["build", "search", "verify-points"])
def test_a_refused_size_does_no_work(capsys, monkeypatch, command, n, q):
    # With 64 MiB available, a size is refused before it reaches the points
    # pass or the pairing of the singular lines, or it is admitted and
    # reaches them: the code's estimate decides build and search, and the
    # points' estimate a points check.
    available_64_mib(monkeypatch)
    monkeypatch.delenv("POLAR_BUDGET", raising=False)
    reached = []

    class Reached(Exception):
        pass

    def spy(name):
        def stop(*args, **kwargs):
            reached.append(name)
            raise Reached

        return stop

    monkeypatch.setattr(geometry, "_point_values", spy("_point_values"))
    monkeypatch.setattr(geometry, "_singular_pairs", spy("_singular_pairs"))
    argv = {"build": ["build"], "search": ["search", "--samples=1"], "verify-points": ["verify", "--check=orbit-counts"]}
    need = geometry.quadric_point_bytes(n, q) if command == "verify-points" else memory_estimate(n, q)
    try:
        rc, _, err = run(capsys, *argv[command], f"--q={q}", f"--n={n}")
    except Reached:
        rc = None
    if need > 64 << 20:
        assert (rc, reached) == (2, [])
        assert err.startswith("error: ") and "needs at least" in err
    else:
        assert (rc, reached) == (None, ["_point_values"])
