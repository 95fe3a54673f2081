# tests/test_cli.py
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polargrass
from polargrass.cli import main
from polargrass.code import parse_code
from polargrass.field import field_ctx
from polargrass.forms import build_M, build_S, standard_space, transport_form
from polargrass.matrix import MatrixFq, format_matrix_text

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
    rc, out, _ = run(capsys, "build", "--q", "3", "--e", "2", "--n", "2")
    assert rc == 0
    assert out == "820 10 648\n"


@pytest.mark.parametrize("q", ["4", "12", "1"])
def test_build_rejects_bad_field(capsys, q):
    rc, _, err = run(capsys, "build", "--q", q, "--n", "2")
    assert rc == 2
    assert "error:" in err


def test_build_rejects_bad_extension(capsys):
    rc, _, err = run(capsys, "build", "--q", "3", "--e", "0", "--n", "2")
    assert rc == 2
    assert "error:" in err


def test_build_writes_generator(tmp_path, capsys):
    path = tmp_path / "code.txt"
    rc, out, _ = run(capsys, "build", "--q", "3", "--n", "2", "-o", str(path))
    assert rc == 0 and out == "40 10 18\n"
    rec = parse_code(path.read_text())
    assert (rec["N"], rec["K"], rec["q"], rec["n"]) == (40, 10, 3, 2)
    assert rec["d_claimed"] == 18

    jpath = tmp_path / "code.json"
    rc, _, _ = run(capsys, "build", "--q", "3", "--n", "2", "--format", "json", "-o", str(jpath))
    assert rc == 0
    assert parse_code(jpath.read_text())["G"] == rec["G"]


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


def test_verify_bad_workers(capsys):
    rc, _, err = run(
        capsys, "verify", "--q", "3", "--n", "2", "--check", "grid-maxima",
        "--workers", "0",
    )
    assert rc == 2
    assert "workers" in err


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


# ---------------------------------------------------------
# weight
# ---------------------------------------------------------
def write_form(tmp_path, name, af):
    path = tmp_path / name
    path.write_text(format_matrix_text(af.s))
    return str(path)


def test_weight_canonical_med(tmp_path, capsys):
    qs = standard_space(F3, 3)
    path = write_form(tmp_path, "canon.txt", build_S(qs, s11="auto"))
    rc, out, _ = run(capsys, "weight", path)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "weight 1944 r 5"
    assert lines[1] == "census 49 72 243 0 lines_on_quadric 1696 of 3640"


def test_weight_canonical_small(tmp_path, capsys):
    qs = standard_space(F3, 2)
    path = write_form(tmp_path, "canon2.txt", build_S(qs, s11="auto"))
    rc, out, _ = run(capsys, "weight", "--q", "3", path)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "weight 18 r 3"
    assert lines[1] == "census 7 6 27 0 lines_on_quadric 22 of 40"


def test_weight_transported_form(tmp_path, capsys):
    # a shape built in a congruent non-standard space, moved to the standard one
    src = build_M(F3, 3, 5, 0, 3)
    moved = transport_form(src, build_S(src), standard_space(F3, 3))
    path = write_form(tmp_path, "moved.txt", moved)
    rc, out, _ = run(capsys, "weight", path)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "weight 2160 r 5"
    assert lines[1] == "census 42 160 90 72 lines_on_quadric 1480 of 3640"


def test_weight_rejects_non_alternating(tmp_path, capsys):
    path = tmp_path / "sym.txt"
    path.write_text(format_matrix_text(MatrixFq.identity(F3, 5)))
    rc, _, err = run(capsys, "weight", str(path))
    assert rc == 2
    assert "error:" in err


def test_weight_rejects_wrong_field(tmp_path, capsys):
    qs = standard_space(F3, 2)
    path = write_form(tmp_path, "f3.txt", build_S(qs, s11="auto"))
    rc, _, err = run(capsys, "weight", "--q", "5", path)
    assert rc == 2
    assert "error:" in err


def test_weight_rejects_even_dimension(tmp_path, capsys):
    m = MatrixFq(F3, [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]])
    path = tmp_path / "even.txt"
    path.write_text(format_matrix_text(m))
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


def test_search_deterministic_across_workers(capsys):
    args = ("search", "--q", "3", "--n", "2", "--samples", "150", "--seed", "11")
    rc1, out1, _ = run(capsys, *args, "--workers", "1")
    rc2, out2, _ = run(capsys, *args, "--workers", "4")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_search_same_seed_same_bytes(capsys):
    args = ("search", "--q", "3", "--n", "2", "--samples", "100", "--seed", "9")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_search_bad_workers(capsys):
    rc, _, err = run(capsys, "search", "--q", "3", "--n", "2", "--workers", "-1")
    assert rc == 2
    assert "workers" in err


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


def run_rlimited(*argv):
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
        [sys.executable, "-c", RLIMITED_MAIN, *argv],
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
    path = tmp_path / "form13.txt"
    path.write_text(format_matrix_text(MatrixFq.zeros(F3, 13, 13)))
    res = run_rlimited("weight", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("error: the singular lines of Q(12, 3) needs at least ")


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
