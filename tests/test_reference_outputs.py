# tests/test_reference_outputs.py
"""The verify reports at seed 0 equal the reference outputs in
perfbench/expected/ byte for byte, read without changing them, so a change
to a report fails here and not only in the benchmark."""
import json
from pathlib import Path

import pytest

from polargrass.cli import main
from polargrass.counting import run_checks

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"


@pytest.mark.parametrize("n,q", [(3, 3), (2, 9)])
def test_verify_all_matches_the_reference_report(n, q):
    reports = run_checks(["all"], {"n": n, "q": q, "samples": 100, "seed": 0, "budget": 10**7})
    want = (EXPECTED / f"verify_n{n}q{q}.lib.txt").read_text(encoding="utf-8")
    assert json.dumps(reports, indent=2) + "\n" == want


def test_verify_cli_matches_the_reference_stdout(capsys):
    assert main(["verify", "--q", "3", "--n", "3"]) == 0
    assert capsys.readouterr().out == (EXPECTED / "verify_n3q3.cli.txt").read_text(encoding="utf-8")


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (2, 7), (3, 5), (4, 3)])
def test_verify_all_matches_the_recorded_report(n, q):
    # recorded with 30 samples at seed 1 while each shape had its own space
    reports = run_checks(["all"], {"n": n, "q": q, "samples": 30, "seed": 1, "budget": 10**7})
    want = (DATA / f"verify_n{n}q{q}_s30_seed1.json").read_text(encoding="utf-8")
    assert json.dumps(reports, indent=2) + "\n" == want


@pytest.mark.parametrize("n,q", [(8, 5), (30, 3)])
def test_closed_form_maxima_match_the_recorded_report(n, q):
    # recorded while the closed forms were evaluated in rational arithmetic
    reports = run_checks(["grid-maxima", "case-maxima"], {"n": n, "q": q})
    want = (DATA / f"maxima_n{n}q{q}.json").read_text(encoding="utf-8")
    assert json.dumps(reports, indent=2) + "\n" == want
