# tests/test_reference_outputs.py
"""The verify reports at seed 0 equal the reference outputs in
perfbench/expected/ byte for byte, read without changing them, so a change
to a report fails here and not only in the benchmark."""
import json
from pathlib import Path

import pytest

from polargrass import geometry
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


WEIGHT = sorted((DATA / "weight").glob("*.txt"))


@pytest.mark.parametrize("path", WEIGHT, ids=[p.stem for p in WEIGHT])
def test_weight_matches_the_recorded_stdout(monkeypatch, capsys, path):
    # recorded while weight counted its lines by enumerating them: fixtures
    # of test_cli, seeded random forms, low-rank forms A^T J A and the
    # canonical form of every shape at (3,3) carried to the standard space.
    # Now no line is enumerated and no codeword evaluated.
    def unused(*args):
        raise AssertionError("weight enumerated lines or codewords")

    monkeypatch.setattr(geometry, "enumerate_singular_lines", unused)
    monkeypatch.setattr(geometry, "_codewords", unused)
    assert main(["weight", str(path)]) == 0
    assert capsys.readouterr().out == path.with_suffix(".out").read_text(encoding="utf-8")


def test_weight_records_cover_every_kind():
    kinds = {p.stem.split("_")[0] for p in WEIGHT}
    assert len(WEIGHT) >= 30 and kinds == {"fixture", "random", "lowrank", "carried"}
