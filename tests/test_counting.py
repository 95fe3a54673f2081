# tests/test_counting.py
import gc
import weakref

import numpy as np
import pytest

from polargrass import code, counting, forms, geometry, matrix
from polargrass.counting import (
    CHECKS,
    FormTable,
    case1_equation_counts,
    case1_identity_sides,
    case4_line_count_bound,
    case_line_count,
    census_rewrite_sides,
    closed_form_census,
    delta_bound_check,
    endpoint_bound_values,
    even_orbit_closed,
    even_orbit_empirical,
    kappa_closed,
    line_count_from_census,
    line_count_objective,
    max_singular_isotropic_lines,
    objective_grid_argmax,
    residue_constants,
    run_checks,
    verify_case_maxima,
    verify_census_all,
    verify_delta_bound,
    verify_eigenvector_bound,
    verify_equation_counts,
    verify_grid_maxima,
    verify_line_count_identity,
    verify_line_types,
    verify_min_distance_exact,
    verify_orbit_counts,
    verify_canonical_weight,
)
from polargrass.errors import (
    BudgetExceeded,
    Case4NoClosedForm,
    InadmissibleParams,
    NonIntegerResult,
)
from polargrass.field import FieldCtx, field_ctx
from polargrass.forms import admissible_pairs, canonical_form, radical_split
from polargrass.geometry import CensusRecord, empirical_census, isotropic_line_count

F3 = field_ctx(3)
F5 = field_ctx(5)


# ---------------------------------------------------------
# Residue constants
# ---------------------------------------------------------
@pytest.mark.parametrize(
    "n,q,expected",
    [
        (2, 3, {"A0": 4, "Bplus": 2, "B0": 1, "Bminus": 0}),
        (3, 3, {"A0": 40, "Bplus": 16, "B0": 13, "Bminus": 10}),
        (2, 5, {"A0": 6, "Bplus": 2, "B0": 1, "Bminus": 0}),
        (3, 5, {"A0": 156, "Bplus": 36, "B0": 31, "Bminus": 26}),
    ],
)
def test_residue_constants(n, q, expected):
    assert residue_constants(n, q) == expected


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5), (3, 5), (4, 3)])
def test_residue_constant_identities(n, q):
    c = residue_constants(n, q)
    assert c["Bplus"] + c["Bminus"] == 2 * c["B0"]
    assert c["Bplus"] - c["B0"] == q ** (n - 2)
    assert c["A0"] - c["B0"] == q ** (2 * n - 3)


def test_residue_constants_reject_small_n():
    with pytest.raises(InadmissibleParams):
        residue_constants(1, 3)


# ---------------------------------------------------------
# Closed censuses against direct point scans
# ---------------------------------------------------------
@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5)])
def test_closed_census_matches_scan(n, q):
    ctx = field_ctx(q)
    for case in (1, 2, 3):
        for r, d in admissible_pairs(n, case):
            qs, af = canonical_form(ctx, n, r, d, case)
            emp = empirical_census(qs, af)
            pred = closed_form_census(case, n, q, r, d)
            assert emp.as_tuple() == pred.as_tuple(), (case, r, d)
            assert emp.a_radical == pred.a_radical, (case, r, d)
            assert emp.a_eigen == pred.a_eigen, (case, r, d)


def test_closed_census_case3_example():
    rec = closed_form_census(3, 3, 3, 5, 0)
    assert (rec.a_radical, rec.a_eigen) == (40, 2)
    assert rec.as_tuple() == (42, 160, 90, 72)
    assert rec.total == 364


def test_closed_census_case4_refused():
    with pytest.raises(Case4NoClosedForm):
        closed_form_census(4, 3, 3, 1, 0)


def test_closed_census_rejects_bad_shape():
    with pytest.raises(InadmissibleParams):
        closed_form_census(1, 2, 3, 2, 1)
    with pytest.raises(InadmissibleParams):
        closed_form_census(3, 2, 3, 1, 1)


# ---------------------------------------------------------
# Line counts from censuses
# ---------------------------------------------------------
def test_line_count_from_census_canonical():
    qs, af = canonical_form(F3, 3, 5, 1, 1)
    census = empirical_census(qs, af)
    assert line_count_from_census(census, 3, 3) == 1696
    assert line_count_from_census(census, 3, 3) == isotropic_line_count(qs, af)


def test_line_count_from_census_non_integer():
    fake = CensusRecord(a_radical=1, a_eigen=0, n_zero=0, n_plus=1, n_minus=0)
    with pytest.raises(NonIntegerResult):
        line_count_from_census(fake, 2, 3)


def test_census_rewrite_sides_non_integer():
    # the census gives 4 + 2 = 6 flags at (2,3), no multiple of q+1 = 4; the
    # integer division keeps the message of the exact rational one
    fake = CensusRecord(a_radical=1, a_eigen=0, n_zero=0, n_plus=1, n_minus=0)
    with pytest.raises(NonIntegerResult, match=r"^line count evaluated to non-integer 3/2$"):
        census_rewrite_sides(fake, 2, 3)


def test_census_rewrite_sides_agree():
    for case in (1, 2, 3):
        for r, d in admissible_pairs(3, case):
            qs, af = canonical_form(F3, 3, r, d, case)
            lhs, rhs = census_rewrite_sides(empirical_census(qs, af), 3, 3)
            assert lhs == rhs == 4 * isotropic_line_count(qs, af)


@pytest.mark.parametrize(
    "case,n,q,r,d,f",
    [
        (1, 2, 3, 3, 1, 22),
        (3, 2, 3, 1, 0, 22),
        (1, 2, 5, 3, 1, 56),
        (3, 2, 5, 1, 0, 56),
        (1, 3, 3, 5, 1, 1696),
        (3, 3, 3, 5, 0, 1480),
    ],
)
def test_case_line_count_values(case, n, q, r, d, f):
    assert case_line_count(case, n, q, r, d) == f


# ---------------------------------------------------------
# Maximization grid
# ---------------------------------------------------------
@pytest.mark.parametrize(
    "n,q,value,complement",
    [(2, 3, 22, 18), (3, 3, 1696, 1944), (2, 5, 56, 100), (3, 5, 26556, 75000)],
)
def test_max_line_count(n, q, value, complement):
    mx = max_singular_isotropic_lines(n, q)
    assert mx["value"] == value
    assert mx["argmax"] == (2 * n - 1, 1)
    assert mx["complement"] == mx["complement_closed"] == complement
    assert mx["value"] + complement == mx["total_lines"]


def test_max_dominates_all_closed_forms():
    for n, q in [(3, 3), (3, 5), (4, 3)]:
        top = max_singular_isotropic_lines(n, q)["value"]
        for case in (1, 2, 3):
            for r, d in admissible_pairs(n, case, buildable=False):
                assert case_line_count(case, n, q, r, d) <= top, (case, r, d)


def test_objective_grid():
    rec = objective_grid_argmax(3, 3)
    assert rec == {"argmax": (5, 6), "value": 157, "closed_value_at_corner": 157}
    rec = objective_grid_argmax(4, 3)
    assert rec["argmax"] == (7, 8)
    assert rec["value"] == rec["closed_value_at_corner"] == 949


def test_objective_domain_checks():
    with pytest.raises(InadmissibleParams):
        line_count_objective(3, 3, 2, 4)
    with pytest.raises(InadmissibleParams):
        line_count_objective(3, 3, 3, 5)
    with pytest.raises(InadmissibleParams):
        line_count_objective(3, 3, 3, 8)


def test_case1_identity_sides():
    for r, d in admissible_pairs(3, 1):
        lhs, rhs = case1_identity_sides(3, 3, r, d)
        assert lhs == rhs, (r, d)
    lhs, rhs = case1_identity_sides(3, 5, 5, 1)
    assert lhs == rhs


# ---------------------------------------------------------
# Case-4 bound
# ---------------------------------------------------------
def test_case4_endpoint_bounds():
    bounds = endpoint_bound_values(3, 3)
    assert bounds == {"h1": 24064, "h_top": 27136}
    assert bounds["h_top"] == 1696 * (3 - 1) ** 2 * (3 + 1)
    assert case4_line_count_bound(3, 3, 1, 1) == bounds["h1"]
    assert case4_line_count_bound(3, 3, 5, 5) == bounds["h_top"]


def test_case4_bound_covers_built_forms():
    scale = (3 - 1) ** 2 * (3 + 1)
    top = max_singular_isotropic_lines(3, 3)["value"]
    for r, d in admissible_pairs(3, 4):
        qs, af = canonical_form(F3, 3, r, d, 4)
        f = isotropic_line_count(qs, af)
        assert f < top, (r, d)
        assert scale * f <= case4_line_count_bound(3, 3, r, r + d), (r, d)


# ---------------------------------------------------------
# Within-case maxima
# ---------------------------------------------------------
def test_case_maxima_small_n_refused():
    with pytest.raises(InadmissibleParams):
        verify_case_maxima(FormTable(2, 3))


@pytest.mark.parametrize("n,q", [(3, 3), (3, 5), (4, 3)])
def test_case_maxima(n, q):
    rep = verify_case_maxima(FormTable(n, q))
    assert rep["status"] == "ok"
    assert rep["observed"]["1"] == [2 * n - 1, 1]
    if n == 3:
        assert rep["observed"]["2"] == [1, 1]
        assert rep["observed"]["3"] == [1, 0]
    else:
        assert rep["observed"]["2"] == [2 * n - 1, 1]
        assert rep["observed"]["3"] == [2 * n - 1, 0]


# ---------------------------------------------------------
# Residual equation counts
# ---------------------------------------------------------
@pytest.mark.parametrize(
    "n,q,negsq",
    [
        (2, 3, {(1, 1): 10, (3, 1): 2}),
        (3, 3, {(1, 1): 66, (3, 1): 10, (3, 3): 2, (5, 1): 2}),
        (2, 5, {(1, 1): 52, (3, 1): 4}),
        (3, 5, {(1, 1): 1060, (3, 1): 52, (3, 3): 4, (5, 1): 4}),
    ],
)
def test_equation_counts(n, q, negsq):
    ctx = field_ctx(q)
    for r, d in admissible_pairs(n, 1):
        half = (r - d) // 2
        for beta in (1, ctx.nonsquare_rep):
            rec = case1_equation_counts(ctx, n, r, d, beta=beta)
            assert rec["target_count"] == rec["target_closed"] == q**half * (q**half + 1)
            assert rec["negsquare_count"] == negsq[(r, d)], (r, d, beta)


def test_equation_counts_reject_zero_target():
    with pytest.raises(InadmissibleParams):
        case1_equation_counts(F3, 2, 3, 1, beta=0)


# ---------------------------------------------------------
# Point orbit formulas
# ---------------------------------------------------------
@pytest.mark.parametrize(
    "n,q,expected",
    [
        (2, 3, {"singular": 40, "internal": 36, "external": 45}),
        (3, 3, {"singular": 364, "internal": 351, "external": 378}),
        (2, 5, {"singular": 156, "internal": 300, "external": 325}),
    ],
)
def test_kappa_closed(n, q, expected):
    assert kappa_closed(n, q) == expected


@pytest.mark.parametrize("t,q", [(2, 3), (3, 3), (2, 5)])
def test_even_orbits(t, q):
    ctx = field_ctx(q)
    for kind in ("hyperbolic", "elliptic"):
        closed = even_orbit_closed(t, q, kind)
        emp = even_orbit_empirical(ctx, t, kind)
        assert emp["singular"] == closed["singular"]
        assert emp["square"] == emp["nonsquare"] == closed["per_class"]
    with pytest.raises(InadmissibleParams):
        even_orbit_closed(t, q, "parabolic")


def test_even_orbit_closed_values():
    assert even_orbit_closed(2, 3, "hyperbolic") == {"singular": 16, "per_class": 12}
    assert even_orbit_closed(2, 3, "elliptic") == {"singular": 10, "per_class": 15}


# ---------------------------------------------------------
# Spectral bound
# ---------------------------------------------------------
def test_eigenvector_bound_equality():
    # the count meets the bound 2(q^m - 1), m the Witt index over H0
    qs, af = canonical_form(F3, 3, 1, 1, 1)
    assert radical_split(qs, af) == {"r": 1, "d": 1, "m": 2}
    assert counting._eigenvector_counts(qs, [af]).tolist() == [16] == [2 * (3**2 - 1)]


def test_eigenvector_bound_degenerate_block():
    qs, af = canonical_form(F3, 3, 5, 1, 1)
    assert radical_split(qs, af)["m"] == 0
    assert counting._eigenvector_counts(qs, [af]).tolist() == [0]


# ---------------------------------------------------------
# Imbalance bound
# ---------------------------------------------------------
def test_delta_bound_strict_on_case1():
    for r, d in admissible_pairs(3, 1):
        qs, af = canonical_form(F3, 3, r, d, 1)
        rec = delta_bound_check(empirical_census(qs, af), 3, 3)
        assert rec["ok"] and rec["strict"], (r, d)


def test_delta_bound_equality_edge():
    # every point lies on the companion quadric here, so the chain collapses
    qs, af = canonical_form(F3, 3, 5, 2, 3)
    rec = delta_bound_check(empirical_census(qs, af), 3, 3)
    assert rec["w_points"] == 364
    assert rec["inner_bound"] == rec["outer_bound"] == 1092
    assert rec["ok"] and not rec["strict"]


# ---------------------------------------------------------
# Verification reports
# ---------------------------------------------------------
@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5)])
def test_verify_census_all(n, q):
    rep = verify_census_all(FormTable(n, q))
    assert rep["status"] == "ok"
    assert all(e["status"] == "ok" for e in rep["entries"])
    cases = {e["case"] for e in rep["entries"]}
    assert cases == {1, 2, 3}


def test_verify_identities_and_types():
    rep = verify_line_count_identity(FormTable(2, 3, samples=25, seed=1))
    assert rep["status"] == "ok"
    rep = verify_line_types(FormTable(2, 3, samples=25, seed=1))
    assert rep["status"] == "ok"
    rep = verify_line_count_identity(FormTable(3, 3, samples=10, seed=1))
    assert rep["status"] == "ok"
    rep = verify_line_types(FormTable(3, 3, samples=10, seed=1))
    assert rep["status"] == "ok"


def test_line_count_identity_compares_tau_pointwise(monkeypatch):
    # Shifting every member id by one keeps the tau sum at (q+1) f, but it
    # moves the tau values off the residue constants of their points.
    members = geometry.LineSet.members

    def shifted(self):
        return (members(self) + 1) % len(geometry.quadric_points(self.qs))

    monkeypatch.setattr(geometry.LineSet, "members", shifted)
    rep = verify_line_count_identity(FormTable(2, 3, samples=5, seed=0))
    assert rep["status"] == "mismatch"
    assert rep["observed"]["tau_sum"] == rep["observed"]["lhs"] == rep["observed"]["rhs"]
    assert rep["observed"]["tau_mismatches"] > 0


def test_a_tau_kernel_that_drops_a_line_is_a_mismatch(monkeypatch):
    # The identity's lhs counts the isotropic lines off the masks, tau
    # counts them through the points: a tau kernel that loses one line
    # leaves the lhs as it is and moves the q+1 points of that line.
    table = FormTable(3, 3, samples=10, seed=0)
    line = int(table.rows(geometry._isotropic_stack).any(axis=1).argmax())
    tau_stack = geometry._tau_stack

    def dropped(qs, masks, nb):
        masks = masks.copy()
        masks[line] = 0
        return tau_stack(qs, masks, nb)

    monkeypatch.setattr(geometry, "_tau_stack", dropped)
    rep = verify_line_count_identity(table)
    assert rep["status"] == "mismatch"
    assert rep["observed"]["lhs"] == rep["observed"]["rhs"] == rep["observed"]["tau_sum"] + 4
    assert rep["observed"]["tau_mismatches"] == 4


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5)])
def test_verify_orbit_counts(n, q):
    assert verify_orbit_counts(FormTable(n, q))["status"] == "ok"


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5), (3, 5), (4, 3), (4, 5)])
def test_verify_grid_maxima(n, q):
    rep = verify_grid_maxima(FormTable(n, q))
    assert rep["status"] == "ok"
    assert rep["observed"]["argmax"] == (2 * n - 1, 1)


def test_verify_eigenvector_bound():
    rep = verify_eigenvector_bound(FormTable(3, 3, samples=10, seed=0))
    assert rep["status"] == "ok"
    assert "equality seen: True" in rep["observed"]


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3)])
def test_verify_equation_counts(n, q):
    assert verify_equation_counts(FormTable(n, q))["status"] == "ok"


def test_verify_delta_bound():
    assert verify_delta_bound(FormTable(2, 3, samples=20, seed=0))["status"] == "ok"
    assert verify_delta_bound(FormTable(3, 3, samples=10, seed=0))["status"] == "ok"


def test_line_type_census_records_the_first_entry_off_a_flag_identity(monkeypatch):
    # Two entries gain a TPLUS line: the flag identities fail on both, and
    # the record holds the census and line types of the first of them.
    table = FormTable(2, 3, samples=6, seed=0)
    first = len(table.canonical) + 1
    stack = geometry._line_type_stack

    def corrupted(qs, codes):
        types = stack(qs, codes)
        types[[first, first + 1], geometry.LINE_TPLUS] += 1
        return types

    monkeypatch.setattr(geometry, "_line_type_stack", corrupted)
    af = table.entries[first][1]
    types = np.bincount(geometry.line_type_codes(table.space, af), minlength=5)
    types[geometry.LINE_TPLUS] += 1
    rep = verify_line_types(table)
    assert rep["status"] == "mismatch"
    assert rep["observed"] == {
        "census": empirical_census(table.space, af).as_tuple(),
        "types": dict(zip(geometry.LINE_TYPE_NAMES, types.tolist())),
    }


def test_eigenvector_bound_records_the_first_count_above_its_bound(monkeypatch):
    table = FormTable(3, 3, samples=10, seed=0)
    first = len(table.canonical) + 3
    split = radical_split(table.space, table.entries[first][1])
    bound = 2 * (3 ** split["m"] - 1)
    counts = counting._eigenvector_counts

    def raised(qs, afs):
        out = counts(qs, afs)
        out[first] = bound + 1
        out[first + 2] = 10**6
        return out

    monkeypatch.setattr(counting, "_eigenvector_counts", raised)
    rep = verify_eigenvector_bound(table)
    assert rep["status"] == "mismatch"
    assert list(rep["observed"].items()) == [
        ("count", bound + 1), ("m", split["m"]), ("r", split["r"]), ("d", split["d"]), ("bound", bound), ("ok", False),
    ]


def test_eigenvector_bound_needs_equality_somewhere(monkeypatch):
    # counts of 0 are within every bound but meet none above 0
    monkeypatch.setattr(counting, "_eigenvector_counts", lambda qs, afs: np.zeros(len(afs), dtype=np.int64))
    table = FormTable(3, 3, samples=10, seed=0)
    rep = verify_eigenvector_bound(table)
    assert rep["status"] == "mismatch"
    assert rep["observed"] == f"{len(table.entries)} forms within bound; equality seen: False"


def test_delta_bound_needs_strictness_on_case_1_shapes(monkeypatch):
    # The first case-1 shape's plus and minus points moved to the zero
    # class: its imbalance 0 is within the bound, which is now an equality.
    table = FormTable(3, 3, samples=10, seed=0)
    assert table.entries[0][0] == 1
    stack = geometry._census_stack

    def flattened(codes):
        out = stack(codes)
        out[0, 2] += out[0, 3] + out[0, 4]
        out[0, 3:] = 0
        return out

    monkeypatch.setattr(geometry, "_census_stack", flattened)
    rep = verify_delta_bound(table)
    assert rep["status"] == "mismatch"
    assert rep["observed"] == f"{len(table.entries)} forms within bound"


def test_delta_bound_records_the_first_entry_out_of_bound(monkeypatch):
    table = FormTable(3, 3, samples=10, seed=0)
    first, points = len(table.canonical) + 4, (3**6 - 1) // 2
    stack = geometry._census_stack

    def unbalanced(codes):
        out = stack(codes)
        out[first] = [0, 0, 0, points, 0]
        out[first + 1] = [0, 0, 1, points - 1, 0]
        return out

    monkeypatch.setattr(geometry, "_census_stack", unbalanced)
    rep = verify_delta_bound(table)
    assert rep["status"] == "mismatch"
    assert list(rep["observed"].items()) == [
        ("delta", points), ("w_points", 0), ("inner_bound", 0), ("outer_bound", 3 * points),
        ("strict", True), ("ok", False), ("note", "imbalance read as n_plus - n_minus"),
    ]


def test_verify_min_distance():
    rep = verify_min_distance_exact(FormTable(2, 3))
    assert rep["status"] == "ok" and rep["observed"] == 18
    with pytest.raises(BudgetExceeded):
        verify_min_distance_exact(FormTable(3, 3))


@pytest.mark.parametrize("names", [["census-all"], ["all"]])
def test_run_checks_negative_seed_is_inadmissible(names):
    with pytest.raises(InadmissibleParams, match="seed must be >= 0, got -1"):
        run_checks(names, {"n": 2, "q": 3, "seed": -1, "samples": 0, "budget": 10})


def test_negative_sample_count_is_inadmissible():
    with pytest.raises(InadmissibleParams, match="samples must be >= 0, got -1"):
        FormTable(2, 3, samples=-1)
    with pytest.raises(InadmissibleParams, match="samples must be >= 0, got -1"):
        run_checks(["delta-bound"], {"n": 2, "q": 3, "samples": -1})


def test_verify_min_distance_checks_budget_before_build(monkeypatch):
    def no_build(qs):
        raise AssertionError("the code was built past the budget")

    monkeypatch.setattr(counting, "build_code", no_build)
    with pytest.raises(BudgetExceeded, match="projective messages exceed the budget 10000000"):
        verify_min_distance_exact(FormTable(3, 3))


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3)])
def test_verify_canonical_weight(n, q):
    rep = verify_canonical_weight(FormTable(n, q))
    assert rep["status"] == "ok"
    assert rep["observed"]["weight"] == (q ** (4 * n - 5) - q ** (3 * n - 4))


# ---------------------------------------------------------
# Check dispatch
# ---------------------------------------------------------
def test_run_checks_by_name():
    args = {"n": 3, "q": 3, "samples": 5, "seed": 0}
    reports = run_checks(["census-all", "grid-maxima"], args)
    assert [r["check"] for r in reports] == ["census-all", "grid-maxima"]
    assert all(r["status"] == "ok" for r in reports)


def test_run_checks_unknown_name():
    with pytest.raises(InadmissibleParams):
        run_checks(["nope"], {"n": 2, "q": 3})


def test_run_checks_all_skips_inapplicable():
    args = {"n": 2, "q": 3, "samples": 5, "seed": 0, "budget": 10**7}
    reports = run_checks(["all"], args)
    assert len(reports) == len(CHECKS)
    by_name = {r["check"]: r["status"] for r in reports}
    assert by_name["case-maxima"] == "skipped"
    assert all(s in ("ok", "skipped") for s in by_name.values())
    assert by_name["min-distance-exact"] == "ok"


def test_run_checks_named_check_still_raises():
    args = {"n": 2, "q": 3, "samples": 5, "seed": 0}
    with pytest.raises(InadmissibleParams):
        run_checks(["case-maxima"], args)
    with pytest.raises(BudgetExceeded):
        run_checks(["min-distance-exact"], {"n": 3, "q": 3, "budget": 100})


# ---------------------------------------------------------
# Shared form list of one run_checks call
# ---------------------------------------------------------
SAMPLED_CHECKS = ["line-count-identity", "line-type-census", "eigenvector-bound", "delta-bound"]


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5)])
def test_run_checks_all_matches_single_checks(n, q):
    args = {"n": n, "q": q, "samples": 5, "seed": 0, "budget": 10**5}
    reports = run_checks(["all"], args)
    assert [r["check"] for r in reports] == list(CHECKS)
    for rep in reports:
        if rep["status"] != "skipped":
            assert rep == run_checks([rep["check"]], args)[0]


def test_run_checks_back_to_back_seeds():
    # Different sample counts make a stale list visible in the form counts.
    for seed, samples in ((0, 5), (1, 8)):
        args = {"n": 2, "q": 3, "samples": samples, "seed": seed}
        fresh = [CHECKS[name](FormTable(2, 3, samples, seed)) for name in SAMPLED_CHECKS]
        assert run_checks(SAMPLED_CHECKS, args) == fresh


def test_run_checks_samples_only_for_sampled_checks(monkeypatch):
    counts = []
    original = counting.random_alternating_forms

    def spy(ctx, dim, rng, count):
        counts.append(count)
        return original(ctx, dim, rng, count)

    monkeypatch.setattr(counting, "random_alternating_forms", spy)
    args = {"n": 2, "q": 3, "samples": 5, "seed": 0}
    run_checks(["census-all", "canonical-weight"], args)
    run_checks(["census-all", "delta-bound"], args)
    assert counts == [0, 5]


def test_run_checks_builds_each_shape_once(monkeypatch):
    # every shape's Gram matrix and form come from forms._shape, once per
    # run, and are carried onto the one standard space
    calls = []
    shape = forms._shape

    def spy(ctx, n, r, d, case):
        calls.append((case, r, d))
        return shape(ctx, n, r, d, case)

    monkeypatch.setattr(forms, "_shape", spy)
    run_checks(["all"], {"n": 2, "q": 3, "samples": 5, "seed": 0, "budget": 10**5})
    shapes = [(case, r, d) for case in (1, 2, 3, 4) for r, d in admissible_pairs(2, case)]
    # the standard space's Gram matrix is one more call of its shape
    assert calls == [(1, 3, 1)] + shapes


def test_run_checks_keeps_no_forms_alive(monkeypatch):
    # neither the standard space, with its points and lines, nor the
    # carried canonical forms outlive the run
    held = []
    isometries, alternating_forms = forms.isometries, forms.alternating_forms

    def spy_space(qs, grams):
        held.append(weakref.ref(qs))
        return isometries(qs, grams)

    def spy_forms(ctx, arr):
        afs = alternating_forms(ctx, arr)
        held.extend(map(weakref.ref, afs))
        return afs

    monkeypatch.setattr(forms, "isometries", spy_space)
    monkeypatch.setattr(forms, "alternating_forms", spy_forms)
    run_checks(SAMPLED_CHECKS, {"n": 2, "q": 3, "samples": 5, "seed": 0})
    gc.collect()
    assert held and all(ref() is None for ref in held)


@pytest.mark.parametrize("n,q", [(3, 3), (2, 3)])
def test_run_checks_enumerates_each_space_once(monkeypatch, n, q):
    # Every form is carried onto the standard space, which the sampled
    # forms, canonical-weight and min-distance-exact share: its lines are
    # the only ones enumerated.
    enumerated = []
    original = geometry.enumerate_singular_lines

    def spy(qs):
        if "lines" not in qs._cache:
            enumerated.append(qs.gram.tobytes())
        return original(qs)

    monkeypatch.setattr(geometry, "enumerate_singular_lines", spy)
    monkeypatch.setattr(code, "enumerate_singular_lines", spy)
    run_checks(["all"], {"n": n, "q": q, "samples": 5, "seed": 0, "budget": 10**5})
    assert len(enumerated) == 1


STACKED_KERNELS = [
    (geometry, "_residue_stack"),
    (geometry, "_isotropic_stack"),
    (geometry, "_line_type_stack"),  # over the residue rows, one per form
    (geometry, "_tau_stack"),  # over the isotropic masks, one column per form
    (counting, "_eigenvector_counts"),
    (forms, "_radical_splits"),
]


@pytest.mark.parametrize("n,q", [(3, 3), (2, 3)])
def test_run_checks_computes_each_form_once(monkeypatch, n, q):
    # Every (space, form) entry gets each kind of per-form data from one
    # stacked kernel call per run, however many checks read it, and the
    # sampled forms of the standard space share one call.
    computed = {}

    def counted(name, fn):
        def spy(qs, afs, *nb):
            # the tau kernel's forms are the columns of the masks it takes
            held = [(afs, j) for j in range(nb[0])] if nb else [(af, None) for af in afs]
            computed[name].append([(qs, af, j) for af, j in held])  # held, so the ids stay distinct
            return fn(qs, afs, *nb)

        return spy

    for module, name in STACKED_KERNELS:
        computed[name] = []
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    samples = 5
    run_checks(["all"], {"n": n, "q": q, "samples": samples, "seed": 0, "budget": 10**5})
    for name, calls in computed.items():
        keys = [(id(qs), id(af), j) for call in calls for qs, af, j in call]
        assert keys and len(keys) == len(set(keys)), name
        assert max(len(call) for call in calls) >= samples, name


def test_run_checks_line_side_passes(monkeypatch):
    # One run at (3,3): the line-type kernel makes one pass over the one
    # space, over the residue rows of all its forms, and no line types are read off
    # per form; every product of the isotropic kernel takes the lines'
    # Plücker rows (K = 21 columns), no (lines x dim^2) pair table.
    samples, k = 100, 21
    stacks, passes, per_form, matmuls = [], [], [], []
    inside = []

    def spy(name, fn, record):
        def wrapped(*args):
            record.append(args)
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapped

    watched = [
        ("_line_type_stack", stacks),
        ("_line_type_blocks", passes),
        ("_isotropic_stack", []),
        ("enumerate_singular_lines", []),  # its pair products are not the kernel's
    ]
    for name, record in watched:
        monkeypatch.setattr(geometry, name, spy(name, getattr(geometry, name), record))
    monkeypatch.setattr(geometry, "line_type_codes", spy("line_type_codes", geometry.line_type_codes, per_form))
    product = FieldCtx.np_matmul

    def matmul(ctx, a, b):
        if inside and inside[-1] == "_isotropic_stack":
            matmuls.append((np.shape(a)[-1], np.shape(b)[0]))
        return product(ctx, a, b)

    monkeypatch.setattr(FieldCtx, "np_matmul", matmul)
    reports = run_checks(["all"], {"n": 3, "q": 3, "samples": samples, "seed": 0, "budget": 10**7})
    assert all(r["status"] == "ok" for r in reports if r["check"] == "line-type-census")
    assert len(stacks) == len(passes) == 1 and not per_form
    assert sum(len(codes) for _, codes in passes) == len(FormTable(3, 3).canonical) + samples
    assert matmuls and set(matmuls) == {(k, k)}


def test_run_checks_residue_side_passes(monkeypatch):
    # One run at (3,3): the residue kernel makes two stacked products per
    # call (S^T M^-1 and T = S^T M^-1 S) and two per block of points, the
    # x product (inner dimension dim) and the pair-table product (inner
    # dimension dim(dim+1)/2), whose blocks cover the points once; it never
    # sums rows with np_rowsum.
    dim, npts = 7, 364
    calls, inside, products, rowsums = [], [], [], []
    kernel = geometry._residue_stack

    def residue_stack(qs, afs):
        geometry.quadric_points(qs)  # the points' own products and sums
        calls.append(len(afs))
        inside.append(len(afs))
        try:
            return kernel(qs, afs)
        finally:
            inside.pop()

    product, rowsum = FieldCtx.np_matmul, FieldCtx.np_rowsum

    def matmul(ctx, a, b):
        if inside:
            products.append((np.shape(a), np.shape(b)))
        return product(ctx, a, b)

    def rows(ctx, a):
        if inside:
            rowsums.append(np.shape(a))
        return rowsum(ctx, a)

    monkeypatch.setattr(geometry, "_residue_stack", residue_stack)
    monkeypatch.setattr(FieldCtx, "np_matmul", matmul)
    monkeypatch.setattr(FieldCtx, "np_rowsum", rows)
    reports = run_checks(["census-all", "line-type-census"], {"n": 3, "q": 3, "samples": 100, "seed": 0})
    assert [r["status"] for r in reports] == ["ok", "ok"]
    nb = len(FormTable(3, 3).canonical) + 100
    assert calls == [nb]
    assert not rowsums
    assert [len(a) for a, _ in products[:2]] == [3, 3]
    blocks = products[2:]
    assert blocks and len(blocks) % 2 == 0
    for (xa, xb), (ta, tb) in zip(blocks[::2], blocks[1::2]):
        assert (xa[1], xb) == (dim, (dim, dim * nb))
        assert ta == (xa[0], dim * (dim + 1) // 2) and tb == (dim * (dim + 1) // 2, nb)
    assert sum(xa[0] for xa, _ in blocks[::2]) == npts


@pytest.mark.parametrize("n,q,most", [(2, 9, 1000), (3, 3, 12)])
def test_run_checks_eliminations(monkeypatch, n, q, most):
    # Every row reduction is one call of matrix._eliminate.  ROADMAP item H
    # asks for at most 1,000 per run at (2,9).  At (3,3) all forms sit on
    # one space, so each kind of per-form data is one stacked call, and
    # each step of the radical splits one call over all forms: 12
    # eliminations, where one call per radical shape took 29, and one space
    # per shape 141.
    calls = []
    eliminate = matrix._eliminate

    def spy(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(matrix, "_eliminate", spy)
    run_checks(["all"], {"n": n, "q": q, "samples": 100, "seed": 0, "budget": 10**7})
    assert 0 < len(calls) <= most
