# tests/test_closed_forms.py
"""The integer closed forms of polargrass.counting against the rational
formulas they replace, kept here as the reference: each power q^e is an
exact Fraction, negative exponents allowed, and each result is converted
to an int at the end.  The corners where the rational formulas pass
through negative powers are named: case 3 at r + d = 2n + 1, case 2 at
r = d, and the case-4 bound at r = 1."""
from fractions import Fraction

import pytest

from polargrass.counting import (
    case1_identity_sides,
    case4_line_count_bound,
    closed_form_census,
    endpoint_bound_values,
    line_count_from_census,
    line_count_objective,
    max_singular_isotropic_lines,
    objective_grid_argmax,
)
from polargrass.errors import InadmissibleParams
from polargrass.forms import _case_nu, admissible_pairs, check_admissible

NS = (2, 3, 4, 5, 6, 7, 8, 30)
QS = (3, 5, 9, 25, 27, 2039)


def _qp(q, e):
    return Fraction(q) ** e


def _int(x):
    f = Fraction(x)
    assert f.denominator == 1, f
    return int(f)


def ref_census(case, n, q, r, d):
    """(a_radical, a_eigen, n_zero, n_plus, n_minus) by the rational formulas."""
    check_admissible(n, r, d, case, buildable=False)
    nu = _case_nu(n, r, d, case)
    a_eigen = _int(2 * (_qp(q, nu) - 1) / (q - 1))
    base = (_qp(q, r - 1) - 1) / (q - 1)
    if case == 1:
        a_radical = _int(base + _qp(q, (r + d - 2) // 2))
    elif case == 2:
        a_radical = _int(base - _qp(q, (r + d - 2) // 2))
    else:
        a_radical = _int(base)
    a = a_radical + a_eigen
    if case in (1, 2):
        s = (r + d) // 2
        big, e1, e2, e3 = _qp(q, 2 * n - 1), _qp(q, 2 * n - s - 1), _qp(q, n + s - 1), _qp(q, n - 1)
        if case == 1:
            n_plus, n_minus = _int((big + e1 + e2 - e3) / 2), _int((big - e1 - e2 + e3) / 2)
        else:
            n_plus, n_minus = _int((big + e1 - e2 - e3) / 2), _int((big - e1 + e2 + e3) / 2)
        n_zero = _int((big - 1) / (q - 1) - a)
    else:
        s = (r + d - 1) // 2
        n_zero = _int((_qp(q, 2 * n - 1) + _qp(q, n + s) - _qp(q, n + s - 1) - 1) / (q - 1) - a)
        lead = (_qp(q, 2 * n - r - d) - _qp(q, n - (r + d + 1) // 2)) / 2
        n_plus = _int(lead * (_qp(q, r + d - 1) + _qp(q, s)))
        n_minus = _int(lead * (_qp(q, r + d - 1) - _qp(q, s)))
    return a_radical, a_eigen, n_zero, n_plus, n_minus


def ref_objective(n, q, r, s):
    h = s // 2
    return _int(_qp(q, n - h + 1) + _qp(q, n - h) + _qp(q, h + 1) - _qp(q, h - 1) + _qp(q, r - 1))


def ref_objective_corner(n, q):
    return _int(_qp(q, 2 * n - 2) + _qp(q, n + 1) - _qp(q, n - 1) + q + 1)


def ref_identity_rhs(n, q, r, d):
    tail = _qp(q, 4 * n - 3) - _qp(q, 2 * n - 1) - _qp(q, 2 * n - 2) + _qp(q, 2 * n - 3) - _qp(q, 2 * n) + 1
    return _int(_qp(q, 2 * n - 3) * (q - 1) * ref_objective(n, q, r, r + d) + tail)


def ref_max(n, q):
    num = (q ** (n - 1) - 1) * (
        q ** (3 * n - 2) + q ** (3 * n - 3) - q ** (3 * n - 4) + q ** (2 * n) - q ** (n - 1) - 1
    )
    return _int(Fraction(num, (q - 1) ** 2 * (q + 1)))


def ref_case4(n, q, r, s):
    lead = _qp(q, n) * (_qp(q, n - 1) - 1) * (q - 1) * (_qp(q, r - 3) + 2 * _qp(q, n - (s + 5) // 2))
    tail = (
        _qp(q, 4 * n - 3) + _qp(q, 3 * n - 1) - _qp(q, 3 * n - 2) - 3 * _qp(q, 2 * n - 2)
        + 2 * _qp(q, 2 * n - 3) - _qp(q, 2 * n) + 2 * _qp(q, n - 1) - 2 * _qp(q, n - 2) + 1
    )
    return _int(lead + tail)


def ref_endpoints(n, q):
    h1 = (
        _qp(q, 4 * n - 3) + _qp(q, 3 * n - 1) - _qp(q, 3 * n - 2) + 2 * _qp(q, 3 * n - 3)
        - 2 * _qp(q, 3 * n - 4) - 4 * _qp(q, 2 * n - 2) + 3 * _qp(q, 2 * n - 3) - _qp(q, 2 * n)
        + _qp(q, n - 1) - _qp(q, n - 2) + 1
    )
    h_top = (
        _qp(q, 4 * n - 3) + _qp(q, 4 * n - 4) - _qp(q, 4 * n - 5) + _qp(q, 3 * n - 1)
        - _qp(q, 3 * n - 2) - _qp(q, 3 * n - 3) + _qp(q, 3 * n - 4) - _qp(q, 2 * n - 2)
        - _qp(q, 2 * n) + 1
    )
    return {"h1": _int(h1), "h_top": _int(h_top)}


def _census_tuple(rec):
    return rec.a_radical, rec.a_eigen, rec.n_zero, rec.n_plus, rec.n_minus


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", NS)
def test_closed_forms_match_the_rational_formulas(n, q):
    for case in (1, 2, 3):
        for r, d in admissible_pairs(n, case, buildable=False):
            assert _census_tuple(closed_form_census(case, n, q, r, d)) == ref_census(case, n, q, r, d), (case, r, d)
    for r, d in admissible_pairs(n, 4):
        for s in (r, r + d):
            assert case4_line_count_bound(n, q, r, s) == ref_case4(n, q, r, s), (r, s)
    for r in range(1, 2 * n, 2):
        for s in range(r + 1, min(2 * r, 2 * n) + 1, 2):
            assert line_count_objective(n, q, r, s) == ref_objective(n, q, r, s), (r, s)
    for r, d in admissible_pairs(n, 1):
        lhs = line_count_from_census(closed_form_census(1, n, q, r, d), n, q) * (q + 1) * (q - 1) ** 2
        assert case1_identity_sides(n, q, r, d) == (lhs, ref_identity_rhs(n, q, r, d)), (r, d)
    assert max_singular_isotropic_lines(n, q)["value"] == ref_max(n, q)
    assert endpoint_bound_values(n, q) == ref_endpoints(n, q)
    assert objective_grid_argmax(n, q)["closed_value_at_corner"] == ref_objective_corner(n, q)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", NS)
def test_closed_forms_at_the_corners(n, q):
    # case 3 at r + d = 2n + 1: the rational lead is (q^-1 - q^-1)/2 = 0
    for r in range(1, 2 * n, 2):
        d = 2 * n + 1 - r
        if d % 2 == 0 and d <= r - 1:
            rec = closed_form_census(3, n, q, r, d)
            assert rec.n_plus == rec.n_minus == 0
            assert _census_tuple(rec) == ref_census(3, n, q, r, d)
    # case 2 at r = d, off the buildable grid
    for r in range(1, n + 1, 2):
        assert _census_tuple(closed_form_census(2, n, q, r, r)) == ref_census(2, n, q, r, r)
    # the case-4 bound at r = 1, whose rational lead holds q^-2
    assert case4_line_count_bound(n, q, 1, 1) == ref_case4(n, q, 1, 1) == endpoint_bound_values(n, q)["h1"]


@pytest.mark.parametrize(
    "call",
    [
        lambda: max_singular_isotropic_lines(1, 3),
        lambda: endpoint_bound_values(1, 3),
        lambda: objective_grid_argmax(1, 3),
        lambda: case4_line_count_bound(1, 3, 1, 1),
        lambda: case4_line_count_bound(3, 3, 2, 4),  # even r
        lambda: case4_line_count_bound(3, 3, 3, 4),  # even s
        lambda: case4_line_count_bound(3, 3, 3, 1),  # s < r
        lambda: case4_line_count_bound(3, 3, 3, 7),  # s > 2n - 1
    ],
    ids=["max-n1", "endpoints-n1", "objective-n1", "case4-n1", "case4-even-r", "case4-even-s", "case4-s-below-r", "case4-s-past-2n-1"],
)
def test_closed_forms_reject_parameters_outside_their_domain(call):
    with pytest.raises(InadmissibleParams):
        call()
