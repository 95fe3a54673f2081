"""Closed-form counts and the verification procedures that check them.

Every count here is exact, in one arithmetic: integers with checked
division (_div), so a fractional result raises NonIntegerResult.  Every
power of q has a nonnegative exponent on the domain its function admits,
and the public closed forms raise InadmissibleParams outside it.  The
verification functions return plain report dicts with stable key order and
never raise on a mismatch; they record status "ok" or "mismatch" so callers
can decide how to fail.  The checks run by one run_checks call share one
FormTable on one space, the standard one: the canonical form of every
shape, carried there by a checked isometry, the sampled forms, the points,
lines and code of that space, and each form's residue classes, isotropic
lines, line-type census, eigenvector count and radical split, each kind
computed for all forms in one stacked kernel call and kept as a column in
the order of the forms.  Each check over the forms is one array
expression over those columns; only a failing row is read out.  The
empirical point counts (orbits, even sections, equation counts) are read
off histograms of a quadratic form's values from geometry's one blocked
pass over a projective space.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .code import (
    DEFAULT_BUDGET,
    PolarCode,
    _check_seed,
    build_code,
    check_scan_budget,
    code_parameters,
    codeword_from_form,
    min_distance_exact,
    random_alternating_forms,
)
from .errors import (
    BudgetExceeded,
    Case4NoClosedForm,
    InadmissibleParams,
    NonIntegerResult,
    RadicalMismatch,
    TooLarge,
    TypeNotInTable,
)
from .field import FieldCtx
from . import forms
from .forms import (
    AlternatingForm,
    QuadraticSpace,
    admissible_pairs,
    check_admissible,
    elliptic_gram,
    hyperbolic_gram,
    parabolic_gram,
    standard_space,
    _case_nu,
    _check_n,
)
from . import geometry
from .geometry import CensusRecord, orbit_counts
from .matrix import eigen_nullities


def _div(num: int, den: int, what: str) -> int:
    """num / den for den > 0, raising NonIntegerResult unless it is an
    integer; the message gives the quotient in lowest terms."""
    quo, rem = divmod(num, den)
    if rem:
        g = math.gcd(num, den)
        raise NonIntegerResult(f"{what} evaluated to non-integer {num // g}/{den // g}")
    return quo


# ---- residue constants and censuses -------------------------------------------


def residue_constants(n: int, q: int) -> dict[str, int]:
    """Per-class counts of isotropic singular lines through a point."""
    _check_n(n)
    return {
        "A0": (q ** (2 * n - 2) - 1) // (q - 1),
        "Bplus": (q ** (n - 1) - 1) * (q ** (n - 2) + 1) // (q - 1),
        "B0": (q ** (2 * n - 3) - 1) // (q - 1),
        "Bminus": (q ** (n - 1) + 1) * (q ** (n - 2) - 1) // (q - 1),
    }


def closed_form_census(case: int, n: int, q: int, r: int, d: int) -> CensusRecord:
    """Predicted residue census for the canonical form of this shape.

    Case 4 admits no closed form.  Case 2 is evaluated on the full parity
    grid (including r = d) because the maximization scans need those values.
    """
    if case == 4:
        raise Case4NoClosedForm("case 4 census has no closed form; use bounds")
    check_admissible(n, r, d, case, buildable=False)
    a_eigen = _div(2 * (q ** _case_nu(n, r, d, case) - 1), q - 1, "eigenvector point count")
    a_radical = _div(q ** (r - 1) - 1, q - 1, "radical point count")
    t, big = r + d, q ** (2 * n - 1)
    if case in (1, 2):
        s = t // 2
        e1, e2, e3 = q ** (2 * n - s - 1), q ** (n + s - 1), q ** (n - 1)
        if case == 1:
            a_radical += q ** (s - 1)
            n_plus = _div(big + e1 + e2 - e3, 2, "plus count")
            n_minus = _div(big - e1 - e2 + e3, 2, "minus count")
        else:
            a_radical -= q ** (s - 1)
            n_plus = _div(big + e1 - e2 - e3, 2, "plus count")
            n_minus = _div(big - e1 + e2 + e3, 2, "minus count")
        zeros = big - 1
    else:
        # t = r + d is odd, at most 2n + 1
        e1, e2, e3 = q ** (2 * n - (t + 1) // 2), q ** (n + (t - 3) // 2), q ** (n - 1)
        n_plus = _div(big + e1 - e2 - e3, 2, "plus count")
        n_minus = _div(big - e1 - e2 + e3, 2, "minus count")
        zeros = big + q ** (n + (t - 1) // 2) - q ** (n + (t - 3) // 2) - 1
    n_zero = _div(zeros, q - 1, "zero count") - a_radical - a_eigen
    rec = CensusRecord(a_radical, a_eigen, n_zero, n_plus, n_minus)
    expected_total = (q ** (2 * n) - 1) // (q - 1)
    if rec.total != expected_total:
        raise NonIntegerResult(f"census total {rec.total} != quadric size {expected_total}")
    return rec


def line_count_from_census(census: CensusRecord, n: int, q: int) -> int:
    """Isotropic singular line count implied by a census."""
    c = residue_constants(n, q)
    tot = census.a * c["A0"] + census.n_zero * c["B0"] + census.n_plus * c["Bplus"] + census.n_minus * c["Bminus"]
    return _div(tot, q + 1, "line count")


def census_rewrite_sides(census: CensusRecord, n: int, q: int) -> tuple[int, int]:
    """Both sides of the reduced line-count identity (line_count_from_census
    checks n >= 2)."""
    lhs = (q + 1) * line_count_from_census(census, n, q)
    delta = census.n_plus - census.n_minus
    top, sq = q ** (2 * n - 3), (q - 1) ** 2
    rhs = _div(
        (census.a * top + delta * q ** (n - 2)) * sq + (top - 1) * (q ** (2 * n) - 1),
        sq,
        "rewrite side",
    )
    return lhs, rhs


def case_line_count(case: int, n: int, q: int, r: int, d: int) -> int:
    return line_count_from_census(closed_form_census(case, n, q, r, d), n, q)


# ---- maximization grid ---------------------------------------------------------


def line_count_objective(n: int, q: int, r: int, s: int) -> int:
    """Reduced objective whose maximum locates the case-1 line-count maximum.

    Defined for odd r in [1, 2n-1] and even s in [r+1, min(2r, 2n)].
    """
    if not (1 <= r <= 2 * n - 1) or r % 2 == 0:
        raise InadmissibleParams(f"r must be odd in [1, {2*n-1}], got {r}")
    if s % 2 or not (r + 1 <= s <= min(2 * r, 2 * n)):
        raise InadmissibleParams(f"s must be even in [r+1, min(2r, 2n)], got {s}")
    h = s // 2
    return q ** (n - h + 1) + q ** (n - h) + q ** (h + 1) - q ** (h - 1) + q ** (r - 1)


def objective_grid_argmax(n: int, q: int) -> dict:
    """Scan the objective grid; the maximum sits at (2n-1, 2n)."""
    _check_n(n)
    best = None
    arg = None
    for r in range(1, 2 * n, 2):
        for s in range(r + 1, min(2 * r, 2 * n) + 1):
            if s % 2:
                continue
            v = line_count_objective(n, q, r, s)
            if best is None or v > best:
                best, arg = v, (r, s)
    closed = q ** (2 * n - 2) + q ** (n + 1) - q ** (n - 1) + q + 1
    return {"argmax": arg, "value": best, "closed_value_at_corner": closed}


def case1_identity_sides(n: int, q: int, r: int, d: int) -> tuple[int, int]:
    """Case-1 line count times (q+1)(q-1)^2 versus its objective expression."""
    lhs = case_line_count(1, n, q, r, d) * (q + 1) * (q - 1) ** 2
    tail = q ** (4 * n - 3) - q ** (2 * n - 1) - q ** (2 * n - 2) + q ** (2 * n - 3) - q ** (2 * n) + 1
    rhs = q ** (2 * n - 3) * (q - 1) * line_count_objective(n, q, r, r + d) + tail
    return lhs, rhs


def max_singular_isotropic_lines(n: int, q: int) -> dict:
    """Largest isotropic singular line count over all alternating forms.

    The maximum is attained by the canonical case-1 form with r = 2n-1,
    d = 1; the record carries the closed value and the complement identity
    against the total line count.
    """
    params = code_parameters(n, q)  # checks n >= 2
    num = (q ** (n - 1) - 1) * (
        q ** (3 * n - 2) + q ** (3 * n - 3) - q ** (3 * n - 4) + q ** (2 * n) - q ** (n - 1) - 1
    )
    value = _div(num, (q - 1) ** 2 * (q + 1), "maximum line count")
    return {
        "value": value,
        "argmax": (2 * n - 1, 1),
        "total_lines": params.N,
        "complement": params.N - value,
        "complement_closed": q ** (4 * n - 5) - q ** (3 * n - 4),
    }


def case4_line_count_bound(n: int, q: int, r: int, s: int) -> int:
    """Upper bound, times (q-1)^2 (q+1), for the case-4 line count at (r, s=r+d).

    Defined for n >= 2, odd r in [1, 2n-1] and odd s in [r, 2n-1].
    """
    _check_n(n)
    if not (1 <= r <= 2 * n - 1) or r % 2 == 0:
        raise InadmissibleParams(f"r must be odd in [1, {2*n-1}], got {r}")
    if s % 2 == 0 or not (r <= s <= 2 * n - 1):
        raise InadmissibleParams(f"s must be odd in [r, {2*n-1}], got {s}")
    lead = (q ** (n - 1) - 1) * (q - 1) * (q ** (n + r - 3) + 2 * q ** (2 * n - (s + 5) // 2))
    tail = (
        q ** (4 * n - 3)
        + q ** (3 * n - 1)
        - q ** (3 * n - 2)
        - 3 * q ** (2 * n - 2)
        + 2 * q ** (2 * n - 3)
        - q ** (2 * n)
        + 2 * q ** (n - 1)
        - 2 * q ** (n - 2)
        + 1
    )
    return lead + tail


def endpoint_bound_values(n: int, q: int) -> dict:
    """The two endpoint values of the case-4 bound in closed form."""
    _check_n(n)
    h1 = (
        q ** (4 * n - 3)
        + q ** (3 * n - 1)
        - q ** (3 * n - 2)
        + 2 * q ** (3 * n - 3)
        - 2 * q ** (3 * n - 4)
        - 4 * q ** (2 * n - 2)
        + 3 * q ** (2 * n - 3)
        - q ** (2 * n)
        + q ** (n - 1)
        - q ** (n - 2)
        + 1
    )
    h_top = (
        q ** (4 * n - 3)
        + q ** (4 * n - 4)
        - q ** (4 * n - 5)
        + q ** (3 * n - 1)
        - q ** (3 * n - 2)
        - q ** (3 * n - 3)
        + q ** (3 * n - 4)
        - q ** (2 * n - 2)
        - q ** (2 * n)
        + 1
    )
    return {"h1": h1, "h_top": h_top}


# ---- auxiliary equation counts --------------------------------------------------


def case1_equation_counts(ctx: FieldCtx, n: int, r: int, d: int, beta: int = 1) -> dict:
    """Solution counts of the two residual equations of the case-1 census.

    First: vectors (y, x2) with y^2 + x2^T R0 x2 equal to beta^2 (nonzero
    target); closed count q^{(r-d)/2} (q^{(r-d)/2} + 1).  Second: vectors
    (z, z1, z2) with z nonzero and 2 z2^T z1 - z^2 in the negative-square
    class; no closed form is known, the count is returned as computed.
    """
    check_admissible(n, r, d, 1)
    beta = ctx.validate_element(beta)
    if beta == 0:
        raise InadmissibleParams("target beta must be nonzero")
    q = ctx.q
    # each pass walks at most PG(2n-1, q), less than the points of Q(2n, q) take
    geometry._admit_points(n, q)
    half = (r - d) // 2
    # F_q^w less 0 is F_q^* x PG(w-1, q), and Q(c p) = c^2 Q(p); the order
    # of the coordinates, y last here, changes no count
    hist = geometry._value_histogram(ctx, parabolic_gram(ctx, half))
    c = np.arange(1, q)
    target = ctx.np_mul(ctx.mul(beta, beta), ctx.np_inv(ctx.np_mul(c, c)))

    nu = _case_nu(n, r, d, 1)
    width2 = 1 + 2 * nu
    gram2 = np.zeros((width2, width2), dtype=np.int64)
    gram2[0, 0] = ctx.neg(1)
    gram2[1:, 1:] = hyperbolic_gram(ctx, nu)
    # the vectors with z != 0 are c (1, y), c != 0, the points from index
    # (q^(w-1) - 1)/(q - 1) on times the q-1 scalars, and c^2 keeps the
    # square class; v = -a^2 for some nonzero a exactly when -v is a
    # nonzero square
    hist2 = geometry._value_histogram(ctx, gram2, lo=(q ** (width2 - 1) - 1) // (q - 1))
    return {
        "target_count": int(hist[target].sum()),
        "target_closed": q**half * (q**half + 1),
        "negsquare_count": (q - 1) * geometry._square_classes(ctx, hist2, ctx.neg(1))[0],
    }


# ---- orbit count formulas -------------------------------------------------------


def kappa_closed(n: int, q: int) -> dict[str, int]:
    """Singular, internal and external point counts of the odd-dim space."""
    _check_n(n, 0)
    return {
        "singular": (q ** (2 * n) - 1) // (q - 1),
        "internal": q**n * (q**n - 1) // 2,
        "external": q**n * (q**n + 1) // 2,
    }


def even_orbit_closed(t: int, q: int, kind: str) -> dict[str, int]:
    """Singular count and per-square-class orbit size in a 2t-dim space."""
    _check_n(t, 1, "t")
    if kind == "hyperbolic":
        return {
            "singular": (q ** (t - 1) + 1) * (q**t - 1) // (q - 1),
            "per_class": q ** (t - 1) * (q**t - 1) // 2,
        }
    if kind == "elliptic":
        return {
            "singular": (q ** (t - 1) - 1) * (q**t + 1) // (q - 1),
            "per_class": q ** (t - 1) * (q**t + 1) // 2,
        }
    raise InadmissibleParams(f"kind must be hyperbolic or elliptic, got {kind!r}")


def even_orbit_empirical(ctx: FieldCtx, t: int, kind: str) -> dict[str, int]:
    """Direct census of a 2t-dim hyperbolic or elliptic space, from the
    histogram of Q's values over PG(2t-1, q)."""
    _check_n(t, 1, "t")
    geometry._admit_points(t, ctx.q)  # the pass walks PG(2t-1, q), less than Q(2t, q) takes
    if kind == "hyperbolic":
        gram = hyperbolic_gram(ctx, t)
    elif kind == "elliptic":
        gram = elliptic_gram(ctx, t - 1)
    else:
        raise InadmissibleParams(f"kind must be hyperbolic or elliptic, got {kind!r}")
    hist = geometry._value_histogram(ctx, gram)
    square, nonsquare = geometry._square_classes(ctx, hist)
    return {"singular": int(hist[0]), "square": square, "nonsquare": nonsquare}


# ---- spectral bound -------------------------------------------------------------


def _eigenvector_counts(qs: QuadraticSpace, afs) -> np.ndarray:
    """Per form of a list of forms on qs: the number of nonzero vectors
    that are eigenvectors of M^{-1} S with a nonzero base-field eigenvalue.
    The q-1 shifts of every M^{-1} S of a block of forms are ranked in one
    elimination."""
    ctx, dim = qs.ctx, qs.dim
    s = forms._stack(qs, afs)
    out = np.empty(len(afs), dtype=np.int64)
    # the shifts and the elimination's working copy and products
    for blk in geometry._blocks(len(afs), 6 * (ctx.q - 1) * dim * dim):
        m = ctx.np_matmul(qs.gram_inv, s[blk])
        out[blk] = (ctx.q ** eigen_nullities(ctx, m) - 1).sum(axis=1)
    return out


# ---- delta bound ----------------------------------------------------------------


def delta_bound_check(census: CensusRecord, n: int, q: int) -> dict:
    """The plus-minus imbalance against q times the companion-quadric count.

    The imbalance is read as n_plus - n_minus, the quantity the flag identity
    controls.  The inner bound is strictly below the outer one exactly when
    some point lies off the companion quadric; forms whose residues are all
    degenerate (n_plus = n_minus = 0) reach equality, so strictness is
    reported separately rather than required.  The fields of census may be
    ints or equal-length arrays, and so are those of the record.
    """
    delta = census.n_plus - census.n_minus
    w_count = census.a + census.n_zero
    outer = q * ((q ** (2 * n) - 1) // (q - 1))
    inner = q * w_count
    return {
        "delta": delta,
        "w_points": w_count,
        "inner_bound": inner,
        "outer_bound": outer,
        "strict": inner < outer,
        "ok": (delta <= inner) & (inner <= outer),
        "note": "imbalance read as n_plus - n_minus",
    }


# ---- verification procedures ----------------------------------------------------


def _report(check: str, params: dict, expected, observed, ok: bool, **extra) -> dict:
    status = "ok" if ok else "mismatch"
    return {"check": check, "params": params, "expected": expected, "observed": observed, "status": status, **extra}


class FormTable:
    """The forms that the checks of one run_checks call share, with their
    per-form data as columns, all on the standard space `space`, whose
    points are admitted first.

    canonical holds (case, r, d, form) for every buildable shape of cases
    1-4: its canonical form S on the shape's own Gram matrix, carried onto
    the space as A S A^T (forms.isometries), and checked to have radical
    (r, d) there by the radical splits of all entries, which
    eigenvector-bound reads.  entries holds (case, form) for those, then
    `samples` seeded random forms, tagged case 0, so canonical shape i is
    entry i.  Each is built on first use, so a check that reads no forms
    runs at any n >= 2.  Every column has one row per entry, in the order
    of entries: rows(kernel) calls a stacked kernel once, on all entries;
    cases, censuses, taus and line_types are read off the entries and the
    kernels' rows in one pass each.  budget bounds the messages
    min-distance-exact may scan.

    The checks multiply these columns by q, q+1 or a residue constant.
    Every product is at most (q+1) N, the number of flags (point, line),
    or q times the number of points, both far below 2^63 for any line set
    that can be admitted.
    """

    def __init__(self, n: int, q: int, samples: int = 0, seed: int = 0, budget: int = DEFAULT_BUDGET):
        _check_n(n)
        _check_seed(seed)
        if samples < 0:
            raise InadmissibleParams(f"samples must be >= 0, got {samples}")
        self.n, self.q, self.samples, self.seed, self.budget = n, q, samples, seed, budget
        self._rows: dict = {}

    @cached_property
    def space(self) -> QuadraticSpace:
        geometry._admit_points(self.n, self.q)
        return standard_space(FieldCtx(self.q), self.n)

    @cached_property
    def sampled(self) -> list[AlternatingForm]:
        qs = self.space
        return random_alternating_forms(qs.ctx, qs.dim, np.random.default_rng(self.seed), self.samples)

    @cached_property
    def canonical(self) -> list:
        qs = self.space
        shapes = [(case, r, d) for case in forms.CASES for r, d in admissible_pairs(self.n, case)]
        grams, alts = zip(*(forms._shape(qs.ctx, self.n, r, d, case) for case, r, d in shapes))
        a, _ = forms.isometries(qs, grams)
        afs = forms.alternating_forms(qs.ctx, qs.ctx.np_matmul(qs.ctx.np_matmul(a, alts), a.transpose(0, 2, 1)))
        # the rows of every entry: these forms, then the sampled ones
        splits = self._rows[forms._radical_splits] = forms._radical_splits(qs, afs + self.sampled)
        for (case, r, d), split in zip(shapes, splits[:, :2].tolist()):
            if tuple(split) != (r, d):
                raise RadicalMismatch(f"case {case} shape ({r}, {d}) carried to {tuple(split)}")
        return [(*shape, af) for shape, af in zip(shapes, afs)]

    @cached_property
    def entries(self) -> list:
        return [(case, af) for case, _, _, af in self.canonical] + [(0, af) for af in self.sampled]

    @cached_property
    def code(self) -> PolarCode:
        """The code of the standard space."""
        return build_code(self.space)

    def rows(self, kernel) -> np.ndarray:
        """kernel(space, forms), forms being every entry, in their order."""
        if kernel not in self._rows:
            self._rows[kernel] = kernel(self.space, [af for _, af in self.entries])
        return self._rows[kernel]

    @cached_property
    def cases(self) -> np.ndarray:
        """(entries,) case of each entry, 0 for a sampled form."""
        return np.array([case for case, _ in self.entries])

    @cached_property
    def censuses(self) -> np.ndarray:
        """(entries, 5) residue class counts, in CensusRecord's order."""
        return geometry._census_stack(self.rows(geometry._residue_stack))

    @cached_property
    def taus(self) -> np.ndarray:
        """(entries, points) tau values (see geometry._tau_stack)."""
        return geometry._tau_stack(self.space, self.rows(geometry._isotropic_stack), len(self.entries))

    @cached_property
    def line_types(self) -> np.ndarray:
        """(entries, 5) numbers of lines of each type (see LINE_TYPE_NAMES)."""
        return geometry._line_type_stack(self.space, self.rows(geometry._residue_stack))


def verify_census_all(table: FormTable) -> dict:
    """Empirical censuses equal the closed forms on every buildable shape
    with a closed form (cases 1-3), including the radical/eigen split."""
    n, q = table.n, table.q
    entries = []
    ok = True
    for i, (case, r, d, _) in enumerate(table.canonical):
        if case == 4:
            continue
        emp = CensusRecord(*table.censuses[i].tolist())
        pred = closed_form_census(case, n, q, r, d)
        match = emp == pred  # every field, the radical/eigen split too
        ok &= match
        entries.append({"case": case, "r": r, "d": d, "expected": pred.as_tuple(), "observed": emp.as_tuple(),
                        "status": "ok" if match else "mismatch"})
    total = (q ** (2 * n) - 1) // (q - 1)
    return _report(
        "census-all",
        {"n": n, "q": q},
        "closed-form censuses",
        f"{len(entries)} shapes checked",
        ok,
        total_points=total,
        entries=entries,
    )


def verify_line_count_identity(table: FormTable) -> dict:
    """(q+1) f equals the weighted census sum and the reduced rewrite, and
    every singular point lies on as many isotropic lines (its tau value) as
    the residue constant of its class, for canonical and random forms: one
    array pass over all of them."""
    n, q = table.n, table.q
    table.space  # admits the points before any power of q
    c = residue_constants(n, q)
    # the residue constant of each class code: P_A, P_B, zero, plus, minus
    per_class = np.array([c["A0"], c["A0"], c["B0"], c["Bplus"], c["Bminus"]])
    masks, nb = table.rows(geometry._isotropic_stack), len(table.entries)  # lines admitted first
    lhs = np.zeros(nb, dtype=np.int64)
    for blk in geometry._blocks(len(masks), nb):  # the forms' bits of a block of lines
        lhs += (q + 1) * np.unpackbits(masks[blk], axis=1, count=nb).sum(axis=0, dtype=np.int64)
    rhs = table.censuses @ per_class  # the census weighted by the constants
    tau = table.taus
    # per point, the constant of its class, in tau's dtype, which holds A0
    expected = per_class.astype(tau.dtype)[table.rows(geometry._residue_stack)]
    off = np.count_nonzero(tau != expected, axis=1)
    # the rewrite's sides, once per distinct census
    censuses, which = np.unique(table.censuses, axis=0, return_inverse=True)
    sides = [census_rewrite_sides(CensusRecord(*row), n, q) for row in censuses.tolist()]
    rewrite_ok = np.array([rw_lhs == rw_rhs for rw_lhs, rw_rhs in sides], dtype=bool)[which]
    rewrite_lhs = np.array([rw_lhs for rw_lhs, _ in sides], dtype=np.int64)[which]
    good = (lhs == rhs) & (off == 0) & rewrite_ok & (rewrite_lhs == lhs)
    first_bad = None
    if not good.all():
        i = int(np.argmin(good))
        first_bad = {"lhs": int(lhs[i]), "rhs": int(rhs[i]), "tau_sum": int(tau[i].sum()), "tau_mismatches": int(off[i])}
    return _report(
        "line-count-identity",
        {"n": n, "q": q, "samples": table.samples, "seed": table.seed},
        "all identities agree",
        first_bad if first_bad else f"{len(good)} forms agree",
        bool(good.all()),
    )


def verify_line_types(table: FormTable) -> dict:
    """Every singular line matches one of the five types, and the per-class
    flag identities (hence the imbalance identity) hold."""
    n, q = table.n, table.q
    table.space  # admits the points before any power of q
    lpp = (q ** (2 * n - 2) - 1) // (q - 1)
    try:
        _, t_plus, t_alpha, t_beta, t_minus = table.line_types.T
    except TypeNotInTable as ex:
        observed, ok = {"error": str(ex)}, False
    else:
        _, _, _, n_plus, n_minus = table.censuses.T
        mixed = (q + 1) // 2 * t_alpha + (q - 1) // 2 * t_beta  # flags of a plus or a minus point
        good = (
            (n_plus * lpp == q * t_plus + mixed)
            & (n_minus * lpp == q * t_minus + mixed)
            & ((n_plus - n_minus) * lpp == q * (t_plus - t_minus))
        )
        ok = bool(good.all())
        observed = f"{len(good)} forms agree"
        if not ok:
            i = int(np.argmin(good))
            types = dict(zip(geometry.LINE_TYPE_NAMES, table.line_types[i].tolist()))
            observed = {"census": CensusRecord(*table.censuses[i].tolist()).as_tuple(), "types": types}
    return _report(
        "line-type-census",
        {"n": n, "q": q, "samples": table.samples, "seed": table.seed},
        "five types and flag identities",
        observed,
        ok,
    )


def verify_orbit_counts(table: FormTable) -> dict:
    """Empirical point orbits against the closed counts, in the ambient odd
    dimension and in the two even-dimensional section types."""
    n, q = table.n, table.q
    qs = table.space
    ctx = qs.ctx
    emp = orbit_counts(qs)
    closed = kappa_closed(n, q)
    ok = all(emp[k] == closed[k] for k in closed)
    evens = {}
    for kind in ("hyperbolic", "elliptic"):
        e = even_orbit_empirical(ctx, n, kind)
        c = even_orbit_closed(n, q, kind)
        good = e["singular"] == c["singular"] and e["square"] == c["per_class"] == e["nonsquare"]
        evens[kind] = {"expected": c, "observed": e, "status": "ok" if good else "mismatch"}
        ok &= good
    return _report(
        "orbit-counts",
        {"n": n, "q": q},
        closed,
        {k: emp[k] for k in ("singular", "internal", "external")},
        ok,
        sections=evens,
    )


def _admit_maxima(table: FormTable) -> None:
    """Raise BudgetExceeded if n^3 times the bits of q exceeds the work
    budget: a maxima check evaluates about n^2 closed forms of O(n log q)
    bits each, so one budget admits about the same time over every field."""
    work = table.n**3 * table.q.bit_length()
    if work > table.budget:
        raise BudgetExceeded(f"the maxima at n = {table.n} over F_{table.q} take n^3 * {table.q.bit_length()} = "
                             f"{work} steps, past the budget {table.budget}", bound=work)


def verify_grid_maxima(table: FormTable) -> dict:
    """The case-1 maximum: location, closed value, complement identity, the
    objective reduction, and domination of the other cases."""
    n, q = table.n, table.q
    _admit_maxima(table)
    best = None
    arg = None
    identities_ok = True
    for r, d in admissible_pairs(n, 1):
        v = case_line_count(1, n, q, r, d)
        lhs, rhs = case1_identity_sides(n, q, r, d)
        identities_ok &= lhs == rhs
        if best is None or v > best:
            best, arg = v, (r, d)
    mx = max_singular_isotropic_lines(n, q)
    obj = objective_grid_argmax(n, q)
    bounds = endpoint_bound_values(n, q)
    case4_ok = True
    h_vals = [case4_line_count_bound(n, q, r, r) for r in range(1, 2 * n, 2)]
    case4_ok &= bounds["h1"] == h_vals[0] and bounds["h_top"] == h_vals[-1]
    case4_ok &= max(h_vals) == bounds["h_top"] and bounds["h1"] < bounds["h_top"]
    case4_ok &= bounds["h_top"] == mx["value"] * (q - 1) ** 2 * (q + 1)
    for r, d in admissible_pairs(n, 4):
        case4_ok &= case4_line_count_bound(n, q, r, r + d) <= bounds["h_top"]
    others_ok = True
    for case in (2, 3):
        for r, d in admissible_pairs(n, case, buildable=False):
            others_ok &= case_line_count(case, n, q, r, d) <= mx["value"]
    ok = (
        arg == mx["argmax"]
        and best == mx["value"]
        and mx["complement"] == mx["complement_closed"]
        and obj["argmax"] == (2 * n - 1, 2 * n)
        and obj["value"] == obj["closed_value_at_corner"]
        and identities_ok
        and case4_ok
        and others_ok
    )
    return _report(
        "grid-maxima",
        {"n": n, "q": q},
        {"argmax": mx["argmax"], "value": mx["value"]},
        {"argmax": arg, "value": best},
        ok,
        objective=obj,
        complement={"observed": mx["complement"], "closed": mx["complement_closed"]},
        endpoint_bounds=bounds,
    )


def verify_case_maxima(table: FormTable) -> dict:
    """Within-case maximum locations on the evaluation grids."""
    n, q = table.n, table.q
    if n < 3:
        raise InadmissibleParams("case maxima are tabulated for n >= 3 only")
    _admit_maxima(table)
    expected = {
        1: (2 * n - 1, 1),
        2: (1, 1) if n == 3 else (2 * n - 1, 1),
        3: (1, 0) if n == 3 else (2 * n - 1, 0),
    }
    observed = {}
    ok = True
    for case in (1, 2, 3):
        best = None
        arg = None
        for r, d in admissible_pairs(n, case, buildable=False):
            v = case_line_count(case, n, q, r, d)
            if best is None or v > best:
                best, arg = v, (r, d)
        observed[case] = arg
        ok &= arg == expected[case]
    return _report(
        "case-maxima",
        {"n": n, "q": q},
        {str(c): list(expected[c]) for c in expected},
        {str(c): list(observed[c]) for c in observed},
        ok,
    )


def verify_eigenvector_bound(table: FormTable) -> dict:
    """The eigenvector count of M^{-1} S never exceeds 2(q^m - 1), m the
    Witt index of M over H0 (radical_split), with equality attained by the
    canonical shape with full-rank induced block."""
    n, q = table.n, table.q
    splits, counts = table.rows(forms._radical_splits), table.rows(_eigenvector_counts)
    bounds = 2 * (q ** splits[:, 2] - 1)
    within = counts <= bounds
    equality_seen = bool(((counts == bounds) & (bounds > 0)).any())
    observed = f"{len(within)} forms within bound; equality seen: {equality_seen}"
    if not within.all():
        i = int(np.argmin(within))
        split = forms._split(table.space, splits[i])
        observed = {"count": int(counts[i]), **{k: split[k] for k in "mrd"}, "bound": int(bounds[i]), "ok": False}
    return _report(
        "eigenvector-bound",
        {"n": n, "q": q, "samples": table.samples, "seed": table.seed},
        "count <= 2(q^m - 1), equality attained",
        observed,
        bool(within.all()) and equality_seen,
    )


def verify_equation_counts(table: FormTable) -> dict:
    """Closed count of the nonzero-target equation on every case-1 shape."""
    n, q = table.n, table.q
    ctx = FieldCtx(q)
    entries = []
    ok = True
    for r, d in admissible_pairs(n, 1):
        for beta in (1, ctx.nonsquare_rep):
            rec = case1_equation_counts(ctx, n, r, d, beta=beta)
            good = rec["target_count"] == rec["target_closed"]
            ok &= good
            entries.append({"r": r, "d": d, "beta": beta, "expected": rec["target_closed"],
                            "observed": rec["target_count"], "negsquare_count": rec["negsquare_count"],
                            "status": "ok" if good else "mismatch"})
    return _report(
        "equation-counts",
        {"n": n, "q": q},
        "closed nonzero-target counts",
        f"{len(entries)} shapes checked",
        ok,
        entries=entries,
    )


def verify_delta_bound(table: FormTable) -> dict:
    """Imbalance bound on canonical and random forms."""
    n, q = table.n, table.q
    rec = delta_bound_check(CensusRecord(*table.censuses.T), n, q)
    within = rec["ok"]
    observed = f"{len(within)} forms within bound"
    if not within.all():
        observed = delta_bound_check(CensusRecord(*table.censuses[int(np.argmin(within))].tolist()), n, q)
    return _report(
        "delta-bound",
        {"n": n, "q": q, "samples": table.samples, "seed": table.seed},
        "imbalance within bound, strictly on case-1 shapes",
        observed,
        bool(within.all() and rec["strict"][table.cases == 1].all()),
        note="imbalance read as n_plus - n_minus",
    )


def verify_min_distance_exact(table: FormTable) -> dict:
    """Exhaustive minimum distance against the closed value, the budget
    checked on K = n(2n+1) before the code or its parameters are built."""
    n, q = table.n, table.q
    check_scan_budget(q, n * (2 * n + 1), table.budget)
    code = table.code
    d = min_distance_exact(code, budget=table.budget)
    ok = d == code.params.d_claimed
    return _report(
        "min-distance-exact",
        {"n": n, "q": q},
        code.params.d_claimed,
        d,
        ok,
    )


def verify_canonical_weight(table: FormTable) -> dict:
    """The canonical low-weight form hits the claimed minimum distance and
    its census is the predicted one."""
    n, q = table.n, table.q
    # the shape of the standard space, which its isometry leaves as it is
    i, af = next((i, af) for i, (case, r, _, af) in enumerate(table.canonical) if (case, r) == (1, 2 * n - 1))
    code = table.code
    w = codeword_from_form(code, af).weight
    census = CensusRecord(*table.censuses[i].tolist())
    pred = closed_form_census(1, n, q, 2 * n - 1, 1)
    ok = w == code.params.d_claimed and census.as_tuple() == pred.as_tuple()
    return _report(
        "canonical-weight",
        {"n": n, "q": q},
        {"weight": code.params.d_claimed, "census": list(pred.as_tuple())},
        {"weight": w, "census": list(census.as_tuple())},
        ok,
        N=code.params.N,
        K=code.params.K,
    )


CHECKS = {
    "census-all": verify_census_all,
    "line-count-identity": verify_line_count_identity,
    "line-type-census": verify_line_types,
    "orbit-counts": verify_orbit_counts,
    "grid-maxima": verify_grid_maxima,
    "case-maxima": verify_case_maxima,
    "eigenvector-bound": verify_eigenvector_bound,
    "equation-counts": verify_equation_counts,
    "delta-bound": verify_delta_bound,
    "min-distance-exact": verify_min_distance_exact,
    "canonical-weight": verify_canonical_weight,
}


def run_checks(names, args: dict) -> list[dict]:
    """Run the named checks (or all) on one FormTable, built from args'
    n, q, samples, seed and budget (FormTable's defaults when absent; no
    samples when no check reads them).

    Under 'all', checks that do not apply at the given scale (wrong n, or an
    exhaustive scan past the budget) are reported as skipped instead of
    raising; a check requested by name still raises, and so does any check
    whose points, lines or code would not fit in memory (TooLarge).
    """
    expanded = names == ["all"] or names == "all"
    if expanded:
        names = list(CHECKS)
    sampled = {"line-count-identity", "line-type-census", "eigenvector-bound", "delta-bound"} & set(names)
    if not sampled:
        args = {k: v for k, v in args.items() if k != "samples"}
    table = FormTable(**args)
    out = []
    for name in names:
        if name not in CHECKS:
            raise InadmissibleParams(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
        try:
            out.append(CHECKS[name](table))
        except (InadmissibleParams, BudgetExceeded) as ex:
            if not expanded or isinstance(ex, TooLarge):
                raise
            out.append({"check": name, "params": {"n": table.n, "q": table.q},
                        "expected": "not applicable at this scale", "observed": str(ex), "status": "skipped"})
    return out
