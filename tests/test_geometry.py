# tests/test_geometry.py
import numpy as np
import pytest

from polargrass import geometry
from polargrass.code import random_alternating_form
from polargrass.errors import NotOnQuadric
from polargrass.field import field_ctx
from polargrass.forms import admissible_pairs, canonical_form, standard_space
from polargrass.geometry import (
    RESIDUE_MINUS,
    RESIDUE_NAMES,
    RESIDUE_P_A,
    RESIDUE_P_B,
    RESIDUE_PLUS,
    RESIDUE_ZERO,
    _encode_rows,
    empirical_census,
    enumerate_singular_lines,
    export_line_list,
    isotropic_line_count,
    line_type,
    line_type_census,
    line_type_codes,
    lines_through,
    point_id,
    quadric_points,
    residue_class,
    residue_classes,
    singular_line_count,
    tau,
    tau_values,
)

F3 = field_ctx(3)
F5 = field_ctx(5)


def tau_constants(n, q):
    return {
        RESIDUE_P_A: (q ** (2 * n - 2) - 1) // (q - 1),
        RESIDUE_P_B: (q ** (2 * n - 2) - 1) // (q - 1),
        RESIDUE_ZERO: (q ** (2 * n - 3) - 1) // (q - 1),
        RESIDUE_PLUS: (q ** (n - 1) - 1) * (q ** (n - 2) + 1) // (q - 1),
        RESIDUE_MINUS: (q ** (n - 1) + 1) * (q ** (n - 2) - 1) // (q - 1),
    }


# ---------------------------------------------------------
# Point enumeration
# ---------------------------------------------------------
@pytest.mark.parametrize(
    "n,q,count", [(2, 3, 40), (3, 3, 364), (2, 5, 156)]
)
def test_quadric_point_counts(n, q, count):
    qs = standard_space(field_ctx(q), n)
    pts = quadric_points(qs)
    assert len(pts) == count
    assert len(pts) == (q ** (2 * n) - 1) // (q - 1)


def test_quadric_points_are_canonical_and_sorted():
    qs = standard_space(F3, 2)
    pts = quadric_points(qs)
    for p in pts:
        v = p.tolist()
        assert qs.eta(v) == 0
        assert v[next(i for i, x in enumerate(v) if x)] == 1
    keys = [tuple(p) for p in pts]
    assert keys == sorted(keys)


def test_point_id_round_trip():
    qs = standard_space(F3, 2)
    pts = quadric_points(qs)
    for pid in (0, 7, 39):
        assert point_id(qs, pts[pid].tolist()) == pid
    # scaling does not change the id
    assert point_id(qs, (2 * pts[5]) % 3) == 5
    with pytest.raises(NotOnQuadric):
        point_id(qs, [0, 1, 0, 0, 0])


# ---------------------------------------------------------
# Line enumeration
# ---------------------------------------------------------
@pytest.mark.parametrize(
    "n,q,count", [(2, 3, 40), (3, 3, 3640), (2, 5, 156)]
)
def test_singular_line_counts(n, q, count):
    qs = standard_space(field_ctx(q), n)
    ls = enumerate_singular_lines(qs)
    assert len(ls) == count
    formula = (q ** (2 * n - 2) - 1) * (q ** (2 * n) - 1) // ((q**2 - 1) * (q - 1))
    assert len(ls) == formula


def test_lines_are_deduped_and_sorted():
    qs = standard_space(F3, 2)
    ls = enumerate_singular_lines(qs)
    keys = [tuple(row) for row in ls.plucker]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # wedge coordinates canonically scaled: leading entry is 1
    for row in ls.plucker:
        v = row.tolist()
        assert v[next(i for i, x in enumerate(v) if x)] == 1


def test_every_line_point_is_singular():
    qs = standard_space(F3, 2)
    ls = enumerate_singular_lines(qs)
    mem = ls.members()
    assert mem.shape == (40, 4)
    # members are point ids into the singular point list, so the check is
    # that each line has exactly q+1 distinct points
    for row in mem:
        assert len(set(row.tolist())) == 4


@pytest.mark.parametrize(
    "n,q,through", [(2, 3, 4), (3, 3, 40), (2, 5, 6)]
)
def test_lines_through_every_point(n, q, through):
    qs = standard_space(field_ctx(q), n)
    pts = quadric_points(qs)
    assert through == (q ** (2 * n - 2) - 1) // (q - 1)
    for pid in range(len(pts)):
        assert len(lines_through(qs, pid)) == through
    assert len(lines_through(qs, pts[0].tolist())) == through
    with pytest.raises(NotOnQuadric):
        lines_through(qs, [0, 1] + [0] * (2 * n - 1))


def reference_lines(qs):
    """(plucker, gens, members) from every perpendicular pair of points,
    scaled to a leading 1 and deduplicated: the all-pairs enumerator the
    reduced-echelon one replaced, kept as its test oracle."""
    ctx = qs.ctx
    pts = quadric_points(qs)
    pm = ctx.np_matmul(pts, qs.gram_np())
    if ctx.e == 1:
        block = (pm @ pts.T) % ctx.p
    else:
        block = ctx.np_rowsum(ctx.np_mul(pm[:, None, :], pts[None, :, :]))
    gi, gj = np.nonzero(block == 0)
    keep = gi < gj
    gi, gj = gi[keep], gj[keep]
    iu, ju = np.triu_indices(qs.dim, 1)
    u, v = pts[gi], pts[gj]
    pl = ctx.np_sub(ctx.np_mul(u[:, iu], v[:, ju]), ctx.np_mul(u[:, ju], v[:, iu]))
    pl = ctx.np_normalize_rows(pl)
    _, first = np.unique(_encode_rows(ctx.q, pl), return_index=True)
    plucker = pl[first]
    gens = np.stack([gi[first], gj[first]], axis=1)
    point_keys = _encode_rows(ctx.q, pts)
    u, v = pts[gens[:, 0]], pts[gens[:, 1]]
    cols = [gens[:, 1]]
    for lam in range(ctx.q):
        w = ctx.np_normalize_rows(ctx.np_add(u, ctx.np_mul(np.int64(lam), v)))
        pos = np.searchsorted(point_keys, _encode_rows(ctx.q, w))
        assert (point_keys[pos] == _encode_rows(ctx.q, w)).all()
        cols.append(pos)
    return plucker, gens, np.sort(np.stack(cols, axis=1), axis=1)


def differential_spaces():
    for q, n in ((3, 3), (9, 2)):
        for case in (1, 2, 3, 4):
            for r, d in admissible_pairs(n, case):
                yield pytest.param(q, n, (r, d, case), id=f"q{q}-n{n}-case{case}-r{r}-d{d}")
    for q in (5, 11):
        yield pytest.param(q, 2, None, id=f"q{q}-n2-standard")


@pytest.mark.parametrize("q,n,shape", differential_spaces())
def test_lines_match_all_pairs_reference(q, n, shape):
    ctx = field_ctx(q)
    qs = standard_space(ctx, n) if shape is None else canonical_form(ctx, n, *shape)[0]
    ls = enumerate_singular_lines(qs)
    plucker, gens, members = reference_lines(qs)
    assert ls.plucker.dtype == plucker.dtype and ls.plucker.shape == plucker.shape
    assert ls.plucker.tobytes() == plucker.tobytes()
    assert np.array_equal(ls.gens, gens)
    assert np.array_equal(ls.members(), members)
    # gens[i] spans line i: its wedge row is a multiple of plucker[i]
    pts = quadric_points(qs)
    u, v = pts[ls.gens[:, 0]], pts[ls.gens[:, 1]]
    iu, ju = np.triu_indices(qs.dim, 1)
    wedge = ctx.np_sub(ctx.np_mul(u[:, iu], v[:, ju]), ctx.np_mul(u[:, ju], v[:, iu]))
    assert np.array_equal(ctx.np_normalize_rows(wedge), ls.plucker)


@pytest.mark.parametrize("q,n", [(3, 3), (9, 2), (5, 2)])
def test_lines_in_small_pair_blocks(monkeypatch, q, n):
    # blocks of at most 7 pairs split every lead into many row blocks
    ctx = field_ctx(q)
    whole = enumerate_singular_lines(standard_space(ctx, n))
    monkeypatch.setattr(geometry, "PAIR_BLOCK_ENTRIES", 7)
    split = enumerate_singular_lines(standard_space(ctx, n))
    assert len(split) == singular_line_count(n, q)
    assert split.plucker.tobytes() == whole.plucker.tobytes()
    assert np.array_equal(split.gens, whole.gens)


def test_lines_q27_incidence():
    q = 27
    qs = standard_space(field_ctx(q), 2)
    ls = enumerate_singular_lines(qs)
    n_lines = (q**4 - 1) // (q - 1)
    assert len(ls) == n_lines == 20440
    mem = ls.members()
    assert mem.shape == (n_lines, q + 1)
    assert (np.diff(mem, axis=1) > 0).all()
    on_point = np.bincount(mem.ravel(), minlength=len(quadric_points(qs)))
    assert (on_point == q + 1).all()


def test_flag_count_matches_line_count():
    qs = standard_space(F3, 3)
    ls = enumerate_singular_lines(qs)
    lpp = (3 ** (2 * 3 - 2) - 1) // 2
    assert len(quadric_points(qs)) * lpp == len(ls) * 4


# ---------------------------------------------------------
# Residue classes
# ---------------------------------------------------------
def test_radical_point_is_class_a():
    qs, af = canonical_form(F3, 2, 3, 1, 1)
    assert residue_class(qs, af, [0, 0, 0, 0, 1]) == "CLASS_P_A"


@pytest.mark.parametrize(
    "n,r,d,case,census",
    [
        (2, 3, 1, 1, (7, 6, 27, 0)),
        (3, 5, 1, 1, (49, 72, 243, 0)),
        (3, 5, 1, 2, (31, 90, 0, 243)),
        (3, 5, 0, 3, (42, 160, 90, 72)),
    ],
)
def test_canonical_census_values(n, r, d, case, census):
    qs, af = canonical_form(F3, n, r, d, case)
    got = empirical_census(qs, af)
    assert got.as_tuple() == census
    assert got.total == (3 ** (2 * n) - 1) // 2


def test_census_total_on_random_forms():
    qs = standard_space(F3, 2)
    rng = np.random.default_rng(2)
    for _ in range(50):
        af = random_alternating_form(F3, 5, rng)
        c = empirical_census(qs, af)
        assert c.total == 40
        assert min(c.as_tuple()) >= 0


# ---------------------------------------------------------
# Per-point residue line counts
# ---------------------------------------------------------
def test_tau_examples():
    qs, af = canonical_form(F3, 3, 5, 1, 1)
    codes = residue_classes(qs, af)
    taus = tau_values(qs, af)
    a_pt = int(np.flatnonzero(codes == RESIDUE_P_A)[0])
    zero_pt = int(np.flatnonzero(codes == RESIDUE_ZERO)[0])
    plus_pt = int(np.flatnonzero(codes == RESIDUE_PLUS)[0])
    assert tau(qs, af, a_pt) == 40
    assert taus[zero_pt] == 13
    assert taus[plus_pt] == 16
    qs2, af2 = canonical_form(F3, 3, 5, 1, 2)
    codes2 = residue_classes(qs2, af2)
    minus_pt = int(np.flatnonzero(codes2 == RESIDUE_MINUS)[0])
    assert tau(qs2, af2, minus_pt) == 10


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5)])
def test_tau_matches_class_constant_everywhere(n, q):
    """Strongest per-point oracle: each class has one fixed line count."""
    ctx = field_ctx(q)
    qs = standard_space(ctx, n)
    consts = tau_constants(n, q)
    rng = np.random.default_rng(4)
    forms = [canonical_form(ctx, n, 2 * n - 1, 1, 1)[1]]
    forms += [random_alternating_form(ctx, 2 * n + 1, rng) for _ in range(10)]
    for af in forms:
        codes = residue_classes(qs, af)
        taus = tau_values(qs, af)
        for cls, const in consts.items():
            sel = codes == cls
            if sel.any():
                assert (taus[sel] == const).all()


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5)])
def test_isotropic_lines_balance_point_counts(n, q):
    """(q+1) times the isotropic line count equals the tau total."""
    ctx = field_ctx(q)
    qs = standard_space(ctx, n)
    rng = np.random.default_rng(9)
    for _ in range(10):
        af = random_alternating_form(ctx, 2 * n + 1, rng)
        f = isotropic_line_count(qs, af)
        assert (q + 1) * f == int(tau_values(qs, af).sum())


# ---------------------------------------------------------
# Line types
# ---------------------------------------------------------
def test_line_inside_radical_is_type_t0():
    qs, af = canonical_form(F3, 3, 5, 1, 1)
    p1 = point_id(qs, [0, 0, 1, 0, 0, 0, 0])
    p2 = point_id(qs, [0, 0, 0, 1, 0, 0, 0])
    common = np.intersect1d(lines_through(qs, p1), lines_through(qs, p2))
    assert len(common) == 1
    assert line_type(qs, af, int(common[0])) == "T0"


def test_line_type_census_exhaustive():
    qs, af = canonical_form(F3, 3, 5, 1, 1)
    census = line_type_census(qs, af)
    assert sum(census.values()) == 3640
    assert set(census) == {"T0", "TPLUS", "TALPHA", "TBETA", "TMINUS"}


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5)])
def test_line_types_cover_random_forms(n, q):
    ctx = field_ctx(q)
    qs = standard_space(ctx, n)
    rng = np.random.default_rng(12)
    for _ in range(20):
        af = random_alternating_form(ctx, 2 * n + 1, rng)
        codes = line_type_codes(qs, af)
        assert len(codes) == len(enumerate_singular_lines(qs))


def test_type_difference_flag_identity_canonical():
    qs, af = canonical_form(F3, 3, 5, 1, 1)
    census = line_type_census(qs, af)
    diff = census["TPLUS"] - census["TMINUS"]
    assert diff == 3240
    c = empirical_census(qs, af)
    lpp = (3**4 - 1) // 2
    assert (c.n_plus - c.n_minus) * lpp == 3 * diff


@pytest.mark.parametrize("n", [2, 3])
def test_type_difference_flag_identity_random(n):
    """Plus/minus flag balance holds for arbitrary alternating forms."""
    qs = standard_space(F3, n)
    lpp = (3 ** (2 * n - 2) - 1) // 2
    rng = np.random.default_rng(21)
    for _ in range(100):
        af = random_alternating_form(F3, 2 * n + 1, rng)
        census = line_type_census(qs, af)
        c = empirical_census(qs, af)
        diff = census["TPLUS"] - census["TMINUS"]
        assert (c.n_plus - c.n_minus) * lpp == 3 * diff


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3)])
def test_per_class_flag_identities(n, q):
    """Counting point-line flags per residue class matches the type census."""
    ctx = field_ctx(q)
    qs = standard_space(ctx, n)
    lpp = (q ** (2 * n - 2) - 1) // (q - 1)
    rng = np.random.default_rng(33)
    for _ in range(25):
        af = random_alternating_form(ctx, 2 * n + 1, rng)
        census = line_type_census(qs, af)
        c = empirical_census(qs, af)
        half_up = (q + 1) // 2
        half_dn = (q - 1) // 2
        plus_flags = (
            q * census["TPLUS"]
            + half_up * census["TALPHA"]
            + half_dn * census["TBETA"]
        )
        minus_flags = (
            q * census["TMINUS"]
            + half_up * census["TALPHA"]
            + half_dn * census["TBETA"]
        )
        assert c.n_plus * lpp == plus_flags
        assert c.n_minus * lpp == minus_flags


# ---------------------------------------------------------
# Export
# ---------------------------------------------------------
def test_export_line_list_shape():
    qs = standard_space(F3, 2)
    text = export_line_list(qs)
    lines = text.strip().split("\n")
    assert len(lines) == 40
    assert lines[0].startswith("0 : ")
    head, coords = lines[7].split(" : ")
    assert head == "7"
    assert len(coords.split()) == 10
    assert all(t in "012" for t in coords.replace(" ", ""))
