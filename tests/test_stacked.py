# tests/test_stacked.py
"""The stacked per-form kernels against the per-form code they replaced.

geometry's residue, isotropic-line, tau and line-type kernels, counting's
eigenvector counts and forms' radical splits each evaluate a list of forms
on one space in one call, in blocks of points, lines or forms (the
line-type kernel takes the forms' residue rows, the tau kernel their
isotropic rows); censuses are read off the residue rows, by the
single-form functions and by counting's FormTable alike.  The reference_*
functions below are the bodies that computed the same data one form at a
time; they stay here only as oracles.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polargrass import counting, forms, geometry
from polargrass.code import random_alternating_forms
from polargrass.errors import InadmissibleParams, TypeNotInTable
from polargrass.field import FieldCtx, field_ctx
from polargrass.forms import alternating_forms, radical_split, standard_space
from polargrass.geometry import (
    CensusRecord,
    LINE_T0,
    LINE_TALPHA,
    LINE_TBETA,
    LINE_TMINUS,
    LINE_TPLUS,
    LINE_TYPE_NAMES,
    RESIDUE_MINUS,
    RESIDUE_P_A,
    RESIDUE_P_B,
    RESIDUE_PLUS,
    RESIDUE_ZERO,
    empirical_census,
    enumerate_singular_lines,
    isotropic_line_count,
    line_type_codes,
    quadric_points,
    residue_classes,
    tau_values,
)
from polargrass.matrix import rref
from test_matrix import det, eigenspace, null_space

SPACES = {(n, q): standard_space(field_ctx(q), n) for n, q in [(2, 3), (3, 3), (2, 5), (2, 9)]}


# ---- the per-form references -------------------------------------------------


def reference_residue_classes(qs, af):
    ctx = qs.ctx
    pts = quadric_points(qs)
    sp = ctx.np_matmul(pts, af.s.T)
    a_mask = ~sp.any(axis=1)
    x = ctx.np_matmul(sp, qs.gram_inv)
    lead = (pts != 0).argmax(axis=1)
    coef = x[np.arange(len(pts)), lead]
    b_mask = ~a_mask & (x == ctx.np_mul(coef[:, None], pts)).all(axis=1)
    wprime = ctx.np_quad_eval(qs.gram, x)
    rest = ~a_mask & ~b_mask
    zero_mask = rest & (wprime == 0)
    plus_mask = rest & (wprime != 0) & ctx.np_is_square(ctx.np_mul(np.int64(qs.disc_sign), wprime))
    out = np.full(len(pts), RESIDUE_MINUS, dtype=np.int8)
    out[a_mask] = RESIDUE_P_A
    out[b_mask] = RESIDUE_P_B
    out[zero_mask] = RESIDUE_ZERO
    out[plus_mask] = RESIDUE_PLUS
    return out


def reference_isotropic_mask(qs, af):
    ctx = qs.ctx
    pts = quadric_points(qs)
    ls = enumerate_singular_lines(qs)
    u = pts[ls.gens[:, 0]]
    v = pts[ls.gens[:, 1]]
    return ctx.np_rowsum(ctx.np_mul(ctx.np_matmul(u, af.s), v)) == 0


def reference_tau_values(qs, af):
    iso = reference_isotropic_mask(qs, af)
    mem = enumerate_singular_lines(qs).members()
    return np.bincount(mem[iso].ravel(), minlength=len(quadric_points(qs)))


def reference_line_types(qs, codes):
    """Type per line from a form's residue class codes, -1 where the
    pattern is in no type, and the (lines, 3) patterns (n+, nW, n-)."""
    q = qs.ctx.q
    mem_cls = codes[enumerate_singular_lines(qs).members()]
    n_plus = (mem_cls == RESIDUE_PLUS).sum(axis=1)
    n_minus = (mem_cls == RESIDUE_MINUS).sum(axis=1)
    n_w = mem_cls.shape[1] - n_plus - n_minus
    out = np.full(len(mem_cls), -1, dtype=np.int8)
    patterns = {
        LINE_T0: (0, q + 1, 0),
        LINE_TPLUS: (q, 1, 0),
        LINE_TALPHA: ((q + 1) // 2, 0, (q + 1) // 2),
        LINE_TBETA: ((q - 1) // 2, 2, (q - 1) // 2),
        LINE_TMINUS: (0, 1, q),
    }
    for code, (cp, cw, cm) in patterns.items():
        out[(n_plus == cp) & (n_w == cw) & (n_minus == cm)] = code
    return out, np.stack([n_plus, n_w, n_minus], axis=1)


def reference_line_type_codes(qs, af):
    return reference_line_types(qs, reference_residue_classes(qs, af))[0]


def reference_type_census(qs, af):
    """Number of lines of each type, every line having one."""
    codes = reference_line_type_codes(qs, af)
    assert (codes >= 0).all()
    return dict(zip(LINE_TYPE_NAMES, np.bincount(codes, minlength=5).tolist()))


def reference_eigenvector_count(qs, af):
    ctx = qs.ctx
    m = ctx.np_matmul(qs.gram_inv, af.s)
    return sum(ctx.q ** len(eigenspace(ctx, m, lam)) - 1 for lam in range(1, ctx.q))


def reference_witt_index(ctx, gram):
    dmat = det(ctx, gram)
    assert dmat != 0
    k = len(gram)
    if k % 2 == 1:
        return (k - 1) // 2
    t = k // 2
    sign = dmat if t % 2 == 0 else ctx.neg(dmat)
    return t if ctx.np_is_square(sign) else t - 1


def form_profile(qs, af):
    """(r, d) of an alternating form on qs: the dimension of its radical R
    and of the radical of M on R."""
    if af.r == 0:
        return 0, 0
    ctx, b = qs.ctx, af.radical
    return af.r, len(null_space(ctx, ctx.np_matmul(ctx.np_matmul(b, qs.gram), b.T)))


def reference_radical_split(qs, af):
    ctx = qs.ctx
    r, d = form_profile(qs, af)
    b_r = af.radical
    b_m = ctx.np_matmul(b_r, qs.gram)
    perp = null_space(ctx, b_m)
    d_in_r = null_space(ctx, ctx.np_matmul(b_m, b_r.T))
    d_vecs = ctx.np_matmul(d_in_r, b_r)
    rows = np.concatenate([d_vecs, perp])
    _, keep = rref(ctx, rows.T)
    h = rows[list(keep[len(d_vecs) :])]
    if not len(h):
        return {"r": r, "d": d, "m": 0}
    return {"r": r, "d": d, "m": reference_witt_index(ctx, ctx.np_matmul(ctx.np_matmul(h, qs.gram), h.T))}


def popcounts(masks, nb):
    """Per form of a table of _isotropic_stack over nb forms: the set bits
    of its column, one bit plane of the bytes at a time."""
    planes = [(masks >> (7 - b) & 1).sum(axis=0) for b in range(8)]
    return np.stack(planes, axis=1).ravel()[:nb]


# ---- stacks of forms -------------------------------------------------------------


def alternating(ctx, rng, dim, width):
    """P^T S0 P for a random alternating width x width S0 and a random
    width x dim P: rank at most width, so the radical has dimension at least
    dim - width."""
    if width == 0:
        return np.zeros((dim, dim), dtype=np.int64)
    upper = np.triu(rng.integers(0, ctx.q, (width, width)), 1)
    s0 = ctx.np_sub(upper, upper.T)
    p = rng.integers(0, ctx.q, (width, dim))
    return ctx.np_matmul(ctx.np_matmul(p.T, s0), p)


@st.composite
def stacks(draw, max_forms=5):
    """A space, a stack of forms on it and a block bound: random forms
    (radical dimension 1 mostly), degenerate ones with radical dimension at
    least 3, now and then the zero form; the bound is the default or one so
    small that block edges fall inside the stack."""
    qs = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    ctx, dim = qs.ctx, qs.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.lists(st.sampled_from([dim, dim, dim - 3, 2, 0]), min_size=1, max_size=max_forms))
    afs = alternating_forms(ctx, np.stack([alternating(ctx, rng, dim, w) for w in widths]))
    bound = draw(st.sampled_from([None, 1 << 12, 1 << 15]))
    return qs, afs, bound


@given(stacks())
@settings(max_examples=60, deadline=None)
def test_stacked_kernels_match_per_form_references(case):
    qs, afs, bound = case
    with pytest.MonkeyPatch.context() as mp:
        if bound is not None:
            mp.setattr(geometry, "PAIR_BLOCK_ENTRIES", bound)
        residue = geometry._residue_stack(qs, afs)
        iso = geometry._isotropic_stack(qs, afs)
        tau = geometry._tau_stack(qs, iso, len(afs))
        types = geometry._line_type_stack(qs, residue)
        eigen = counting._eigenvector_counts(qs, afs)
        splits = forms._radical_splits(qs, afs)
    for i, af in enumerate(afs):
        assert residue[i].tolist() == reference_residue_classes(qs, af).tolist()
        assert np.unpackbits(iso, axis=1, count=len(afs))[:, i].tolist() == (
            reference_isotropic_mask(qs, af).astype(np.uint8).tolist()
        )
        assert tau[i].tolist() == reference_tau_values(qs, af).tolist()
        assert dict(zip(LINE_TYPE_NAMES, types[i].tolist())) == reference_type_census(qs, af)
        assert eigen[i] == reference_eigenvector_count(qs, af)
        if af.r < qs.dim:
            assert dict(zip("rdm", splits[i].tolist())) == reference_radical_split(qs, af)
        else:
            assert splits[i][0] == qs.dim


@given(stacks(max_forms=8))
@settings(max_examples=25, deadline=None)
def test_run_rows_match_per_form_references(case):
    # A form table computes the columns of every form on the space at the
    # first request; row i of each column is entry i's.
    qs, afs, _ = case
    table = counting.FormTable(qs.n, qs.ctx.q)
    table.space = qs  # in place of the standard space
    table.entries = [(0, af) for af in afs]  # in place of the canonical and sampled forms
    for i, af in reversed(list(enumerate(afs))):
        assert table.rows(geometry._residue_stack)[i].tolist() == reference_residue_classes(qs, af).tolist()
        counts = np.bincount(reference_residue_classes(qs, af), minlength=5).tolist()
        assert table.censuses[i].tolist() == counts
        masks = table.rows(geometry._isotropic_stack)
        assert popcounts(masks, len(afs))[i] == int(reference_isotropic_mask(qs, af).sum())
        assert geometry._tau_stack(qs, masks, len(afs))[i].tolist() == reference_tau_values(qs, af).tolist()
        assert table.taus[i].tolist() == reference_tau_values(qs, af).tolist()
        assert dict(zip(LINE_TYPE_NAMES, table.line_types[i].tolist())) == reference_type_census(qs, af)
        assert line_type_codes(qs, af).tolist() == reference_line_type_codes(qs, af).tolist()
        assert table.rows(counting._eigenvector_counts)[i] == reference_eigenvector_count(qs, af)
        split = table.rows(forms._radical_splits)[i]
        if af.r < qs.dim:
            assert forms._split(qs, split) == reference_radical_split(qs, af)
        else:
            with pytest.raises(InadmissibleParams):
                forms._split(qs, split)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3)])
def test_per_form_functions_agree_inside_and_outside_a_run(monkeypatch, n, q):
    # Inside run_checks a probe check reads every public per-form function
    # and the run's table rows for the same forms; outside the run the
    # functions must return the same values again.
    inside = {}

    def values(qs, af):
        return {
            "census": empirical_census(qs, af).as_tuple(),
            "classes": residue_classes(qs, af).tolist(),
            "isotropic": isotropic_line_count(qs, af),
            "tau": tau_values(qs, af).tolist(),
            "types": line_type_codes(qs, af).tolist(),
            "split": radical_split(qs, af),
            "eigen": int(counting._eigenvector_counts(qs, [af])[0]),
        }

    def probe(table):
        qs = table.space
        for i, (_, af) in enumerate(table.entries):
            want = values(qs, af)
            inside[id(af)] = qs, af, want
            codes = table.rows(geometry._residue_stack)[i]
            masks, nb = table.rows(geometry._isotropic_stack), len(table.entries)
            assert codes.tolist() == want["classes"]
            assert CensusRecord(*table.censuses[i].tolist()).as_tuple() == want["census"]
            assert popcounts(masks, nb)[i] == want["isotropic"]
            assert geometry._tau_stack(qs, masks, nb)[i].tolist() == want["tau"]
            assert table.line_types[i].tolist() == np.bincount(want["types"], minlength=5).tolist()
            assert forms._split(qs, table.rows(forms._radical_splits)[i]) == want["split"]
            assert table.rows(counting._eigenvector_counts)[i] == want["eigen"]
        return {"check": "probe", "status": "ok"}

    monkeypatch.setitem(counting.CHECKS, "probe", probe)
    assert counting.run_checks(["probe"], {"n": n, "q": q, "samples": 3, "seed": 0}) == [
        {"check": "probe", "status": "ok"}
    ]
    assert len(inside) > 3
    for qs, af, want in inside.values():
        assert values(qs, af) == want


@pytest.mark.parametrize("n,q", sorted(SPACES))
def test_line_kernels_match_references_on_every_canonical_shape(n, q):
    # All canonical forms, carried onto the standard space, in one call: the
    # isotropic masks from the Plücker product (a table product over F_9)
    # and the line types, both stacked and through the single-form
    # line_type_codes.
    table = counting.FormTable(n, q)
    qs, afs = table.space, [af for *_, af in table.canonical]
    iso = geometry._isotropic_stack(qs, afs)
    types = geometry._line_type_stack(qs, geometry._residue_stack(qs, afs))
    for i, af in enumerate(afs):
        mask = np.unpackbits(iso, axis=1, count=len(afs))[:, i].astype(bool)
        assert mask.tolist() == reference_isotropic_mask(qs, af).tolist()
        assert line_type_codes(qs, af).tolist() == reference_line_type_codes(qs, af).tolist()
        assert dict(zip(LINE_TYPE_NAMES, types[i].tolist())) == reference_type_census(qs, af)


@pytest.mark.parametrize("n,q", sorted(SPACES))
def test_tau_and_radical_splits_match_references_on_every_canonical_shape(monkeypatch, n, q):
    # One stack of the canonical forms carried onto the standard space,
    # sampled forms and low-rank ones (rank 2, and the zero form): the tau
    # values, in blocks of a few forms, and the radical splits, whose
    # padding spans every radical and defect dimension of the stack.
    qs = SPACES[n, q]
    table = counting.FormTable(n, q, samples=5, seed=n * q)
    table.space = qs
    rng = np.random.default_rng(q)
    low = alternating_forms(qs.ctx, np.stack([alternating(qs.ctx, rng, qs.dim, w) for w in (2, 2, 0)]))
    afs = [af for *_, af in table.canonical] + table.sampled + low
    monkeypatch.setattr(geometry, "PAIR_BLOCK_ENTRIES", 1 << 10)
    tau = geometry._tau_stack(qs, geometry._isotropic_stack(qs, afs), len(afs))
    splits = forms._radical_splits(qs, afs)
    for i, af in enumerate(afs):
        assert tau[i].tolist() == reference_tau_values(qs, af).tolist()
        if af.r < qs.dim:
            assert dict(zip("rdm", splits[i].tolist())) == reference_radical_split(qs, af)
        else:
            assert splits[i].tolist() == [qs.dim, 0, 0]


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 9), (3, 5)])
def test_census_line_counts_match_the_isotropic_masks(n, q):
    # weight reads f off the census through the reduced identity; here
    # that count equals the popcount of each form's isotropic mask, on
    # every canonical shape carried to the standard space, low-rank forms
    # (random forms almost always have r = 1) and random ones, 1,000 in
    # all, one stacked call per kernel.
    table = counting.FormTable(n, q)
    qs = table.space
    rng = np.random.default_rng(n * q)
    widths = [w for w in range(0, qs.dim, 2) for _ in range(50)]
    afs = [af for *_, af in table.canonical]
    afs += alternating_forms(qs.ctx, np.stack([alternating(qs.ctx, rng, qs.dim, w) for w in widths]))
    afs += random_alternating_forms(qs.ctx, qs.dim, rng, 1000 - len(afs))
    censuses = geometry._census_stack(geometry._residue_stack(qs, afs))
    lines = popcounts(geometry._isotropic_stack(qs, afs), len(afs))
    assert len(afs) == 1000 and {af.r for af in afs} >= set(range(1, qs.dim + 1, 2))
    assert [counting.line_count_from_census(CensusRecord(*row), n, q) for row in censuses.tolist()] == lines.tolist()


def test_residue_classes_match_the_reference_at_q27():
    # Over F_27 (e = 3) both products of the residue kernel are table
    # products: every canonical shape and a few low-rank forms, one stack.
    table = counting.FormTable(2, 27)
    qs = table.space
    rng = np.random.default_rng(27)
    low = alternating_forms(qs.ctx, np.stack([alternating(qs.ctx, rng, qs.dim, w) for w in (2, 2, 4, 0)]))
    afs = [af for *_, af in table.canonical] + low
    codes = geometry._residue_stack(qs, afs)
    for i, af in enumerate(afs):
        assert codes[i].tolist() == reference_residue_classes(qs, af).tolist()


RESIDUE_SPACES = {q: SPACES.get((2, q)) or standard_space(field_ctx(q), 2) for q in (3, 5, 9, 27)}


@given(
    st.sampled_from(sorted(RESIDUE_SPACES)),
    st.lists(st.sampled_from([5, 5, 4, 2, 0]), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 1 << 14]),
)
@settings(max_examples=30, deadline=None)
def test_pair_table_values_are_the_quadric_values_of_x(q, widths, seed, bound):
    # Per block of points, x is p S^T M^-1 and the pair-table w' equals
    # x M x^T evaluated directly; every P_A and P_B point has w' = 0.
    qs = RESIDUE_SPACES[q]
    ctx = qs.ctx
    rng = np.random.default_rng(seed)
    afs = alternating_forms(ctx, np.stack([alternating(ctx, rng, qs.dim, w) for w in widths]))
    with pytest.MonkeyPatch.context() as mp:
        if bound is not None:
            mp.setattr(geometry, "PAIR_BLOCK_ENTRIES", bound)
        codes = geometry._residue_stack(qs, afs)
        blocks = list(geometry._residue_blocks(qs, afs))
    pts = quadric_points(qs)
    assert [i for blk, *_ in blocks for i in range(len(pts))[blk]] == list(range(len(pts)))
    for blk, p, x, wprime in blocks:
        assert p.tolist() == pts[blk].tolist()
        for b, af in enumerate(afs):
            assert x[:, :, b].tolist() == ctx.np_matmul(ctx.np_matmul(p, af.s.T), qs.gram_inv).tolist()
            assert wprime[:, b].tolist() == ctx.np_quad_eval(qs.gram, x[:, :, b]).tolist()
        on_p = np.isin(codes[:, blk].T, [RESIDUE_P_A, RESIDUE_P_B])
        assert (wprime[on_p] == 0).all()


def corrupted_classes(qs, af, line):
    """af's residue classes with one point of the given line moved to the
    plus class, or from it to the minus class, so that the line matches no
    type; the first line that then matches none, and the reference message
    naming it."""
    codes = reference_residue_classes(qs, af).copy()
    point = enumerate_singular_lines(qs).members()[line, 0]
    codes[point] = RESIDUE_MINUS if codes[point] == RESIDUE_PLUS else RESIDUE_PLUS
    types, patterns = reference_line_types(qs, codes)
    bad = int(np.flatnonzero(types < 0)[0])
    assert bad <= line
    return codes, bad, "line {} has pattern (n+, nW, n-) = ({}, {}, {})".format(bad, *patterns[bad].tolist())


@pytest.mark.parametrize("n,q,line", [(2, 3, 17), (3, 3, 2000), (2, 9, 500)])
def test_a_line_of_no_type_is_named(monkeypatch, n, q, line):
    # One corrupted residue row: line_type_codes and verify_line_types name
    # the first line that matches no type, whatever block it falls in.
    qs = SPACES[n, q]
    afs = random_alternating_forms(qs.ctx, qs.dim, np.random.default_rng(line), 3)
    codes, _, message = corrupted_classes(qs, afs[1], line)
    monkeypatch.setattr(geometry, "PAIR_BLOCK_ENTRIES", 1 << 12)
    with monkeypatch.context() as mp:
        mp.setattr(geometry, "residue_classes", lambda qs_, af: codes)
        with pytest.raises(TypeNotInTable) as caught:
            line_type_codes(qs, afs[1])
    assert str(caught.value) == message

    residue_stack = geometry._residue_stack

    def corrupt(qs_, afs_):
        rows = residue_stack(qs_, afs_)
        rows[[i for i, af in enumerate(afs_) if af is afs[1]]] = codes
        return rows

    monkeypatch.setattr(geometry, "_residue_stack", corrupt)
    table = counting.FormTable(n, q)
    table.space, table.entries = qs, [(0, af) for af in afs]
    rep = counting.verify_line_types(table)
    assert rep["status"] == "mismatch"
    assert rep["observed"] == {"error": message}


@pytest.mark.parametrize("bound", [1 << 12, 1 << 9])
def test_the_first_block_with_a_line_of_no_type_is_named(monkeypatch, bound):
    # Two corrupted residue rows, forms 0 and 2, whose first untyped lines
    # fall in different blocks of lines: the census names form 2's line,
    # which lies in the earlier block, although form 0 comes first; also
    # when each form's histogram is a chunk of its own (the smaller bound).
    qs = SPACES[3, 3]
    afs = random_alternating_forms(qs.ctx, qs.dim, np.random.default_rng(5), 3)
    late_codes, late, late_message = corrupted_classes(qs, afs[0], 3000)
    early_codes, early, message = corrupted_classes(qs, afs[2], 100)
    monkeypatch.setattr(geometry, "PAIR_BLOCK_ENTRIES", bound)
    blocks = geometry._blocks(len(enumerate_singular_lines(qs)), 3 * len(afs))
    block_of = {line: next(i for i, b in enumerate(blocks) if b.start <= line < b.stop) for line in (early, late)}
    assert block_of[early] < block_of[late]
    codes = geometry._residue_stack(qs, afs)
    codes[0], codes[2] = late_codes, early_codes
    with pytest.raises(TypeNotInTable) as caught:
        geometry._line_type_stack(qs, codes)
    assert str(caught.value) == message
    with pytest.raises(TypeNotInTable) as caught:
        geometry._line_type_stack(qs, codes[[0]])
    assert str(caught.value) == late_message


@pytest.mark.parametrize("rows,per_row,madds", [(5, 3, 0), (5, 0, 0), (7, 1 << 30, 10**9), (1000, 3, 7), (0, 3, 1)])
def test_blocks_cover_all_rows(rows, per_row, madds):
    # a zero or an oversized per-row cost still gives blocks of one row at least
    blocks = [range(rows)[b] for b in geometry._blocks(rows, per_row, madds)]
    assert [i for b in blocks for i in b] == list(range(rows))
    assert all(len(b) >= 1 for b in blocks)


def test_stacked_products_stay_on_the_calling_thread(monkeypatch):
    # OpenBLAS runs a product of at most 10^6 multiply-adds on the calling
    # thread; the residue and isotropic kernels keep every product within
    # that, also for more forms than verify's default of 101 on a space:
    # the residue kernel's x products (inner dimension dim) and pair-table
    # products (dim(dim+1)/2), the isotropic kernel's Plücker products.
    qs = SPACES[3, 3]
    afs = random_alternating_forms(qs.ctx, qs.dim, np.random.default_rng(0), 300)
    madds = {}
    product = FieldCtx.np_matmul

    def spy(ctx, a, b):
        madds.setdefault(np.shape(a)[-1], []).append(np.size(a) * np.shape(b)[-1])
        return product(ctx, a, b)

    monkeypatch.setattr(FieldCtx, "np_matmul", spy)
    codes = geometry._residue_stack(qs, afs)
    geometry._isotropic_stack(qs, afs)
    geometry._line_type_stack(qs, codes)
    dim = qs.dim
    assert {dim, dim * (dim + 1) // 2, dim * (dim - 1) // 2} <= set(madds)
    assert max(max(m) for m in madds.values()) <= 10**6


def test_stacked_kernels_stay_within_twice_a_single_form_peak():
    # Blocked by bytes, a stacked kernel's working memory (its peak less the
    # rows it returns) over 100 forms stays within twice the peak of the
    # largest single-form call, so stacking does not raise verify's peak.
    qs = SPACES[3, 3]
    afs = random_alternating_forms(qs.ctx, qs.dim, np.random.default_rng(0), 100)
    enumerate_singular_lines(qs).through()
    codes = geometry._residue_stack(qs, afs)

    def tau_stack(qs_, masks):
        return geometry._tau_stack(qs_, masks[0], masks[1])

    # each kernel with its input for the 100 forms and for the first; the
    # line types read the forms' residue rows, the tau values their
    # isotropic masks and the number of forms
    kernels = [
        (geometry._residue_stack, afs, afs[:1]),
        (geometry._isotropic_stack, afs, afs[:1]),
        (tau_stack, (geometry._isotropic_stack(qs, afs), 100), (geometry._isotropic_stack(qs, afs[:1]), 1)),
        (geometry._line_type_stack, codes, codes[:1]),
        (counting._eigenvector_counts, afs, afs[:1]),
        (forms._radical_splits, afs, afs[:1]),
    ]

    def peak(fn, forms_):
        tracemalloc.start()
        try:
            out = fn(qs, forms_)
            return tracemalloc.get_traced_memory()[1], out.nbytes
        finally:
            tracemalloc.stop()

    for fn, arg, one in kernels:  # warm up
        fn(qs, arg)
        fn(qs, one)
    single = max(peak(fn, one)[0] for fn, _, one in kernels)
    stacked = max(p - out for p, out in (peak(fn, arg) for fn, arg, _ in kernels))
    assert stacked <= 2 * single
