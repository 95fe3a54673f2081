# tests/test_forms.py
import gc
import os
import resource
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polargrass import forms, matrix
from polargrass.code import random_alternating_forms
from polargrass.errors import InadmissibleParams, RadicalMismatch
from polargrass.field import field_ctx
from polargrass.forms import (
    AlternatingForm,
    QuadraticSpace,
    admissible_pairs,
    alternating_forms,
    canonical_form,
    elliptic_gram,
    hyperbolic_gram,
    parabolic_gram,
    projective_points,
    radical_split,
    standard_space,
)
from polargrass.geometry import orbit_counts
from polargrass.matrix import determinants, kernel_bases, pivot_columns
from test_matrix import bilinear_value, det, rank
from test_stacked import form_profile

F3 = field_ctx(3)
F5 = field_ctx(5)


def cases_with_pairs(n, buildable=True):
    for case in (1, 2, 3, 4):
        for r, d in admissible_pairs(n, case, buildable=buildable):
            yield case, r, d


def shape_space(ctx, n, r, d, case):
    """The basis-adapted space of a block shape."""
    return canonical_form(ctx, n, r, d, case)[0]


def shape_form(ctx, n, r, d, case):
    """The canonical alternating form of a block shape."""
    return canonical_form(ctx, n, r, d, case)[1]


# ---------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------
def test_build_M_minimal_example():
    qs = shape_space(F3, 2, 3, 1, 1)
    expected = [
        [0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0],
    ]
    assert qs.gram.tolist() == expected
    assert det(F3, qs.gram) != 0


def test_build_M_seven_dim_example():
    qs = shape_space(F3, 3, 5, 1, 1)
    g = qs.gram
    assert len(g) == 7
    assert np.array_equal(g, g.T) and det(F3, g) != 0
    # corners pair the first and last coordinates
    assert g[0, 6] == 1 and g[6, 0] == 1
    # middle 1x1 block carries the value-1 diagonal entry
    assert g[1, 1] == 1
    # the remaining 4x4 block pairs coordinate i with i+2
    inner = g[2:6, 2:6].tolist()
    assert inner == [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]


def test_build_M_rejects_wrong_parity():
    with pytest.raises(InadmissibleParams):
        shape_space(F3, 2, 3, 2, 1)
    with pytest.raises(InadmissibleParams):
        shape_space(F3, 2, 2, 1, 1)
    with pytest.raises(InadmissibleParams):
        shape_space(F3, 2, 5, 1, 1)
    with pytest.raises(InadmissibleParams):
        shape_space(F3, 2, 3, 1, 3)


def test_admissible_pair_tables():
    assert list(admissible_pairs(2, 1)) == [(1, 1), (3, 1)]
    assert list(admissible_pairs(2, 2)) == [(3, 1)]
    assert list(admissible_pairs(2, 3)) == [(1, 0), (3, 0), (3, 2)]
    assert list(admissible_pairs(2, 4)) == [(1, 0), (3, 0)]
    assert list(admissible_pairs(3, 1)) == [(1, 1), (3, 1), (3, 3), (5, 1)]
    assert list(admissible_pairs(3, 2)) == [(3, 1), (5, 1)]
    assert list(admissible_pairs(3, 3)) == [(1, 0), (3, 0), (3, 2), (5, 0), (5, 2)]
    assert list(admissible_pairs(3, 4)) == [(1, 0), (3, 0), (3, 2), (5, 0)]
    # shapes that admit a census but not an assembled matrix
    assert list(admissible_pairs(2, 2, buildable=False)) == [(1, 1), (3, 1)]
    assert list(admissible_pairs(3, 2, buildable=False)) == [
        (1, 1),
        (3, 1),
        (3, 3),
        (5, 1),
    ]


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_canonical_grams_symmetric_invertible(n, q):
    ctx = field_ctx(q)
    for case, r, d in cases_with_pairs(n):
        qs = shape_space(ctx, n, r, d, case)
        assert np.array_equal(qs.gram, qs.gram.T)
        assert det(ctx, qs.gram) != 0
        assert qs.dim == 2 * n + 1


# ---------------------------------------------------------
# Alternating form assembly
# ---------------------------------------------------------
def test_build_S_minimal_example():
    af = shape_form(F3, 2, 3, 1, 1)
    expected = [
        [0, 1, 0, 0, 0],
        [2, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ]
    assert af.s.tolist() == expected
    assert af.r == 3


def test_build_S_larger_examples():
    af = shape_form(F3, 3, 5, 1, 1)
    assert len(af.s) == 7 and af.r == 5
    af = shape_form(F3, 3, 3, 1, 1)
    assert af.r == 3
    # one symplectic pair plus the single coupling entry
    nz = [
        (i, j)
        for i in range(7)
        for j in range(i + 1, 7)
        if af.s[i, j] != 0
    ]
    assert nz == [(0, 3), (1, 2)]


def test_build_S_validates_radical(monkeypatch):
    af = shape_form(F3, 2, 3, 2, 3)
    assert af.r == 3
    # the standard shape's form on the Gram matrix of another shape has
    # the wrong defect there
    shape = forms._shape
    monkeypatch.setattr(forms, "_shape", lambda ctx, n, r, d, case: (shape(ctx, 3, 1, 1, 1)[0], shape(ctx, n, r, d, case)[1]))
    with pytest.raises(RadicalMismatch, match=r"shape \(5, 1\) has radical \(5, 2\)"):
        canonical_form(F3, 3, 5, 1, 1)


def test_build_S_case4_variants():
    qs, af = canonical_form(F3, 3, 3, 2, 4)
    assert form_profile(qs, af) == (3, 2)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_canonical_radical_dims(n, q):
    ctx = field_ctx(q)
    for case, r, d in cases_with_pairs(n):
        qs, af = canonical_form(ctx, n, r, d, case)
        assert af.r == r and r % 2 == 1
        assert form_profile(qs, af) == (r, d)


def test_alternating_form_rejects_bad_matrix():
    with pytest.raises(InadmissibleParams):
        AlternatingForm(F3, [[0, 1], [1, 0]])
    with pytest.raises(InadmissibleParams):
        AlternatingForm(F3, [[1, 1], [2, 0]])
    # entries, then the shape, are checked where the matrix enters
    with pytest.raises(InadmissibleParams, match="^3 is not an element of F_3$"):
        AlternatingForm(F3, [[0, 3], [0, 0]])
    with pytest.raises(InadmissibleParams, match="^1.5 is not an element of F_3$"):
        AlternatingForm(F3, [[0, 1.5], [0, 0]])
    with pytest.raises(InadmissibleParams, match="not alternating"):
        AlternatingForm(F3, [0, 0, 0])
    with pytest.raises(InadmissibleParams, match="not alternating"):
        AlternatingForm(F3, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(InadmissibleParams, match="^-1 is not an element of F_3$"):
        QuadraticSpace(F3, 1, -np.eye(3, dtype=np.int64))
    with pytest.raises(InadmissibleParams, match="must be 3x3"):
        QuadraticSpace(F3, 1, np.eye(2, dtype=np.int64))
    with pytest.raises(InadmissibleParams, match="symmetric"):
        QuadraticSpace(F3, 1, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])


# ---------------------------------------------------------
# Quadratic evaluation and point classes
# ---------------------------------------------------------
def eta(qs, v):
    """The quadratic form of qs at v: v M v^T."""
    return bilinear_value(qs.ctx, qs.gram, v, v)


def square_class(qs, v):
    """'singular', 'square' or 'nonsquare' class of eta(v)."""
    val = eta(qs, v)
    if val == 0:
        return "singular"
    return "square" if qs.ctx.np_is_square(val) else "nonsquare"


def is_external(qs, v):
    """Whether the perp hyperplane of a nonsingular point v cuts a
    hyperbolic section: (-1)^n det(M) eta(v), disc_sign times eta(v), is a
    square.  orbit_counts and the residue classes read disc_sign this way."""
    return bool(qs.ctx.np_is_square(qs.ctx.mul(qs.disc_sign, eta(qs, v))))


def test_point_square_class_examples():
    qs = shape_space(F3, 2, 3, 1, 1)
    assert square_class(qs, [0, 1, 0, 0, 0]) == "square"
    assert square_class(qs, [1, 0, 0, 0, 0]) == "singular"
    assert square_class(qs, [0, 2, 0, 0, 0]) == "square"


@pytest.mark.parametrize("q", [3, 5])
def test_point_square_class_is_scale_invariant(q):
    ctx = field_ctx(q)
    qs = standard_space(ctx, 2)
    rng = np.random.default_rng(31)
    for _ in range(25):
        v = rng.integers(0, q, size=5)
        if not v.any():
            continue
        base = square_class(qs, v.tolist())
        for lam in range(1, q):
            w = ctx.np_mul(v, np.int64(lam)).tolist()
            assert square_class(qs, w) == base


def test_classify_internal_external_canonical_points():
    # ambient with hyperbolic-leaning discriminant: the distinguished
    # nonradical point cuts a hyperbolic section
    qs1 = shape_space(F3, 2, 3, 1, 1)
    x = [0, 1, 0, 0, 0]
    assert is_external(qs1, x)
    assert square_class(qs1, x) == "square"
    # elliptic-leaning ambient: same point now sits on the other side
    qs2 = shape_space(F3, 2, 3, 1, 2)
    assert not is_external(qs2, x)
    assert square_class(qs2, x) == "square"


@pytest.mark.parametrize("case,wanted", [(1, "square"), (2, "nonsquare")])
def test_external_points_pair_with_a_square_class(case, wanted):
    """Which eta square class the external points form depends on the ambient."""
    ctx = F3
    qs = shape_space(ctx, 2, 3, 1, case)
    pts = projective_points(ctx, 5)
    vals = ctx.np_quad_eval(qs.gram, pts)
    for v, val in zip(pts, vals):
        if val == 0:
            continue
        sq = "square" if ctx.np_is_square(val) else "nonsquare"
        assert is_external(qs, v.tolist()) == (sq == wanted)


def _tangent_count(qs, p):
    ctx = qs.ctx
    pts = [tuple(int(x) for x in row) for row in projective_points(ctx, 3)]
    on_quadric = {v for v in pts if eta(qs, list(v)) == 0}
    count = 0
    for u in pts:
        if u == tuple(p):
            continue
        line = set()
        for a, b in [(1, 0)] + [(lam, 1) for lam in range(ctx.q)]:
            w = tuple(
                int(ctx.np_add(ctx.mul(a, x), ctx.mul(b, y))) for x, y in zip(u, p)
            )
            lead = next(i for i, t in enumerate(w) if t)
            inv = int(ctx.np_inv(w[lead]))
            line.add(tuple(ctx.mul(inv, t) for t in w))
        if len(line & on_quadric) == 1:
            count += 1
    # every line arose q times (once per second generator on it)
    assert count % ctx.q == 0
    return count // ctx.q


def test_conic_classification_matches_tangent_oracle():
    qs = QuadraticSpace(F3, 1, np.eye(3, dtype=np.int64))
    for p in projective_points(F3, 3):
        v = p.tolist()
        if eta(qs, v) == 0:
            continue
        tangents = _tangent_count(qs, v)
        assert tangents in (0, 2)
        assert is_external(qs, v) == (tangents == 2)


# ---------------------------------------------------------
# Point orbit counts
# ---------------------------------------------------------
def test_projective_points_not_kept_after_use():
    # the full point set of PG(2n, q) is recomputed per call, not held for
    # the life of the process; each space keeps only its singular points
    pts = projective_points(F3, 7)
    assert pts.shape == ((3**7 - 1) // 2, 7)
    ref = weakref.ref(pts)
    del pts
    gc.collect()
    assert ref() is None
    assert np.array_equal(projective_points(F3, 7), projective_points(F3, 7))


def test_form_arrays_are_shared_and_read_only():
    qs, af = canonical_form(F3, 2, 3, 1, 1)
    for a in (af.s, af.radical, qs.gram, qs.gram_inv):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert af.radical.shape == (af.r, qs.dim)
    assert np.array_equal(F3.np_matmul(qs.gram, qs.gram_inv), np.eye(qs.dim))


def test_orbit_count_examples():
    got = orbit_counts(standard_space(F3, 2))
    assert (got["singular"], got["internal"], got["external"]) == (40, 36, 45)
    assert got["singular"] + got["internal"] + got["external"] == 121
    got = orbit_counts(standard_space(F3, 3))
    assert (got["singular"], got["internal"], got["external"]) == (364, 351, 378)
    got = orbit_counts(standard_space(F5, 2))
    assert (got["singular"], got["internal"], got["external"]) == (156, 300, 325)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_orbit_counts_match_closed_forms_for_all_cases(n, q):
    ctx = field_ctx(q)
    singular = (q ** (2 * n) - 1) // (q - 1)
    internal = q**n * (q**n - 1) // 2
    external = q**n * (q**n + 1) // 2
    for case, r, d in cases_with_pairs(n):
        got = orbit_counts(shape_space(ctx, n, r, d, case))
        assert got["singular"] == singular
        assert got["internal"] == internal
        assert got["external"] == external


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("t", [2, 3])
def test_even_dimension_square_class_orbits(t, q):
    """Nonsingular points of an even-dim ambient split into equal square classes."""
    ctx = field_ctx(q)
    for gram, per_class in [
        (hyperbolic_gram(ctx, t), q ** (t - 1) * (q**t - 1) // 2),
        (elliptic_gram(ctx, t - 1), q ** (t - 1) * (q**t + 1) // 2),
    ]:
        pts = projective_points(ctx, 2 * t)
        vals = ctx.np_quad_eval(gram, pts)
        nonzero = vals != 0
        sq = ctx.np_is_square(vals) & nonzero
        assert int(sq.sum()) == per_class
        assert int((nonzero & ~sq).sum()) == per_class


# ---------------------------------------------------------
# Witt index and block Grams
# ---------------------------------------------------------
@pytest.mark.parametrize("q", [3, 5])
def test_witt_index_of_block_grams(q):
    ctx = field_ctx(q)
    for t in (1, 2):
        for gram in (hyperbolic_gram(ctx, t), parabolic_gram(ctx, t), elliptic_gram(ctx, t)):
            assert forms._witt_indices(ctx, determinants(ctx, gram[None]), [len(gram)]).tolist() == [t]
    assert hyperbolic_gram(ctx, 2).shape == (4, 4)
    assert parabolic_gram(ctx, 2).shape == (5, 5)
    assert elliptic_gram(ctx, 2).shape == (6, 6)


def test_radical_split_values():
    splits = {
        (1, 1, 1): 2,
        (1, 3, 1): 1,
        (1, 3, 3): 0,
        (1, 5, 1): 0,
        (2, 3, 1): 1,
        (3, 1, 0): 3,
        (3, 3, 0): 2,
        (3, 3, 2): 1,
        (3, 5, 0): 1,
        (3, 5, 2): 0,
        (4, 1, 0): 2,
        (4, 3, 0): 1,
        (4, 3, 2): 0,
        (4, 5, 0): 0,
    }
    for (case, r, d), m in splits.items():
        qs, af = canonical_form(F3, 3, r, d, case)
        assert radical_split(qs, af) == {"r": r, "d": d, "m": m}


# ---------------------------------------------------------
# Radical splits against the four-step construction they replaced
# ---------------------------------------------------------
def padded_kernels(ctx, arr):
    """The kernel bases of a (B, r, c) stack in a (B, k, c) array, each
    padded with zero rows to the largest nullity k, and the nullities."""
    bases = kernel_bases(ctx, arr)
    out = np.zeros((len(bases), max(len(b) for b in bases), arr.shape[-1]), dtype=np.int64)
    for i, basis in enumerate(bases):
        out[i, : len(basis)] = basis
    return out, np.array([len(b) for b in bases])


def pad_identity(grams, sizes):
    """diag(G_i, I) in place of the zero rows and columns past sizes[i]."""
    diag = np.arange(grams.shape[-1])
    grams[:, diag, diag] = np.where(diag >= sizes[:, None], 1, grams[:, diag, diag])
    return grams


def four_step_radical_splits(qs, afs):
    """(r, d, m) of each form from four stacked eliminations: the M-perp of
    the radical R, the radical D of M on R, the rows of D extended to a
    basis of the perp (the added rows span an H0), and the Witt index of M
    on H0 from its Gram's determinant.  The construction _radical_splits
    replaced, kept as its oracle."""
    ctx, dim, gram = qs.ctx, qs.dim, qs.gram
    rs = np.array([af.r for af in afs])
    b_r = np.zeros((len(afs), rs.max(), dim), dtype=np.int64)
    for i, af in enumerate(afs):
        b_r[i, : af.r] = af.radical
    b_m = ctx.np_matmul(b_r, gram)
    perps, _ = padded_kernels(ctx, b_m)
    d_bases, ds = padded_kernels(ctx, pad_identity(ctx.np_matmul(b_m, b_r.transpose(0, 2, 1)), rs))
    d_vecs = ctx.np_matmul(d_bases, b_r)
    # the pivot columns of [D; perp]^T are the rows a greedy pass keeps, D first
    keep = pivot_columns(ctx, np.concatenate([d_vecs, perps], axis=1).transpose(0, 2, 1))[:, d_vecs.shape[1] :]
    ks = dim - rs - ds
    kept = np.argsort(~keep, axis=1, kind="stable")[:, : ks.max()]
    h0 = np.take_along_axis(perps, kept[:, :, None], axis=1)
    h0[np.arange(h0.shape[1]) >= ks[:, None]] = 0
    gram_h0 = pad_identity(ctx.np_matmul(ctx.np_matmul(h0, gram), h0.transpose(0, 2, 1)), ks)
    return np.stack([rs, ds, forms._witt_indices(ctx, determinants(ctx, gram_h0), ks)], axis=1)


def atja(ctx, rng, dim, rank):
    """A^T J A for J the standard alternating matrix of size rank and a
    random rank x dim A: a form of rank at most rank, mostly equal."""
    h = rank // 2
    j = np.zeros((rank, rank), dtype=np.int64)
    j[np.arange(h), h + np.arange(h)] = 1
    j[h + np.arange(h), np.arange(h)] = ctx.neg(1)
    a = rng.integers(0, ctx.q, (rank, dim))
    return ctx.np_matmul(ctx.np_matmul(a.T, j), a) if rank else np.zeros((dim, dim), dtype=np.int64)


@lru_cache(maxsize=None)
def carried_shapes(n, q):
    """(r, d) of every canonical shape, and its form carried onto the
    standard space, as in FormTable.canonical, whose space would admit the
    points first."""
    ctx = field_ctx(q)
    shapes = [(r, d, case) for case in forms.CASES for r, d in admissible_pairs(n, case)]
    grams, alts = zip(*(forms._shape(ctx, n, r, d, case) for r, d, case in shapes))
    a, _ = forms.isometries(standard_space(ctx, n), grams)
    return [[r, d] for r, d, _ in shapes], ctx.np_matmul(ctx.np_matmul(a, alts), a.transpose(0, 2, 1))


@given(
    q=st.sampled_from([3, 5, 7, 9, 25, 27]),
    n=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**32 - 1),
    twisted=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_radical_splits_match_the_four_step_construction(q, n, seed, twisted):
    # Random forms, A^T J A forms of every rank and every carried canonical
    # shape, on the standard space or, twisted, on c B M B^T with c a
    # nonsquare and B invertible, the forms carried along as B S B^T: the
    # two-elimination splits equal the four-step ones, each carried shape
    # keeps its (r, d), every G[P, P] is nonsingular, one call runs exactly
    # two eliminations, and the zero form has no split.
    ctx, rng = field_ctx(q), np.random.default_rng(seed)
    qs = standard_space(ctx, n)
    shapes, carried = carried_shapes(n, q)
    mats = [af.s for af in random_alternating_forms(ctx, qs.dim, rng, 3)]
    mats += [atja(ctx, rng, qs.dim, rank) for rank in range(0, qs.dim, 2)]
    stack = np.concatenate([np.stack(mats), carried])
    if twisted:
        b = rng.integers(0, q, (qs.dim, qs.dim))
        while det(ctx, b) == 0:
            b = rng.integers(0, q, (qs.dim, qs.dim))
        gram = ctx.np_mul(ctx.nonsquare_rep, ctx.np_matmul(ctx.np_matmul(b, qs.gram), b.T))
        qs = QuadraticSpace(ctx, n, gram)
        stack = ctx.np_matmul(ctx.np_matmul(b, stack), b.T)
    afs = alternating_forms(ctx, stack)
    calls = []
    eliminate = matrix._eliminate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "_eliminate", lambda *a: calls.append(1) or eliminate(*a))
        got = forms._radical_splits(qs, afs)
    assert len(calls) == 2
    assert np.array_equal(got, four_step_radical_splits(qs, afs))
    assert got[len(afs) - len(shapes) :, :2].tolist() == shapes
    for af in afs:
        g = ctx.np_matmul(ctx.np_matmul(af.radical, qs.gram), af.radical.T)
        p = np.flatnonzero(pivot_columns(ctx, g))
        assert det(ctx, g[np.ix_(p, p)]) != 0
    with pytest.raises(InadmissibleParams, match="zero form has no radical split"):
        radical_split(qs, afs[3])  # A^T J A of rank 0


# ---------------------------------------------------------
# Property: random alternating matrices have odd-dimensional radicals
# ---------------------------------------------------------
@given(q=st.sampled_from([3, 5]), n=st.sampled_from([2, 3]), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_alternating_radical_is_odd(q, n, seed):
    ctx = field_ctx(q)
    dim = 2 * n + 1
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, size=(dim, dim))
    upper = np.triu(a, 1)
    af = AlternatingForm(ctx, (upper - upper.T) % q)
    assert af.r % 2 == 1
    assert 1 <= af.r <= dim
    assert rank(ctx, af.s) == dim - af.r


# ---------------------------------------------------------
# Admission against the memory this process may still get
# ---------------------------------------------------------
def test_check_memory_compares_with_available_memory(monkeypatch):
    gib = 2**30
    proc = {}  # what the /proc reader returns, in KiB, per key
    limits = [resource.RLIM_INFINITY]
    monkeypatch.setattr(forms, "_proc_kib", lambda path, key: proc.get(key))
    monkeypatch.setattr(forms.resource, "getrlimit", lambda which: (limits[0], resource.RLIM_INFINITY))

    def rejection(need):
        try:
            forms.check_memory(need, "the step")
        except InadmissibleParams as ex:
            return str(ex)
        return None

    # MemAvailable, not the physical memory
    proc["MemAvailable"] = 2 * gib // 1024
    assert rejection(1.5 * gib) is None
    assert rejection(3 * gib) == "the step needs at least 3 GiB; 2 GiB available"
    # the physical memory when MemAvailable cannot be read
    del proc["MemAvailable"]
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert rejection(phys / 2) is None
    assert rejection(2 * phys) == f"the step needs at least {2 * phys / gib:.3g} GiB; {phys / gib:.3g} GiB available"
    # the soft RLIMIT_AS less the address space already held, if lower
    proc.update(MemAvailable=8 * gib // 1024, VmSize=3 * gib // 1024)
    limits[0] = 4 * gib
    assert rejection(0.5 * gib) is None
    assert rejection(1.5 * gib) == "the step needs at least 1.5 GiB; 1 GiB available"
    proc["VmSize"] = 5 * gib // 1024
    assert rejection(1) == "the step needs at least 9.31e-10 GiB; 0 GiB available"


def test_proc_reader_reads_kib_lines(tmp_path):
    path = tmp_path / "meminfo"
    path.write_text("MemTotal:  8 kB\nMemAvailable:   1234 kB\n")
    assert forms._proc_kib(str(path), "MemAvailable") == 1234
    assert forms._proc_kib(str(path), "VmSize") is None
    assert forms._proc_kib(str(tmp_path / "missing"), "MemAvailable") is None
