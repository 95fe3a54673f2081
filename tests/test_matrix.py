# tests/test_matrix.py
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polargrass.errors import DimensionMismatch, InadmissibleParams, IoError, RankDeficient
from polargrass.field import field_ctx
from polargrass.forms import canonical_form
from polargrass.matrix import (
    _check_range,
    _eliminate,
    determinants,
    eigen_nullities,
    format_matrix_text,
    inverse,
    kernel_bases,
    parse_matrix_text,
    pivot_columns,
    rank_np,
    rref,
)

F3 = field_ctx(3)
F5 = field_ctx(5)
F9 = field_ctx(9)
FIELDS = {q: field_ctx(q) for q in (3, 5, 9, 25, 27)}


def rank(ctx, m):
    return int(pivot_columns(ctx, m).sum())


def det(ctx, m):
    return int(determinants(ctx, m))


def null_space(ctx, m):
    """Canonical basis of the right null space of one matrix."""
    return kernel_bases(ctx, m)[0]


def span_basis(ctx, vecs, ambient):
    """Canonical (reduced row echelon) basis of the span of vecs."""
    if not len(vecs):
        return np.zeros((0, ambient), dtype=np.int64)
    red, pivots = rref(ctx, np.array(vecs, dtype=np.int64))
    return red[: len(pivots)]


def eigenspace(ctx, m, lam):
    """Null space of m - lam * I, one matrix and one eigenvalue at a time:
    the oracle for the stacked eigen_nullities."""
    shifted = np.array(m, dtype=np.int64)
    diag = np.arange(len(m))
    shifted[diag, diag] = ctx.np_sub(shifted[diag, diag], lam)
    return null_space(ctx, shifted)


def nonzero_eigenvalues(ctx, m):
    """Eigenvalues of m in F_q* with their eigenspace dimensions."""
    dims = eigen_nullities(ctx, m).tolist()
    return {lam: int(d) for lam, d in enumerate(dims, 1) if d}


def matvec(ctx, m, v):
    """The product m v as a tuple."""
    return tuple(ctx.np_matmul(m, np.array(v).reshape(-1, 1))[:, 0].tolist())


def random_matrix(ctx, rng, nr, nc):
    return rng.integers(0, ctx.q, size=(nr, nc))


def random_invertible(ctx, rng, n):
    while True:
        m = random_matrix(ctx, rng, n, n)
        if det(ctx, m) != 0:
            return m


def random_antisymmetric(ctx, rng, n):
    a = rng.integers(0, ctx.q, size=(n, n))
    upper = np.triu(a, 1)
    return (upper - upper.T) % ctx.q


# ---------------------------------------------------------
# Entry check: an int64 array of field elements
# ---------------------------------------------------------
@pytest.mark.parametrize(
    "q,rows,exc,msg",
    [
        (3, [[0, -1]], InadmissibleParams, "-1 is not an element of F_3"),
        (3, [[0, 3]], InadmissibleParams, "3 is not an element of F_3"),
        (3, [[0, 1], [1.5, 0]], InadmissibleParams, "1.5 is not an element of F_3"),
        (3, [[0, 1.0]], InadmissibleParams, "1.0 is not an element of F_3"),
        (3, [[0, "a"]], InadmissibleParams, "'a' is not an element of F_3"),
        (3, [[0, None]], InadmissibleParams, "None is not an element of F_3"),
        (3, [[0, [1]]], InadmissibleParams, "[1] is not an element of F_3"),
        (3, [[2**70]], InadmissibleParams, f"{2**70} is not an element of F_3"),
        (3, [[np.int64(-1)]], InadmissibleParams, f"{np.int64(-1)!r} is not an element of F_3"),
        (3, [[0, 1], [1]], DimensionMismatch, "ragged rows"),
        # entries are checked before row lengths
        (3, [[0, 1], [2, 4, 1]], InadmissibleParams, "4 is not an element of F_3"),
        (9, [[0, 9]], InadmissibleParams, "9 is not an element of F_9"),
        (9, [[0, -1]], InadmissibleParams, "-1 is not an element of F_9"),
        # a 1-D list is walked as given, an ndarray's entry named as an int
        (3, [0, 3], InadmissibleParams, "3 is not an element of F_3"),
        (3, [-1, 0], InadmissibleParams, "-1 is not an element of F_3"),
        (3, np.array([0, 3]), InadmissibleParams, "3 is not an element of F_3"),
        (3, np.array([[0, 1], [3, 0]]), InadmissibleParams, "3 is not an element of F_3"),
    ],
)
def test_constructor_rejects_bad_rows(q, rows, exc, msg):
    with pytest.raises(exc) as info:
        _check_range(FIELDS[q], rows)
    assert type(info.value) is exc
    assert str(info.value) == msg


def test_from_numpy_rejects_non_integers():
    # casting would truncate 1.5 to 1; the array is checked like rows are
    with pytest.raises(InadmissibleParams) as info:
        _check_range(F3, np.array([[0, 1], [1.5, 2.9]]))
    assert str(info.value) == f"{np.float64(0.0)!r} is not an element of F_3"
    with pytest.raises(InadmissibleParams):
        _check_range(F9, np.array([[0, 9]]))
    empty = _check_range(F3, np.zeros((2, 0)))
    assert empty.shape == (2, 0) and empty.dtype == np.int64


def test_constructor_shapes_of_empty_rows():
    for rows, shape in (([], (0,)), ([[]], (1, 0)), ([[], []], (2, 0))):
        m = _check_range(F3, rows)
        assert m.shape == shape and m.dtype == np.int64
        assert m.tolist() == rows
    assert _check_range(F3, [[True, 2]]).tolist() == [[1, 2]]


# ---------------------------------------------------------
# Rank, determinant, inverse
# ---------------------------------------------------------
def test_rank_examples():
    assert rank(F3, np.zeros((3, 3), dtype=np.int64)) == 0
    assert rank(F5, np.eye(4, dtype=np.int64)) == 4
    assert rank(F5, np.array([[1, 2, 0], [2, 4, 0]])) == 1


def test_rank_np_matches_rank():
    rng = np.random.default_rng(11)
    for ctx in (F3, F5, F9):
        for _ in range(10):
            arr = rng.integers(0, ctx.q, size=(4, 6))
            assert rank_np(ctx, arr) == rank(ctx, arr)


def test_rank_np_checks_entries():
    # every field needs field elements; nothing is reduced mod p
    with pytest.raises(InadmissibleParams):
        rank_np(F3, np.array([[-1, 4], [2, 1]]))
    for bad in (-1, 9):
        arr = np.zeros((2, 3), dtype=np.int64)
        arr[1, 2] = bad
        with pytest.raises(InadmissibleParams):
            rank_np(F9, arr)


def test_det_and_inverse():
    assert det(F5, np.eye(3, dtype=np.int64)) == 1
    assert det(F3, np.array([[1, 2], [2, 1]])) == det(F3, np.array([[2, 1], [1, 2]]))
    rng = np.random.default_rng(5)
    for ctx in (F3, F5):
        m = random_invertible(ctx, rng, 4)
        assert np.array_equal(ctx.np_matmul(m, inverse(ctx, m)), np.eye(4))
        assert np.array_equal(ctx.np_matmul(inverse(ctx, m), m), np.eye(4))
    with pytest.raises(RankDeficient):
        inverse(F3, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        determinants(F3, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        inverse(F3, np.zeros((2, 3), dtype=np.int64))


def test_rref_is_idempotent():
    rng = np.random.default_rng(3)
    m = random_matrix(F5, rng, 4, 6)
    red, pivots = rref(F5, m)
    again, pivots2 = rref(F5, red)
    assert np.array_equal(red, again) and pivots == pivots2


# ---------------------------------------------------------
# The numpy elimination against a pure-Python reference
# ---------------------------------------------------------
def reference_rref(ctx, rows):
    """Gauss-Jordan elimination one scalar at a time."""
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0])
    pivots = []
    r = 0
    for col in range(nc):
        if r == nr:
            break
        sel = next((i for i in range(r, nr) if rows[i][col] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = int(ctx.np_inv(rows[r][col]))
        rows[r] = [ctx.mul(inv, x) for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [int(ctx.np_sub(x, ctx.mul(f, y))) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return [tuple(row) for row in rows], tuple(pivots)


def reference_det(ctx, rows):
    """Determinant by forward elimination, one scalar at a time."""
    rows = [list(r) for r in rows]
    n = len(rows)
    out = 1
    for col in range(n):
        sel = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if sel is None:
            return 0
        if sel != col:
            rows[col], rows[sel] = rows[sel], rows[col]
            out = ctx.neg(out)
        out = ctx.mul(out, rows[col][col])
        inv = int(ctx.np_inv(rows[col][col]))
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                f = ctx.mul(inv, rows[i][col])
                rows[i] = [int(ctx.np_sub(x, ctx.mul(f, y))) for x, y in zip(rows[i], rows[col])]
    return out


@st.composite
def field_matrices(draw, max_rows=6, max_cols=8):
    """A field and a matrix over it; half of them a product through a
    narrow middle, so low ranks are common."""
    ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    nr = draw(st.integers(1, max_rows))
    nc = draw(st.integers(1, max_cols))

    def block(r, c):
        entry = st.integers(0, ctx.q - 1)
        return np.array(draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)), dtype=np.int64)

    if draw(st.booleans()):
        k = draw(st.integers(1, min(nr, nc)))
        return ctx, ctx.np_matmul(block(nr, k), block(k, nc))
    return ctx, block(nr, nc)


@given(field_matrices())
@settings(max_examples=200, deadline=None)
def test_elimination_matches_reference(fm):
    ctx, m = fm
    red, pivots = rref(ctx, m)
    want_rows, want_pivots = reference_rref(ctx, m.tolist())
    assert tuple(map(tuple, red.tolist())) == tuple(want_rows)
    assert pivots == want_pivots
    assert rank(ctx, m) == rank_np(ctx, m) == len(want_pivots)
    k = min(m.shape)
    square = m[:k, :k]
    assert det(ctx, square) == reference_det(ctx, square.tolist())


def reference_kernel(ctx, m):
    """Null-space vectors built one coordinate at a time from reference_rref."""
    red, pivots = reference_rref(ctx, m.tolist())
    nc = m.shape[1]
    vecs = []
    for j in range(nc):
        if j in pivots:
            continue
        v = [0] * nc
        v[j] = 1
        for i, pc in enumerate(pivots):
            v[pc] = ctx.neg(red[i][j])
        vecs.append(v)
    return span_basis(ctx, vecs, nc)


def bilinear_value(ctx, m, u, v):
    """u^T m v as a field element, through the field's array products."""
    if (len(u), len(v)) != m.shape:
        raise DimensionMismatch("vector length mismatch")
    u = np.asarray(u, dtype=np.int64)[None]
    v = np.asarray(v, dtype=np.int64)[None]
    return int(ctx.np_rowsum(ctx.np_mul(ctx.np_matmul(u, m), v))[0])


def reference_bilinear(ctx, m, u, v):
    acc = 0
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            acc = int(ctx.np_add(acc, ctx.mul(a, ctx.mul(int(m[i, j]), b))))
    return acc


@given(field_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_kernel_and_bilinear_match_reference(fm, rnd):
    ctx, m = fm
    assert np.array_equal(null_space(ctx, m), reference_kernel(ctx, m))
    u = [rnd.randrange(ctx.q) for _ in range(m.shape[0])]
    v = [rnd.randrange(ctx.q) for _ in range(m.shape[1])]
    assert bilinear_value(ctx, m, u, v) == reference_bilinear(ctx, m, u, v)


@st.composite
def field_stacks(draw):
    """A field and a stack of 1 to 5 matrices of one shape, each a product
    through a random middle width so that ranks vary inside the stack, and
    whether to hand it to the kernels as a transposed (non-contiguous) view."""
    ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    nb, nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(nb):
        k = int(rng.integers(0, min(nr, nc) + 1))
        if k:
            mats.append(ctx.np_matmul(rng.integers(0, ctx.q, (nr, k)), rng.integers(0, ctx.q, (k, nc))))
        else:
            mats.append(np.zeros((nr, nc), dtype=np.int64))
    return ctx, np.stack(mats), draw(st.booleans())


@given(field_stacks())
@settings(max_examples=150, deadline=None)
def test_stacked_elimination_matches_reference(fs):
    # each matrix of a stack reduces as on its own, whatever its rank and
    # whatever the memory layout of the stack
    ctx, stack, transposed = fs
    arr = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1) if transposed else stack
    red, pivots, _ = _eliminate(ctx, arr)
    for a, r, p in zip(stack, red, pivots):
        want_rows, want_pivots = reference_rref(ctx, a.tolist())
        assert r.tolist() == [list(row) for row in want_rows]
        assert tuple(np.flatnonzero(p)) == want_pivots
    if stack.shape[1] == stack.shape[2]:
        want = [reference_det(ctx, a.tolist()) for a in stack]
        assert determinants(ctx, arr).tolist() == want


def reference_null_vectors(ctx, a):
    """One null vector per free column of rref(a), not yet canonical."""
    red, pivots = rref(ctx, a)
    vecs = []
    for j in range(a.shape[1]):
        if j not in pivots:
            v = [0] * a.shape[1]
            v[j] = 1
            for i, pc in enumerate(pivots):
                v[pc] = ctx.neg(int(red[i, j]))
            vecs.append(v)
    return vecs


@given(field_stacks())
@settings(max_examples=150, deadline=None)
def test_kernel_basis_is_canonical_without_second_reduction(fs):
    # the null-space basis read off one reduction of the column-reversed
    # matrix is the reduced-echelon basis that reducing the null vectors
    # again gives
    ctx, stack, transposed = fs
    if ctx.q not in (3, 5, 9):
        return
    arr = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1) if transposed else stack
    for a, basis in zip(stack, kernel_bases(ctx, arr)):
        want = span_basis(ctx, reference_null_vectors(ctx, a), a.shape[1])
        assert np.array_equal(basis, want)
        assert np.array_equal(null_space(ctx, a), want)


@given(field_stacks())
@settings(max_examples=60, deadline=None)
def test_eigen_nullities_match_eigenspaces(fs):
    ctx, stack, _ = fs
    k = min(stack.shape[1:])
    square = stack[:, :k, :k]
    for a, dims in zip(square, eigen_nullities(ctx, square)):
        assert dims.tolist() == [len(eigenspace(ctx, a, lam)) for lam in range(1, ctx.q)]


@given(field_matrices(max_cols=4))
@settings(max_examples=60, deadline=None)
def test_kernel_dimension_by_brute_force(fm):
    ctx, m = fm
    nc = m.shape[1]
    vecs = (np.arange(ctx.q**nc)[:, None] // ctx.q ** np.arange(nc)) % ctx.q
    zero = ~ctx.np_matmul(vecs, m.T).any(axis=1)
    assert ctx.q ** len(null_space(ctx, m)) == int(zero.sum())


def loop_kernel_bases(ctx, arr):
    """The kernel bases read off one elimination matrix by matrix: the
    per-matrix loop that the stacked kernel_bases replaced, kept as its
    oracle."""
    a = np.asarray(arr, dtype=np.int64)
    nr, nc = a.shape[-2:]
    red, pivots, _ = _eliminate(ctx, a[..., ::-1])
    out = []
    for rd, pv in zip(red.reshape(-1, nr, nc), pivots.reshape(-1, nc)):
        piv = np.flatnonzero(pv)
        free = np.flatnonzero(~pv)[::-1]
        vecs = np.zeros((len(free), nc), dtype=np.int64)
        vecs[np.arange(len(free)), free] = 1
        vecs[:, piv] = ctx.np_neg(rd[: len(piv)][:, free].T)
        out.append(vecs[:, ::-1])
    return out


@st.composite
def mixed_rank_stacks(draw):
    """A stack over F_3, F_5 or F_9 of one shape, square or not, mixing
    zero matrices, full-rank ones (a unit matrix in random columns) and
    random products of every lower rank."""
    ctx = FIELDS[draw(st.sampled_from([3, 5, 9]))]
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    short, long = min(nr, nc), max(nr, nc)
    mats = []
    for kind in draw(st.lists(st.sampled_from(["zero", "full", "product"]), min_size=1, max_size=6)):
        if kind == "zero":
            mats.append(np.zeros((nr, nc), dtype=np.int64))
        elif kind == "full":
            wide = np.concatenate([np.eye(short, dtype=np.int64), rng.integers(0, ctx.q, (short, long - short))], axis=1)
            wide = wide[:, rng.permutation(long)]
            mats.append(wide if nr <= nc else wide.T)
        else:
            k = int(rng.integers(1, short + 1))
            mats.append(ctx.np_matmul(rng.integers(0, ctx.q, (nr, k)), rng.integers(0, ctx.q, (k, nc))))
    return ctx, np.stack(mats)


@given(mixed_rank_stacks())
@settings(max_examples=150, deadline=None)
def test_kernel_bases_match_the_per_matrix_loop(fs):
    # the loop-free bases of a stack of mixed ranks are the ones the loop
    # read off, matrix by matrix, and each spans the kernel
    ctx, stack = fs
    got, want = kernel_bases(ctx, stack), loop_kernel_bases(ctx, stack)
    assert len(got) == len(want) == len(stack)
    for a, g, w in zip(stack, got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
        assert len(g) == a.shape[1] - rank(ctx, a)
        assert not ctx.np_matmul(a, g.T).any()


@pytest.mark.parametrize("shape,count", [((0, 3), 1), ((1, 0, 3), 1), ((3, 0), 1), ((2, 3, 0), 2), ((0, 0), 1), ((0, 4, 4), 0)])
def test_kernel_bases_of_matrices_without_rows_or_columns(shape, count):
    # the kernel of a 0 x c matrix is all of F_q^c, its canonical basis the
    # c x c identity; an r x 0 matrix has an empty (0, 0) basis
    nr, nc = shape[-2:]
    want = np.eye(nc, dtype=np.int64) if nr == 0 else np.zeros((0, 0), dtype=np.int64)
    bases = kernel_bases(F3, np.zeros(shape, dtype=np.int64))
    assert len(bases) == count
    assert all(basis.shape == want.shape and np.array_equal(basis, want) for basis in bases)


# ---------------------------------------------------------
# Kernels and eigenspaces
# ---------------------------------------------------------
def test_kernel_examples():
    assert len(null_space(F3, np.eye(4, dtype=np.int64))) == 0
    assert len(null_space(F3, np.zeros((5, 5), dtype=np.int64))) == 5


def test_kernel_of_minimal_radical_form():
    # n=2 block form with a single symplectic 2x2 block: radical has dim 3
    _, af = canonical_form(F3, 2, 3, 1, 1)
    assert af.s.shape == (5, 5)
    assert len(null_space(F3, af.s)) == 3
    assert af.r == 3


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(17)
    m = random_matrix(F5, rng, 4, 6)
    ker = null_space(F5, m)
    assert rank(F5, m) + len(ker) == 6
    for v in ker:
        assert all(x == 0 for x in matvec(F5, m, v))


def test_eigenspace_examples():
    i4 = np.eye(4, dtype=np.int64)
    assert len(eigenspace(F5, i4, 1)) == 4
    assert len(eigenspace(F5, i4, 0)) == 0


def test_eigenspace_of_paired_generator_form():
    # block form carrying two complementary eigenspaces of equal dimension
    qs, af = canonical_form(F3, 3, 1, 1, 1)
    a = F3.np_matmul(inverse(F3, qs.gram), af.s)
    eig = nonzero_eigenvalues(F3, a)
    assert eig == {1: 2, 2: 2}
    for lam, dim in eig.items():
        space = eigenspace(F3, a, lam)
        assert len(space) == dim
        for v in space.tolist():
            got = matvec(F3, a, v)
            want = tuple(F3.mul(lam, x) for x in v)
            assert got == want


def test_nonzero_eigenvalues_examples():
    assert nonzero_eigenvalues(F3, np.zeros((3, 3), dtype=np.int64)) == {}
    d = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert nonzero_eigenvalues(F3, d) == {1: 2, 2: 1}


def test_nonzero_eigenvalues_empty_at_full_radical():
    # r = 2n-1, d = 1: no rational eigenvectors outside the radical
    for n, q in [(2, 3), (2, 5), (3, 3)]:
        ctx = field_ctx(q)
        qs, af = canonical_form(ctx, n, 2 * n - 1, 1, 1)
        assert nonzero_eigenvalues(ctx, ctx.np_matmul(inverse(ctx, qs.gram), af.s)) == {}


# ---------------------------------------------------------
# Property tests
# ---------------------------------------------------------
@given(
    q=st.sampled_from([3, 5, 9]),
    n=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    conjugated=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_nonzero_eigenvalues_match_eigenspaces(q, n, seed, conjugated):
    ctx = FIELDS[q]
    rng = np.random.default_rng(seed)
    m = random_matrix(ctx, rng, n, n)
    if conjugated:
        # a conjugated diagonal over {0, 1, 2} repeats its eigenvalues, so
        # eigenspaces of dimension above 1 come up
        p = random_invertible(ctx, rng, n)
        diag = np.diag(rng.integers(0, 3, size=n))
        m = ctx.np_matmul(ctx.np_matmul(p, diag), inverse(ctx, p))
    dims = {lam: len(eigenspace(ctx, m, lam)) for lam in range(1, q)}
    assert nonzero_eigenvalues(ctx, m) == {lam: d for lam, d in dims.items() if d}


@given(
    q=st.sampled_from([3, 5, 9]),
    nr=st.integers(1, 6),
    nc=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(q, nr, nc, seed):
    ctx = field_ctx(q)
    rng = np.random.default_rng(seed)
    m = random_matrix(ctx, rng, nr, nc)
    assert rank(ctx, m) + len(null_space(ctx, m)) == nc


@given(q=st.sampled_from([3, 5]), n=st.integers(2, 6), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_radical_is_zero_eigenspace(q, n, seed):
    ctx = field_ctx(q)
    rng = np.random.default_rng(seed)
    m = random_invertible(ctx, rng, n)
    s = random_antisymmetric(ctx, rng, n)
    assert np.array_equal(null_space(ctx, s), eigenspace(ctx, ctx.np_matmul(inverse(ctx, m), s), 0))


def _perp_hyperplane(ctx, gram, v):
    return null_space(ctx, np.array([matvec(ctx, gram, v)]))


def enumerated_eigen_pairs(qs, af):
    a = qs.ctx.np_matmul(qs.gram_inv, af.s)
    for lam in nonzero_eigenvalues(qs.ctx, a):
        yield lam, eigenspace(qs.ctx, a, lam)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5)])
def test_eigenvector_perps_coincide(n, q):
    """Nonzero-eigenvalue eigenvectors have the same perp for both forms."""
    ctx = field_ctx(q)
    qs, af = canonical_form(ctx, n, 1, 1, 1)
    found = 0
    for _, space in enumerated_eigen_pairs(qs, af):
        for v in space.tolist():
            assert np.array_equal(_perp_hyperplane(ctx, qs.gram, v), _perp_hyperplane(ctx, af.s, v))
            found += 1
    assert found > 0


@pytest.mark.parametrize("n,q,r,d", [(2, 3, 1, 1), (3, 3, 1, 1), (3, 3, 3, 1), (2, 5, 1, 1)])
def test_eigenspaces_sit_inside_radical_perp(n, q, r, d):
    """Each V_mu lies in the quadratic perp of the radical and kills both forms."""
    ctx = field_ctx(q)
    qs, af = canonical_form(ctx, n, r, d, 1)
    for _, space in enumerated_eigen_pairs(qs, af):
        for v in space:
            for u in af.radical:
                assert bilinear_value(ctx, qs.gram, u, v) == 0
            for w in space:
                assert bilinear_value(ctx, qs.gram, v, w) == 0
                assert bilinear_value(ctx, af.s, v, w) == 0


def _two_pair_instance():
    # M = identity on F_5^5; S has two antisymmetric blocks with distinct
    # rational eigenvalue pairs {2,3} and {1,4}
    s = np.array(
        [
            [0, 1, 0, 0, 0],
            [4, 0, 0, 0, 0],
            [0, 0, 0, 2, 0],
            [0, 0, 3, 0, 0],
            [0, 0, 0, 0, 0],
        ],
    )
    return np.eye(5, dtype=np.int64), s


def test_eigenspace_sums_avoiding_negation_are_singular():
    """V_lam + V_mu is totally singular and isotropic whenever mu != -lam."""
    m, s = _two_pair_instance()
    a = F5.np_matmul(inverse(F5, m), s)
    eig = nonzero_eigenvalues(F5, a)
    assert sorted(eig) == [1, 2, 3, 4]
    spaces = {lam: eigenspace(F5, a, lam) for lam in eig}
    checked = 0
    for lam, v_lam in spaces.items():
        for mu, v_mu in spaces.items():
            if mu == F5.neg(lam):
                continue
            joint = span_basis(F5, np.concatenate([v_lam, v_mu]), 5)
            for u in joint:
                for w in joint:
                    assert bilinear_value(F5, m, u, w) == 0
                    assert bilinear_value(F5, s, u, w) == 0
            checked += 1
    assert checked == 12
    # the excluded pairing really is degenerate: V_2 + V_3 meets the quadric
    bad = span_basis(F5, np.concatenate([spaces[2], spaces[3]]), 5)
    assert any(
        bilinear_value(F5, m, u, w) != 0 for u in bad for w in bad
    )


def test_eigenvalue_scaling_identity():
    """lam * (y^T M x) = y^T S x for x in V_lam, for every y."""
    cases = [(F5, *_two_pair_instance())]
    qs, af = canonical_form(F3, 3, 1, 1, 1)
    cases.append((F3, qs.gram, af.s))
    for ctx, m, s in cases:
        a = ctx.np_matmul(inverse(ctx, m), s)
        for lam in nonzero_eigenvalues(ctx, a):
            for x in eigenspace(ctx, a, lam).tolist():
                mx = matvec(ctx, m, x)
                sx = matvec(ctx, s, x)
                assert tuple(ctx.mul(lam, t) for t in mx) == sx


# ---------------------------------------------------------
# Canonical bases
# ---------------------------------------------------------
def test_subspace_canonical_equality():
    a = span_basis(F3, [[1, 1, 0], [0, 1, 1]], 3)
    b = span_basis(F3, [[1, 0, 2], [0, 2, 2]], 3)
    assert np.array_equal(a, b)


# ---------------------------------------------------------
# Text round trip
# ---------------------------------------------------------
def test_matrix_text_round_trip():
    rng = np.random.default_rng(23)
    for ctx in (F3, F5, F9):
        m = random_matrix(ctx, rng, 3, 4)
        text = format_matrix_text(ctx.q, m)
        assert text.splitlines()[0] == f"3 4 {ctx.q}"
        for given_ctx in (None, ctx):
            got_ctx, got = parse_matrix_text(text, given_ctx)
            assert got_ctx == ctx and got.dtype == np.int64
            assert np.array_equal(got, m)


def test_matrix_text_errors():
    with pytest.raises(IoError):
        parse_matrix_text("2 2")
    with pytest.raises(IoError):
        parse_matrix_text("2 2 3\n1 0 1")
    with pytest.raises(IoError):
        parse_matrix_text("1 2 3\n1 x")
    with pytest.raises(IoError):
        parse_matrix_text("1 2 3\n1 7")
    with pytest.raises(IoError):
        parse_matrix_text("-1 -1 3\n1")
    with pytest.raises(DimensionMismatch):
        parse_matrix_text("1 1 3\n1", field_ctx(5))
