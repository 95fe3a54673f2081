"""Exact linear algebra over a FieldCtx, on plain arrays.

Every matrix in the package is an int64 numpy array of int-encoded field
elements; the Gram matrices, alternating forms and radicals that spaces
and forms hold are read-only.  `_check_range` checks a matrix where it
enters the package.  Every row reduction is one elimination, `_eliminate`,
written with the `FieldCtx` array operations, so prime and extension
fields share it.  It reduces one matrix or a stack of them in one pass:
`determinants`, `pivot_columns`, `kernel_bases` and `eigen_nullities` are
its stacked entry points, and `rref` and `inverse` its single-matrix ones.
`rank_np` ranks a wide matrix block by block through it.  Kernel bases are
canonical (reduced row echelon), so subspaces compare as arrays.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, InadmissibleParams, IoError, RankDeficient
from .field import FieldCtx


def _check_range(ctx: FieldCtx, arr) -> np.ndarray:
    """arr as an int64 array, if every entry is an element of F_q.

    Entries that numpy reads as integers are checked in one step.  If that
    step finds a bad entry in rows given as lists, or numpy reads no
    integers, the entries are walked as given and the first that is no
    element is named in the words of FieldCtx.validate_element; rows of
    elements that numpy cannot stack are ragged.
    """
    try:
        a = np.asarray(arr)
    except ValueError:  # ragged rows, or an entry that is a sequence
        a = None
    if a is not None and a.dtype.kind in "iub":
        bad = (a < 0) | (a >= ctx.q)
        if not bad.any():
            return a.astype(np.int64, copy=False)
        if isinstance(arr, np.ndarray):
            raise InadmissibleParams(f"{int(a[bad][0])!r} is not an element of F_{ctx.q}")
    if a is None or a.ndim == 2:
        entries = chain.from_iterable(arr)
    else:
        entries = arr if a.ndim == 1 else a.flat
    for x in entries:
        ctx.validate_element(x)
    if a is None:
        raise DimensionMismatch("ragged rows")
    return a.astype(np.int64)  # no entries for numpy to read as integers


def _eliminate(ctx: FieldCtx, arr) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gauss-Jordan elimination of a copy of arr over ctx: one matrix, or a
    stack of matrices along leading axes, each reduced on its own.

    Returns the reduced row echelon forms, the pivot columns as a boolean
    mask of shape arr.shape[:-2] + (ncols,) and, for square matrices, the
    product of the pivots times the sign of the row order, of shape
    arr.shape[:-2] (for a matrix of full rank, its determinant; None if the
    matrices are not square).  Each column is one step for the whole stack:
    every matrix with a nonzero entry in a row not yet used as a pivot row
    takes the first such row as its pivot row, and the pivot rows are put
    in order once, at the end.
    """
    a = np.array(arr, dtype=np.int64, order="C")  # so flat below is a view
    stack, (nr, nc) = a.shape[:-2], a.shape[-2:]
    nb = math.prod(stack)
    a = a.reshape(nb, nr, nc)
    flat = a.reshape(nb * nr, nc)  # row i of matrix m is flat[m * nr + i]
    base = np.arange(nb) * nr
    free = np.ones((nb, nr), dtype=bool)  # rows not yet a pivot row
    lead = np.tile(np.arange(nc, nc + nr), (nb, 1))  # pivot column, else nc + row
    pivots = np.zeros((nb, nc), dtype=bool)
    factor = np.ones(nb, dtype=np.int64) if nr == nc else None
    left = nb * nr  # rows not yet a pivot row, over the stack
    for col in range(nc):
        if not left:
            break
        colv = a[:, :, col]
        cand = (colv != 0) & free
        rows = base + cand.argmax(axis=1)
        hit = cand.reshape(-1)[rows]
        found = np.count_nonzero(hit)
        if found == nb:
            b = slice(None)  # a[b] is a view
        elif found:
            b = np.flatnonzero(hit)
            rows = rows[b]
        else:
            continue
        left -= found
        row = flat[rows, col:]
        if factor is not None:
            factor[b] = ctx.np_mul(factor[b], row[:, 0])
        row = ctx.np_mul(ctx.np_inv(row[:, 0])[:, None], row)
        # the pivot row itself goes to zero here and is then overwritten
        a[b, :, col:] = ctx.np_sub(a[b, :, col:], ctx.np_mul(colv[b, :, None], row[:, None, :]))
        flat[rows, col:] = row
        free.reshape(-1)[rows] = False
        lead.reshape(-1)[rows] = col
        pivots[b, col] = True
    # rows by pivot column (the rows never used as pivot rows are zero), and
    # the sign of that row order, from its inversions, into the factor.  The
    # values of lead are distinct, so any sort gives this order; the stable
    # one is the one enumerate_singular_lines has already loaded.
    order = lead.argsort(axis=1, kind="stable")
    a = a[np.arange(nb)[:, None], order]
    if factor is not None:
        idx = np.arange(nr)
        inv = (order[:, :, None] > order[:, None, :]) & (idx[:, None] < idx)
        odd = np.count_nonzero(inv, axis=(1, 2)) % 2 == 1
        factor[odd] = ctx.np_neg(factor[odd])
        factor = factor.reshape(stack)
    return a.reshape(stack + (nr, nc)), pivots.reshape(stack + (nc,)), factor


def rref(ctx: FieldCtx, arr) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of one matrix and its pivot column indices."""
    red, pivots, _ = _eliminate(ctx, arr)
    return red, tuple(np.flatnonzero(pivots).tolist())


def determinants(ctx: FieldCtx, arr) -> np.ndarray:
    """Determinant of each square matrix of a stack (or of one), from one
    elimination."""
    _, pivots, factor = _eliminate(ctx, arr)
    if factor is None:
        raise DimensionMismatch("determinant needs square matrices")
    return np.where(pivots.all(axis=-1), factor, 0)


def pivot_columns(ctx: FieldCtx, arr) -> np.ndarray:
    """Pivot columns of the reduced row echelon form of each matrix of a
    stack (or of one), as a boolean mask, from one elimination."""
    return _eliminate(ctx, arr)[1]


def inverse(ctx: FieldCtx, arr) -> np.ndarray:
    """Inverse of one square matrix, from the rref of [arr | I]."""
    a = np.asarray(arr, dtype=np.int64)
    n = len(a)
    if a.shape != (n, n):
        raise DimensionMismatch("inverse needs a square matrix")
    red, pivots = rref(ctx, np.hstack([a, np.eye(n, dtype=np.int64)]))
    if pivots[:n] != tuple(range(n)):
        raise RankDeficient("matrix is singular")
    return red[:, n:]


def kernel_bases(ctx: FieldCtx, arr) -> list[np.ndarray]:
    """Canonical (reduced row echelon) basis of the right null space of each
    matrix of a stack (or of one matrix), from one elimination and no step
    per matrix.

    Reduce the matrices with their columns reversed.  The null vector of a
    free column j has its 1 at j and its other entries at pivot columns left
    of j, and is zero at every other free column.  Read back in the original
    column order, each vector therefore leads with that 1 and is zero at the
    other vectors' leading columns, so the vectors, by leading column, are
    the canonical basis.  Row t of every matrix is built at once: its free
    column and the pivot columns come from stable argsorts of the pivot
    masks, and a matrix's pivot rows come first in its reduced form.
    """
    a = np.asarray(arr, dtype=np.int64)
    nr, nc = a.shape[-2:]
    red, pivots, _ = _eliminate(ctx, a.reshape((math.prod(a.shape[:-2]), nr, nc))[..., ::-1])
    nullity = nc - pivots.sum(axis=1)
    k = int(nullity.max(initial=0))
    # free columns by descending reversed index (ascending original index),
    # then pivot columns ascending: a matrix's pivot j is its reduced row j
    free = nc - 1 - np.argsort(pivots[:, ::-1], axis=1, kind="stable")[:, :k]
    piv = np.argsort(~pivots, axis=1, kind="stable")[:, : min(nr, nc)]
    vals = np.take_along_axis(red[:, : piv.shape[1]], free[:, None, :], axis=2)
    vecs = np.zeros((len(red), k, nc), dtype=np.int64)
    np.put_along_axis(vecs, piv[:, None, :], ctx.np_neg(vals).transpose(0, 2, 1), axis=2)
    np.put_along_axis(vecs, free[:, :, None], 1, axis=2)
    return [basis[:m] for basis, m in zip(vecs[..., ::-1], nullity.tolist())]


def eigen_nullities(ctx: FieldCtx, arr) -> np.ndarray:
    """n - rank(m - lam I) for every lam in F_q*, in order, for one square
    matrix or a stack of them: shape arr.shape[:-2] + (q-1,).

    The q-1 shifts of every matrix are ranked in one elimination.
    """
    a = np.asarray(arr, dtype=np.int64)
    n = a.shape[-1]
    shifted = np.repeat(a[..., None, :, :], ctx.q - 1, axis=-3)
    diag = np.arange(n)
    lam = np.arange(1, ctx.q, dtype=np.int64)[:, None]
    shifted[..., diag, diag] = ctx.np_sub(shifted[..., diag, diag], lam)
    return n - _eliminate(ctx, shifted)[1].sum(axis=-1)


def rank_np(ctx: FieldCtx, arr: np.ndarray) -> int:
    """Rank of a (possibly wide) matrix of field elements, without a copy
    of all of it.

    The rows of the taller orientation (a view) are split into `width`
    interleaved blocks (every width-th row), and each block is reduced
    together with the reduced basis of the blocks before it, so a working
    copy holds about as many entries as the matrix has rows.  It stops once
    the rank reaches the width, which a block sampled across the whole
    matrix usually does.
    """
    a = _check_range(ctx, arr)
    if a.ndim != 2:
        raise DimensionMismatch("rank_np needs a 2-d array")
    tall = a.T if a.shape[0] < a.shape[1] else a
    width = tall.shape[1]
    basis = tall[:0]
    for start in range(width):
        if len(basis) == width:
            break
        red, pivots, _ = _eliminate(ctx, np.concatenate([basis, tall[start :: width]]))
        basis = red[: pivots.sum()]
    return len(basis)


def format_matrix_text(q: int, arr) -> str:
    """Plain text serialization: 'rows cols q' header, then one row per line."""
    a = np.asarray(arr)
    lines = [f"{a.shape[0]} {a.shape[1]} {q}"]
    lines += [" ".join(map(str, row)) for row in a.tolist()]
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str, ctx: FieldCtx | None = None) -> tuple[FieldCtx, np.ndarray]:
    """Inverse of format_matrix_text: the field (ctx, or one built from the
    header) and the matrix over it."""
    toks = text.split()
    if len(toks) < 3:
        raise IoError("matrix text needs an 'rows cols q' header")
    try:
        nr, nc, q = int(toks[0]), int(toks[1]), int(toks[2])
    except ValueError as ex:
        raise IoError(f"malformed matrix header: {ex}") from ex
    if nr < 0 or nc < 0:
        raise IoError(f"malformed matrix header: {nr} x {nc}")
    if ctx is None:
        ctx = FieldCtx(q)
    elif ctx.q != q:
        raise DimensionMismatch(f"matrix is over F_{q}, context is F_{ctx.q}")
    body = toks[3:]
    if len(body) != nr * nc:
        raise IoError(f"expected {nr * nc} entries, found {len(body)}")
    try:
        vals = [int(t) for t in body]
    except ValueError as ex:
        raise IoError(f"malformed matrix entry: {ex}") from ex
    if any(not 0 <= v < q for v in vals):
        raise IoError("matrix entry out of field range")
    return ctx, np.array(vals, dtype=np.int64).reshape(nr, nc)
