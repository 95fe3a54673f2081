"""Exact linear algebra over a FieldCtx.

Every row reduction in the package is one numpy elimination, `_eliminate`,
written with the `FieldCtx` array operations, so prime and extension fields
share it.  It reduces one matrix or a stack of them in one pass, so the
many small matrices of a batch of forms cost one call.  `MatrixFq` is the validated, immutable and hashable view of a
matrix: one read-only int64 array of int-encoded field elements, checked in
one vectorized step when it comes from outside.  Canonical forms (reduced
row echelon) make subspaces comparable by equality.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, InadmissibleParams, IoError, RankDeficient
from .field import FieldCtx


def _check_range(ctx: FieldCtx, a: np.ndarray) -> None:
    bad = (a < 0) | (a >= ctx.q)
    if bad.any():
        raise InadmissibleParams(f"{int(a[bad][0])!r} is not an element of F_{ctx.q}")


def _check_entries(ctx: FieldCtx, rows: Iterable[Iterable[int]]) -> np.ndarray:
    """rows as a 2-d int64 array, if every entry is an element of F_q and
    all rows have one length.

    Entries that numpy reads as integers are range-checked in one step.
    Otherwise some entry is no integer, and the entries are walked only to
    name the first bad one, in the words of FieldCtx.validate_element.
    """
    rows = [list(r) for r in rows]
    flat = list(chain.from_iterable(rows))
    try:
        a = np.array(flat)
    except ValueError:  # an entry is a sequence
        a = np.array(flat, dtype=object)
    if a.ndim == 1 and a.dtype.kind in "iub":
        bad = np.flatnonzero((a < 0) | (a >= ctx.q))
    else:
        bad = [i for i, x in enumerate(flat) if not isinstance(x, (int, np.integer)) or not 0 <= x < ctx.q]
    if len(bad):
        raise InadmissibleParams(f"{flat[bad[0]]!r} is not an element of F_{ctx.q}")
    if any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatch("ragged rows")
    return a.astype(np.int64).reshape(len(rows), len(rows[0]) if rows else 0)


class MatrixFq:
    """Dense matrix over F_q with exact arithmetic, stored as one read-only
    int64 array; `rows` is the same entries as tuples."""

    __slots__ = ("ctx", "_a")

    def __init__(self, ctx: FieldCtx, rows: Iterable[Iterable[int]]):
        self.ctx = ctx
        self._a = _check_entries(ctx, rows)
        self._a.setflags(write=False)

    # ---- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, ctx: FieldCtx, m: int, n: int) -> "MatrixFq":
        return cls._of(ctx, np.zeros((m, n), dtype=np.int64))

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "MatrixFq":
        return cls._of(ctx, np.eye(n, dtype=np.int64))

    @classmethod
    def from_numpy(cls, ctx: FieldCtx, arr) -> "MatrixFq":
        a = np.array(arr)
        if a.dtype.kind not in "iub":  # the constructor names the entry that is no integer
            return cls(ctx, a)
        _check_range(ctx, a)
        return cls._of(ctx, a.astype(np.int64, copy=False))

    @classmethod
    def _of(cls, ctx: FieldCtx, a: np.ndarray) -> "MatrixFq":
        """Wrap a 2-d array of field elements that no one else will change."""
        m = cls.__new__(cls)
        m.ctx = ctx
        m._a = a if len(a) else a.reshape(0, 0)
        m._a.setflags(write=False)
        return m

    def to_numpy(self) -> np.ndarray:
        return self._a.copy()

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._a.tolist()))

    # ---- shape and equality --------------------------------------------------

    @property
    def nrows(self) -> int:
        return self._a.shape[0]

    @property
    def ncols(self) -> int:
        return self._a.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixFq)
            and other.ctx == self.ctx
            and np.array_equal(other._a, self._a)
        )

    def __hash__(self) -> int:
        return hash((self.ctx.q, self.rows))

    def __repr__(self) -> str:
        return f"MatrixFq(q={self.ctx.q}, {self.nrows}x{self.ncols})"

    # ---- arithmetic ---------------------------------------------------------

    def transpose(self) -> "MatrixFq":
        return MatrixFq._of(self.ctx, self._a.T)

    def mul(self, other: "MatrixFq") -> "MatrixFq":
        if other.nrows != self.ncols:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        return MatrixFq._of(self.ctx, self.ctx.np_matmul(self._a, other._a))

    def is_symmetric(self) -> bool:
        return np.array_equal(self._a, self._a.T)

    def is_alternating(self) -> bool:
        # a^T = -a; in odd characteristic this forces a zero diagonal
        return np.array_equal(self._a.T, self.ctx.np_neg(self._a))


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


def rref(m: MatrixFq) -> tuple[MatrixFq, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    red, pivots, _ = _eliminate(m.ctx, m._a)
    return MatrixFq._of(m.ctx, red), tuple(np.flatnonzero(pivots).tolist())


def rank(m: MatrixFq) -> int:
    return int(_eliminate(m.ctx, m._a)[1].sum())


def det(m: MatrixFq) -> int:
    if m.nrows != m.ncols:
        raise DimensionMismatch("determinant needs a square matrix")
    return int(determinants(m.ctx, m._a))


def determinants(ctx: FieldCtx, arr) -> np.ndarray:
    """Determinant of each square matrix of a stack (or of one), from one
    elimination."""
    _, pivots, factor = _eliminate(ctx, arr)
    return np.where(pivots.all(axis=-1), factor, 0)


def pivot_columns(ctx: FieldCtx, arr) -> np.ndarray:
    """Pivot columns of the reduced row echelon form of each matrix of a
    stack (or of one), as a boolean mask, from one elimination."""
    return _eliminate(ctx, arr)[1]


def inverse(m: MatrixFq) -> MatrixFq:
    if m.nrows != m.ncols:
        raise DimensionMismatch("inverse needs a square matrix")
    n = m.nrows
    aug = MatrixFq._of(m.ctx, np.hstack([m._a, np.eye(n, dtype=np.int64)]))
    red, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise RankDeficient("matrix is singular")
    return MatrixFq._of(m.ctx, red._a[:, n:])


class Subspace:
    """Linear subspace stored by its canonical reduced-echelon basis."""

    __slots__ = ("ctx", "ambient", "basis")

    def __init__(self, ctx: FieldCtx, ambient: int, vectors: Iterable[Sequence[int]]):
        vecs = [list(v) for v in vectors]
        if any(len(v) != ambient for v in vecs):
            raise DimensionMismatch("basis vector has wrong length")
        self.basis = ()
        if vecs:
            red, pivots, _ = _eliminate(ctx, _check_entries(ctx, vecs))
            self.basis = tuple(map(tuple, red[: pivots.sum()].tolist()))
        self.ctx = ctx
        self.ambient = ambient

    @classmethod
    def _of(cls, ctx: FieldCtx, ambient: int, basis: np.ndarray) -> "Subspace":
        """Wrap rows that already are a reduced row echelon basis."""
        sub = cls.__new__(cls)
        sub.ctx, sub.ambient = ctx, ambient
        sub.basis = tuple(map(tuple, basis.tolist()))
        return sub

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and other.ctx == self.ctx
            and other.ambient == self.ambient
            and other.basis == self.basis
        )

    def __hash__(self) -> int:
        return hash((self.ctx.q, self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(q={self.ctx.q}, ambient={self.ambient}, dim={self.dim})"


def kernel_bases(ctx: FieldCtx, arr) -> list[np.ndarray]:
    """Canonical (reduced row echelon) basis of the right null space of each
    matrix of a stack (or of one matrix), from one elimination.

    Reduce the matrices with their columns reversed.  The null vector of a
    free column j has its 1 at j and its other entries at pivot columns left
    of j, and is zero at every other free column.  Read back in the original
    column order, each vector therefore leads with that 1 and is zero at the
    other vectors' leading columns, so the vectors, by leading column, are
    the canonical basis.
    """
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


def kernel(m: MatrixFq) -> Subspace:
    """Right null space: all v with m v = 0."""
    return Subspace._of(m.ctx, m.ncols, kernel_bases(m.ctx, m._a)[0])


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
    """Rank of a (possibly wide) int matrix, without a copy of all of it.

    Over a prime field the entries are taken mod p; over an extension field
    each entry must already be a field element.  The rows of the taller
    orientation (a view) are split into `width` interleaved blocks (every
    width-th row), and each block is reduced together with the reduced
    basis of the blocks before it, so a working copy holds about as many
    entries as the matrix has rows.  It stops once the rank reaches the
    width, which a block sampled across the whole matrix usually does.
    """
    a = np.asarray(arr, dtype=np.int64)
    if a.ndim != 2:
        raise DimensionMismatch("rank_np needs a 2-d array")
    if ctx.e > 1:
        _check_range(ctx, a)
    tall = a.T if a.shape[0] < a.shape[1] else a
    width = tall.shape[1]
    basis = tall[:0]
    for start in range(width):
        if len(basis) == width:
            break
        block = tall[start :: width]
        if ctx.e == 1:
            block = block % ctx.p
        red, pivots, _ = _eliminate(ctx, np.concatenate([basis, block]))
        basis = red[: pivots.sum()]
    return len(basis)


def format_matrix_text(m: MatrixFq) -> str:
    """Plain text serialization: 'rows cols q' header, then one row per line."""
    lines = [f"{m.nrows} {m.ncols} {m.ctx.q}"]
    lines += [" ".join(str(x) for x in row) for row in m.rows]
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str, ctx: FieldCtx | None = None) -> MatrixFq:
    """Inverse of format_matrix_text; builds a context from the header if needed."""
    toks = text.split()
    if len(toks) < 3:
        raise IoError("matrix text needs an 'rows cols q' header")
    try:
        nr, nc, q = int(toks[0]), int(toks[1]), int(toks[2])
    except ValueError as ex:
        raise IoError(f"malformed matrix header: {ex}") from ex
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
    return MatrixFq(ctx, [vals[i * nc : (i + 1) * nc] for i in range(nr)])
