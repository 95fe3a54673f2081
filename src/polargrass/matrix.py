"""Exact linear algebra over a FieldCtx.

Every row reduction in the package is one numpy elimination, `_eliminate`,
written with the `FieldCtx` array operations, so prime and extension fields
share it.  `MatrixFq` is the validated, immutable and hashable view of a
matrix: one read-only int64 array of int-encoded field elements, checked in
one vectorized step when it comes from outside.  Canonical forms (reduced
row echelon) make subspaces comparable by equality.
"""

from __future__ import annotations

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

    def add(self, other: "MatrixFq") -> "MatrixFq":
        self._check_same_shape(other)
        return MatrixFq._of(self.ctx, self.ctx.np_add(self._a, other._a))

    def neg(self) -> "MatrixFq":
        return MatrixFq._of(self.ctx, self.ctx.np_neg(self._a))

    def sub(self, other: "MatrixFq") -> "MatrixFq":
        return self.add(other.neg())

    def scale(self, s: int) -> "MatrixFq":
        return MatrixFq._of(self.ctx, self.ctx.np_mul(s, self._a))

    def mul(self, other: "MatrixFq") -> "MatrixFq":
        if other.nrows != self.ncols:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        return MatrixFq._of(self.ctx, self.ctx.np_matmul(self._a, other._a))

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        col = np.asarray(v, dtype=np.int64).reshape(-1, 1)
        return tuple(self.ctx.np_matmul(self._a, col)[:, 0].tolist())

    def is_symmetric(self) -> bool:
        return np.array_equal(self._a, self._a.T)

    def is_alternating(self) -> bool:
        # a^T = -a; in odd characteristic this forces a zero diagonal
        return np.array_equal(self._a.T, self.ctx.np_neg(self._a))

    def _check_same_shape(self, other: "MatrixFq") -> None:
        if self.ctx != other.ctx:
            raise DimensionMismatch("mixed field contexts")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch")


def bilinear_value(m: MatrixFq, u: Sequence[int], v: Sequence[int]) -> int:
    """u^T m v as a field element."""
    if (len(u), len(v)) != m._a.shape:
        raise DimensionMismatch("vector length mismatch")
    c = m.ctx
    u = np.asarray(u, dtype=np.int64)[None]
    v = np.asarray(v, dtype=np.int64)[None]
    return int(c.np_rowsum(c.np_mul(c.np_matmul(u, m._a), v))[0])


def _eliminate(ctx: FieldCtx, arr) -> tuple[np.ndarray, tuple[int, ...], int]:
    """Gauss-Jordan elimination of a copy of arr over ctx.

    Returns the reduced row echelon form, the pivot columns and the product
    of the pivots, negated once per row swap; for a square matrix of full
    rank that product is the determinant.
    """
    a = np.array(arr, dtype=np.int64)
    nr, nc = a.shape
    pivots = []
    factor = 1
    for col in range(nc):
        r = len(pivots)
        if r == nr:
            break
        nz = a[r:, col].nonzero()[0]
        if nz.size == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            a[[r, sel]] = a[[sel, r]]
            factor = ctx.neg(factor)
        piv = int(a[r, col])
        factor = ctx.mul(factor, piv)
        # row r is zero left of col, so only columns col: change
        row = ctx.np_mul(ctx.inv(piv), a[r, col:])
        a[r, col:] = row
        others = a[:, col].nonzero()[0]
        others = others[others != r]
        if others.size:
            f = a[others, col, None]
            a[others, col:] = ctx.np_sub(a[others, col:], ctx.np_mul(f, row))
        pivots.append(col)
    return a, tuple(pivots), factor


def rref(m: MatrixFq) -> tuple[MatrixFq, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    red, pivots, _ = _eliminate(m.ctx, m._a)
    return MatrixFq._of(m.ctx, red), pivots


def rank(m: MatrixFq) -> int:
    return len(_eliminate(m.ctx, m._a)[1])


def det(m: MatrixFq) -> int:
    if m.nrows != m.ncols:
        raise DimensionMismatch("determinant needs a square matrix")
    _, pivots, factor = _eliminate(m.ctx, m._a)
    return factor if len(pivots) == m.nrows else 0


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
            self.basis = tuple(map(tuple, red[: len(pivots)].tolist()))
        self.ctx = ctx
        self.ambient = ambient

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


def kernel(m: MatrixFq) -> Subspace:
    """Right null space: all v with m v = 0."""
    red, pivots = rref(m)
    c = m.ctx
    free = [j for j in range(m.ncols) if j not in pivots]
    # one vector per free column j: 1 at j, minus column j of red at the pivots
    vecs = np.zeros((len(free), m.ncols), dtype=np.int64)
    vecs[np.arange(len(free)), free] = 1
    vecs[:, list(pivots)] = c.np_neg(red._a[: len(pivots), free].T)
    return Subspace(c, m.ncols, vecs)


def eigenspace(m: MatrixFq, lam: int) -> Subspace:
    """Null space of m - lam * I."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("eigenspace needs a square matrix")
    c = m.ctx
    lam = c.validate_element(lam)
    shifted = m.to_numpy()
    diag = np.arange(m.nrows)
    shifted[diag, diag] = c.np_sub(shifted[diag, diag], lam)
    return kernel(MatrixFq._of(c, shifted))


def nonzero_eigenvalues(m: MatrixFq) -> dict[int, int]:
    """Eigenvalues in F_q* with their eigenspace dimensions.

    Only base-field eigenvalues are scanned; eigenvectors over extensions
    never enter any count here.  Each dimension is n - rank(m - lam I).
    """
    if m.nrows != m.ncols:
        raise DimensionMismatch("eigenspace needs a square matrix")
    c = m.ctx
    eye = np.eye(m.nrows, dtype=np.int64)
    out = {}
    for lam in range(1, c.q):
        d = m.nrows - len(_eliminate(c, c.np_sub(m._a, c.np_mul(lam, eye)))[1])
        if d:
            out[lam] = d
    return out


def rank_np(ctx: FieldCtx, arr: np.ndarray) -> int:
    """Rank of a (possibly wide) int matrix.

    Over a prime field the entries are taken mod p; over an extension field
    each entry must already be a field element.
    """
    a = np.asarray(arr, dtype=np.int64)
    if a.ndim != 2:
        raise DimensionMismatch("rank_np needs a 2-d array")
    if ctx.e == 1:
        a = a % ctx.p
    else:
        _check_range(ctx, a)
    return len(_eliminate(ctx, a)[1])


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
