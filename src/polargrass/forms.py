"""Quadratic and alternating forms on an odd-dimensional space over F_q.

The ambient space has dimension 2n+1 and carries a nondegenerate symmetric
Gram matrix M.  Alternating forms S are classified by the dimension r of
their radical R = ker S and the defect d = dim of the radical of the
M-restriction to R.  For each admissible (r, d) there are up to four block
shapes (case 1..4); _shape builds a shape's basis-adapted Gram M and
canonical S as arrays, standard_space and canonical_form wrap them in
objects, and the classification helpers work for arbitrary forms.
The radical splits of a list of forms on one space come from one stacked
call, _radical_splits, two eliminations for all the forms;
radical_split is that call on one form.  Every
nondegenerate Gram matrix of dimension 2n+1 is isometric, up to a scalar,
to the standard one; isometries finds such isometries for a stack.
projective_block gives any run of the points of PG(dim-1, q) in canonical
order, the blocks of the one value pass (geometry._point_values) that
every point count of the package walks; projective_points, all of them at
once, is left to the tests and the benchmark's trace.
"""

from __future__ import annotations

import math
import os
import resource
from typing import Iterator

import numpy as np

from .errors import DimensionMismatch, InadmissibleParams, PolargrassError, RadicalMismatch, RankDeficient, TooLarge
from .field import FieldCtx
from .matrix import _check_range, determinants, inverse, kernel_bases, pivot_columns

CASES = (1, 2, 3, 4)


def _check_n(n: int, low: int = 2, name: str = "n") -> None:
    if n < low:
        raise InadmissibleParams(f"need {name} >= {low}, got {n}")


def check_admissible(n: int, r: int, d: int, case: int, *, buildable: bool = True) -> None:
    """Raise InadmissibleParams unless (r, d, case) is allowed for this n.

    With buildable=True the constraints are those under which _shape
    builds a form with the stated radical; buildable=False relaxes case 2 to
    the full parity grid 1 <= d <= min(r, 2n - r), the domain over which the
    case-2 count formula is compared during maximization.
    """
    _check_n(n)
    if case not in CASES:
        raise InadmissibleParams(f"case must be in {CASES}, got {case}")
    if not (1 <= r <= 2 * n - 1) or r % 2 == 0:
        raise InadmissibleParams(f"radical dim r must be odd in [1, {2*n-1}], got {r}")
    if case in (1, 2):
        if d % 2 == 0 or not (1 <= d <= r):
            raise InadmissibleParams(f"case {case} needs odd d in [1, r], got d={d}")
        if r + d > 2 * n:
            raise InadmissibleParams(f"case {case} needs r + d <= 2n, got {r}+{d}")
        if case == 2 and buildable and r - d < 2:
            raise InadmissibleParams("case 2 needs r - d >= 2 for the anisotropic part")
    else:
        if d % 2 == 1 or not (0 <= d <= r - 1):
            raise InadmissibleParams(f"case {case} needs even d in [0, r-1], got d={d}")
        limit = 2 * n + 1 if case == 3 else 2 * n - 1
        if r + d > limit:
            raise InadmissibleParams(f"case {case} needs r + d <= {limit}, got {r}+{d}")


def admissible_pairs(n: int, case: int, *, buildable: bool = True) -> Iterator[tuple[int, int]]:
    """All (r, d) admitted for this case, in lexicographic order."""
    for r in range(1, 2 * n, 2):
        for d in range(0, r + 1):
            try:
                check_admissible(n, r, d, case, buildable=buildable)
            except InadmissibleParams:
                continue
            yield (r, d)


def _case_nu(n: int, r: int, d: int, case: int) -> int:
    if case in (1, 2):
        return n - (r + d) // 2
    if case == 3:
        return n - (r + d - 1) // 2
    return n - (r + d + 1) // 2


def _hyperbolic_plus(ctx: FieldCtx, t: int, tail: tuple[int, ...]) -> np.ndarray:
    """Gram [[0, I], [I, 0]] of size 2t followed by diag(tail)."""
    m = np.zeros((2 * t + len(tail),) * 2, dtype=np.int64)
    i = np.arange(t)
    m[i, t + i] = m[t + i, i] = 1
    j = np.arange(2 * t, len(m))
    m[j, j] = tail
    return m


def hyperbolic_gram(ctx: FieldCtx, t: int) -> np.ndarray:
    """2t x 2t Gram [[0, I], [I, 0]]."""
    return _hyperbolic_plus(ctx, t, ())


def parabolic_gram(ctx: FieldCtx, t: int) -> np.ndarray:
    """(2t+1) x (2t+1) Gram: hyperbolic part plus a final 1."""
    return _hyperbolic_plus(ctx, t, (1,))


def elliptic_gram(ctx: FieldCtx, t: int) -> np.ndarray:
    """(2t+2) x (2t+2) Gram: hyperbolic part plus diag(1, -xi), xi a nonsquare."""
    return _hyperbolic_plus(ctx, t, (1, ctx.neg(ctx.nonsquare_rep)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class QuadraticSpace:
    """Odd-dimensional space with a nondegenerate symmetric Gram matrix;
    gram and gram_inv are read-only arrays, det is det(gram)."""

    def __init__(self, ctx: FieldCtx, n: int, gram):
        if n < 1:
            raise InadmissibleParams(f"need n >= 1, got {n}")
        dim = 2 * n + 1
        gram = _check_range(ctx, gram)
        if gram.shape != (dim, dim):
            raise InadmissibleParams(f"Gram matrix must be {dim}x{dim}")
        if not np.array_equal(gram, gram.T):
            raise InadmissibleParams("Gram matrix must be symmetric")
        det = int(determinants(ctx, gram))
        if det == 0:
            raise RankDeficient("Gram matrix is degenerate")
        self.ctx = ctx
        self.n = n
        self.dim = dim
        self.gram = _frozen(gram)
        self.gram_inv = _frozen(inverse(ctx, gram))
        self.det = det
        # (-1)^n det(M): a point v is external iff this times v M v^T is a square
        self.disc_sign = ctx.neg(det) if n % 2 else det
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"QuadraticSpace(q={self.ctx.q}, n={self.n})"


def _shape(ctx: FieldCtx, n: int, r: int, d: int, case: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis-adapted Gram M and canonical alternating form S of a block
    shape, as plain arrays; the block layout is H | H0 | D0 | D.

    M pairs the first d rows with the last d and puts Q0 on H0 and R0 on
    D0 between them.  S is S22 on H0, the U block on H x H0 in cases 1 and
    2, and S11 on H, which pairs rows (i, i+1) with J blocks, from row 1
    in cases 1 and 2, where row 0 carries U, and from row 0 else.
    """
    check_admissible(n, r, d, case)
    nu = _case_nu(n, r, d, case)
    dim, off = 2 * n + 1, 2 * n + 1 - r  # H0 ends at off
    m = np.zeros((dim, dim), dtype=np.int64)
    i = np.arange(d)
    m[i, dim - d + i] = m[dim - d + i, i] = 1
    m[d:off, d:off] = (parabolic_gram, hyperbolic_gram, elliptic_gram)[max(0, case - 2)](ctx, nu)
    half = (r - d) // 2
    gram, t = ((hyperbolic_gram, half), (elliptic_gram, half - 1), (parabolic_gram, half))[min(case, 3) - 1]
    m[off : dim - d, off : dim - d] = gram(ctx, t)
    pairs = [(d + i, d + nu + i) for i in range(nu)]  # S22 on H0
    if case == 4:
        pairs.append((d + 2 * nu, d + 2 * nu + 1))
    if case in (1, 2):
        pairs.append((0, off - 1))  # U on H x H0
    pairs += [(i, i + 1) for i in range(1 if case in (1, 2) else 0, d - 1, 2)]  # S11 on H
    s = np.zeros((dim, dim), dtype=np.int64)
    for i, j in pairs:
        s[i, j], s[j, i] = 1, ctx.neg(1)
    return m, s


def _admit_gram(n: int) -> None:
    """Raise TooLarge unless a Gram matrix of dimension 2n+1 fits: the
    array itself, then the augmented copy that inverse reduces."""
    dim = 2 * n + 1
    check_memory(24 * dim * dim, f"a Gram matrix of dimension {dim}")


def standard_space(ctx: FieldCtx, n: int) -> QuadraticSpace:
    """The standard space Q(2n, q) of the code constructions: the Gram
    matrix of the case-1 shape (2n-1, 1)."""
    _admit_gram(n)
    return QuadraticSpace(ctx, n, _shape(ctx, n, 2 * n - 1, 1, 1)[0])


def _check_alternating(ctx: FieldCtx, arr, ndim: int) -> np.ndarray:
    """arr as an int64 array, if it has ndim axes, its entries are elements
    of F_q and its matrices (the last two axes) are alternating."""
    a = _check_range(ctx, arr)
    # s^T = -s; in odd characteristic this forces a zero diagonal
    if a.ndim != ndim or not np.array_equal(a.swapaxes(-1, -2), ctx.np_neg(a)):
        raise InadmissibleParams("matrix is not alternating")
    return a


class AlternatingForm:
    """Alternating bilinear form with its radical precomputed: s is the
    read-only matrix and radical the canonical (r, dim) basis of its kernel."""

    def __init__(self, ctx: FieldCtx, s):
        s = _check_alternating(ctx, s, 2)
        self._fill(ctx, s, kernel_bases(ctx, s)[0])

    def _fill(self, ctx: FieldCtx, s: np.ndarray, radical: np.ndarray) -> None:
        self.ctx = ctx
        self.s = _frozen(s)
        self.dim = len(s)
        self.radical = _frozen(radical)
        self.r = len(self.radical)

    def __repr__(self) -> str:
        return f"AlternatingForm(q={self.ctx.q}, dim={self.dim}, r={self.r})"


def alternating_forms(ctx: FieldCtx, arr) -> list[AlternatingForm]:
    """One AlternatingForm per matrix of a (B, dim, dim) stack, the stack
    checked as a whole; the radicals come from one stacked elimination."""
    a = _check_alternating(ctx, arr, 3)
    out = []
    for m, basis in zip(a, kernel_bases(ctx, a)):
        af = AlternatingForm.__new__(AlternatingForm)
        af._fill(ctx, m, basis)
        out.append(af)
    return out


def canonical_form(ctx: FieldCtx, n: int, r: int, d: int, case: int) -> tuple[QuadraticSpace, AlternatingForm]:
    """A block shape's basis-adapted space and canonical alternating form
    (see _shape), checked to have radical (r, d) there."""
    _admit_gram(n)
    m, s = _shape(ctx, n, r, d, case)
    qs, af = QuadraticSpace(ctx, n, m), AlternatingForm(ctx, s)
    split = radical_split(qs, af)
    if (split["r"], split["d"]) != (r, d):
        raise RadicalMismatch(f"case {case} shape ({r}, {d}) has radical ({split['r']}, {split['d']})")
    return qs, af


def _stack(qs: QuadraticSpace, afs) -> np.ndarray:
    """The (B, dim, dim) matrices of a list of forms on qs."""
    if any(af.dim != qs.dim for af in afs):
        raise DimensionMismatch("form and space dimensions differ")
    return np.stack([af.s for af in afs])


def _radical_splits(qs: QuadraticSpace, afs) -> np.ndarray:
    """(r, d, m) of each of a list of forms on qs, as in radical_split,
    from two stacked eliminations of the Grams G of the radicals R (zero
    past each form's r): their pivot columns P, so d = r - rank G, and the
    determinants of G[P, P] (the identity elsewhere).

    V = R' + H0 + d hyperbolic planes, orthogonally, where R' is spanned by
    the radical rows at P: the pivot columns of a symmetric matrix make a
    nonsingular G[P, P], so R' is a complement of D in R.  Hence disc H0 =
    det M det G[P, P] (-1)^d, up to squares.  r and dim are odd, so an odd
    d leaves H0 odd-dimensional, and m then does not read the sign.
    """
    ctx = qs.ctx
    _stack(qs, afs)  # raises DimensionMismatch for a form of another dimension
    rs = np.array([af.r for af in afs], dtype=np.int64)
    b_r = np.zeros((len(afs), rs.max(), qs.dim), dtype=np.int64)
    # row j of form i's radical goes to b_r[i, j]
    slot = np.arange(rs.sum()) - (np.cumsum(rs) - rs).repeat(rs)
    b_r[np.arange(len(afs)).repeat(rs), slot] = np.concatenate([af.radical for af in afs])
    g = ctx.np_matmul(ctx.np_matmul(b_r, qs.gram), b_r.transpose(0, 2, 1))
    p = pivot_columns(ctx, g)
    ds = rs - p.sum(axis=1)
    dets = determinants(ctx, np.where(p[:, :, None] & p[:, None, :], g, np.eye(g.shape[1], dtype=bool)))
    return np.stack([rs, ds, _witt_indices(ctx, ctx.np_mul(qs.det, dets), qs.dim - rs - ds)], axis=1)


def radical_split(qs: QuadraticSpace, af: AlternatingForm) -> dict:
    """Radical data for an arbitrary form: r, d, and the Witt index m of M
    on H0, any complement of D in the M-perp of R (see _radical_splits)."""
    return _split(qs, _radical_splits(qs, [af])[0])


def _split(qs: QuadraticSpace, row: np.ndarray) -> dict:
    """radical_split's record of a form's row of _radical_splits."""
    r, d, m = (int(x) for x in row)
    if r == qs.dim:
        raise InadmissibleParams("zero form has no radical split")
    return {"r": r, "d": d, "m": m}


def _witt_indices(ctx: FieldCtx, discs: np.ndarray, sizes) -> np.ndarray:
    """Witt index of each nondegenerate symmetric form over F_q, q odd, of
    dimension sizes[i] and discriminant discs[i] (up to squares)."""
    if (discs == 0).any():
        raise RankDeficient("Gram matrix is degenerate")
    sizes = np.asarray(sizes, dtype=np.int64)
    t = sizes // 2
    sign = np.where(t % 2 == 0, discs, ctx.np_neg(discs))
    return np.where(sizes % 2 == 1, t, np.where(ctx.np_is_square(sign), t, t - 1))


def _witt_bases(ctx: FieldCtx, grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per nondegenerate symmetric Gram M of a (B, k, k) stack, k = 2t+1: a
    basis W, rows e_1..e_t, f_1..f_t, g, with W M W^T = hyperbolic_gram(t)
    plus a last diagonal entry delta; and delta.

    Each step takes a singular e from the span of the first three rows
    left: by Chevalley-Warning one is among the points of PG(2, q).  The
    first other row v with b = e M v^T != 0 gives the singular partner f =
    (v - (v M v^T / 2b) e) / b.  The rows left less v and the one e leads
    with, projected onto the perp of <e, f>, are a basis of it.
    """
    nb, k = grams.shape[:2]
    rest = np.repeat(np.eye(k, dtype=np.int64)[None], nb, axis=0)
    w = np.zeros_like(rest)
    plane = projective_block(ctx.q, 3, 0, ctx.q**2 + ctx.q + 1)
    at = np.arange(nb)
    for step in range(k // 2):
        rm = ctx.np_matmul(rest, grams)
        g3 = ctx.np_matmul(rm[:, :3], rest[:, :3].transpose(0, 2, 1))
        zero = ctx.np_rowsum(ctx.np_mul(ctx.np_matmul(plane, g3), plane)) == 0
        if not zero.any(axis=1).all():
            raise PolargrassError("no singular point in a plane of a Witt reduction")
        coef = plane[zero.argmax(axis=1)]
        e = ctx.np_matmul(coef[:, None], rest[:, :3])[:, 0]
        lead = (coef != 0).argmax(axis=1)
        be = ctx.np_matmul(rm, e[:, :, None])[:, :, 0]
        be[at, lead] = 0
        j = (be != 0).argmax(axis=1)
        v, binv = rest[at, j], ctx.np_inv(be[at, j])
        shift = ctx.np_mul(ctx.np_mul(ctx.np_rowsum(ctx.np_mul(rm[at, j], v)), ctx.np_inv(2)), binv)
        f = ctx.np_mul(binv[:, None], ctx.np_sub(v, ctx.np_mul(shift[:, None], e)))
        idx = np.arange(rest.shape[1])
        rest = rest[(idx != lead[:, None]) & (idx != j[:, None])].reshape(nb, -1, k)
        # v - (v M f^T) e - (v M e^T) f is orthogonal to e and f
        ef = np.stack([e, f], axis=1)
        vm = ctx.np_matmul(rest, ctx.np_matmul(ef, grams).transpose(0, 2, 1))
        rest = ctx.np_sub(rest, ctx.np_matmul(vm[:, :, ::-1], ef))
        w[:, step], w[:, k // 2 + step] = e, f
    w[:, -1] = g = rest[:, 0]
    return w, ctx.np_rowsum(ctx.np_mul(ctx.np_matmul(g[:, None], grams)[:, 0], g))


def isometries(qs: QuadraticSpace, grams) -> tuple[np.ndarray, np.ndarray]:
    """(A, c) with A_i M_i A_i^T = c_i M_0 (M_0 = qs.gram) for each
    nondegenerate Gram M_i of a (B, dim, dim) stack, checked on the whole
    stack.  One Witt reduction of all M_i and M_0 gives W_i M_i W_i^T = H +
    (delta_i); scaling the e rows of W_i by c_i = delta_i / delta_0 makes
    that c_i W_0 M_0 W_0^T, so A_i = W_0^-1 D_i W_i.  A_i S A_i^T carries a
    form S on M_i onto qs, and no census, line type, eigenvector count or
    radical split depends on the scalar c_i.
    """
    ctx, grams = qs.ctx, np.asarray(grams, dtype=np.int64)
    w, delta = _witt_bases(ctx, np.concatenate([grams, qs.gram[None]]))
    c = ctx.np_mul(delta[:-1], ctx.np_inv(delta[-1]))
    w[:-1, : qs.n] = ctx.np_mul(c[:, None, None], w[:-1, : qs.n])
    a = ctx.np_matmul(inverse(ctx, w[-1]), w[:-1])
    ama = ctx.np_matmul(ctx.np_matmul(a, grams), a.transpose(0, 2, 1))
    if not np.array_equal(ama, ctx.np_mul(c[:, None, None], qs.gram)):
        raise PolargrassError("a Witt reduction gave no isometry onto the standard space")
    return a, c


# ---- projective enumeration ---------------------------------------------------


def _proc_kib(path: str, key: str) -> int | None:
    """The value of the 'key: N kB' line of a /proc file, or None if it
    cannot be read."""
    try:
        with open(path, encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def check_memory(need: float, what: str) -> None:
    """Raise TooLarge if need bytes exceed what this process may
    still get: MemAvailable (the physical memory if that cannot be read)
    or, if lower, its soft RLIMIT_AS less the address space it already
    holds (VmSize).

    Every function that builds an array growing with n or q calls it first,
    so parameters too large for memory are rejected instead of killed.
    """
    avail = _proc_kib("/proc/meminfo", "MemAvailable")
    limit = avail * 1024 if avail is not None else os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limit = max(0, min(limit, soft - 1024 * (_proc_kib("/proc/self/status", "VmSize") or 0)))
    if need > limit:
        amount = f"{need / 2**30:.3g} GiB" if need < 2**100 else "over 2^100 bytes"
        raise TooLarge(f"{what} needs at least {amount}; {limit / 2**30:.3g} GiB available")


def point_bytes(q: int, dim: int) -> float:
    """Peak bytes of the points of PG(dim-1, q) and one quadratic form
    evaluated on them: four int64 arrays of points x dim at once.

    The count exceeds q^(dim-1), so past 2^100 it is inf and a huge dim
    costs no big-integer power.
    """
    if (dim - 1) * math.log2(q) > 100:
        return math.inf
    return 32 * dim * ((q**dim - 1) // (q - 1))


def projective_block(q: int, dim: int, lo: int, hi: int) -> np.ndarray:
    """Points lo, ..., hi-1 of PG(dim-1, q) in the order of projective_points.

    Point i has tail width w, the largest with (q^w - 1)/(q - 1) <= i: a 1
    at coordinate dim-1-w followed by the w base-q digits of the rest of i.
    """
    index = np.arange(lo, hi, dtype=np.int64)
    starts = (q ** np.arange(dim, dtype=np.int64) - 1) // (q - 1)
    width = np.searchsorted(starts, index, side="right") - 1
    tail = index - starts[width]
    pts = tail[:, None] // q ** np.arange(dim - 1, -1, -1, dtype=np.int64) % q
    pts[np.arange(len(index)), dim - 1 - width] = 1
    return pts


def projective_points(ctx: FieldCtx, dim: int) -> np.ndarray:
    """Canonical representatives of all points of PG(dim-1, q), ascending lex.

    Each representative is scaled so its first nonzero coordinate is 1.
    """
    q = ctx.q
    check_memory(point_bytes(q, dim), f"the points of PG({dim - 1}, {q})")
    return projective_block(q, dim, 0, (q**dim - 1) // (q - 1))
