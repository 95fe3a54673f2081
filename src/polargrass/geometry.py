"""Singular points and totally singular lines of the parabolic quadric.

Points are canonical projective representatives (first nonzero coordinate 1)
in ascending lexicographic order.  Each line is found once, from its
reduced-row-echelon generator pair of points, so its wedge coordinates
(entries x_i y_j - x_j y_i over index pairs i < j) already have a leading 1
and no dedup step is needed.  Lines are stored by those coordinates in
ascending lexicographic order, together with the generator pair and the ids
of their q+1 member points.

The per-form residue classes and isotropic-line masks come from stacked
kernels: each takes a list of forms on one space and evaluates all of them
with one product per block of points or lines.  A single-form function is
a call with one form followed by a read-off (_census, _mask, _tau,
_line_types) that turns the form's row into its census, line mask, tau
values or line types; counting's form table applies the same read-offs
to the rows of all forms of a space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotOnQuadric, TypeNotInTable
from .forms import AlternatingForm, QuadraticSpace, check_memory, projective_points

PAIR_BLOCK_ENTRIES = 1 << 20  # point pairs in one product block of enumerate_singular_lines
BLAS_MADDS = 10**6  # multiply-adds of the largest product OpenBLAS runs on the calling thread

RESIDUE_P_A = 0
RESIDUE_P_B = 1
RESIDUE_ZERO = 2
RESIDUE_PLUS = 3
RESIDUE_MINUS = 4
RESIDUE_NAMES = ("CLASS_P_A", "CLASS_P_B", "CLASS_ZERO", "CLASS_PLUS", "CLASS_MINUS")

LINE_T0 = 0
LINE_TPLUS = 1
LINE_TALPHA = 2
LINE_TBETA = 3
LINE_TMINUS = 4
LINE_TYPE_NAMES = ("T0", "TPLUS", "TALPHA", "TBETA", "TMINUS")


def _blocks(rows: int, per_row: int, madds: int = 1) -> list[slice]:
    """Blocks of the rows (points, lines or forms) of a stacked kernel whose
    arrays hold at most a sixteenth of PAIR_BLOCK_ENTRIES entries (512 KiB
    of 8-byte entries) when one row needs per_row, and whose BLAS product
    takes at most BLAS_MADDS multiply-adds when one row takes madds; a
    block has one row at least.

    A product above BLAS_MADDS wakes OpenBLAS's other threads, and on a
    busy 2-vCPU host that wait took a scheduler tick (8 ms) per product.
    """
    step = max(1, min((PAIR_BLOCK_ENTRIES >> 4) // max(1, per_row), BLAS_MADDS // max(1, madds)))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _stack(qs: QuadraticSpace, afs) -> np.ndarray:
    """The (B, dim, dim) matrices of a list of forms on qs."""
    if any(af.dim != qs.dim for af in afs):
        raise DimensionMismatch("form and space dimensions differ")
    return np.stack([af.s for af in afs])


@dataclass
class CensusRecord:
    """Point census of the quadric under an alternating form."""

    a_radical: int
    a_eigen: int
    n_zero: int
    n_plus: int
    n_minus: int

    @property
    def a(self) -> int:
        return self.a_radical + self.a_eigen

    @property
    def total(self) -> int:
        return self.a + self.n_zero + self.n_plus + self.n_minus

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.n_zero, self.n_plus, self.n_minus)


def quadric_points(qs: QuadraticSpace) -> np.ndarray:
    """Singular points, canonical representatives in ascending lex order."""
    if "points" not in qs._cache:
        pts = projective_points(qs.ctx, qs.dim)
        vals = qs.ctx.np_quad_eval(qs.gram, pts)
        sel = pts[vals == 0].copy()
        sel.setflags(write=False)
        qs._cache["points"] = sel
    return qs._cache["points"]


def _encode_rows(q: int, rows: np.ndarray) -> np.ndarray:
    """Base-q integer key per row, monotone with respect to lex order."""
    width = rows.shape[1]
    if q**width >= 2**62:
        raise DimensionMismatch("row too wide for integer keys")
    key = np.zeros(len(rows), dtype=np.int64)
    for k in range(width):
        key = key * q + rows[:, k]
    return key


def _ids_for_rows(qs: QuadraticSpace, rows: np.ndarray) -> np.ndarray:
    """Ids of canonical rows of singular points, found among the points'
    keys, which each space caches."""
    if "point_keys" not in qs._cache:
        qs._cache["point_keys"] = _encode_rows(qs.ctx.q, quadric_points(qs))
    keys = _encode_rows(qs.ctx.q, rows)
    table = qs._cache["point_keys"]
    pos = np.searchsorted(table, keys)
    if (pos >= len(table)).any() or (table[np.minimum(pos, len(table) - 1)] != keys).any():
        raise NotOnQuadric("row is not a singular point")
    return pos.astype(np.int64)


class LineSet:
    """Totally singular lines in canonical order with incidence data.

    gens[i] holds the ids of the reduced-echelon pair (v, u) of line i: v
    has the later leading coordinate, u is zero there, and they are the two
    lex-smallest points of the line.
    """

    def __init__(self, qs: QuadraticSpace, plucker: np.ndarray, gens: np.ndarray):
        self.qs = qs
        self.plucker = plucker
        self.gens = gens
        self._members: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.plucker)

    def members(self) -> np.ndarray:
        """(N, q+1) sorted point ids on each line."""
        if self._members is None:
            qs = self.qs
            ctx = qs.ctx
            pts = quadric_points(qs)
            v = pts[self.gens[:, 0]]
            u = pts[self.gens[:, 1]]
            cols = [self.gens[:, 0]]
            # u + lam v keeps the leading 1 of u, so it is already canonical
            for lam in range(ctx.q):
                w = ctx.np_add(u, ctx.np_mul(np.int64(lam), v))
                cols.append(_ids_for_rows(qs, w))
            mem = np.stack(cols, axis=1)
            mem.sort(axis=1)
            self._members = mem
        return self._members


def singular_line_count(n: int, q: int) -> int:
    """Number of totally singular lines of the parabolic quadric Q(2n, q)."""
    return (q ** (2 * n - 2) - 1) * (q ** (2 * n) - 1) // ((q**2 - 1) * (q - 1))


def _wedge_dtype(q: int) -> type:
    """The narrowest dtype that holds x_i y_j - x_j y_i for field elements
    x and y below q."""
    return np.int16 if (q - 1) ** 2 < 1 << 15 else np.int32


def line_bytes(n: int, q: int) -> float:
    """Peak bytes enumerate_singular_lines allocates for Q(2n, q), past the
    singular points: the larger of its two stages.

    Pairing: three int64 copies of a product block of PAIR_BLOCK_ENTRIES
    entries, then four int64 ids per line (the pairs found, in pieces and
    joined).  Sorting, per line: the wedge row in the narrow dtype and its
    sorted copy, the int64 plucker row, both points of the pair in the
    narrow dtype, five int64 ids (the pair's ids in pieces and joined, and
    the sort order) and two more, which cover the generator pairs built
    once the sorted copy is freed.  N is at least q^(4n-5), so past 2^100
    it is inf and a huge n costs no big-integer power.
    """
    if (4 * n - 5) * math.log2(q) > 100:
        return math.inf
    nn, dim = singular_line_count(n, q), 2 * n + 1
    k, w = dim * (dim - 1) // 2, np.dtype(_wedge_dtype(q)).itemsize
    return max(24 * PAIR_BLOCK_ENTRIES + 32 * nn, nn * (2 * k * w + 8 * k + 2 * dim * w + 56))


def enumerate_singular_lines(qs: QuadraticSpace) -> LineSet:
    """All totally singular lines, each found once, in lex order.

    Every line has one reduced-row-echelon pair of points (u, v): lead(v) >
    lead(u) and u[lead(v)] = 0.  Both are singular, so the line is totally
    singular exactly when B(u, v) = 0.  For each lead b, products of the
    points v with lead b against the points u with lead < b and u[b] = 0,
    in blocks of at most PAIR_BLOCK_ENTRIES pairs, find these pairs; the
    wedge row of a pair has a leading 1 at (lead u, lead v), so it needs no
    scaling and no dedup.
    """
    if "lines" in qs._cache:
        return qs._cache["lines"]
    ctx = qs.ctx
    k = qs.dim * (qs.dim - 1) // 2
    check_memory(line_bytes(qs.n, ctx.q), f"the singular lines of Q({2 * qs.n}, {ctx.q})")
    pts = quadric_points(qs)
    lead = (pts != 0).argmax(axis=1)
    pm = ctx.np_matmul(pts, qs.gram)
    u_ids: list[np.ndarray] = []
    v_ids: list[np.ndarray] = []
    for b in range(1, qs.dim):
        vs = np.flatnonzero(lead == b)
        us = np.flatnonzero((lead < b) & (pts[:, b] == 0))
        ut = pts[us].T
        step = max(1, PAIR_BLOCK_ENTRIES // max(1, len(us)))
        for lo in range(0, len(vs), step):
            block = vs[lo : lo + step]
            row, col = np.nonzero(ctx.np_matmul(pm[block], ut) == 0)
            v_ids.append(block[row])
            u_ids.append(us[col])
    ui = np.concatenate(u_ids)
    vi = np.concatenate(v_ids)

    # the wedge in the narrow dtype, so the sorted plucker is the only N x K
    # int64 array
    iu, ju = np.triu_indices(qs.dim, 1)
    narrow = pts.astype(_wedge_dtype(ctx.q))
    u = narrow[ui]
    v = narrow[vi]
    if ctx.e == 1:
        pl = (u[:, iu] * v[:, ju] - u[:, ju] * v[:, iu]) % ctx.p
    else:
        # one column at a time, since the field's tables give int64
        pl = np.empty((len(ui), k), dtype=narrow.dtype)
        for c, (i, j) in enumerate(zip(iu, ju)):
            pl[:, c] = ctx.np_sub(ctx.np_mul(u[:, i], v[:, j]), ctx.np_mul(u[:, j], v[:, i]))
    order = np.argsort(_encode_rows(ctx.q, pl), kind="stable")
    plucker = pl[order].astype(np.int64)
    gens = np.stack([vi[order], ui[order]], axis=1).astype(np.int64, copy=False)
    plucker.setflags(write=False)
    ls = LineSet(qs, plucker, gens)
    qs._cache["lines"] = ls
    return ls


# ---- residue classes ----------------------------------------------------------


def _residue_stack(qs: QuadraticSpace, afs) -> np.ndarray:
    """Residue class codes (B, points) of a list of B forms on qs.

    Per block of points one product with [S_1^T ... S_B^T | S_1^T M^-1 ...
    S_B^T M^-1] gives sp = p S^T and x = sp M^-1 for every form.  x M = sp,
    so x M x^T = rowsum(sp * x) needs no second product.
    """
    ctx = qs.ctx
    pts = quadric_points(qs)
    st = _stack(qs, afs).transpose(0, 2, 1)
    nb, dim = len(st), qs.dim
    both = np.concatenate([st, ctx.np_matmul(st, qs.gram_inv)])
    w = both.transpose(1, 0, 2).reshape(dim, 2 * nb * dim)
    lead = (pts != 0).argmax(axis=1)
    out = np.empty((nb, len(pts)), dtype=np.int8)
    # the product, its int copy, sp * x and the masks
    for blk in _blocks(len(pts), 6 * nb * dim, 2 * nb * dim * dim):
        p = pts[blk]
        prod = ctx.np_matmul(p, w).reshape(len(p), 2, nb, dim)
        sp, x = prod[:, 0], prod[:, 1]
        a_mask = ~sp.any(axis=2)
        coef = x[np.arange(len(p)), :, lead[blk]]  # x at the point's leading 1
        b_mask = ~a_mask & (x == ctx.np_mul(coef[:, :, None], p[:, None, :])).all(axis=2)
        wprime = ctx.np_rowsum(ctx.np_mul(sp, x))
        plus = ctx.np_is_square(ctx.np_mul(np.int64(qs.disc_sign), wprime))
        out[:, blk] = np.select(
            [a_mask, b_mask, wprime == 0, plus],
            [RESIDUE_P_A, RESIDUE_P_B, RESIDUE_ZERO, RESIDUE_PLUS],
            RESIDUE_MINUS,
        ).T
    return out


def residue_classes(qs: QuadraticSpace, af: AlternatingForm) -> np.ndarray:
    """Residue class code for every singular point (see RESIDUE_NAMES)."""
    return _residue_stack(qs, [af])[0]


def _census(codes: np.ndarray) -> CensusRecord:
    """The census of a form's residue class codes: the fields of
    CensusRecord are the counts of the codes 0, ..., 4 in order."""
    return CensusRecord(*(int(c) for c in np.bincount(codes, minlength=5)))


def empirical_census(qs: QuadraticSpace, af: AlternatingForm) -> CensusRecord:
    """Count the residue classes by direct enumeration."""
    return _census(residue_classes(qs, af))


# ---- line census --------------------------------------------------------------


def _isotropic_stack(qs: QuadraticSpace, afs) -> np.ndarray:
    """Per form of a list of B forms on qs and per singular line: whether
    the form vanishes on it, packed eight lines to a byte (np.packbits),
    (B, ceil(lines / 8)).

    u^T S v = sum over (i, j) of (u_i v_j) S_ij, so per block of lines one
    product of the pair table u (x) v of the lines' generator pairs with the
    stacked vec(S) gives every value.
    """
    ctx = qs.ctx
    pts = quadric_points(qs)
    gens = enumerate_singular_lines(qs).gens
    nb, dim = len(afs), qs.dim
    vec = _stack(qs, afs).reshape(nb, dim * dim).T
    out = np.empty((nb, len(gens)), dtype=bool)
    # the pair table, its float copy and a temporary, the product and its int copy
    for blk in _blocks(len(gens), 3 * dim * dim + 2 * nb, dim * dim * nb):
        u, v = pts[gens[blk, 0]], pts[gens[blk, 1]]
        pairs = ctx.np_mul(u[:, :, None], v[:, None, :]).reshape(len(u), dim * dim)
        out[:, blk] = (ctx.np_matmul(pairs, vec) == 0).T
    return np.packbits(out, axis=1)


def _mask(qs: QuadraticSpace, packed: np.ndarray) -> np.ndarray:
    """Per singular line, from a form's packed row of _isotropic_stack:
    whether the form vanishes on it."""
    return np.unpackbits(packed, count=len(enumerate_singular_lines(qs))).view(bool)


def isotropic_line_count(qs: QuadraticSpace, af: AlternatingForm) -> int:
    """Number of totally singular lines on which the form vanishes."""
    return int(_mask(qs, _isotropic_stack(qs, [af])[0]).sum())


def _tau(qs: QuadraticSpace, mask: np.ndarray) -> np.ndarray:
    """Per singular point: how many of the lines in mask pass through it."""
    mem = enumerate_singular_lines(qs).members()
    return np.bincount(mem[mask].ravel(), minlength=len(quadric_points(qs))).astype(np.int64)


def tau_values(qs: QuadraticSpace, af: AlternatingForm) -> np.ndarray:
    """Per singular point: number of singular lines through it that the form
    kills entirely."""
    return _tau(qs, _mask(qs, _isotropic_stack(qs, [af])[0]))


def line_type_codes(qs: QuadraticSpace, af: AlternatingForm) -> np.ndarray:
    """Type code per line from the residue classes of its points."""
    return _line_types(qs, residue_classes(qs, af))


def _line_types(qs: QuadraticSpace, codes: np.ndarray) -> np.ndarray:
    """Type code per line from a form's residue class codes."""
    q = qs.ctx.q
    ls = enumerate_singular_lines(qs)
    mem_cls = codes[ls.members()]
    n_plus = (mem_cls == RESIDUE_PLUS).sum(axis=1)
    n_minus = (mem_cls == RESIDUE_MINUS).sum(axis=1)
    n_w = mem_cls.shape[1] - n_plus - n_minus
    out = np.full(len(ls), -1, dtype=np.int8)
    patterns = {
        LINE_T0: (0, q + 1, 0),
        LINE_TPLUS: (q, 1, 0),
        LINE_TALPHA: ((q + 1) // 2, 0, (q + 1) // 2),
        LINE_TBETA: ((q - 1) // 2, 2, (q - 1) // 2),
        LINE_TMINUS: (0, 1, q),
    }
    for code, (cp, cw, cm) in patterns.items():
        out[(n_plus == cp) & (n_w == cw) & (n_minus == cm)] = code
    if (out < 0).any():
        bad = int(np.flatnonzero(out < 0)[0])
        raise TypeNotInTable(
            f"line {bad} has pattern (n+, nW, n-) = "
            f"({int(n_plus[bad])}, {int(n_w[bad])}, {int(n_minus[bad])})"
        )
    return out


def _type_census(types: np.ndarray) -> dict[str, int]:
    """Number of lines of each type, from the type code per line."""
    return dict(zip(LINE_TYPE_NAMES, (int(c) for c in np.bincount(types, minlength=5))))
