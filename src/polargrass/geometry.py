"""Singular points and totally singular lines of the parabolic quadric.

Points are canonical projective representatives (first nonzero coordinate 1)
in ascending lexicographic order.  Every point count walks one blocked
pass, _point_values, which evaluates Q on PG(dim-1, q) block by block: the
singular points keep each block's zeros and cache the histogram of Q's
values, which orbit_counts reads, and the even sections and equation
counts of counting read their own histograms (_value_histogram), so no
whole projective space is built.  Each line is found once, from its
reduced-row-echelon generator pair of points, so its wedge coordinates
(entries x_i y_j - x_j y_i over index pairs i < j) already have a leading 1
and no dedup step is needed.  Lines are stored by those coordinates in
ascending lexicographic order, together with the generator pair and the ids
of their q+1 member points.

The one codeword kernel, _codewords, evaluates a batch of messages on the
lines' Plücker rows, one product per block of lines: the code's codewords
and weights and the isotropic-line masks run through it.  The exhaustive
scan (code.min_distance_exact) is the one exception: it multiplies its
high parts against its own reordered generator rows.

The per-form data of verify come from stacked kernels, each one pass per
block of points or lines over all the forms on one space: the residue
classes (_residue_stack, two products per block of points, x = p S^T M^-1
and w' = p T p^T from the points' pair table), the isotropic-line masks
(_isotropic_stack, the zero sets of the forms' codewords), the tau values
(_tau_stack, over the forms' masks), the censuses (_census_stack, over
their residue rows) and the line-type censuses (_line_type_stack, the
type codes of the key sums of the lines' points, over their residue rows).
A single-form function is the same kernels called on a stack of one form;
counting's form table calls them on all forms of a space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NotOnQuadric, TypeNotInTable
from .field import FieldCtx
from .forms import AlternatingForm, QuadraticSpace, _stack, check_memory, projective_block

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


def _block_rows(per_row: int, madds: int = 1) -> int:
    """The rows (points, lines, forms or high parts) of a block of a kernel
    whose arrays hold at most a sixteenth of PAIR_BLOCK_ENTRIES entries
    (512 KiB of 8-byte entries) when one row needs per_row, and whose BLAS
    product takes at most BLAS_MADDS multiply-adds when one row takes
    madds; one at least.

    A product above BLAS_MADDS wakes OpenBLAS's other threads, and on a
    busy 2-vCPU host that wait took a scheduler tick (8 ms) per product.
    """
    return max(1, min((PAIR_BLOCK_ENTRIES >> 4) // max(1, per_row), BLAS_MADDS // max(1, madds)))


def _blocks(rows: int, per_row: int, madds: int = 1) -> list[slice]:
    """The blocks of _block_rows rows that cover rows rows."""
    step = _block_rows(per_row, madds)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


@lru_cache(maxsize=None)
def _pair_index(dim: int, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate pairs i < j in lex order, the columns of a Plücker
    row and the entries of a message; with k = 0 the pairs i <= j, the
    columns of a pair table."""
    iu, ju = np.triu_indices(dim, k)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


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


def _point_values(ctx: FieldCtx, gram: np.ndarray, lo: int = 0):
    """Per block of PG(dim-1, q), dim the size of gram, from point lo on in
    the order of projective_points: (points, values), the block's points
    and Q(p) = p M p^T on each.  A row holds about six int64 copies of its dim
    coordinates (the digits, the float operand, the product and its int
    copy, the row products) and takes dim^2 multiply-adds."""
    q, dim = ctx.q, len(gram)
    count, step = (q**dim - 1) // (q - 1), _block_rows(6 * dim, dim * dim)
    for start in range(lo, count, step):
        pts = projective_block(q, dim, start, min(start + step, count))
        yield pts, ctx.np_quad_eval(gram, pts)


def _value_histogram(ctx: FieldCtx, gram: np.ndarray, lo: int = 0, kept: list | None = None) -> np.ndarray:
    """How many points of PG(dim-1, q) from point lo on take each value of
    Q, (q,), from one pass of _point_values; each block's singular points
    are appended to kept if it is given."""
    hist = np.zeros(ctx.q, dtype=np.int64)
    for pts, vals in _point_values(ctx, gram, lo):
        hist += np.bincount(vals, minlength=ctx.q)
        if kept is not None:
            kept.append(pts[vals == 0])
    return hist


def _square_classes(ctx: FieldCtx, hist: np.ndarray, scale: int = 1) -> tuple[int, int]:
    """(squares, nonsquares): how many of the points with a nonzero value
    in a value histogram have scale times that value a square, and how many
    do not."""
    sq = ctx.np_is_square(ctx.np_mul(np.int64(scale), np.arange(1, ctx.q)))
    return int(hist[1:][sq].sum()), int(hist[1:][~sq].sum())


def quadric_point_bytes(n: int, q: int) -> float:
    """Peak bytes quadric_points allocates for Q(2n, q): its (q^(2n) -
    1)/(q - 1) int64 points of dimension 2n+1 twice, the pieces kept per
    block of the pass and their concatenation, plus one block (512 KiB, see
    _block_rows) and 256 bytes per block for its piece's array object.  The
    count exceeds q^(2n-1), so past 2^100 it is inf, with no big-int power.
    """
    if (2 * n - 1) * math.log2(q) > 100:
        return math.inf
    dim, count = 2 * n + 1, (q ** (2 * n + 1) - 1) // (q - 1)
    blocks = -(-count // _block_rows(6 * dim, dim * dim))
    return 16 * dim * ((q ** (2 * n) - 1) // (q - 1)) + 8 * (PAIR_BLOCK_ENTRIES >> 4) + 256 * blocks


def _admit_points(n: int, q: int) -> None:
    """Raise TooLarge unless the singular points of Q(2n, q) fit."""
    check_memory(quadric_point_bytes(n, q), f"the points of PG({2 * n}, {q})")


def quadric_points(qs: QuadraticSpace) -> np.ndarray:
    """Singular points, canonical representatives in ascending lex order,
    kept per block of one pass over PG(2n, q) (_point_values), which also
    caches the histogram of Q's values that orbit_counts reads."""
    if "points" not in qs._cache:
        _admit_points(qs.n, qs.ctx.q)
        kept: list = []
        hist = _value_histogram(qs.ctx, qs.gram, kept=kept)
        sel = np.concatenate(kept)
        sel.setflags(write=False)
        qs._cache["values"] = hist
        qs._cache["points"] = sel
    return qs._cache["points"]


def orbit_counts(qs: QuadraticSpace) -> dict[str, int]:
    """Point census of PG(2n, q) under the form: singular/internal/external
    (v is external when disc_sign Q(v) is a nonzero square) plus the square
    classes of the nonzero values, off the histogram of quadric_points."""
    quadric_points(qs)
    hist = qs._cache["values"]
    external, internal = _square_classes(qs.ctx, hist, qs.disc_sign)
    square, nonsquare = _square_classes(qs.ctx, hist)
    return {"singular": int(hist[0]), "internal": internal, "external": external,
            "eta_square": square, "eta_nonsquare": nonsquare}


def _encode_rows(q: int, rows: np.ndarray) -> np.ndarray:
    """Base-q integer key per row, monotone with respect to lex order."""
    width = rows.shape[1]
    if q**width >= 2**62:
        raise DimensionMismatch("row too wide for integer keys")
    key = np.zeros(len(rows), dtype=np.int64)
    for k in range(width):
        key = key * q + rows[:, k]
    return key


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """The stable lex-order argsort of rows of field elements of any width:
    a row's big-endian 2-byte words (q < 2^16) compare as the row does."""
    words = np.ascontiguousarray(rows, dtype=">u2")
    return np.argsort(words.view(np.dtype((np.void, words.shape[1] * 2))).ravel(), kind="stable")


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
        self._through: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.plucker)

    def members(self) -> np.ndarray:
        """(N, q+1) sorted point ids on each line."""
        if self._members is None:
            qs, ctx = self.qs, self.qs.ctx
            narrow = quadric_points(qs).astype(_wedge_dtype(ctx.q))
            v = narrow[self.gens[:, 0]]
            u = narrow[self.gens[:, 1]]
            # u + lam v keeps the leading 1 of u, so it is already canonical
            cols = [_ids_for_rows(qs, ctx.np_add(u, ctx.np_mul(lam, v))) for lam in range(ctx.q)]
            mem = np.stack([self.gens[:, 0]] + cols, axis=1)
            mem.sort(axis=1)
            self._members = mem
        return self._members

    def through(self) -> np.ndarray:
        """(points, lines per point) ids of the lines through each singular
        point, ascending, from one stable argsort of members(): every point
        lies on the same number of lines.  The sort reads the point ids, and
        the table holds the line ids, in the narrowest dtype that holds
        them."""
        if self._through is None:
            mem = self.members()
            npts = len(quadric_points(self.qs))
            order = np.argsort(mem.ravel().astype(np.min_scalar_type(npts)), kind="stable")
            order //= mem.shape[1]
            self._through = order.astype(np.min_scalar_type(len(mem))).reshape(npts, len(order) // npts)
        return self._through


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
    entries, with two int64 ids per line (the pairs found so far, in
    pieces).  Sorting, per line: the wedge row in the narrow dtype and its
    sorted copy, the int64 plucker row and three int64 ids (the pair's ids
    and the sort order), plus 64 KiB for the small arrays and objects alive
    beside them (under 4 KiB at (3,5) and (4,3)); the pieces of the ids,
    the pairing's point tables and both points of each pair are freed
    before it.  N is at least q^(4n-5), so past 2^100 it is inf and a huge
    n costs no big-integer power.
    """
    if (4 * n - 5) * math.log2(q) > 100:
        return math.inf
    nn, dim = singular_line_count(n, q), 2 * n + 1
    k, w = dim * (dim - 1) // 2, np.dtype(_wedge_dtype(q)).itemsize
    return max(24 * PAIR_BLOCK_ENTRIES + 16 * nn, nn * (2 * k * w + 8 * k + 24) + (1 << 16))


def _singular_pairs(qs: QuadraticSpace, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ids (u, v) of the reduced-row-echelon pairs of singular points
    that span totally singular lines (see enumerate_singular_lines).  For
    each lead b, products of the points v with lead b against the points u
    with lead < b and u[b] = 0 (converted once, np_operand), in blocks of
    at most PAIR_BLOCK_ENTRIES product entries, find them; the products
    and point tables are freed on return.

    These blocks are not _blocks': with its sixteenth of the entries and
    its cap on multiply-adds, `build --q 3 --n 4` took 0.38 s instead of
    0.33 s in process (medians of 10 alternating runs, 2-vCPU host)."""
    ctx = qs.ctx
    lead = (pts != 0).argmax(axis=1)
    pm = ctx.np_matmul(pts, qs.gram)
    u_ids: list[np.ndarray] = []
    v_ids: list[np.ndarray] = []
    for b in range(1, qs.dim):
        vs = np.flatnonzero(lead == b)
        us = np.flatnonzero((lead < b) & (pts[:, b] == 0))
        ut = ctx.np_operand(pts[us].T)
        step = max(1, PAIR_BLOCK_ENTRIES // max(1, ut.shape[1]))
        for lo in range(0, len(vs), step):
            block = vs[lo : lo + step]
            row, col = np.nonzero(ctx.np_matmul(pm[block], ut) == 0)
            v_ids.append(block[row])
            u_ids.append(us[col])
    ui = np.concatenate(u_ids)
    del u_ids
    return ui, np.concatenate(v_ids)


def enumerate_singular_lines(qs: QuadraticSpace) -> LineSet:
    """All totally singular lines, each found once, in lex order.

    Every line has one reduced-row-echelon pair of points (u, v): lead(v) >
    lead(u) and u[lead(v)] = 0.  Both are singular, so the line is totally
    singular exactly when B(u, v) = 0, which _singular_pairs tests.  The
    wedge row of a pair has a leading 1 at (lead u, lead v), so it needs no
    scaling and no dedup.
    """
    if "lines" in qs._cache:
        return qs._cache["lines"]
    ctx = qs.ctx
    k = qs.dim * (qs.dim - 1) // 2
    check_memory(line_bytes(qs.n, ctx.q), f"the singular lines of Q({2 * qs.n}, {ctx.q})")
    pts = quadric_points(qs)
    ui, vi = _singular_pairs(qs, pts)

    # the wedge in the narrow dtype, so the sorted plucker is the only N x K
    # int64 array
    iu, ju = _pair_index(qs.dim)
    narrow = pts.astype(_wedge_dtype(ctx.q))
    u = narrow[ui]
    v = narrow[vi]
    # one column at a time, since an extension field's tables give int64
    pl = np.empty((len(ui), k), dtype=narrow.dtype)
    for c, (i, j) in enumerate(zip(iu, ju)):
        pl[:, c] = ctx.np_sub(ctx.np_mul(u[:, i], v[:, j]), ctx.np_mul(u[:, j], v[:, i]))
    del narrow, u, v
    order = _lex_order(pl)
    plucker = pl[order].astype(np.int64)
    del pl
    gens = np.stack([vi[order], ui[order]], axis=1).astype(np.int64, copy=False)
    plucker.setflags(write=False)
    ls = LineSet(qs, plucker, gens)
    qs._cache["lines"] = ls
    return ls


# ---- residue classes ----------------------------------------------------------


def _residue_blocks(qs: QuadraticSpace, afs):
    """Per block of points in order, (block, p, x, w'): the block's points
    p (int32), x = p S^T M^-1 as (points, dim, B) and w' = x M x^T as
    (points, B), for a list of B forms on qs.

    Each block takes two products for all the forms.  x comes from the
    stacked S^T M^-1, over dim B columns.  w' = p T p^T with T = S^T M^-1
    S, which is symmetric, so w' comes from the block's pair table (p_i
    p_j over i <= j, dim(dim+1)/2 columns) times the coefficients of every
    T (T_ii, and 2 T_ij off the diagonal), computed once per call.  The
    pair table is built per block, never for all points.  Per point a
    block holds, on the converted operands (np_operand), the x product,
    its int copy and c p, the pair table, its product and its int copy.
    """
    ctx = qs.ctx
    s = _stack(qs, afs)
    nb, dim = len(s), qs.dim
    smi = ctx.np_matmul(s.transpose(0, 2, 1), qs.gram_inv)  # S^T M^-1
    iu, ju = _pair_index(dim, 0)
    t = ctx.np_matmul(smi, s)[:, iu, ju]
    w_x = ctx.np_operand(smi.transpose(1, 2, 0).reshape(dim, dim * nb))
    w_t = ctx.np_operand(np.where(iu == ju, t, ctx.np_add(t, t)).T)
    narrow = quadric_points(qs).astype(np.int32)  # so that c p stays in x's int32 over a prime field
    for blk in _blocks(len(narrow), 3 * w_x.shape[1] + w_t.shape[0] + 2 * w_t.shape[1], w_x.size):
        p = narrow[blk]
        x = ctx.np_matmul(p, w_x).reshape(len(p), dim, nb)
        yield blk, p, x, ctx.np_matmul(ctx.np_mul(p[:, iu], p[:, ju]), w_t)


def _residue_stack(qs: QuadraticSpace, afs) -> np.ndarray:
    """Residue class codes (B, points) of a list of B forms on qs, from
    the blocks of _residue_blocks.

    A point is in P_A or P_B exactly when x = c p, where c is x at the
    point's leading 1.  As M is invertible, x = 0 exactly when p S^T = 0,
    so c = 0 puts the point in P_A and c != 0 in P_B.  Both classes have
    w' = 0: x is 0 on P_A and c p on P_B, where p M p^T = 0 as p is
    singular.  Every other point's class is read off w'.
    """
    ctx = qs.ctx
    values = np.arange(ctx.q)
    by_value = np.where(
        ctx.np_is_square(ctx.np_mul(np.int64(qs.disc_sign), values)), RESIDUE_PLUS, RESIDUE_MINUS
    ).astype(np.int8)
    by_value[0] = RESIDUE_ZERO
    out = np.empty((len(afs), len(quadric_points(qs))), dtype=np.int8)
    for blk, p, x, wprime in _residue_blocks(qs, afs):
        c = x[np.arange(len(p)), (p != 0).argmax(axis=1)]  # (points, B)
        on_p = (x == ctx.np_mul(c[:, None, :], p[:, :, None])).all(axis=1)
        # on P_A and P_B the code is c != 0: RESIDUE_P_A is 0, RESIDUE_P_B 1
        out[:, blk] = np.where(on_p, c != 0, by_value.take(wprime)).T
    return out


def residue_classes(qs: QuadraticSpace, af: AlternatingForm) -> np.ndarray:
    """Residue class code for every singular point (see RESIDUE_NAMES)."""
    return _residue_stack(qs, [af])[0]


def _census_stack(codes: np.ndarray) -> np.ndarray:
    """The censuses (B, 5) of a (B, points) stack of residue rows, from one
    bincount: the fields of CensusRecord are the counts of the codes 0,
    ..., 4 in order."""
    nb, width = len(codes), len(RESIDUE_NAMES)
    return np.bincount((codes + width * np.arange(nb)[:, None]).ravel(), minlength=nb * width).reshape(nb, width)


def empirical_census(qs: QuadraticSpace, af: AlternatingForm) -> CensusRecord:
    """Count the residue classes by direct enumeration."""
    return CensusRecord(*_census_stack(residue_classes(qs, af)[None])[0].tolist())


# ---- line census --------------------------------------------------------------


def _codewords(ctx: FieldCtx, rows: np.ndarray, messages: np.ndarray):
    """The codeword values of a (B, K) batch of messages on the (N, K)
    rows of a generator (the Plücker rows of the lines), per block of
    rows: yields (block, values), values the (rows in block, B) product
    of those rows with the messages.

    The messages are converted to the product's operand once per call,
    (K', B') = (K, B) e over F_{p^e}.  Blocks are sized as in every
    stacked kernel: one row holds its K' digits in float64, the product
    and its int copy (K' + 2B'), and takes K' B' multiply-adds.
    """
    operand = ctx.np_operand(messages.T)
    k, nb = operand.shape
    for blk in _blocks(len(rows), k + 2 * nb, operand.size):
        yield blk, ctx.np_matmul(rows[blk], operand)


def _isotropic_stack(qs: QuadraticSpace, afs) -> np.ndarray:
    """Per singular line and per form of a list of B forms on qs: whether
    the form vanishes on the line, packed eight forms to a byte
    (np.packbits), (lines, ceil(B / 8)); row l holds line l's bit of every
    form.

    u^T S v = sum over i < j of S_ij (u_i v_j - u_j v_i), so the values
    on the lines are the codeword (_codewords) of the form's message, the
    strict upper triangle of S: the mask is its zero set.
    """
    iu, ju = _pair_index(qs.dim)
    messages = _stack(qs, afs)[:, iu, ju]
    plucker = enumerate_singular_lines(qs).plucker
    out = np.empty((len(plucker), -(-len(afs) // 8)), dtype=np.uint8)
    for blk, vals in _codewords(qs.ctx, plucker, messages):
        out[blk] = np.packbits(vals == 0, axis=1)
    return out


def isotropic_line_count(qs: QuadraticSpace, af: AlternatingForm) -> int:
    """Number of totally singular lines on which the form vanishes: the
    nonzero bytes of its one-form table of _isotropic_stack."""
    return int(np.count_nonzero(_isotropic_stack(qs, [af])))


def _tau_stack(qs: QuadraticSpace, masks: np.ndarray, nb: int) -> np.ndarray:
    """Per form of a table of _isotropic_stack over nb forms and per
    singular point: how many of the lines the form vanishes on pass through
    the point, (nb, points).

    Per block of points, each column of LineSet.through gathers the rows
    of one line through every point of the block, whose unpacked (points,
    nb) bits are summed in the narrowest unsigned dtype that holds the
    lines through a point, (q^(2n-2) - 1)/(q - 1).  A gathered row serves
    all nb forms, so the Python steps do not grow with nb.
    """
    through = enumerate_singular_lines(qs).through()
    npts, per_point = through.shape
    dtype = np.min_scalar_type(per_point)
    out = np.empty((nb, npts), dtype=dtype)
    # per point: the sum, a gathered row and its unpacked bits
    for blk in _blocks(npts, -(-(nb * (1 + dtype.itemsize) + masks.shape[1]) // 8)):
        lines = through[blk]
        total = np.zeros((len(lines), nb), dtype=dtype)
        for col in lines.T:
            total += np.unpackbits(masks[col], axis=1, count=nb)
        out[:, blk] = total.T
    return out


def tau_values(qs: QuadraticSpace, af: AlternatingForm) -> np.ndarray:
    """Per singular point: number of singular lines through it that the form
    kills entirely."""
    return _tau_stack(qs, _isotropic_stack(qs, [af]), 1)[0].astype(np.int64)


def _type_table(q: int) -> np.ndarray:
    """The type code of each key sum below (q+2)^2 (see _line_type_blocks),
    int8: the key sum (q+2) n_plus + n_minus of each type's pattern
    (n_plus, n_W, n_minus) maps to its code (see LINE_TYPE_NAMES), and
    every other sum to len(LINE_TYPE_NAMES), a pattern of no type."""
    patterns = {
        LINE_T0: (0, q + 1, 0),
        LINE_TPLUS: (q, 1, 0),
        LINE_TALPHA: ((q + 1) // 2, 0, (q + 1) // 2),
        LINE_TBETA: ((q - 1) // 2, 2, (q - 1) // 2),
        LINE_TMINUS: (0, 1, q),
    }
    table = np.full((q + 2) ** 2, len(LINE_TYPE_NAMES), dtype=np.int8)
    for code, (n_plus, _, n_minus) in patterns.items():
        table[(q + 2) * n_plus + n_minus] = code
    return table


def _line_type_blocks(qs: QuadraticSpace, codes: np.ndarray):
    """Per block of lines in order, (block, sums): the (lines, B) key sums
    of a (B, points) stack of residue rows.

    Each point gets a key, q+2 for a plus point, 1 for a minus point and 0
    otherwise, so the key sum of a line's q+1 points is (q+2) n_plus +
    n_minus.  As n_plus + n_minus <= q+1, the sum fixes the pattern
    (n_plus, n_W, n_minus) and lies below (q+2)^2, in the narrowest dtype
    that holds it.
    """
    q = qs.ctx.q
    key = np.zeros(len(RESIDUE_NAMES), dtype=np.min_scalar_type((q + 2) ** 2))
    key[RESIDUE_PLUS], key[RESIDUE_MINUS] = q + 2, 1
    keys = key[codes.T]  # (points, B): a member id gathers one row
    mem = enumerate_singular_lines(qs).members()
    # the key sum and a gathered column, and the offset type codes the
    # bincount reads
    for blk in _blocks(len(mem), 3 * len(codes)):
        cols = mem[blk]
        total = keys[cols[:, 0]]
        for c in range(1, q + 1):
            total += keys[cols[:, c]]
        yield blk, total


def _no_type(q: int, blk: slice, total: np.ndarray, types: np.ndarray):
    """Raise TypeNotInTable for a block of key sums of _line_type_blocks
    whose type codes (_type_table) hold a line of no type, naming the first
    form with such a line there and that form's first such line."""
    bad = types == len(LINE_TYPE_NAMES)
    form = int(bad.any(axis=0).argmax())
    line = int(bad[:, form].argmax())
    n_plus, n_minus = divmod(int(total[line, form]), q + 2)
    raise TypeNotInTable(
        f"line {blk.start + line} has pattern (n+, nW, n-) = ({n_plus}, {q + 1 - n_plus - n_minus}, {n_minus})"
    )


def _line_type_stack(qs: QuadraticSpace, codes: np.ndarray) -> np.ndarray:
    """Line-type census (B, 5) of a (B, points) stack of residue rows: per
    form, the number of lines of each type (see LINE_TYPE_NAMES).

    Per block of lines, the key sums are looked up in _type_table, and one
    bincount counts the six codes of every form, form b's offset by 6 b.
    A block whose sixth column, the lines of no type, is not zero raises
    TypeNotInTable there (see _no_type), so the first block that holds
    such a line is the one named; the other five columns are added to the
    census.
    """
    nb, width = len(codes), len(LINE_TYPE_NAMES) + 1
    table = _type_table(qs.ctx.q)
    offsets = width * np.arange(nb)
    census = np.zeros((nb, width - 1), dtype=np.int64)
    for blk, total in _line_type_blocks(qs, codes):
        types = table.take(total)
        counts = np.bincount((types + offsets).ravel(), minlength=nb * width).reshape(nb, width)
        if counts[:, -1].any():
            _no_type(qs.ctx.q, blk, total, types)
        census += counts[:, :-1]
    return census


def line_type_codes(qs: QuadraticSpace, af: AlternatingForm) -> np.ndarray:
    """Type code per line from the residue classes of its points."""
    table = _type_table(qs.ctx.q)
    out = []
    for blk, total in _line_type_blocks(qs, residue_classes(qs, af)[None]):
        types = table.take(total)
        if (types == len(LINE_TYPE_NAMES)).any():
            _no_type(qs.ctx.q, blk, total, types)
        out.append(types[:, 0])
    return np.concatenate(out)
