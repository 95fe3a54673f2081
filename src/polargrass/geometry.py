"""Singular points and totally singular lines of the parabolic quadric.

Points are canonical projective representatives (first nonzero coordinate 1)
in ascending lexicographic order.  Each line is found once, from its
reduced-row-echelon generator pair of points, so its wedge coordinates
(entries x_i y_j - x_j y_i over index pairs i < j) already have a leading 1
and no dedup step is needed.  Lines are stored by those coordinates in
ascending lexicographic order, together with the generator pair and the ids
of their q+1 member points.

While a run_checks call is in progress, the residue classes and the
isotropic-line mask of each (space, form) pair are computed once and shared
by every function here that reads them; outside one they are computed
afresh on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotOnQuadric,
    TypeNotInTable,
    ZeroVector,
)
from .forms import AlternatingForm, QuadraticSpace, check_memory, projective_points

PAIR_BLOCK_ENTRIES = 1 << 20  # point pairs in one product block of enumerate_singular_lines

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

_run_memo: dict | None = None  # shared results of the run_checks call in progress


def _per_form(kind: str, fn, qs: QuadraticSpace, af: AlternatingForm):
    """fn(qs, af), computed once per (space, form) while a run_checks call
    is in progress and afresh otherwise."""
    if _run_memo is None:
        return fn(qs, af)
    key = kind, id(qs), id(af)
    if key not in _run_memo:
        # the entry holds qs and af, so no other object can take their ids
        _run_memo[key] = fn(qs, af), qs, af
    return _run_memo[key][0]


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
        vals = qs.ctx.np_quad_eval(qs.gram_np(), pts)
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


def _point_keys(qs: QuadraticSpace) -> np.ndarray:
    if "point_keys" not in qs._cache:
        qs._cache["point_keys"] = _encode_rows(qs.ctx.q, quadric_points(qs))
    return qs._cache["point_keys"]


def point_id(qs: QuadraticSpace, v) -> int:
    """Index of a singular point among the canonical representatives."""
    ctx = qs.ctx
    arr = np.array([[ctx.validate_element(x) for x in v]], dtype=np.int64)
    if not arr.any():
        raise ZeroVector("zero vector is not a point")
    if len(arr[0]) != qs.dim:
        raise DimensionMismatch(f"point must have {qs.dim} coordinates")
    arr = ctx.np_normalize_rows(arr)
    key = _encode_rows(ctx.q, arr)[0]
    keys = _point_keys(qs)
    pos = int(np.searchsorted(keys, key))
    if pos >= len(keys) or keys[pos] != key:
        raise NotOnQuadric("point is not singular")
    return pos


def _ids_for_rows(qs: QuadraticSpace, rows: np.ndarray) -> np.ndarray:
    keys = _encode_rows(qs.ctx.q, rows)
    table = _point_keys(qs)
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
        self._through: tuple[np.ndarray, np.ndarray] | None = None

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

    def through(self, pid: int) -> np.ndarray:
        """Ids of the lines containing the given point."""
        if self._through is None:
            mem = self.members()
            flat_pts = mem.ravel()
            flat_lines = np.repeat(
                np.arange(len(mem), dtype=np.int64), mem.shape[1]
            )
            order = np.argsort(flat_pts, kind="stable")
            sorted_pts = flat_pts[order]
            starts = np.searchsorted(
                sorted_pts, np.arange(len(quadric_points(self.qs)) + 1)
            )
            self._through = (flat_lines[order], starts)
        lines, starts = self._through
        return lines[starts[pid] : starts[pid + 1]]


def singular_line_count(n: int, q: int) -> int:
    """Number of totally singular lines of the parabolic quadric Q(2n, q)."""
    return (q ** (2 * n - 2) - 1) * (q ** (2 * n) - 1) // ((q**2 - 1) * (q - 1))


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
    # three int64 copies of a product block, then per line: four N x K
    # wedge products, both points of the pair and their ids twice
    check_memory(
        24 * PAIR_BLOCK_ENTRIES + 8 * singular_line_count(qs.n, ctx.q) * (4 * k + 2 * qs.dim + 4),
        f"the singular lines of Q({2 * qs.n}, {ctx.q})",
    )
    pts = quadric_points(qs)
    lead = (pts != 0).argmax(axis=1)
    pm = ctx.np_matmul(pts, qs.gram_np())
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

    iu, ju = np.triu_indices(qs.dim, 1)
    u = pts[ui]
    v = pts[vi]
    if ctx.e == 1:
        pl = (u[:, iu] * v[:, ju] - u[:, ju] * v[:, iu]) % ctx.p
    else:
        pl = ctx.np_sub(
            ctx.np_mul(u[:, iu], v[:, ju]), ctx.np_mul(u[:, ju], v[:, iu])
        )
    order = np.argsort(_encode_rows(ctx.q, pl), kind="stable")
    plucker = pl[order]
    gens = np.stack([vi[order], ui[order]], axis=1).astype(np.int64)
    plucker.setflags(write=False)
    ls = LineSet(qs, plucker, gens)
    qs._cache["lines"] = ls
    return ls


def lines_through(qs: QuadraticSpace, v) -> np.ndarray:
    """Line ids through a singular point given by coordinates or id."""
    pid = v if isinstance(v, (int, np.integer)) else point_id(qs, v)
    return enumerate_singular_lines(qs).through(int(pid))


# ---- residue classes ----------------------------------------------------------


def residue_classes(qs: QuadraticSpace, af: AlternatingForm) -> np.ndarray:
    """Residue class code for every singular point (see RESIDUE_NAMES)."""
    if af.dim != qs.dim:
        raise DimensionMismatch("form and space dimensions differ")
    ctx = qs.ctx
    pts = quadric_points(qs)
    sp = ctx.np_matmul(pts, af.s_np().T)
    a_mask = ~sp.any(axis=1)
    x = ctx.np_matmul(sp, qs.gram_inv_np())
    lead = (pts != 0).argmax(axis=1)
    coef = x[np.arange(len(pts)), lead]
    b_mask = ~a_mask & (x == ctx.np_mul(coef[:, None], pts)).all(axis=1)
    wprime = ctx.np_quad_eval(qs.gram_np(), x)
    rest = ~a_mask & ~b_mask
    zero_mask = rest & (wprime == 0)
    plus_mask = (
        rest
        & (wprime != 0)
        & ctx.np_is_square(ctx.np_mul(np.int64(qs.disc_sign), wprime))
    )
    out = np.full(len(pts), RESIDUE_MINUS, dtype=np.int8)
    out[a_mask] = RESIDUE_P_A
    out[b_mask] = RESIDUE_P_B
    out[zero_mask] = RESIDUE_ZERO
    out[plus_mask] = RESIDUE_PLUS
    return out


def residue_class(qs: QuadraticSpace, af: AlternatingForm, v) -> str:
    """Residue class name of one singular point."""
    pid = point_id(qs, v)
    codes = _per_form("residue", residue_classes, qs, af)
    return RESIDUE_NAMES[codes[pid]]


def empirical_census(qs: QuadraticSpace, af: AlternatingForm) -> CensusRecord:
    """Count the residue classes by direct enumeration."""
    codes = _per_form("residue", residue_classes, qs, af)
    counts = np.bincount(codes, minlength=5)
    return CensusRecord(
        a_radical=int(counts[RESIDUE_P_A]),
        a_eigen=int(counts[RESIDUE_P_B]),
        n_zero=int(counts[RESIDUE_ZERO]),
        n_plus=int(counts[RESIDUE_PLUS]),
        n_minus=int(counts[RESIDUE_MINUS]),
    )


# ---- line census --------------------------------------------------------------


def _isotropic_mask(qs: QuadraticSpace, af: AlternatingForm) -> np.ndarray:
    """Per singular line: whether the form vanishes on it."""
    ctx = qs.ctx
    pts = quadric_points(qs)
    ls = enumerate_singular_lines(qs)
    u = pts[ls.gens[:, 0]]
    v = pts[ls.gens[:, 1]]
    vals = ctx.np_rowsum(ctx.np_mul(ctx.np_matmul(u, af.s_np()), v))
    return vals == 0


def isotropic_line_count(qs: QuadraticSpace, af: AlternatingForm) -> int:
    """Number of totally singular lines on which the form vanishes."""
    return int(_per_form("isotropic", _isotropic_mask, qs, af).sum())


def tau_values(qs: QuadraticSpace, af: AlternatingForm) -> np.ndarray:
    """Per singular point: number of singular lines through it that the form
    kills entirely."""
    iso = _per_form("isotropic", _isotropic_mask, qs, af)
    mem = enumerate_singular_lines(qs).members()
    out = np.bincount(mem[iso].ravel(), minlength=len(quadric_points(qs)))
    return out.astype(np.int64)


def tau(qs: QuadraticSpace, af: AlternatingForm, v) -> int:
    pid = v if isinstance(v, (int, np.integer)) else point_id(qs, v)
    return int(tau_values(qs, af)[int(pid)])


def line_type_codes(qs: QuadraticSpace, af: AlternatingForm) -> np.ndarray:
    """Type code per line from the residue classes of its points."""
    q = qs.ctx.q
    ls = enumerate_singular_lines(qs)
    mem_cls = _per_form("residue", residue_classes, qs, af)[ls.members()]
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


def line_type(qs: QuadraticSpace, af: AlternatingForm, line_id: int) -> str:
    return LINE_TYPE_NAMES[line_type_codes(qs, af)[line_id]]


def line_type_census(qs: QuadraticSpace, af: AlternatingForm) -> dict[str, int]:
    codes = line_type_codes(qs, af)
    counts = np.bincount(codes, minlength=5)
    return {LINE_TYPE_NAMES[i]: int(counts[i]) for i in range(5)}


def export_line_list(qs: QuadraticSpace) -> str:
    """Readable dump: one 'id : wedge coordinates' row per line."""
    ls = enumerate_singular_lines(qs)
    rows = [
        f"{i} : " + " ".join(str(int(x)) for x in ls.plucker[i])
        for i in range(len(ls))
    ]
    return "\n".join(rows) + "\n"
