"""Quadratic and alternating forms on an odd-dimensional space over F_q.

The ambient space has dimension 2n+1 and carries a nondegenerate symmetric
Gram matrix M.  Alternating forms S are classified by the dimension r of
their radical R = ker S and the defect d = dim of the radical of the
M-restriction to R.  For each admissible (r, d) there are up to four block
shapes (case 1..4) with basis-adapted canonical matrices; build_M and build_S
construct those, and the classification helpers work for arbitrary forms.
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    DimensionMismatch,
    InadmissibleParams,
    RadicalMismatch,
    RankDeficient,
    SingularPoint,
    TableMismatch,
    ZeroVector,
)
from .field import FieldCtx
from .matrix import (
    MatrixFq,
    Subspace,
    bilinear_value,
    det,
    inverse,
    kernel,
    rank,
    rref,
)

CASES = (1, 2, 3, 4)


@dataclass(frozen=True)
class BlockProfile:
    """Block layout of a basis-adapted space: H | H0 | D0 | D."""

    case: int
    n: int
    r: int
    d: int
    nu: int  # rank of the form induced on H0

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def h0_dim(self) -> int:
        return self.dim - self.r - self.d

    @property
    def d0_dim(self) -> int:
        return self.r - self.d


def check_admissible(n: int, r: int, d: int, case: int, *, buildable: bool = True) -> None:
    """Raise InadmissibleParams unless (r, d, case) is allowed for this n.

    With buildable=True the constraints are those under which build_M/build_S
    produce a form with the stated radical; buildable=False relaxes case 2 to
    the full parity grid 1 <= d <= min(r, 2n - r), the domain over which the
    case-2 count formula is compared during maximization.
    """
    if n < 2:
        raise InadmissibleParams(f"need n >= 2, got {n}")
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


def hyperbolic_gram(ctx: FieldCtx, t: int) -> MatrixFq:
    """2t x 2t Gram [[0, I], [I, 0]]."""
    m = [[0] * (2 * t) for _ in range(2 * t)]
    for i in range(t):
        m[i][t + i] = m[t + i][i] = 1
    return MatrixFq(ctx, m)


def parabolic_gram(ctx: FieldCtx, t: int) -> MatrixFq:
    """(2t+1) x (2t+1) Gram: hyperbolic part plus a final 1."""
    m = [[0] * (2 * t + 1) for _ in range(2 * t + 1)]
    for i in range(t):
        m[i][t + i] = m[t + i][i] = 1
    m[2 * t][2 * t] = 1
    return MatrixFq(ctx, m)


def elliptic_gram(ctx: FieldCtx, t: int) -> MatrixFq:
    """(2t+2) x (2t+2) Gram: hyperbolic part plus diag(1, -xi), xi a nonsquare."""
    m = [[0] * (2 * t + 2) for _ in range(2 * t + 2)]
    for i in range(t):
        m[i][t + i] = m[t + i][i] = 1
    m[2 * t][2 * t] = 1
    m[2 * t + 1][2 * t + 1] = ctx.neg(ctx.nonsquare_rep)
    return MatrixFq(ctx, m)


class QuadraticSpace:
    """Odd-dimensional space with a nondegenerate symmetric Gram matrix."""

    def __init__(self, ctx: FieldCtx, n: int, gram: MatrixFq, profile: BlockProfile | None = None):
        if n < 1:
            raise InadmissibleParams(f"need n >= 1, got {n}")
        dim = 2 * n + 1
        if gram.nrows != dim or gram.ncols != dim:
            raise InadmissibleParams(f"Gram matrix must be {dim}x{dim}")
        if not gram.is_symmetric():
            raise InadmissibleParams("Gram matrix must be symmetric")
        d = det(gram)
        if d == 0:
            raise RankDeficient("Gram matrix is degenerate")
        self.ctx = ctx
        self.n = n
        self.dim = dim
        self.gram = gram
        self.profile = profile
        self.det = d
        # (-1)^n det(M): a point v is external iff this times eta(v) is a square
        self.disc_sign = ctx.neg(d) if n % 2 else d
        self._gram_np = gram.to_numpy()
        self._gram_inv_np = inverse(gram).to_numpy()
        self._cache: dict = {}

    def eta(self, v) -> int:
        return bilinear_value(self.gram, v, v)

    def bilinear(self, u, v) -> int:
        return bilinear_value(self.gram, u, v)

    def gram_np(self) -> np.ndarray:
        return self._gram_np

    def gram_inv_np(self) -> np.ndarray:
        return self._gram_inv_np

    def __repr__(self) -> str:
        tag = f", case={self.profile.case}, r={self.profile.r}, d={self.profile.d}" if self.profile else ""
        return f"QuadraticSpace(q={self.ctx.q}, n={self.n}{tag})"


def build_M(ctx: FieldCtx, n: int, r: int, d: int, case: int) -> QuadraticSpace:
    """Basis-adapted ambient Gram matrix for the given block shape."""
    check_admissible(n, r, d, case)
    nu = _case_nu(n, r, d, case)
    dim = 2 * n + 1
    # the entry lists below, then the row tuples and int64 array of MatrixFq
    check_memory(24 * dim * dim, f"a Gram matrix of dimension {dim}")
    profile = BlockProfile(case=case, n=n, r=r, d=d, nu=nu)
    m = [[0] * dim for _ in range(dim)]
    for i in range(d):
        m[i][dim - d + i] = m[dim - d + i][i] = 1
    if case in (1, 2):
        q0 = parabolic_gram(ctx, nu)
    elif case == 3:
        q0 = hyperbolic_gram(ctx, nu)
    else:
        q0 = elliptic_gram(ctx, nu)
    if q0.nrows != profile.h0_dim:
        raise InadmissibleParams("internal block size mismatch")
    if case == 1:
        r0 = hyperbolic_gram(ctx, (r - d) // 2)
    elif case == 2:
        r0 = elliptic_gram(ctx, (r - d) // 2 - 1)
    else:
        r0 = parabolic_gram(ctx, (r - d - 1) // 2)
    if r0.nrows != profile.d0_dim:
        raise InadmissibleParams("internal block size mismatch")
    off = d
    for i in range(q0.nrows):
        for j in range(q0.ncols):
            m[off + i][off + j] = q0.rows[i][j]
    off = d + profile.h0_dim
    for i in range(r0.nrows):
        for j in range(r0.ncols):
            m[off + i][off + j] = r0.rows[i][j]
    return QuadraticSpace(ctx, n, MatrixFq(ctx, m), profile)


def standard_space(ctx: FieldCtx, n: int) -> QuadraticSpace:
    """Default ambient space used by the code constructions."""
    return build_M(ctx, n, 2 * n - 1, 1, 1)


class AlternatingForm:
    """Alternating bilinear form with its radical precomputed."""

    def __init__(self, ctx: FieldCtx, s: MatrixFq, case_params: dict | None = None):
        if not s.is_alternating():
            raise InadmissibleParams("matrix is not alternating")
        self.ctx = ctx
        self.s = s
        self.dim = s.nrows
        self.radical: Subspace = kernel(s)
        self.r = self.radical.dim
        self.case_params = case_params
        self._s_np = s.to_numpy()

    def s_np(self) -> np.ndarray:
        return self._s_np

    def value(self, u, v) -> int:
        return bilinear_value(self.s, u, v)

    def __repr__(self) -> str:
        return f"AlternatingForm(q={self.ctx.q}, dim={self.dim}, r={self.r})"


def _auto_s11(ctx: FieldCtx, d: int, start_row: int) -> MatrixFq:
    """Pair rows (start_row, start_row+1), ... with J blocks; rest zero."""
    m = [[0] * d for _ in range(d)]
    i = start_row
    while i + 1 < d:
        m[i][i + 1] = 1
        m[i + 1][i] = ctx.neg(1)
        i += 2
    return MatrixFq(ctx, m)


def build_S(
    qs: QuadraticSpace,
    *,
    s11: MatrixFq | str | None = None,
    alpha: int | None = None,
    u_block: bool | None = None,
) -> AlternatingForm:
    """Basis-adapted alternating form matching the space's block profile.

    s11: top-left d x d alternating block; None means zero, "auto" means a
    canonical pairing of the rows not already covered by the U block.
    alpha (case 4 only): the anisotropic-tail coefficient; zero forces the
    U block.  u_block (case 4 only): place an identity 2x2 minor of U on the
    last two H0 coordinates; required when alpha is zero, never inferred.
    """
    prof = qs.profile
    if prof is None:
        raise InadmissibleParams("build_S needs a block-adapted space from build_M")
    ctx = qs.ctx
    case, r, d, nu = prof.case, prof.r, prof.d, prof.nu
    if case != 4:
        if alpha is not None:
            raise InadmissibleParams("alpha applies to case 4 only")
        if u_block:
            raise InadmissibleParams("u_block applies to case 4 only")
        u_block = False
    else:
        alpha = 1 if alpha is None else ctx.validate_element(alpha)
        u_block = bool(u_block)
        if alpha == 0 and not u_block:
            raise InadmissibleParams("case 4 with alpha = 0 requires u_block")
        if u_block and d < 2:
            raise InadmissibleParams("u_block needs d >= 2")

    dim = prof.dim
    s = [[0] * dim for _ in range(dim)]

    def put(i: int, j: int, v: int) -> None:
        s[i][j] = v
        s[j][i] = ctx.neg(v)

    # S22 on H0
    off = d
    for i in range(nu):
        put(off + i, off + nu + i, 1)
    if case == 4:
        put(off + 2 * nu, off + 2 * nu + 1, alpha)

    # U on H x H0
    if case in (1, 2):
        put(0, d + prof.h0_dim - 1, 1)
    elif case == 4 and u_block:
        put(0, off + 2 * nu, 1)
        put(1, off + 2 * nu + 1, 1)

    # S11 on H
    if isinstance(s11, str):
        if s11 != "auto":
            raise InadmissibleParams(f"unknown s11 mode {s11!r}")
        start = 1 if case in (1, 2) else (2 if (case == 4 and u_block) else 0)
        s11 = _auto_s11(ctx, d, start)
    if s11 is not None:
        if not isinstance(s11, MatrixFq) or s11.nrows != d or s11.ncols != d:
            raise InadmissibleParams(f"s11 must be a {d}x{d} matrix")
        if not s11.is_alternating():
            raise InadmissibleParams("s11 must be alternating")
        for i in range(d):
            for j in range(d):
                if s11.rows[i][j]:
                    s[i][j] = ctx.add(s[i][j], s11.rows[i][j])

    af = AlternatingForm(
        qs.ctx,
        MatrixFq(ctx, s),
        case_params={"case": case, "r": r, "d": d, "alpha": alpha if case == 4 else None, "u_block": u_block},
    )
    if af.r != r:
        raise RadicalMismatch(f"radical dim {af.r}, wanted {r}; pass s11='auto' or a pairing s11")
    rr, dd = form_profile(qs, af)
    if dd != d:
        raise RadicalMismatch(f"defect {dd}, wanted {d}")
    return af


def canonical_form(
    ctx: FieldCtx, n: int, r: int, d: int, case: int, *, alpha: int | None = None, u_block: bool | None = None
) -> tuple[QuadraticSpace, AlternatingForm]:
    """Block-adapted space plus its canonical alternating form."""
    qs = build_M(ctx, n, r, d, case)
    return qs, build_S(qs, s11="auto", alpha=alpha, u_block=u_block)


def form_profile(qs: QuadraticSpace, af: AlternatingForm) -> tuple[int, int]:
    """(r, d) of an arbitrary alternating form on this space."""
    if af.dim != qs.dim:
        raise InadmissibleParams("form and space dimensions differ")
    basis = af.radical.basis
    r = len(basis)
    if r == 0:
        return 0, 0
    b = MatrixFq(qs.ctx, basis)
    gram_r = b.mul(qs.gram).mul(b.transpose())
    return r, r - rank(gram_r)


def radical_split(qs: QuadraticSpace, af: AlternatingForm) -> dict:
    """Radical data for an arbitrary form: r, d, and the Witt index over H0.

    H0 is any complement of D inside the M-perp of R; its induced form is
    nondegenerate, so the Witt index is basis independent.
    """
    ctx = qs.ctx
    r, d = form_profile(qs, af)
    if r == qs.dim:
        raise InadmissibleParams("zero form has no radical split")
    if r:
        b_r = MatrixFq(ctx, af.radical.basis)
        b_m = b_r.mul(qs.gram)
        perp = kernel(b_m).basis
        d_in_r = kernel(b_m.mul(b_r.transpose()))
        d_vecs = MatrixFq(ctx, d_in_r.basis).mul(b_r).rows if d_in_r.dim else ()
    else:
        perp = MatrixFq.identity(ctx, qs.dim).rows
        d_vecs = ()
    # extend the D basis to a basis of perp; the added vectors span an H0.
    # The pivot columns of [D; perp]^T are the rows a greedy pass keeps.
    rows = d_vecs + perp
    _, keep = rref(MatrixFq(ctx, rows).transpose())
    h0 = [rows[i] for i in keep[len(d_vecs) :]]
    if not h0:
        return {"r": r, "d": d, "m": 0}
    h = MatrixFq(ctx, h0)
    gram_h0 = h.mul(qs.gram).mul(h.transpose())
    return {"r": r, "d": d, "m": witt_index(ctx, gram_h0)}


def witt_index(ctx: FieldCtx, gram: MatrixFq) -> int:
    """Witt index of a nondegenerate symmetric Gram matrix over F_q, q odd."""
    dmat = det(gram)
    if dmat == 0:
        raise RankDeficient("Gram matrix is degenerate")
    k = gram.nrows
    if k % 2 == 1:
        return (k - 1) // 2
    t = k // 2
    sign = dmat if t % 2 == 0 else ctx.neg(dmat)
    return t if ctx.is_square(sign) else t - 1


# ---- congruence transport ------------------------------------------------------


def diagonalize_symmetric(ctx: FieldCtx, gram: MatrixFq) -> list[list[int]]:
    """Orthogonal basis for a nondegenerate symmetric Gram matrix.

    Returns basis vectors v_1..v_k with B(v_i, v_j) = 0 for i != j and
    B(v_i, v_i) != 0.
    """
    k = gram.nrows
    if det(gram) == 0:
        raise RankDeficient("Gram matrix is degenerate")
    cols: list[list[int]] = []
    remaining = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    while remaining:
        v = None
        for u in remaining:
            if bilinear_value(gram, u, u) != 0:
                v = u
                break
        if v is None:
            # nondegenerate restriction: some sum of basis vectors is nonsingular
            for i in range(len(remaining)):
                for j in range(i + 1, len(remaining)):
                    w = [ctx.add(a, b) for a, b in zip(remaining[i], remaining[j])]
                    if bilinear_value(gram, w, w) != 0:
                        v = w
                        break
                if v is not None:
                    break
        if v is None:
            raise RankDeficient("no nonsingular vector in the remaining block")
        cols.append(list(v))
        inv_qv = ctx.inv(bilinear_value(gram, v, v))
        projected = []
        for w in remaining:
            c = ctx.mul(bilinear_value(gram, v, w), inv_qv)
            w2 = [ctx.sub(a, ctx.mul(c, b)) for a, b in zip(w, v)]
            if any(w2):
                projected.append(w2)
        remaining = Subspace(ctx, k, projected).basis
    return cols


def _normalized_orthogonal_basis(ctx: FieldCtx, gram: MatrixFq) -> tuple[list[list[int]], list[int]]:
    """Orthogonal basis with every value 1 or the nonsquare rep, ones first,
    and at most one nonsquare value."""
    xi = ctx.nonsquare_rep
    cols = diagonalize_symmetric(ctx, gram)
    classes = []
    for idx, v in enumerate(cols):
        qv = bilinear_value(gram, v, v)
        e = 1 if ctx.is_square(qv) else xi
        target = ctx.div(qv, e)
        c = next(c for c in range(1, ctx.q) if ctx.mul(c, c) == target)
        inv_c = ctx.inv(c)
        cols[idx] = [ctx.mul(inv_c, a) for a in v]
        classes.append(e)
    bad = [i for i, e in enumerate(classes) if e == xi]
    while len(bad) >= 2:
        i, j = bad[0], bad[1]
        x, y = next(
            (x, y)
            for x in range(ctx.q)
            for y in range(ctx.q)
            if ctx.add(ctx.mul(xi, ctx.mul(x, x)), ctx.mul(xi, ctx.mul(y, y))) == 1
        )
        vi, vj = cols[i], cols[j]
        cols[i] = [ctx.add(ctx.mul(x, a), ctx.mul(y, b)) for a, b in zip(vi, vj)]
        cols[j] = [ctx.add(ctx.mul(ctx.neg(y), a), ctx.mul(x, b)) for a, b in zip(vi, vj)]
        classes[i] = classes[j] = 1
        bad = bad[2:]
    order = sorted(range(len(cols)), key=lambda i: classes[i] != 1)
    return [cols[i] for i in order], [classes[i] for i in order]


def _columns_matrix(ctx: FieldCtx, cols: list[list[int]]) -> MatrixFq:
    k = len(cols)
    return MatrixFq(ctx, [[cols[j][i] for j in range(k)] for i in range(k)])


def quadric_isometry(qs_from: QuadraticSpace, qs_to: QuadraticSpace) -> tuple[MatrixFq, int]:
    """Matrix T and scalar lam with T^T M_from T = lam * M_to.

    The map x -> Tx carries the target quadric onto the source quadric; every
    odd-dimensional pair is congruent up to the scalar, which is 1 or the
    nonsquare rep according to the discriminant classes.
    """
    ctx = qs_from.ctx
    if ctx != qs_to.ctx or qs_from.dim != qs_to.dim:
        raise DimensionMismatch("spaces must share field and dimension")
    cols_f, cls_f = _normalized_orthogonal_basis(ctx, qs_from.gram)
    for lam in (1, ctx.nonsquare_rep):
        scaled = qs_to.gram.scale(lam)
        cols_t, cls_t = _normalized_orthogonal_basis(ctx, scaled)
        if cls_f == cls_t:
            c_f = _columns_matrix(ctx, cols_f)
            c_t = _columns_matrix(ctx, cols_t)
            return c_f.mul(inverse(c_t)), lam
    raise TableMismatch("no congruence found; discriminant classes irreconcilable")


def transport_form(
    qs_from: QuadraticSpace, af: AlternatingForm, qs_to: QuadraticSpace
) -> AlternatingForm:
    """Re-express an alternating form on a congruent quadratic space.

    The returned form has the same radical dimension, defect, case type,
    residue census and codeword weight relative to qs_to as af has relative
    to qs_from.
    """
    t, _ = quadric_isometry(qs_from, qs_to)
    s_new = t.transpose().mul(af.s).mul(t)
    return AlternatingForm(qs_to.ctx, s_new, case_params=af.case_params)


# ---- pointwise classification ------------------------------------------------


def eval_quadratic(qs: QuadraticSpace, v) -> int:
    """Value of the quadratic form at v."""
    return qs.eta(v)


def point_square_class(qs: QuadraticSpace, v) -> str:
    """'singular', 'square' or 'nonsquare' class of eta(v); projective invariant."""
    vv = [qs.ctx.validate_element(x) for x in v]
    if all(x == 0 for x in vv):
        raise ZeroVector("square class needs a nonzero point")
    val = qs.eta(vv)
    if val == 0:
        return "singular"
    return "square" if qs.ctx.is_square(val) else "nonsquare"


def classify_internal_external(qs: QuadraticSpace, v) -> str:
    """'external' if the perp hyperplane cuts a hyperbolic section, else 'internal'.

    Works for any nonsingular point: the section type is decided by whether
    (-1)^n det(M) eta(v) is a square.
    """
    vv = [qs.ctx.validate_element(x) for x in v]
    if all(x == 0 for x in vv):
        raise ZeroVector("classification needs a nonzero point")
    val = qs.eta(vv)
    if val == 0:
        raise SingularPoint("singular points are neither internal nor external")
    return "external" if qs.ctx.is_square(qs.ctx.mul(qs.disc_sign, val)) else "internal"


# ---- projective enumeration and orbit counts ---------------------------------

_POINT_CACHE: dict[tuple[int, int], np.ndarray] = {}


def check_memory(need: float, what: str) -> None:
    """Raise InadmissibleParams if need bytes exceed what this process may
    hold: the physical memory or, if lower, its soft RLIMIT_AS.

    Every function that builds an array growing with n or q calls it first,
    so parameters too large for memory are rejected instead of killed.
    """
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft)
    if need > limit:
        amount = f"{need / 2**30:.3g} GiB" if need < 2**100 else "over 2^100 bytes"
        raise InadmissibleParams(f"{what} needs at least {amount}; {limit / 2**30:.3g} GiB available")


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
    key = (ctx.q, dim)
    cached = _POINT_CACHE.get(key)
    if cached is not None:
        return cached
    q = ctx.q
    check_memory(point_bytes(q, dim), f"the points of PG({dim - 1}, {q})")
    pts = projective_block(q, dim, 0, (q**dim - 1) // (q - 1))
    pts.setflags(write=False)
    _POINT_CACHE[key] = pts
    return pts


def orbit_counts(qs: QuadraticSpace) -> dict[str, int]:
    """Point census of PG(2n, q) under the form: singular/internal/external
    plus the square-class split of the nonsingular values."""
    if "orbit_counts" in qs._cache:
        return qs._cache["orbit_counts"]
    ctx = qs.ctx
    pts = projective_points(ctx, qs.dim)
    vals = ctx.np_quad_eval(qs.gram_np(), pts)
    nonzero = vals != 0
    sq = ctx.np_is_square(vals) & nonzero
    ext = ctx.np_is_square(ctx.np_mul(np.int64(qs.disc_sign), vals)) & nonzero
    out = {
        "singular": int((~nonzero).sum()),
        "internal": int((nonzero & ~ext).sum()),
        "external": int(ext.sum()),
        "eta_square": int(sq.sum()),
        "eta_nonsquare": int((nonzero & ~sq).sum()),
    }
    qs._cache["orbit_counts"] = out
    return out
