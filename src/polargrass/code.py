"""Line polar Grassmann codes: generator matrices, weights, minimum distance.

The code of the space qs has one column per totally singular line (its
canonical wedge coordinates) and one row per coordinate pair i < j.  A
message is therefore the strict upper triangle of an alternating matrix S,
and the weight of its codeword counts the singular lines on which S does
not vanish.  Codewords and weights are evaluated by geometry._codewords,
one product per block of lines; only the exhaustive scan multiplies its
high parts against its own reordered generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    CounterexampleFound,
    DimensionMismatch,
    InadmissibleParams,
    IoError,
    RankDeficient,
    ZeroMessage,
)
from .field import FieldCtx
from .forms import (
    AlternatingForm,
    QuadraticSpace,
    alternating_forms,
    canonical_form,
    check_memory,
    standard_space,
    _check_n,
)
from .geometry import (
    PAIR_BLOCK_ENTRIES,
    LineSet,
    _block_rows,
    _blocks,
    _codewords,
    _encode_rows,
    _pair_index,
    enumerate_singular_lines,
    line_bytes,
    quadric_point_bytes,
    singular_line_count,
)
from .matrix import _check_range, rank_np

DEFAULT_BUDGET = 10**7
# The exhaustive scan (min_distance_exact) splits a message into a high and
# a low part.  SCAN_TABLE_ROWS is the number of low parts its table aims
# for: the low width b is the smallest with q^b >= SCAN_TABLE_ROWS, so the
# GEMM of each block runs near BLAS speed.  Its blocks of high parts are
# sized by geometry._block_rows, as in every blocked kernel.
SCAN_TABLE_ROWS = 512


@dataclass(frozen=True)
class CodeParams:
    """Length, dimension and claimed minimum distance."""

    n: int
    q: int
    N: int
    K: int
    d_claimed: int


def code_parameters(n: int, q: int) -> CodeParams:
    """Closed-form parameters for given n >= 2 and odd prime power q."""
    _check_n(n)
    nn = singular_line_count(n, q)
    kk = (2 * n + 1) * n
    d = q ** (4 * n - 5) - q ** (3 * n - 4)
    return CodeParams(n=n, q=q, N=nn, K=kk, d_claimed=d)


def memory_estimate(n: int, q: int) -> float:
    """Upper bound on the peak bytes build_code reaches for (n, q).

    The singular points of Q(2n, q) (quadric_point_bytes, the peak of
    their pass; the points and their small arrays stay), plus the larger of
    the line enumerator's peak (line_bytes) and the rank check's: per line
    the int64 plucker row (G is a view of it), the generator pair and seven
    int64 of rank_np's blocks of G (its reduced and working copies and the
    two products of an elimination step).  The enumerator's temporaries are
    freed before G is built, so the two peaks do not add.  N is at least
    q^(4n-5), so past 2^100 it is inf and a huge n costs no big-integer
    power.
    """
    if (4 * n - 5) * math.log2(q) > 100:
        return math.inf
    p = code_parameters(n, q)
    return quadric_point_bytes(n, q) + max(line_bytes(n, q), p.N * (8 * p.K + 72))


class PolarCode:
    """Evaluation code of the totally singular lines of a space."""

    def __init__(self, qs: QuadraticSpace, lines: LineSet, gmat: np.ndarray, params: CodeParams):
        self.qs = qs
        self.lines = lines
        self.generator = gmat
        self.params = params

    @property
    def ctx(self) -> FieldCtx:
        return self.qs.ctx

    def __repr__(self) -> str:
        p = self.params
        return f"PolarCode(n={p.n}, q={p.q}, N={p.N}, K={p.K})"


def build_code(qs: QuadraticSpace) -> PolarCode:
    """Construct the code of qs and check its parameters."""
    params = code_parameters(qs.n, qs.ctx.q)
    check_memory(memory_estimate(qs.n, qs.ctx.q), f"the code of n={qs.n}, q={qs.ctx.q}")
    lines = enumerate_singular_lines(qs)
    if len(lines) != params.N:
        raise RankDeficient(
            f"enumerated {len(lines)} lines, expected {params.N}"
        )
    gmat = lines.plucker.T  # a read-only view
    if rank_np(qs.ctx, gmat) != params.K:
        raise RankDeficient("generator matrix does not have full rank")
    return PolarCode(qs, lines, gmat, params)


def standard_code(ctx: FieldCtx, n: int) -> PolarCode:
    return build_code(standard_space(ctx, n))


@dataclass
class Codeword:
    """Evaluated codeword with its Hamming weight."""

    values: np.ndarray
    weight: int


def message_from_form(af: AlternatingForm) -> np.ndarray:
    """Strict upper triangle of S, pairs (i, j) with i < j in lex order."""
    iu, ju = _pair_index(af.dim)
    return af.s[iu, ju]


def _alternating_stack(ctx: FieldCtx, dim: int, messages: np.ndarray) -> np.ndarray:
    """(B, dim, dim) alternating matrices whose strict upper triangles are
    the rows of messages."""
    iu, ju = _pair_index(dim)
    s = np.zeros((len(messages), dim, dim), dtype=np.int64)
    s[:, iu, ju] = messages
    s[:, ju, iu] = ctx.np_neg(s[:, iu, ju])
    return s


def form_from_message(ctx: FieldCtx, dim: int, message) -> AlternatingForm:
    """Alternating matrix whose strict upper triangle is the message."""
    m = _check_range(ctx, message)
    iu, _ = _pair_index(dim)
    if m.shape != iu.shape:
        raise DimensionMismatch(
            f"message length {m.shape} does not match {len(iu)} coordinate pairs"
        )
    return alternating_forms(ctx, _alternating_stack(ctx, dim, m[None]))[0]


def _weights_np(code: PolarCode, batch: np.ndarray) -> np.ndarray:
    """Hamming weights of the codewords of a batch of messages (rows),
    summed over the blocks of lines, so no (B, N) array is built."""
    weights = np.zeros(len(batch), dtype=np.int64)
    for _, vals in _codewords(code.ctx, code.generator.T, batch):
        weights += np.count_nonzero(vals, axis=0)
    return weights


def codeword_from_form(code: PolarCode, af: AlternatingForm) -> Codeword:
    """Codeword evaluating the alternating form on every line."""
    if af.dim != code.qs.dim:
        raise DimensionMismatch("form dimension does not match the space")
    if af.ctx != code.ctx:
        raise DimensionMismatch("form is over a different field")
    msg = message_from_form(af)
    if not msg.any():
        raise ZeroMessage("zero form gives the zero codeword")
    vals = np.empty(code.params.N, dtype=np.int64)
    for blk, part in _codewords(code.ctx, code.generator.T, msg[None]):
        vals[blk] = part[:, 0]
    return Codeword(values=vals, weight=int((vals != 0).sum()))


def check_scan_budget(q: int, k: int, budget: int) -> None:
    """Raise BudgetExceeded if an exhaustive scan of a code of dimension k,
    its (q^k - 1)/(q - 1) projective messages, exceeds the budget.

    A count past 1000 bits is named as more than 10^j, j from its bit
    length: str() refuses an int of over 4300 digits.  One past the budget
    by over 2^20 bits, read off (k - 1) log2 q, is named as that quotient,
    and q^k is not computed.
    """
    if (k - 1) * math.log2(q) > 2**20 + budget.bit_length():
        raise BudgetExceeded(f"({q}^{k} - 1)/({q} - 1) projective messages exceed the budget {budget}")
    total = (q**k - 1) // (q - 1)
    if total > budget:
        bits = total.bit_length()
        count = total if bits <= 1000 else f"more than 10^{int((bits - 1) * math.log10(2))}"
        raise BudgetExceeded(f"{count} projective messages exceed the budget {budget}", bound=total)


def _agreement_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, q-1) float32 feature rows of the scan's high and low codewords.

    Low row y is the one-hot of y among the nonzero values (row 0 is zero);
    high row x is [x = v] - [x = 0] for v = 1, ..., q-1.  Their dot product
    is [x = y] - [x = 0], which is q-1 wide: [x = y] = [x = 0] +
    sum over v != 0 of ([x = v] - [x = 0]) [y = v].
    """
    low = np.eye(q, q - 1, -1, dtype=np.float32)
    high = low.copy()
    high[0] = -1
    return high, low


def _unique_rows(q: int, rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array of field elements, in lex order."""
    return rows[np.unique(_encode_rows(q, rows), return_index=True)[1]]


def _diagonal_characters(code: PolarCode) -> np.ndarray:
    """The certified diagonal characters of the code: a (|H|, K) array of
    nonzero field elements, one row per character chi, which multiplies
    message coordinate r by chi_r.

    Candidates come from the diagonal isometries t of a monomial Gram M:
    t_i t_j = 1 wherever M_ij != 0 (so t_i = +-1 on an anisotropic
    coordinate), acting on the pair (i, j) by chi_ij = t_i t_j.  A candidate
    is kept only if it maps the nonzero generator columns, each normalised
    to lead 1, onto themselves as a multiset: then chi . G_c is a nonzero
    multiple of another column for every c, so the codeword of chi . m is a
    scaled permutation of that of m and has its weight, whatever the
    generator.  The kept set is the stabiliser of that column multiset
    inside a group, so it is a group itself.  A Gram that is not monomial,
    a generator with more rows than the space has pairs, or q^K >= 2^53
    (past which _orbit_representatives' float64 keys are not exact) gives
    the trivial group.
    """
    ctx, k = code.ctx, code.params.K
    q, gram = ctx.q, code.qs.gram
    iu, ju = _pair_index(code.qs.dim)
    if q**k >= 2**53 or k > len(iu) or (np.count_nonzero(gram, axis=1) != 1).any():
        return np.ones((1, k), dtype=np.int64)
    partner = np.argmax(gram != 0, axis=1)
    free = [i for i in range(code.qs.dim) if i <= partner[i]]
    choice = np.indices([2 if partner[i] == i else q - 1 for i in free]).reshape(len(free), -1)
    t = np.ones((choice.shape[1], code.qs.dim), dtype=np.int64)
    for c, i in zip(choice, free):
        if partner[i] == i:
            t[:, i] = np.where(c == 0, 1, ctx.neg(1))
        else:
            t[:, i] = c + 1
            t[:, partner[i]] = ctx.np_inv(c + 1)
    chars = _unique_rows(q, ctx.np_mul(t[:, iu], t[:, ju])[:, :k])
    cols = ctx.np_normalize_rows(code.generator.T[code.generator.any(axis=0)])
    lead = np.argmax(cols != 0, axis=1)
    want = np.sort(_encode_rows(q, cols))
    kept = []
    for sl in _blocks(len(chars), cols.size):
        # chi . G_c normalised: divided by chi at the lead of G_c
        scale = ctx.np_mul(chars[sl, None, :], ctx.np_inv(chars[sl][:, lead])[:, :, None])
        images = _encode_rows(q, ctx.np_mul(scale, cols).reshape(-1, k)).reshape(len(scale), -1)
        kept.append(chars[sl][(np.sort(images, axis=1) == want).all(axis=1)])
    return np.concatenate(kept)


def _orbit_representatives(ctx: FieldCtx, chars: np.ndarray):
    """Blocks of canonical points h of PG(a-1, q), a = chars' width, one per
    orbit of the characters chars times the scalars, in projective_block
    order.

    A point with lead at p is 1 there followed by its tail t, the w = a-1-p
    base-q digits of an integer.  chi . h, divided by chi_p to lead 1 again,
    has the tail of digits (chi_i / chi_p) h_i, and h is kept iff no such
    tail is a smaller integer.  These are the orbit-minimum points, exactly
    one per orbit.  The tails of every ratio row are one float64 product of
    the one-hot digits of a block of t (w(q-1) wide) with a per-lead table,
    exact while q^w < 2^53: a nontrivial group has q^K < 2^53
    (_diagonal_characters), and the trivial group's scan reaches such a w
    only after 2^53 points.  A first digit v that some ratio lowers (r v <
    v as integers) never starts a least tail, so only the tails of the
    other first digits are formed.  With one character every point is
    kept, in projective_block order.
    """
    q, a = ctx.q, chars.shape[1]
    onehot = np.eye(q, q - 1, -1)
    field = np.arange(q)
    yield np.eye(1, a, a - 1, dtype=np.int64)  # w = 0: the last unit vector
    for w in range(1, a):
        p = a - 1 - w
        ratios = _unique_rows(q, ctx.np_mul(chars[:, p + 1 :], ctx.np_inv(chars[:, p : p + 1])))
        powers = q ** np.arange(w - 1, -1, -1, dtype=np.int64)
        # table[j, v-1, r] = q^(w-1-j) (ratio_rj v): tail digit j worth v
        values = ctx.np_mul(ratios.T[:, None, :], field[None, 1:, None])
        table = (powers[:, None, None] * values).astype(np.float64).reshape(-1, len(ratios))
        for first in np.flatnonzero((ctx.np_mul(ratios[:, :1], field) >= field).all(axis=0)):
            for sl in _blocks(powers[0], w * (q - 1), table.size):
                tail = first * powers[0] + np.arange(sl.start, min(sl.stop, powers[0]), dtype=np.int64)
                digits = tail[:, None] // powers % q
                keys = onehot[digits].reshape(len(tail), -1) @ table
                keep = keys.min(axis=1) >= tail
                h = np.zeros((np.count_nonzero(keep), a), dtype=np.int64)
                h[:, p] = 1
                h[:, p + 1 :] = digits[keep]
                yield h


def _filled(blocks, rows: int):
    """The rows of a stream of blocks, regrouped into blocks of rows rows
    (the last one shorter)."""
    pending, size = [], 0
    for block in blocks:
        pending.append(block)
        size += len(block)
        if size >= rows:
            whole = np.concatenate(pending)
            cut = size - size % rows
            for lo in range(0, cut, rows):
                yield whole[lo : lo + rows]
            pending, size = [whole[cut:]], size - cut
    if size:
        yield np.concatenate(pending)


def _low_groups(ctx: FieldCtx, low: np.ndarray):
    """The columns g of a (b, N) low generator, grouped by the point of
    PG(b-1, q) they span: g = c g~ with g~ led by 1.

    Returns (order, points, group, scale).  order lists the nonzero columns
    sorted by g~, then the zero columns; points holds the distinct g~ as
    rows, (P, b), in lex order; group and scale give, per nonzero column in
    that order, the row of its g~ in points and its c.
    """
    nonzero = low.any(axis=0)
    cols = low.T[nonzero]
    lead = np.argmax(cols != 0, axis=1) if len(cols) else np.zeros(0, dtype=np.intp)
    scale = cols[np.arange(len(cols)), lead]
    unit = ctx.np_mul(ctx.np_inv(scale)[:, None], cols)
    _, first, group = np.unique(_encode_rows(ctx.q, unit), return_index=True, return_inverse=True)
    by_point = np.argsort(group, kind="stable")
    order = np.concatenate([np.flatnonzero(nonzero)[by_point], np.flatnonzero(~nonzero)])
    return order, unit[first], group[by_point], scale[by_point]


def _scan_row_bytes(q: int, a: int, b: int, nn: int, lines: int, npts: int) -> int:
    """Bytes of the arrays one high part adds to a block of
    min_distance_exact, N = nn lines of which lines have a nonzero low
    column, on npts points: its int64 row and float64 operand; its codeword
    with the temporaries of the product, 24 bytes a line over either kind
    of field; the int64 slot indices and slots; the int64 and float32
    counts; the features; the products with the table."""
    return 16 * a + 24 * nn + 16 * lines + 12 * npts * q + 4 * npts * (q - 1) + 4 * q**b


def min_distance_exact(code: PolarCode, budget: int = DEFAULT_BUDGET) -> int:
    """Scan every nonzero message up to scaling and symmetry; exact minimum
    weight.

    Split a message into its high part h, the first a = K - b coordinates,
    and its low part l, the last b.  The codeword of (h, -l) vanishes on a
    line exactly where the value x of h . G_high equals l . g, g the line's
    low generator column.  Write each nonzero g as c g~ with g~ led by 1
    (_low_groups): x = l . g exactly when x / c = l . g~, so the lines of
    one of the P points g~ share every low value z = l . g~.  With the
    agreement features of _agreement_tables, [x = y] = [x = 0] + high[x] .
    low[y], the weight of (h, -l) is nnz(x) less the sum over the points g~
    of (counts @ high) . low[z], counts[v] the lines of g~ with x / c = v;
    a line with g = 0 agrees only where x = 0 and adds nothing.  Per block
    of high parts, each line's count slot, point q + x / c, is gathered
    from a per-line table, the slots are bincounted into the counts, and
    one float32 GEMM of the P(q-1) features against the one-hot low[z] of
    every l in F_q^b gives those sums for the whole block (exact, since
    every partial sum is an integer of magnitude at most N < 2^24).  As l
    runs over F_q^b so does -l, and every projective message is either
    (h, l) with h a canonical projective point of F_q^a, or (0, l) with
    l != 0, whose weight is the number of lines whose point has z != 0.

    Only one h per orbit of H x F_q^* is scanned, H the certified diagonal
    characters of _diagonal_characters: each chi in H keeps every weight,
    wt(chi . m) = wt(m), because it maps the normalised generator columns
    onto themselves.  chi acts on (h, l) coordinatewise, and the low table
    is all of F_q^b, which chi maps onto itself, so the least weight over
    (h, l) for all l is the same for h and chi . h, and for h and c h.  The
    minimum over one h per orbit (_orbit_representatives), each against the
    full table, is then the minimum over every message.

    b is the smallest width whose q^b low parts reach SCAN_TABLE_ROWS, so
    each GEMM is wide enough to run near BLAS speed, lowered while the
    table's q^b P(q-1) float32 entries exceed those of 16 blocks (4 MiB).
    A block holds as many high parts as _block_rows allows for the 8-byte
    entries of all their per-row arrays (_scan_row_bytes), with no cap on
    multiply-adds, which would hold a block to 13 high parts at (2,5).
    """
    check_scan_budget(code.params.q, code.params.K, budget)
    ctx = code.ctx
    q, k, nn = code.params.q, code.params.K, code.params.N
    if nn >= 1 << 24:
        raise DimensionMismatch(f"length {nn} is too long for exact float32 counts")
    # first, so that the certification's blocks are freed before the table
    # is built
    chars = _diagonal_characters(code)
    b = 0
    while b < k - 1 and q**b < SCAN_TABLE_ROWS:
        b += 1
    while True:
        order, points, group, scale = _low_groups(ctx, code.generator[k - b :])
        if b == 0 or q**b * len(points) * (q - 1) <= 16 * (PAIR_BLOCK_ENTRIES >> 4):
            break
        b -= 1
    a, npts, lines = k - b, len(points), len(group)
    high_rows, low_rows = _agreement_tables(q)
    digits = np.arange(q**b)[:, None] // q ** np.arange(b - 1, -1, -1) % q
    z = ctx.np_matmul(digits, points.T)  # z[l, p] = l . g~_p
    best = int(((z[1:] != 0) @ np.bincount(group, minlength=npts)).min(initial=nn))
    table = np.take(low_rows, z, axis=0).reshape(len(z), npts * (q - 1))
    del z
    # slots[j q + x] is the count slot of line j (in order) where h . G_high
    # takes the value x
    slots = (group[:, None] * q + ctx.np_mul(np.arange(q), ctx.np_inv(scale)[:, None])).ravel()
    base = q * np.arange(lines)
    gh = ctx.np_operand(code.generator[:a, order])
    step = _block_rows(-(-_scan_row_bytes(q, a, b, nn, lines, npts) // 8))
    offsets = npts * q * np.arange(step)[:, None]
    for high in _filled(_orbit_representatives(ctx, chars[:, :a]), step):
        rows = len(high)
        x = ctx.np_matmul(high, gh)
        slot = np.take(slots, x[:, :lines] + base)
        slot += offsets[:rows]
        counts = np.bincount(slot.ravel(), minlength=rows * npts * q).astype(np.float32)
        feats = (counts.reshape(-1, q) @ high_rows).reshape(rows, npts * (q - 1))
        agree = feats @ table.T
        best = min(best, int((np.count_nonzero(x, axis=1) - agree.max(axis=1)).min()))
    return best


def random_messages(rng: np.random.Generator, q: int, k: int, count: int) -> np.ndarray:
    """Uniform nonzero messages; zero rows are redrawn."""
    out = rng.integers(0, q, size=(count, k), dtype=np.int64)
    while True:
        bad = np.flatnonzero(~out.any(axis=1))
        if bad.size == 0:
            return out
        out[bad] = rng.integers(0, q, size=(bad.size, k), dtype=np.int64)


def random_alternating_forms(ctx: FieldCtx, dim: int, rng: np.random.Generator, count: int) -> list[AlternatingForm]:
    """count uniform nonzero alternating forms, each a uniform strict upper
    triangle, drawn one after another; their radicals come from one stacked
    elimination.

    One draw of all count rows takes the same values from rng as count
    draws of one row.  Only a zero row, which one-row draws redraw at once,
    sets them apart: then rng goes back to its state before the draw and
    the rows are drawn one by one.  The draw is admitted first: the
    messages and eight (count, dim, dim) int64 stacks cover the peak that
    tracemalloc measures at dim 5 to 11.
    """
    k = dim * (dim - 1) // 2
    check_memory(8 * count * (k + 8 * dim * dim), f"{count} random forms of dimension {dim}")
    state = rng.bit_generator.state
    msgs = rng.integers(0, ctx.q, size=(count, k), dtype=np.int64)
    if not msgs.any(axis=1).all():
        rng.bit_generator.state = state
        msgs = np.array([random_messages(rng, ctx.q, k, 1)[0] for _ in range(count)], dtype=np.int64)
    return alternating_forms(ctx, _alternating_stack(ctx, dim, msgs.reshape(count, k)))


def _check_seed(seed: int) -> None:
    """Raise InadmissibleParams for a negative seed, which numpy rejects."""
    if seed < 0:
        raise InadmissibleParams(f"seed must be >= 0, got {seed}")


def min_distance_certified(
    code: PolarCode,
    samples: int = 1000,
    seed: int = 0,
) -> dict:
    """Upper bound from the canonical low-weight form plus a random scan.

    Returns a record with the claimed value, the witnessed upper bound, and
    the sampled minimum.  Raises CounterexampleFound if any sample goes
    below the claimed minimum distance.
    """
    _check_seed(seed)
    params = code.params
    _, canon = canonical_form(code.ctx, params.n, 2 * params.n - 1, 1, 1)
    record = {
        "claimed": params.d_claimed,
        "upper_bound": codeword_from_form(code, canon).weight,
        "samples_checked": int(samples),
        "min_sampled": None,
    }
    rng = np.random.default_rng(seed)
    chunk = 4096
    min_sampled = None
    witness = None
    remaining = int(samples)
    while remaining > 0:
        take = min(chunk, remaining)
        batch = random_messages(rng, params.q, params.K, take)
        w = _weights_np(code, batch)
        i = int(np.argmin(w))
        if min_sampled is None or int(w[i]) < min_sampled:
            min_sampled = int(w[i])
            witness = batch[i].copy()
        remaining -= take
    record["min_sampled"] = min_sampled
    if min_sampled is not None:
        record["upper_bound"] = min(record["upper_bound"], min_sampled)
        if min_sampled < params.d_claimed:
            raise CounterexampleFound(
                f"sampled weight {min_sampled} below claimed {params.d_claimed}",
                witness=witness.tolist(),
            )
    return record


# ---- serialization -------------------------------------------------------------


def export_code_text(code: PolarCode) -> str:
    p = code.params
    lines = [f"{p.N} {p.K} {p.q} {p.n}"]
    lines += [" ".join(str(int(x)) for x in row) for row in code.generator]
    lines.append(f"# d_claimed {p.d_claimed}")
    return "\n".join(lines) + "\n"


def export_code_json(code: PolarCode) -> str:
    p = code.params
    payload = {
        "N": p.N,
        "K": p.K,
        "q": p.q,
        "n": p.n,
        "d_claimed": p.d_claimed,
        "G": code.generator.tolist(),
    }
    return json.dumps(payload, indent=2) + "\n"


def export_code(code: PolarCode, fmt: str = "text") -> str:
    if fmt == "text":
        return export_code_text(code)
    if fmt == "json":
        return export_code_json(code)
    raise IoError(f"unknown code format {fmt!r}")
