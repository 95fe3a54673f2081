"""Line polar Grassmann codes: generator matrices, weights, minimum distance.

The code of the space qs has one column per totally singular line (its
canonical wedge coordinates) and one row per coordinate pair i < j.  A
message is therefore the strict upper triangle of an alternating matrix S,
and the weight of its codeword counts the singular lines on which S does
not vanish.
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
    build_S,
    check_memory,
    point_bytes,
    projective_block,
    standard_space,
)
from .geometry import (
    PAIR_BLOCK_ENTRIES,
    LineSet,
    enumerate_singular_lines,
    quadric_points,
    singular_line_count,
)
from .matrix import MatrixFq, rank_np

DEFAULT_BUDGET = 10**7
EVAL_CHUNK_BYTES = 1 << 23  # float64 product block of one _weights_np chunk
SCAN_TABLE_ROWS = 512  # low codewords the exhaustive scan's table aims for
SCAN_BLOCK_BYTES = 1 << 21  # float32 one-hot of one block of the scan's high parts


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
    if n < 2:
        raise InadmissibleParams(f"need n >= 2, got {n}")
    nn = singular_line_count(n, q)
    kk = (2 * n + 1) * n
    d = q ** (4 * n - 5) - q ** (3 * n - 4)
    return CodeParams(n=n, q=q, N=nn, K=kk, d_claimed=d)


def memory_estimate(n: int, q: int) -> float:
    """Upper bound on the peak bytes build_code reaches for (n, q).

    The points of PG(2n, q) (point_bytes), the line enumerator's product
    block, and 6K + 2 dim int64 per line: the enumerator's four N x K wedge
    products with both points of each pair, or later the plucker rows, the
    generator, rank_np's reduced and working copies and the two products of
    an elimination step.  N is at least q^(4n-5), so past 2^100 it is inf and
    a huge n costs no big-integer power.
    """
    if (4 * n - 5) * math.log2(q) > 100:
        return math.inf
    p = code_parameters(n, q)
    dim = 2 * n + 1
    return point_bytes(q, dim) + 24 * PAIR_BLOCK_ENTRIES + 8 * p.N * (6 * p.K + 2 * dim)


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
    gmat = lines.plucker.T.copy()
    if rank_np(qs.ctx, gmat) != params.K:
        raise RankDeficient("generator matrix does not have full rank")
    gmat.setflags(write=False)
    return PolarCode(qs, lines, gmat, params)


def standard_code(ctx: FieldCtx, n: int) -> PolarCode:
    return build_code(standard_space(ctx, n))


@dataclass
class Codeword:
    """Evaluated codeword with its Hamming weight."""

    values: np.ndarray
    weight: int


def _pair_index(dim: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(dim, 1)


def message_from_form(af: AlternatingForm) -> np.ndarray:
    """Strict upper triangle of S, pairs (i, j) with i < j in lex order."""
    iu, ju = _pair_index(af.dim)
    return af.s_np()[iu, ju].astype(np.int64)


def form_from_message(ctx: FieldCtx, dim: int, message) -> AlternatingForm:
    """Alternating matrix whose strict upper triangle is the message."""
    m = np.asarray(message, dtype=np.int64)
    iu, ju = _pair_index(dim)
    if m.shape != iu.shape:
        raise DimensionMismatch(
            f"message length {m.shape} does not match {len(iu)} coordinate pairs"
        )
    s = np.zeros((dim, dim), dtype=np.int64)
    s[iu, ju] = m % ctx.q if ctx.e == 1 else m
    s[ju, iu] = ctx.np_neg(s[iu, ju])
    return AlternatingForm(ctx, MatrixFq.from_numpy(ctx, s))


def _codeword_chunks(code: PolarCode, batch: np.ndarray):
    """Codeword values over F_q of a batch of messages (rows), yielded in
    row chunks of at most EVAL_CHUNK_BYTES of float64 each."""
    ctx = code.ctx
    rows = max(1, EVAL_CHUNK_BYTES // (8 * code.params.N))
    if ctx.e == 1:
        gmat = code.generator.astype(np.float64)
        batch = np.asarray(batch, dtype=np.int64) % ctx.p
    for lo in range(0, len(batch), rows):
        part = batch[lo : lo + rows]
        if ctx.e == 1:
            # entries below p keep every sum under K (p-1)^2 < 2^31, so the
            # BLAS float64 product is exact and fits int32
            yield (part.astype(np.float64) @ gmat).astype(np.int32) % ctx.p
        else:
            yield ctx.np_matmul(part, code.generator)


def _weights_np(code: PolarCode, batch: np.ndarray) -> np.ndarray:
    """Hamming weights of the codewords of a batch of messages (rows)."""
    return np.concatenate(
        [np.count_nonzero(vals, axis=1) for vals in _codeword_chunks(code, batch)]
    ).astype(np.int64)


def weight_of_message(code: PolarCode, message) -> int:
    """Hamming weight of the codeword of a nonzero message."""
    m = np.asarray(message, dtype=np.int64).reshape(1, -1)
    if m.shape[1] != code.params.K:
        raise DimensionMismatch(
            f"message length {m.shape[1]}, expected {code.params.K}"
        )
    if not m.any():
        raise ZeroMessage("the zero message has no weight")
    return int(_weights_np(code, m)[0])


def codeword_from_form(code: PolarCode, af: AlternatingForm) -> Codeword:
    """Codeword evaluating the alternating form on every line."""
    if af.dim != code.qs.dim:
        raise DimensionMismatch("form dimension does not match the space")
    if af.ctx != code.ctx:
        raise DimensionMismatch("form is over a different field")
    msg = message_from_form(af)
    if not msg.any():
        raise ZeroMessage("zero form gives the zero codeword")
    vals = next(_codeword_chunks(code, msg.reshape(1, -1)))[0].astype(np.int64)
    return Codeword(values=vals, weight=int((vals != 0).sum()))


def form_weight_direct(code: PolarCode, af: AlternatingForm) -> int:
    """Weight recomputed line by line from a generator pair of each line."""
    ctx = code.ctx
    pts = quadric_points(code.qs)
    u = pts[code.lines.gens[:, 0]]
    v = pts[code.lines.gens[:, 1]]
    vals = ctx.np_rowsum(ctx.np_mul(ctx.np_matmul(u, af.s_np()), v))
    return int((vals != 0).sum())


def check_scan_budget(params: CodeParams, budget: int) -> None:
    """Raise BudgetExceeded if an exhaustive scan exceeds the budget."""
    total = (params.q**params.K - 1) // (params.q - 1)
    if total > budget:
        raise BudgetExceeded(
            f"{total} projective messages exceed the budget {budget}",
            bound=total,
        )


def _onehot(vals: np.ndarray, q: int) -> np.ndarray:
    """float32 rows with a 1 at j*q + vals[:, j] for every coordinate j."""
    rows, nn = vals.shape
    out = np.zeros((rows, nn * q), dtype=np.float32)
    hot = vals + q * np.arange(nn) + (nn * q) * np.arange(rows)[:, None]
    out.reshape(-1)[hot] = 1
    return out


def min_distance_exact(code: PolarCode, budget: int = DEFAULT_BUDGET) -> int:
    """Scan every nonzero message up to scaling; exact minimum weight.

    Split a message into its high part h, the first a = K - b coordinates,
    and its low part l, the last b.  The codeword of (h, -l) vanishes exactly
    where h . G_high equals l . G_low, so with the one-hot encoding of each
    coordinate's value the number of its zeros is a dot product, and one
    float32 GEMM onehot(h codewords) @ onehot(low codewords)^T counts them
    for a block of h against every l at once (exact, since N < 2^24).  As l
    runs over F_q^b so does -l, and every projective message is either
    (h, l) with h a canonical projective point of F_q^a, or (0, l) with
    l != 0, whose weights are the nonzero rows of the low table itself.
    """
    check_scan_budget(code.params, budget)
    q, k, nn = code.params.q, code.params.K, code.params.N
    if nn >= 1 << 24:
        raise DimensionMismatch(f"length {nn} is too long for exact float32 counts")
    # low part: the smallest b whose table reaches SCAN_TABLE_ROWS rows, so
    # each GEMM is wide enough to run near BLAS speed, then lowered while the
    # table's one-hot exceeds 16 blocks (32 MiB), which bounds it at large q N
    b = 0
    while b < k - 1 and q**b < SCAN_TABLE_ROWS:
        b += 1
    while b > 0 and q**b * q * nn * 4 > 16 * SCAN_BLOCK_BYTES:
        b -= 1
    a = k - b
    msgs = np.zeros((q**b, k), dtype=np.int64)
    msgs[:, a:] = np.arange(q**b)[:, None] // q ** np.arange(b - 1, -1, -1) % q
    low = np.concatenate(list(_codeword_chunks(code, msgs)))
    best = int(np.count_nonzero(low[1:], axis=1).min()) if b else nn
    table = _onehot(low, q)
    step = max(1, SCAN_BLOCK_BYTES // (4 * q * nn))
    count = (q**a - 1) // (q - 1)
    for lo in range(0, count, step):
        msgs = np.zeros((min(count, lo + step) - lo, k), dtype=np.int64)
        msgs[:, :a] = projective_block(q, a, lo, lo + len(msgs))
        vals = np.concatenate(list(_codeword_chunks(code, msgs)))
        eq = _onehot(vals, q) @ table.T
        best = min(best, nn - int(eq.max()))
    return best


def random_messages(rng: np.random.Generator, q: int, k: int, count: int) -> np.ndarray:
    """Uniform nonzero messages; zero rows are redrawn."""
    out = rng.integers(0, q, size=(count, k), dtype=np.int64)
    while True:
        bad = np.flatnonzero(~out.any(axis=1))
        if bad.size == 0:
            return out
        out[bad] = rng.integers(0, q, size=(bad.size, k), dtype=np.int64)


def random_alternating_form(ctx: FieldCtx, dim: int, rng: np.random.Generator) -> AlternatingForm:
    """Uniform nonzero alternating form: uniform strict upper triangle."""
    k = dim * (dim - 1) // 2
    msg = random_messages(rng, ctx.q, k, 1)[0]
    return form_from_message(ctx, dim, msg)


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
    params = code.params
    record = {
        "claimed": params.d_claimed,
        "upper_bound": None,
        "samples_checked": int(samples),
        "min_sampled": None,
    }
    if code.qs.profile is not None:
        canon = build_S(code.qs, s11="auto")
        record["upper_bound"] = codeword_from_form(code, canon).weight
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
        if record["upper_bound"] is None or min_sampled < record["upper_bound"]:
            record["upper_bound"] = min_sampled
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


def parse_code_text(text: str) -> dict:
    """Round-trip reader for the text export."""
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise IoError("empty code file")
    head = rows[0].split()
    if len(head) != 4:
        raise IoError("code header must be 'N K q n'")
    try:
        nn, kk, q, n = (int(t) for t in head)
    except ValueError as ex:
        raise IoError(f"malformed code header: {ex}") from ex
    body = rows[1 : 1 + kk]
    if len(body) != kk:
        raise IoError(f"expected {kk} generator rows")
    g = []
    for ln in body:
        vals = [int(t) for t in ln.split()]
        if len(vals) != nn:
            raise IoError(f"generator row with {len(vals)} entries, expected {nn}")
        g.append(vals)
    d_claimed = None
    for ln in rows[1 + kk :]:
        toks = ln.split()
        if toks[:2] == ["#", "d_claimed"] and len(toks) == 3:
            d_claimed = int(toks[2])
    return {"N": nn, "K": kk, "q": q, "n": n, "d_claimed": d_claimed, "G": g}


def parse_code(text: str) -> dict:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(stripped)
        except json.JSONDecodeError as ex:
            raise IoError(f"malformed JSON code file: {ex}") from ex
    return parse_code_text(text)
