# tests/test_code.py
import json
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polargrass import code as code_module
from polargrass import geometry
from polargrass.code import (
    BudgetExceeded,
    PolarCode,
    _weights_np,
    build_code,
    check_scan_budget,
    code_parameters,
    codeword_from_form,
    export_code,
    export_code_json,
    export_code_text,
    form_from_message,
    memory_estimate,
    message_from_form,
    min_distance_certified,
    min_distance_exact,
    random_alternating_forms,
    random_messages,
    standard_code,
)
from polargrass.counting import case_line_count
from polargrass.errors import (
    CounterexampleFound,
    DimensionMismatch,
    InadmissibleParams,
    IoError,
    ZeroMessage,
)
from polargrass.field import field_ctx
from polargrass.forms import (
    canonical_form,
    point_bytes,
    projective_block,
    projective_points,
    standard_space,
)
from polargrass.geometry import (
    PAIR_BLOCK_ENTRIES,
    empirical_census,
    enumerate_singular_lines,
    isotropic_line_count,
    line_bytes,
    quadric_point_bytes,
    quadric_points,
)
from polargrass.matrix import rank_np
from test_stacked import form_profile

F3 = field_ctx(3)
F5 = field_ctx(5)


@lru_cache(maxsize=None)
def the_code(q, n):
    return standard_code(field_ctx(q), n)


def weight(code, message):
    """Weight of the codeword of one message, through the batch kernel."""
    return int(_weights_np(code, np.asarray(message, dtype=np.int64).reshape(1, -1))[0])


def weight_direct(code, af):
    """Weight recomputed line by line from a generator pair of each line,
    without the generator matrix."""
    return len(code.lines) - isotropic_line_count(code.qs, af)


def canonical_messages(q, k):
    """All nonzero messages up to scaling, leading coefficient 1."""
    for lead in range(k):
        free = k - 1 - lead
        count = q**free
        powers = q ** np.arange(free - 1, -1, -1, dtype=np.int64)
        block = np.zeros((count, k), dtype=np.int64)
        block[:, lead] = 1
        if free:
            block[:, lead + 1 :] = (
                np.arange(count, dtype=np.int64)[:, None] // powers
            ) % q
        yield block


# ---------------------------------------------------------
# Parameters
# ---------------------------------------------------------
@pytest.mark.parametrize(
    "n,q,N,K,d",
    [
        (2, 3, 40, 10, 18),
        (3, 3, 3640, 21, 1944),
        (2, 5, 156, 10, 100),
        (3, 5, 101556, 21, 75000),
        (4, 3, 298480, 36, 170586),
    ],
)
def test_closed_form_parameters(n, q, N, K, d):
    p = code_parameters(n, q)
    assert (p.N, p.K, p.d_claimed) == (N, K, d)
    assert p.N == (q ** (2 * n - 2) - 1) * (q ** (2 * n) - 1) // ((q**2 - 1) * (q - 1))
    assert p.K == (2 * n + 1) * n
    assert p.d_claimed == q ** (4 * n - 5) - q ** (3 * n - 4)


def test_parameters_reject_small_n():
    with pytest.raises(InadmissibleParams):
        code_parameters(1, 3)


def test_build_code_small():
    code = the_code(3, 2)
    assert (code.params.N, code.params.K) == (40, 10)
    assert code.generator.shape == (10, 40)
    assert rank_np(F3, code.generator) == 10
    with pytest.raises(ValueError):
        code.generator[0, 0] = 1
    # G is the transpose of the Plücker rows, not a copy of them
    assert code.generator.base is code.lines.plucker


def test_build_code_med():
    code = the_code(3, 3)
    assert (code.params.N, code.params.K) == (3640, 21)
    assert code.generator.shape == (21, 3640)
    assert rank_np(F3, code.generator) == 21


def test_build_code_extension_field():
    # the wide generator over F_9 takes rank_np's extension-field path
    code = the_code(9, 2)
    assert code.generator.shape == (10, 820)
    assert rank_np(field_ctx(9), code.generator) == 10


def test_repr_mentions_parameters():
    assert "N=40" in repr(the_code(3, 2))


# ---------------------------------------------------------
# Messages and forms
# ---------------------------------------------------------
def test_message_round_trip():
    rng = np.random.default_rng(11)
    for dim in (5, 7):
        for af in random_alternating_forms(F3, dim, rng, 10):
            msg = message_from_form(af)
            back = form_from_message(F3, dim, msg)
            assert np.array_equal(back.s, af.s)


def test_message_coordinate_order():
    # pairs (i, j) with i < j in lex order, so (0, 1) first and (3, 4) last
    msg = np.zeros(10, dtype=np.int64)
    msg[0] = 1
    af = form_from_message(F3, 5, msg)
    assert af.s[0, 1] == 1 and af.s[1, 0] == 2
    msg = np.zeros(10, dtype=np.int64)
    msg[9] = 2
    af = form_from_message(F3, 5, msg)
    assert af.s[3, 4] == 2 and af.s[4, 3] == 1


def test_form_from_message_length_check():
    with pytest.raises(DimensionMismatch):
        form_from_message(F3, 5, [1, 0, 0])


@pytest.mark.parametrize("q,bad", [(3, 3), (3, -1), (9, 9)])
def test_form_from_message_rejects_non_elements(q, bad):
    # a message entry outside F_q is refused, not reduced mod p, and named
    # as it was given in the list
    with pytest.raises(InadmissibleParams, match=rf"^{bad} is not an element of F_{q}$"):
        form_from_message(field_ctx(q), 5, [bad] + [0] * 9)


# ---------------------------------------------------------
# Weights
# ---------------------------------------------------------
def test_canonical_weight_small():
    code = the_code(3, 2)
    af = canonical_form(F3, 2, 3, 1, 1)[1]
    cw = codeword_from_form(code, af)
    assert cw.weight == 18
    assert len(cw.values) == 40
    zeros = int((cw.values == 0).sum())
    assert zeros == 22
    assert zeros == isotropic_line_count(code.qs, af)


def test_canonical_weight_med():
    code = the_code(3, 3)
    af = canonical_form(F3, 3, 5, 1, 1)[1]
    cw = codeword_from_form(code, af)
    assert cw.weight == 1944
    assert int((cw.values == 0).sum()) == 1696
    assert isotropic_line_count(code.qs, af) == 1696


def test_case3_space_weight():
    # the (5, 0) shape lives in its own ambient space, not the standard one
    qs, af = canonical_form(F3, 3, 5, 0, 3)
    code = build_code(qs)
    assert form_profile(qs, af) == (5, 0)
    cw = codeword_from_form(code, af)
    assert cw.weight == 2160
    assert cw.weight > code.params.d_claimed
    assert isotropic_line_count(qs, af) == 3640 - 2160


def test_three_weight_paths_agree():
    rng = np.random.default_rng(23)
    code = the_code(3, 2)
    for af in random_alternating_forms(F3, 5, rng, 20):
        w = codeword_from_form(code, af).weight
        assert w == weight(code, message_from_form(af))
        assert w == weight_direct(code, af)
    code = the_code(3, 3)
    for af in random_alternating_forms(F3, 7, rng, 10):
        w = codeword_from_form(code, af).weight
        assert w == weight(code, message_from_form(af))
        assert w == weight_direct(code, af)


@pytest.mark.parametrize("q,dim,seed", [(3, 7, 0), (5, 7, 1), (9, 5, 2), (3, 3, 0), (3, 3, 5)])
def test_random_forms_are_drawn_as_one_row_at_a_time(q, dim, seed):
    # The forms, and the generator's state after them, are those of count
    # one-row draws with zero rows redrawn at once, whether the one draw of
    # all rows is kept or (a zero row among them) given back.
    ctx, k, count = field_ctx(q), dim * (dim - 1) // 2, 100
    batched, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
    forms = random_alternating_forms(ctx, dim, batched, count)
    want = [random_messages(one_by_one, q, k, 1)[0].tolist() for _ in range(count)]
    assert [message_from_form(af).tolist() for af in forms] == want
    assert batched.bit_generator.state == one_by_one.bit_generator.state
    # at q = 3 and dim = 3 a row is zero with probability 1/27
    zero_row = not np.random.default_rng(seed).integers(0, q, size=(count, k)).any(axis=1).all()
    assert zero_row == (dim == 3)


@pytest.mark.parametrize("q", [3, 9])
def test_random_forms_are_admitted_by_their_peak(monkeypatch, q):
    # the admitted bytes cover the traced peak of the draw and its forms
    needs = []
    monkeypatch.setattr(code_module, "check_memory", lambda need, what: needs.append(need))
    for dim in (5, 9):
        peak, _ = traced_peak(lambda: random_alternating_forms(field_ctx(q), dim, np.random.default_rng(0), 10000))
        assert peak <= needs[-1]


def test_first_coordinate_message():
    # the first message coordinate reads off the (0, 1) minor of each line
    code = the_code(3, 2)
    e1 = [1] + [0] * 9
    pts = quadric_points(code.qs)
    u = pts[code.lines.gens[:, 0]]
    v = pts[code.lines.gens[:, 1]]
    minors = (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]) % 3
    assert weight(code, e1) == int((minors != 0).sum()) == 18


def test_weight_scaling_invariance():
    rng = np.random.default_rng(5)
    code = the_code(3, 2)
    for _ in range(10):
        m = rng.integers(0, 3, size=10)
        if not m.any():
            continue
        assert weight(code, m) == weight(code, (2 * m) % 3)


def test_weight_errors():
    code = the_code(3, 2)
    with pytest.raises(DimensionMismatch):
        codeword_from_form(code, random_alternating_forms(F3, 7, np.random.default_rng(0), 1)[0])
    with pytest.raises(DimensionMismatch):
        codeword_from_form(code, random_alternating_forms(F5, 5, np.random.default_rng(0), 1)[0])
    with pytest.raises(ZeroMessage):
        codeword_from_form(code, form_from_message(F3, 5, [0] * 10))


# ---------------------------------------------------------
# Exact minimum distance
# ---------------------------------------------------------
def test_min_distance_exact_small():
    code = the_code(3, 2)
    assert min_distance_exact(code) == 18 == code.params.d_claimed


def test_min_distance_exact_q5():
    code = the_code(5, 2)
    assert min_distance_exact(code) == 100 == code.params.d_claimed


@pytest.mark.slow
def test_min_distance_exact_q11():
    # (11^10 - 1)/10 = 2,593,742,460 projective messages
    code = standard_code(field_ctx(11), 2)
    assert min_distance_exact(code, budget=3 * 10**9) == 1210 == code.params.d_claimed


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_agreement_tables_count_equal_values(q):
    # [x = y] = [x = 0] + high[x] . low[y] for every (x, y) in F_q^2
    high, low = code_module._agreement_tables(q)
    assert high.shape == low.shape == (q, q - 1)
    assert high.dtype == low.dtype == np.float32
    is_zero = (np.arange(q) == 0)[:, None]
    assert np.array_equal(is_zero + high @ low.T, np.eye(q))


def traced_peak(run):
    """The peak bytes tracemalloc sees during run(), and its result."""
    tracemalloc.start()
    try:
        out = run()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def projective_column_count(ctx, cols):
    """The points of projective space spanned by the nonzero columns of a
    matrix."""
    nonzero = cols[:, cols.any(axis=0)]
    return len(np.unique(ctx.np_normalize_rows(nonzero.T), axis=0))


def test_min_distance_exact_peak_memory():
    # The certification of the characters runs first and frees its blocks.
    # Then the scan holds the float32 table, q^b rows of P(q-1) one-hot
    # features, P the points spanned by the nonzero low columns (30 at
    # (2,5), 54 at (2,9)); the q^b P low products it is built from, in
    # float64, int32 and two int32 mod temporaries, and the int64 digits
    # of every low part; per line its place in the order, group, scale,
    # slot base, q slots and float64 high column, all 8 bytes; one block's
    # per-row arrays, within the 512 KiB of a block (_block_rows); and the
    # last block of the orbit representatives, within their own peak.  The
    # N(q-1)-wide table of one feature per line and value is 1.6 MB at
    # (2,5) and 19 MB at (2,9), past this bound.  b = 4 at (2,5) and 3 at
    # (2,9): 5^4 = 625 and 9^3 = 729 are the first powers to reach
    # SCAN_TABLE_ROWS.
    for q, b in [(5, 4), (9, 3)]:
        code = the_code(q, 2)
        k, nn = code.params.K, code.params.N
        npts = projective_column_count(code.ctx, code.generator[k - b :])
        certify, chars = traced_peak(lambda: code_module._diagonal_characters(code))
        reps, _ = traced_peak(lambda: deque(code_module._orbit_representatives(code.ctx, chars[:, : k - b]), 0))
        table = 4 * q**b * npts * (q - 1)
        low = q**b * (20 * npts + 8 * b)
        per_line = 8 * nn * (4 + q + k - b)
        peak, d = traced_peak(lambda: min_distance_exact(code, budget=10**9))
        block = 8 * (geometry.PAIR_BLOCK_ENTRIES >> 4)
        assert peak <= max(certify, table + low + per_line + block + reps)
        assert d == code.params.d_claimed


def test_min_distance_budget():
    code = the_code(3, 3)
    with pytest.raises(BudgetExceeded) as exc:
        min_distance_exact(code)
    assert exc.value.bound == (3**21 - 1) // 2 == 5230176601
    with pytest.raises(BudgetExceeded):
        min_distance_exact(the_code(3, 2), budget=10)
    # (3^20100 - 1) / 2 has 9590 digits, past what str() converts
    with pytest.raises(BudgetExceeded, match="^more than 10\\^9589 projective messages exceed the budget 10$") as exc:
        check_scan_budget(3, code_parameters(100, 3).K, 10)
    assert exc.value.bound == (3**20100 - 1) // 2
    with pytest.raises(BudgetExceeded, match="^435848050 projective messages exceed the budget 10000000$"):
        check_scan_budget(9, code_parameters(2, 9).K, 10**7)
    # past the budget by over 2^20 bits the power is never computed
    k = 2**63 * (2**64 + 1)
    with pytest.raises(BudgetExceeded, match=f"^\\(3\\^{k} - 1\\)/\\(3 - 1\\) projective messages exceed the budget 10$"):
        check_scan_budget(3, k, 10)


def brute_force_min_distance(code):
    """Minimum weight over every message with leading coefficient 1."""
    q, k = code.params.q, code.params.K
    return min(
        weight(code, [0] * lead + [1] + list(tail))
        for lead in range(k)
        for tail in product(range(q), repeat=k - 1 - lead)
    )


def generator_code(q, gmat):
    """A code over F_q with an arbitrary generator; the scan reads only
    the field, N, K and the generator."""
    code = the_code(q, 2)
    k, nn = gmat.shape
    return PolarCode(code.qs, code.lines, gmat, replace(code.params, N=nn, K=k))


def leading_rows_code(q, r):
    """Code spanned by the first r rows of the (2, q) generator matrix."""
    return generator_code(q, the_code(q, 2).generator[:r])


def small_scan_blocks(monkeypatch, code):
    """A table of q rows and one high part per block: a block holds the
    8-byte entries of one high part at b = 1, which has at most one point."""
    q, k, nn = code.params.q, code.params.K, code.params.N
    lines = int(np.count_nonzero(code.generator[-1]))
    row = code_module._scan_row_bytes(q, k - 1, 1, nn, lines, int(lines > 0))
    monkeypatch.setattr(code_module, "SCAN_TABLE_ROWS", q)
    monkeypatch.setattr(geometry, "PAIR_BLOCK_ENTRIES", 16 * -(-row // 8))


@pytest.mark.parametrize("q,r", [(3, 7), (5, 5), (7, 6), (9, 4), (27, 3)])
@pytest.mark.parametrize("small_blocks", [False, True])
def test_min_distance_exact_matches_brute_force(monkeypatch, q, r, small_blocks):
    code = leading_rows_code(q, r)
    if small_blocks:
        small_scan_blocks(monkeypatch, code)
    assert min_distance_exact(code) == brute_force_min_distance(code)


def matmul_min_distance(code):
    """Minimum weight over every canonical message, evaluated by the field's
    own matrix product."""
    msgs = np.vstack(list(canonical_messages(code.params.q, code.params.K)))
    vals = code.ctx.np_matmul(msgs, code.generator)
    return int(np.count_nonzero(vals, axis=1).min())


@given(
    q=st.sampled_from([3, 5, 7, 9]),
    k=st.integers(1, 6),
    nn=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    small_blocks=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_min_distance_exact_random_generators(q, k, nn, seed, small_blocks):
    gmat = np.random.default_rng(seed).integers(0, q, size=(k, nn))
    code = generator_code(q, gmat)
    with pytest.MonkeyPatch.context() as mp:
        if small_blocks:
            small_scan_blocks(mp, code)
        assert min_distance_exact(code) == matmul_min_distance(code)


@st.composite
def grouped_generators(draw):
    """(q, generator) over F_q with a uniform first row and other rows
    whose columns are scaled copies of a few base columns (some of them
    zero) with mixed scalars, all zero, scaled copies of one column, or
    scaled distinct points.  Every split the scan can choose has b <= K - 1,
    so its low columns keep that shape, save that distinct points may
    meet once cut to their last b rows."""
    q = draw(st.sampled_from([3, 5, 7, 9, 25]))
    k = draw(st.integers(2, 4 if q == 25 else 5))
    kind = draw(st.sampled_from(["scaled", "zero", "one group", "distinct"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ctx = field_ctx(q)
    if kind == "distinct":
        points = projective_points(ctx, k - 1)
        cols = points[rng.permutation(len(points))[: draw(st.integers(1, min(40, len(points))))]]
    else:
        bases = rng.integers(0, q, size=({"scaled": draw(st.integers(2, 4)), "zero": 1, "one group": 1}[kind], k - 1))
        if kind == "zero" or draw(st.booleans()):
            bases[0] = 0
        if kind == "one group":
            bases[0, draw(st.integers(0, k - 2))] = draw(st.integers(1, q - 1))
        cols = bases[rng.integers(0, len(bases), size=draw(st.integers(1, 40)))]
    gmat = np.empty((k, len(cols)), dtype=np.int64)
    gmat[0] = rng.integers(0, q, size=len(cols))
    gmat[1:] = ctx.np_mul(cols, rng.integers(1, q, size=len(cols))[:, None]).T
    return q, gmat


@given(drawn=grouped_generators(), small_blocks=st.booleans())
@settings(max_examples=120, deadline=None)
def test_min_distance_exact_grouped_low_columns(drawn, small_blocks):
    q, gmat = drawn
    code = generator_code(q, gmat)
    with pytest.MonkeyPatch.context() as mp:
        if small_blocks:
            small_scan_blocks(mp, code)
        assert min_distance_exact(code) == matmul_min_distance(code)


def single_minimum_code(q, mstar):
    """Columns: every projective point x of F_q^5 with mstar . x = 0, then
    one unit vector off that hyperplane.  mstar has weight 1; any message
    that is not a multiple of it is a nonzero functional on the hyperplane,
    so its weight is at least q^3."""
    ctx = field_ctx(q)
    pts = projective_points(ctx, len(mstar))
    on = ctx.np_matmul(pts, np.asarray(mstar)[:, None])[:, 0] == 0
    off = np.eye(len(mstar), dtype=np.int64)[[np.flatnonzero(mstar)[0]]]
    return generator_code(q, np.vstack([pts[on], off]).T.copy())


@pytest.mark.parametrize("q", [3, 5, 9])
@pytest.mark.parametrize("small_blocks", [False, True])
@pytest.mark.parametrize("where", ["zero high part", "last high block"])
def test_min_distance_exact_single_minimum(monkeypatch, q, small_blocks, where):
    # for every split a + b = 5 with b >= 1, the only minimum word
    # (0, 0, 0, 0, 1) has a zero high part, and (1, q-1, q-1, q-1, 0) has
    # the high part (1, q-1, ..., q-1), the last one the scan visits
    mstar = [0, 0, 0, 0, 1] if where == "zero high part" else [1, q - 1, q - 1, q - 1, 0]
    code = single_minimum_code(q, mstar)
    if small_blocks:
        small_scan_blocks(monkeypatch, code)
    assert weight(code, mstar) == 1
    assert min_distance_exact(code) == 1


# ---------------------------------------------------------
# Quotient of the scan by the diagonal characters
# ---------------------------------------------------------
def identity_only(monkeypatch):
    """Make the scan's group trivial, so it weighs every projective high
    part: the unreduced scan."""
    monkeypatch.setattr(
        code_module, "_diagonal_characters", lambda code: np.ones((1, code.params.K), dtype=np.int64)
    )


@pytest.mark.parametrize("q", [3, 5, 7])
def test_quotiented_scan_matches_unreduced(monkeypatch, q):
    code = the_code(q, 2)
    quotiented = min_distance_exact(code, budget=10**9)
    identity_only(monkeypatch)
    assert min_distance_exact(code, budget=10**9) == quotiented == code.params.d_claimed


@pytest.mark.parametrize(
    "q,count",
    [(3, 4), (5, 16), (7, 36), (9, 64), (11, 100)],
)
def test_diagonal_characters_of_standard_codes(q, count):
    # (q-1)^2 tori times the sign on the anisotropic coordinate, modulo -I;
    # each is certified on the code's own columns
    chars = code_module._diagonal_characters(the_code(q, 2))
    assert chars.shape == (count, 10)
    assert len({tuple(c) for c in chars}) == count
    assert (chars == 1).all(axis=1).any()
    assert (chars != 0).all()


def orbit_keys(ctx, chars, points):
    """(|H|, R) base-q keys of every image chi . h, normalised to lead 1, of
    the rows h of points under the rows chi of chars."""
    powers = ctx.q ** np.arange(points.shape[1] - 1, -1, -1, dtype=np.int64)
    return np.array([ctx.np_normalize_rows(ctx.np_mul(chi, points)) @ powers for chi in chars])


# a = 4, 6 and 7 are the scan's high widths at (2,3), (2,5) and (2,9); the
# one-character cases walk the trivial group
ORBIT_CASES = [(3, 1, False), (3, 2, False), (3, 4, False), (3, 7, False), (3, 10, False), (5, 6, False), (9, 7, False)]
ORBIT_CASES += [(3, 4, True), (9, 3, True)]


@pytest.mark.parametrize("q,a,one", ORBIT_CASES, ids=[f"{q}-{a}" + "-one-character" * one for q, a, one in ORBIT_CASES])
def test_orbit_representatives_cover_once(q, a, one):
    # the orbits of the kept points under H x F_q^* are pairwise disjoint
    # and together are every point of PG(a-1, q)
    code = the_code(q, 2)
    chars = np.ones((1, a), dtype=np.int64) if one else code_module._diagonal_characters(code)[:, :a]
    reps = np.vstack(list(code_module._orbit_representatives(code.ctx, chars)))
    keys = np.sort(orbit_keys(code.ctx, chars, reps), axis=0)
    orbits = keys[np.vstack([np.ones((1, len(reps)), bool), keys[1:] != keys[:-1]])]
    total = (q**a - 1) // (q - 1)
    # every key is that of a point of PG(a-1, q), so total distinct keys
    # are all of them
    assert len(orbits) == len(np.unique(orbits)) == total
    if one:
        # the trivial group keeps every point, in projective_block order
        assert np.array_equal(reps, projective_block(q, a, 0, total))
    else:
        assert len(reps) < total or a == 1


def test_orbit_representatives_counts():
    # one high part per orbit: 279 of 3,906 at (2,5), 9,429 of 597,871 at (2,9)
    for q, a, count in [(5, 6, 279), (9, 7, 9429)]:
        code = the_code(q, 2)
        chars = code_module._diagonal_characters(code)[:, :a]
        assert sum(len(b) for b in code_module._orbit_representatives(code.ctx, chars)) == count


def test_certification_drops_characters_of_a_perturbed_column(monkeypatch):
    # column 0 of the (2,5) generator is the unit vector e_9, which every
    # character fixes up to scale; as the all-ones column, chi . 1 is
    # another column only for chi = 1
    code = the_code(5, 2)
    gmat = code.generator.copy()
    gmat[:, 0] = 1
    fake = generator_code(5, gmat)
    assert np.array_equal(code_module._diagonal_characters(fake), np.ones((1, 10), dtype=np.int64))
    quotiented = min_distance_exact(fake)
    identity_only(monkeypatch)
    assert min_distance_exact(fake) == quotiented


def test_certification_keeps_a_subgroup(monkeypatch):
    # one entry of column 0 changed: 4 of the 16 characters still map the
    # columns onto themselves, and they are closed under products
    code = the_code(5, 2)
    gmat = code.generator.copy()
    gmat[0, 0] = 1
    fake = generator_code(5, gmat)
    chars = code_module._diagonal_characters(fake)
    assert len(chars) == 4
    kept = {tuple(c) for c in chars}
    assert {tuple(code.ctx.np_mul(x, y)) for x in chars for y in chars} == kept
    quotiented = min_distance_exact(fake)
    identity_only(monkeypatch)
    assert min_distance_exact(fake) == quotiented


def test_negative_seed_is_inadmissible():
    with pytest.raises(InadmissibleParams, match="seed must be >= 0, got -1"):
        min_distance_certified(the_code(3, 2), samples=0, seed=-1)


def test_memory_estimate():
    # the singular points of Q(2n, q) twice (the pieces kept per block of
    # their pass and their concatenation), one block of 512 KiB and 256
    # bytes per block; then the larger of the line enumerator's peak and
    # the rank check's: per line the int64 plucker row (G is a view of
    # it), the generator pair and seven int64 of rank_np's blocks.  The
    # enumerator's peak is the larger of three int64 copies of its product
    # block with two int64 ids per line, and per line two int16 wedge rows,
    # the int64 plucker row and three int64 ids, plus 64 KiB.
    block = 24 * PAIR_BLOCK_ENTRIES
    assert point_bytes(3, 5) == 32 * 5 * 121
    # 121 points in one block of 2184 rows; 19531 in 13 blocks of 1560
    assert quadric_point_bytes(2, 3) == 16 * 5 * 40 + 2**19 + 256
    assert quadric_point_bytes(3, 5) == 16 * 7 * 3906 + 2**19 + 256 * 13
    assert line_bytes(2, 3) == block + 16 * 40
    assert line_bytes(3, 5) == 101556 * (4 * 21 + 8 * 21 + 24) + 2**16
    assert memory_estimate(2, 3) == quadric_point_bytes(2, 3) + block + 16 * 40
    assert memory_estimate(3, 5) == quadric_point_bytes(3, 5) + line_bytes(3, 5) > quadric_point_bytes(3, 5) + 101556 * (8 * 21 + 72)
    p = code_parameters(2, 125)
    assert memory_estimate(2, 125) == quadric_point_bytes(2, 125) + p.N * (8 * p.K + 72) > quadric_point_bytes(2, 125) + line_bytes(2, 125)
    p = code_parameters(5, 3)
    assert memory_estimate(5, 3) > 8 * p.N * p.K > 9 * 2**30
    # the points of (4, 9) fit where all of PG(8, 9) did not
    assert quadric_point_bytes(4, 9) < 2**30 < 12.9 * 2**30 < point_bytes(9, 9)
    assert point_bytes(3, 199999) == quadric_point_bytes(99999, 3) == memory_estimate(99999, 3) == line_bytes(99999, 3) == float("inf")
    assert memory_estimate(10**12, 3) == float("inf")


@pytest.mark.parametrize("q,n", [(3, 3), (27, 2), (5, 3)])
def test_memory_estimate_bounds_build_peak(q, n):
    # the points of PG(2n, q) may be cached by earlier tests, which only
    # lowers the measured peak
    qs = standard_space(field_ctx(q), n)
    tracemalloc.start()
    try:
        build_code(qs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= memory_estimate(n, q)


@pytest.mark.parametrize("n,q", [(3, 5), (4, 3)])
def test_memory_estimate_tracks_build_peak(n, q):
    # on a fresh space, so build_code also enumerates the points; the line
    # enumerator alone stays within its own estimate
    qs = standard_space(field_ctx(q), n)
    tracemalloc.start()
    try:
        quadric_points(qs)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        enumerate_singular_lines(qs)
        lines_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert lines_peak <= line_bytes(n, q)
    qs = standard_space(field_ctx(q), n)
    tracemalloc.start()
    try:
        build_code(qs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.0 <= memory_estimate(n, q) / peak <= 1.5


# ---------------------------------------------------------
# Chunked weight evaluation
# ---------------------------------------------------------
@pytest.mark.parametrize("q,n", [(3, 3), (9, 2)])
def test_weights_chunked_match_one_block(monkeypatch, q, n):
    code = the_code(q, n)
    batch = random_messages(np.random.default_rng(q), q, code.params.K, 50)
    whole = _weights_np(code, batch)
    monkeypatch.setattr(geometry, "BLAS_MADDS", code.params.K * len(batch) * 7)
    assert np.array_equal(_weights_np(code, batch), whole)
    dim = 2 * n + 1
    for msg, w in zip(batch[:5], whole[:5]):
        assert w == weight_direct(code, form_from_message(code.ctx, dim, msg))


# ---------------------------------------------------------
# Certified search
# ---------------------------------------------------------
def test_certified_small():
    rec = min_distance_certified(the_code(3, 2), samples=500, seed=1)
    assert rec["claimed"] == 18
    assert rec["upper_bound"] == 18
    assert rec["min_sampled"] >= 18
    assert rec["samples_checked"] == 500


def test_certified_med():
    rec = min_distance_certified(the_code(3, 3), samples=200, seed=7)
    assert rec == {
        "claimed": 1944,
        "upper_bound": 1944,
        "samples_checked": 200,
        "min_sampled": 2322,
    }


def test_certified_deterministic():
    a = min_distance_certified(the_code(3, 2), samples=300, seed=42)
    b = min_distance_certified(the_code(3, 2), samples=300, seed=42)
    assert a == b


def test_certified_counterexample():
    # inflate the claim so any sample is a witness against it
    code = the_code(3, 2)
    fake = PolarCode(
        code.qs,
        code.lines,
        code.generator,
        replace(code.params, d_claimed=code.params.N + 1),
    )
    with pytest.raises(CounterexampleFound) as exc:
        min_distance_certified(fake, samples=50, seed=0)
    witness = exc.value.witness
    assert isinstance(witness, list) and len(witness) == 10
    assert weight(code, witness) <= code.params.N


# ---------------------------------------------------------
# Minimum weight words
# ---------------------------------------------------------
def test_minimum_weight_classes_small():
    # weight 18 is reached by two inequivalent shapes, not one: the (3, 1)
    # words and the rank 4 words with radical profile (1, 0) tie exactly
    code = the_code(3, 2)
    tally = Counter()
    for block in canonical_messages(3, 10):
        g = code.generator.astype(np.float64)
        w = ((block.astype(np.float64) @ g) % 3 != 0).sum(axis=1)
        for i in np.flatnonzero(w == 18):
            af = form_from_message(F3, 5, block[i])
            cen = empirical_census(code.qs, af)
            tally[(form_profile(code.qs, af), cen.as_tuple())] += 1
    assert tally == Counter(
        {
            ((3, 1), (7, 6, 27, 0)): 240,
            ((1, 0), (8, 8, 24, 0)): 540,
        }
    )


@pytest.mark.parametrize("q,shared", [(3, 22), (5, 56)])
def test_minimum_weight_tie_closed_form(q, shared):
    # both shapes reach the same line count, so the complement weights tie
    assert case_line_count(3, 2, q, 1, 0) == shared
    assert case_line_count(1, 2, q, 3, 1) == shared


def test_minimum_weight_classes_q5():
    code = the_code(5, 2)
    tally = Counter()
    for block in canonical_messages(5, 10):
        for lo in range(0, len(block), 65536):
            part = block[lo : lo + 65536]
            w = _weights_np(code, part)
            for i in np.flatnonzero(w == 100):
                tally[form_profile(code.qs, form_from_message(F5, 5, part[i]))] += 1
    assert tally == Counter({(3, 1): 2340, (1, 0): 9750})


# ---------------------------------------------------------
# Restriction from the full line set
# ---------------------------------------------------------
def test_restriction_from_full_line_set():
    # evaluate the canonical form on every line of the projective space,
    # then keep only the lines on the quadric: the counts must match the
    # codeword computed from minors
    qs = standard_space(F3, 2)
    code = the_code(3, 2)

    pts = []
    for first in range(5):
        free = 4 - first
        for t in range(3**free):
            v = [0] * first + [1] + [(t // 3 ** (free - 1 - k)) % 3 for k in range(free)]
            pts.append(v)
    pts = np.array(pts, dtype=np.int64)
    assert len(pts) == 121

    def norm(v):
        v = v % 3
        lead = v[np.flatnonzero(v)[0]]
        return tuple(v if lead == 1 else (2 * v) % 3)

    spans = {}
    for i, j in combinations(range(len(pts)), 2):
        u, v = pts[i], pts[j]
        members = tuple(sorted(norm(a * u + b * v) for a, b in [(1, 0), (0, 1), (1, 1), (1, 2)]))
        spans.setdefault(members, (u, v))
    assert len(spans) == 1210

    af = canonical_form(F3, 2, 3, 1, 1)[1]
    s = af.s
    gram = qs.gram
    on_quadric = []
    for members, (u, v) in spans.items():
        if all(int(np.array(m) @ gram @ np.array(m)) % 3 == 0 for m in members):
            on_quadric.append(int(u @ s @ v % 3))
    assert len(on_quadric) == 40
    assert sum(1 for x in on_quadric if x) == codeword_from_form(code, af).weight == 18
    assert sum(1 for x in on_quadric if not x) == 22


# ---------------------------------------------------------
# Serialization
# ---------------------------------------------------------
def parse_code_text(text):
    """Reader of the text export: an 'N K q n' header, K generator rows,
    then '# d_claimed d'."""
    rows = text.splitlines()
    nn, kk, q, n = (int(t) for t in rows[0].split())
    g = [[int(t) for t in ln.split()] for ln in rows[1 : 1 + kk]]
    assert all(len(row) == nn for row in g)
    tag, key, d_claimed = rows[1 + kk].split()
    assert (tag, key) == ("#", "d_claimed")
    return {"N": nn, "K": kk, "q": q, "n": n, "d_claimed": int(d_claimed), "G": g}


def test_export_text_round_trip():
    code = the_code(3, 2)
    text = export_code_text(code)
    lines = text.splitlines()
    assert lines[0] == "40 10 3 2"
    assert lines[-1] == "# d_claimed 18"
    rec = parse_code_text(text)
    assert (rec["N"], rec["K"], rec["q"], rec["n"]) == (40, 10, 3, 2)
    assert rec["d_claimed"] == 18
    assert rec["G"] == code.generator.tolist()


def test_export_med_header():
    text = export_code_text(the_code(3, 3))
    lines = text.splitlines()
    assert lines[0] == "3640 21 3 3"
    assert lines[-1] == "# d_claimed 1944"


def test_export_json_round_trip():
    code = the_code(3, 2)
    rec = json.loads(export_code_json(code))
    assert (rec["N"], rec["K"], rec["q"], rec["n"]) == (40, 10, 3, 2)
    assert rec["d_claimed"] == 18
    assert rec["G"] == code.generator.tolist()


def test_export_dispatch():
    code = the_code(3, 2)
    assert export_code(code, "text") == export_code_text(code)
    assert json.loads(export_code(code, "json"))["N"] == 40
    with pytest.raises(IoError):
        export_code(code, "yaml")


# ---------------------------------------------------------
# Larger instance, counted through point pairs
# ---------------------------------------------------------
def test_pair_counts_n4():
    # dim 9 has too many lines to list, but every line carries exactly
    # C(q+1, 2) = 6 unordered pairs of perpendicular singular points
    ctx = F3
    qs = standard_space(ctx, 4)
    # the canonical (7, 1) form lives on the standard space itself
    shape_space, af = canonical_form(ctx, 4, 7, 1, 1)
    assert np.array_equal(shape_space.gram, qs.gram)
    params = code_parameters(4, 3)

    pts = quadric_points(qs)
    assert len(pts) == 3280 == (3**8 - 1) // 2

    g = qs.gram.astype(np.float64)
    fp = pts.astype(np.float64)
    perp = (fp @ g @ fp.T) % 3 == 0
    np.fill_diagonal(perp, False)
    assert int(perp.sum()) // 2 == 6 * params.N == 1790880

    vals = (fp @ af.s.astype(np.float64) @ fp.T) % 3
    iso = perp & (vals == 0)
    f = int(iso.sum()) // 2 // 6
    assert f == 127894
    assert params.N - f == 170586 == params.d_claimed

    # dimension check on a spread-out sample of the lines
    ii, jj = np.nonzero(np.triu(perp, 1))
    sel = np.arange(0, len(ii), max(1, len(ii) // 4000))
    u, v = pts[ii[sel]], pts[jj[sel]]
    a, b = np.triu_indices(9, 1)
    minors = (u[:, a] * v[:, b] - u[:, b] * v[:, a]) % 3
    assert rank_np(ctx, minors) == 36 == params.K


# ---------------------------------------------------------
# Weight floor
# ---------------------------------------------------------
def test_weight_floor():
    def floor(n, q):
        return q ** (2 * n - 3) + q ** (2 * n - 4) - q

    assert floor(3, 3) == 33
    assert min_distance_exact(the_code(3, 2)) >= floor(2, 3)
    assert min_distance_exact(the_code(5, 2)) >= floor(2, 5)
    rec = min_distance_certified(the_code(3, 3), samples=500, seed=3)
    assert rec["min_sampled"] >= floor(3, 3)
    assert code_parameters(3, 3).d_claimed >= floor(3, 3)
    assert code_parameters(3, 5).d_claimed >= floor(3, 5)
