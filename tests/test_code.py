# tests/test_code.py
import json
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polargrass import code as code_module
from polargrass.code import (
    BudgetExceeded,
    PolarCode,
    _weights_np,
    build_code,
    code_parameters,
    codeword_from_form,
    export_code,
    export_code_json,
    export_code_text,
    form_from_message,
    form_weight_direct,
    memory_estimate,
    message_from_form,
    min_distance_certified,
    min_distance_exact,
    parse_code,
    parse_code_text,
    random_alternating_form,
    random_messages,
    standard_code,
    weight_of_message,
)
from polargrass.counting import case1_line_count, case_line_count
from polargrass.errors import (
    CounterexampleFound,
    DimensionMismatch,
    InadmissibleParams,
    IoError,
    ZeroMessage,
)
from polargrass.field import field_ctx
from polargrass.forms import (
    build_M,
    build_S,
    form_profile,
    point_bytes,
    projective_points,
    standard_space,
)
from polargrass.geometry import (
    PAIR_BLOCK_ENTRIES,
    empirical_census,
    isotropic_line_count,
    quadric_points,
)
from polargrass.matrix import rank_np

F3 = field_ctx(3)
F5 = field_ctx(5)


@lru_cache(maxsize=None)
def the_code(q, n):
    return standard_code(field_ctx(q), n)


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
        for _ in range(10):
            af = random_alternating_form(F3, dim, rng)
            msg = message_from_form(af)
            back = form_from_message(F3, dim, msg)
            assert np.array_equal(back.s_np(), af.s_np())


def test_message_coordinate_order():
    # pairs (i, j) with i < j in lex order, so (0, 1) first and (3, 4) last
    msg = np.zeros(10, dtype=np.int64)
    msg[0] = 1
    af = form_from_message(F3, 5, msg)
    assert af.s_np()[0, 1] == 1 and af.s_np()[1, 0] == 2
    msg = np.zeros(10, dtype=np.int64)
    msg[9] = 2
    af = form_from_message(F3, 5, msg)
    assert af.s_np()[3, 4] == 2 and af.s_np()[4, 3] == 1


def test_form_from_message_length_check():
    with pytest.raises(DimensionMismatch):
        form_from_message(F3, 5, [1, 0, 0])


# ---------------------------------------------------------
# Weights
# ---------------------------------------------------------
def test_canonical_weight_small():
    code = the_code(3, 2)
    cw = codeword_from_form(code, build_S(code.qs, s11="auto"))
    assert cw.weight == 18
    assert len(cw.values) == 40
    zeros = int((cw.values == 0).sum())
    assert zeros == 22
    assert zeros == isotropic_line_count(code.qs, build_S(code.qs, s11="auto"))


def test_canonical_weight_med():
    code = the_code(3, 3)
    af = build_S(code.qs, s11="auto")
    cw = codeword_from_form(code, af)
    assert cw.weight == 1944
    assert int((cw.values == 0).sum()) == 1696
    assert isotropic_line_count(code.qs, af) == 1696


def test_case3_space_weight():
    # the (5, 0) shape lives in its own ambient space, not the standard one
    qs = build_M(F3, 3, 5, 0, 3)
    code = build_code(qs)
    af = build_S(qs)
    assert form_profile(qs, af) == (5, 0)
    cw = codeword_from_form(code, af)
    assert cw.weight == 2160
    assert cw.weight > code.params.d_claimed
    assert isotropic_line_count(qs, af) == 3640 - 2160


def test_three_weight_paths_agree():
    rng = np.random.default_rng(23)
    code = the_code(3, 2)
    for _ in range(20):
        af = random_alternating_form(F3, 5, rng)
        w = codeword_from_form(code, af).weight
        assert w == weight_of_message(code, message_from_form(af))
        assert w == form_weight_direct(code, af)
    code = the_code(3, 3)
    for _ in range(10):
        af = random_alternating_form(F3, 7, rng)
        w = codeword_from_form(code, af).weight
        assert w == weight_of_message(code, message_from_form(af))
        assert w == form_weight_direct(code, af)


def test_first_coordinate_message():
    # the first message coordinate reads off the (0, 1) minor of each line
    code = the_code(3, 2)
    e1 = [1] + [0] * 9
    pts = quadric_points(code.qs)
    u = pts[code.lines.gens[:, 0]]
    v = pts[code.lines.gens[:, 1]]
    minors = (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]) % 3
    assert weight_of_message(code, e1) == int((minors != 0).sum()) == 18


def test_weight_scaling_invariance():
    rng = np.random.default_rng(5)
    code = the_code(3, 2)
    for _ in range(10):
        m = rng.integers(0, 3, size=10)
        if not m.any():
            continue
        assert weight_of_message(code, m) == weight_of_message(code, (2 * m) % 3)


def test_weight_errors():
    code = the_code(3, 2)
    with pytest.raises(DimensionMismatch):
        weight_of_message(code, [1, 0, 0])
    with pytest.raises(ZeroMessage):
        weight_of_message(code, [0] * 10)
    with pytest.raises(DimensionMismatch):
        codeword_from_form(code, random_alternating_form(F3, 7, np.random.default_rng(0)))
    with pytest.raises(DimensionMismatch):
        codeword_from_form(code, random_alternating_form(F5, 5, np.random.default_rng(0)))
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


def test_min_distance_budget():
    code = the_code(3, 3)
    with pytest.raises(BudgetExceeded) as exc:
        min_distance_exact(code)
    assert exc.value.bound == (3**21 - 1) // 2 == 5230176601
    with pytest.raises(BudgetExceeded):
        min_distance_exact(the_code(3, 2), budget=10)


def brute_force_min_distance(code):
    """Minimum weight over every message with leading coefficient 1."""
    q, k = code.params.q, code.params.K
    return min(
        weight_of_message(code, [0] * lead + [1] + list(tail))
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
    """A table of at most q rows and one high part per block."""
    monkeypatch.setattr(code_module, "SCAN_TABLE_ROWS", code.params.q)
    monkeypatch.setattr(code_module, "SCAN_BLOCK_BYTES", 4 * code.params.q * code.params.N)


@pytest.mark.parametrize("q,r", [(3, 7), (5, 5), (9, 4), (27, 3)])
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
    q=st.sampled_from([3, 5, 9]),
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
    assert weight_of_message(code, mstar) == 1
    assert min_distance_exact(code) == 1


def test_memory_estimate():
    # the points of PG(2n, q) (four int64 arrays of points x dim), three
    # int64 copies of the enumerator's product block, 6K + 2 dim int64 per line
    block = 24 * PAIR_BLOCK_ENTRIES
    assert point_bytes(3, 5) == 32 * 5 * 121
    assert memory_estimate(2, 3) == 32 * 5 * 121 + block + 8 * 40 * (6 * 10 + 2 * 5)
    assert memory_estimate(3, 5) == 32 * 7 * 19531 + block + 8 * 101556 * (6 * 21 + 2 * 7)
    p = code_parameters(5, 3)
    assert memory_estimate(5, 3) > 6 * 8 * p.N * p.K > 50 * 2**30
    assert point_bytes(3, 199999) == memory_estimate(99999, 3) == float("inf")
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


# ---------------------------------------------------------
# Chunked weight evaluation
# ---------------------------------------------------------
@pytest.mark.parametrize("q,n", [(3, 3), (9, 2)])
def test_weights_chunked_match_one_block(monkeypatch, q, n):
    code = the_code(q, n)
    batch = random_messages(np.random.default_rng(q), q, code.params.K, 50)
    whole = _weights_np(code, batch)
    monkeypatch.setattr(code_module, "EVAL_CHUNK_BYTES", 8 * code.params.N * 7)
    assert np.array_equal(_weights_np(code, batch), whole)
    dim = 2 * n + 1
    for msg, w in zip(batch[:5], whole[:5]):
        assert w == form_weight_direct(code, form_from_message(code.ctx, dim, msg))


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
    assert weight_of_message(code, witness) <= code.params.N


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
    assert case1_line_count(2, q, 3, 1) == shared


def test_minimum_weight_classes_q5():
    code = the_code(5, 2)
    g = code.generator.astype(np.float64)
    tally = Counter()
    for block in canonical_messages(5, 10):
        for lo in range(0, len(block), 65536):
            part = block[lo : lo + 65536]
            # every sum is at most 10 * 4 * 4 = 160, so the product is exact
            w = ((part.astype(np.float64) @ g).astype(np.int32) % 5 != 0).sum(axis=1)
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

    af = build_S(qs, s11="auto")
    s = af.s_np()
    gram = qs.gram.to_numpy()
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
    rec = parse_code(export_code_json(code))
    assert (rec["N"], rec["K"], rec["q"], rec["n"]) == (40, 10, 3, 2)
    assert rec["d_claimed"] == 18
    assert rec["G"] == code.generator.tolist()


def test_export_dispatch():
    code = the_code(3, 2)
    assert export_code(code, "text") == export_code_text(code)
    assert json.loads(export_code(code, "json"))["N"] == 40
    with pytest.raises(IoError):
        export_code(code, "yaml")


def test_parse_text_accepts_text_via_generic_reader():
    code = the_code(3, 2)
    assert parse_code(export_code_text(code)) == parse_code_text(export_code_text(code))


def test_parse_errors():
    with pytest.raises(IoError):
        parse_code_text("")
    with pytest.raises(IoError):
        parse_code_text("40 10 3\n")
    with pytest.raises(IoError):
        parse_code_text("a b c d\n")
    with pytest.raises(IoError):
        parse_code_text("2 2 3 2\n1 0\n")
    with pytest.raises(IoError):
        parse_code_text("2 2 3 2\n1 0\n1 0 1\n")
    with pytest.raises(IoError):
        parse_code("{not json")


# ---------------------------------------------------------
# Larger instance, counted through point pairs
# ---------------------------------------------------------
def test_pair_counts_n4():
    # dim 9 has too many lines to list, but every line carries exactly
    # C(q+1, 2) = 6 unordered pairs of perpendicular singular points
    ctx = F3
    qs = standard_space(ctx, 4)
    assert (qs.profile.r, qs.profile.d) == (7, 1)
    params = code_parameters(4, 3)

    pts = quadric_points(qs)
    assert len(pts) == 3280 == (3**8 - 1) // 2

    g = qs.gram.to_numpy().astype(np.float64)
    fp = pts.astype(np.float64)
    perp = (fp @ g @ fp.T) % 3 == 0
    np.fill_diagonal(perp, False)
    assert int(perp.sum()) // 2 == 6 * params.N == 1790880

    af = build_S(qs, s11="auto")
    vals = (fp @ af.s_np().astype(np.float64) @ fp.T) % 3
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
