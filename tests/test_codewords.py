# tests/test_codewords.py
"""The codeword kernel, geometry._codewords, against the kernels it
replaced: a copy of the message-blocked product that evaluated codewords
before it, and the values computed line by line with elementwise field
operations."""
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polargrass import geometry
from polargrass.code import _weights_np, random_messages, standard_code
from polargrass.field import field_ctx
from polargrass.forms import standard_space

FIELD_ORDERS = [3, 5, 9, 25, 27]


def codeword_chunks(ctx, gmat, batch, chunk_bytes=1 << 23):
    """The codeword values of a batch of messages (rows) under a (K, N)
    generator, in row chunks of at most chunk_bytes of float64: the
    message-blocked kernel the line-blocked one replaced.  Over a prime
    field a float64 product with the values reduced in int32, over an
    extension field the table product."""
    rows = max(1, chunk_bytes // (8 * gmat.shape[1]))
    if ctx.e == 1:
        g = gmat.astype(np.float64, order="C")
        batch = np.asarray(batch, dtype=np.int64) % ctx.p
    for lo in range(0, len(batch), rows):
        part = batch[lo : lo + rows]
        if ctx.e == 1:
            yield (part.astype(np.float64) @ g).astype(np.int32) % ctx.p
        else:
            yield ctx.np_matmul(part, gmat)


def line_values(ctx, row, batch):
    """The values of every message on one generator column, summed term by
    term with elementwise field operations."""
    acc = np.zeros(len(batch), dtype=np.int64)
    for k, x in enumerate(row):
        acc = ctx.np_add(acc, ctx.np_mul(int(x), batch[:, k]))
    return acc


def assembled(ctx, rows, batch):
    """The (B, N) values _codewords yields, checking that its blocks cover
    the rows once, in order, each with a (rows in block, B) product."""
    out = np.zeros((len(batch), len(rows)), dtype=np.int64)
    start = 0
    for blk, vals in geometry._codewords(ctx, rows, batch):
        assert blk.start == start and blk.stop > start
        assert vals.shape == (len(rows[blk]), len(batch))
        out[:, blk] = vals.T
        start = min(blk.stop, len(rows))
    assert start == len(rows)
    return out


@lru_cache(maxsize=None)
def plucker_rows(q):
    return geometry.enumerate_singular_lines(standard_space(field_ctx(q), 2)).plucker


@st.composite
def kernel_cases(draw):
    """(ctx, rows, batch, madds, entries): a generator's rows (Plücker
    rows of (2, q), at most 400 of them, or random ones), a batch of
    messages and the block bounds to force."""
    q = draw(st.sampled_from(FIELD_ORDERS))
    ctx, rng = field_ctx(q), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rows = plucker_rows(q)
        if len(rows) > 400:
            rows = rows[np.sort(rng.choice(len(rows), 400, replace=False))]
    else:
        rows = rng.integers(0, q, size=(draw(st.integers(1, 200)), draw(st.integers(1, 15))))
    count = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 300)))
    batch = rng.integers(0, q, size=(count, rows.shape[1]))
    madds = draw(st.sampled_from([1, 60, 10**4, 10**6]))
    entries = draw(st.sampled_from([16, 1 << 12, 1 << 20]))
    return ctx, rows, batch, madds, entries


@given(kernel_cases())
@settings(max_examples=80, deadline=None)
def test_codewords_match_the_message_blocked_kernel(case):
    ctx, rows, batch, madds, entries = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "BLAS_MADDS", madds)
        mp.setattr(geometry, "PAIR_BLOCK_ENTRIES", entries)
        got = assembled(ctx, rows, batch)
    chunks = list(codeword_chunks(ctx, rows.T, batch))
    want = np.concatenate(chunks) if chunks else np.zeros((0, len(rows)), dtype=np.int64)
    assert np.array_equal(got, want)
    assert np.array_equal(np.count_nonzero(got, axis=1), np.count_nonzero(want, axis=1))
    for line in np.random.default_rng(len(rows)).choice(len(rows), min(len(rows), 12), replace=False):
        assert np.array_equal(got[:, line], line_values(ctx, rows[line], batch))


@pytest.mark.parametrize("q", [3, 9])
def test_codewords_of_a_full_search_batch(q):
    # a batch of the size min_distance_certified draws, through the code's
    # weights and through the assembled values
    code = standard_code(field_ctx(q), 2)
    batch = random_messages(np.random.default_rng(q), q, code.params.K, 4096)
    want = np.concatenate(list(codeword_chunks(code.ctx, code.generator, batch)))
    assert np.array_equal(assembled(code.ctx, code.generator.T, batch), want)
    assert np.array_equal(_weights_np(code, batch), np.count_nonzero(want, axis=1))
