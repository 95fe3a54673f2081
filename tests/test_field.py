# tests/test_field.py
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays, mutually_broadcastable_shapes

from polargrass.errors import EvenCharacteristic, InadmissibleParams, NotPrime, RankDeficient
from polargrass.field import _poly_divmod, field_ctx
from polargrass.forms import projective_points
from polargrass.matrix import inverse

ODD_ORDERS = [3, 5, 7, 9, 11, 25, 27]


# ---- scalar oracles, independent of the field's tables ------------------------


def add(ctx, a, b):
    """a + b digit by digit: the base-p digits are polynomial coefficients."""
    p = ctx.p
    return sum((a // p**k + b // p**k) % p * p**k for k in range(ctx.e))


def inv(ctx, a):
    """The b with a b = 1, by search; 0 has none."""
    if a == 0:
        raise ZeroDivisionError("inverse of 0")
    return next(b for b in range(1, ctx.q) if ctx.mul(a, b) == 1)


def div(ctx, a, b):
    return ctx.mul(a, inv(ctx, b))


def power(ctx, a, k):
    """a^k by repeated multiplication; a negative k inverts a first."""
    if k < 0:
        return power(ctx, inv(ctx, a), -k)
    out = 1
    for _ in range(k):
        out = ctx.mul(out, a)
    return out


def is_square(ctx, a):
    return any(ctx.mul(x, x) == a for x in range(ctx.q))


# ---------------------------------------------------------
# Construction
# ---------------------------------------------------------
def test_prime_field_attributes():
    f3 = field_ctx(3)
    assert (f3.p, f3.e, f3.q) == (3, 1, 3)
    assert f3.nonsquare_rep == 2
    f5 = field_ctx(5)
    assert f5.nonsquare_rep == 2
    assert sorted(a for a in range(f5.q) if f5.np_is_square(a)) == [0, 1, 4]


def test_extension_field_attributes():
    f9 = field_ctx(9)
    assert (f9.p, f9.e, f9.q) == (3, 2, 9)
    # smallest monic irreducible quadratic over F_3 is x^2 + 1
    assert f9.modulus == (1, 0, 1)
    assert not f9.np_is_square(f9.nonsquare_rep)


def test_even_characteristic_rejected():
    for q in [2, 4, 8, 16]:
        with pytest.raises(EvenCharacteristic):
            field_ctx(q)


def test_non_prime_power_rejected():
    for q in [1, 6, 12, 15, 45]:
        with pytest.raises(NotPrime):
            field_ctx(q)


def test_degree_cap():
    with pytest.raises(InadmissibleParams):
        field_ctx(3**5)


def test_huge_order_is_refused_before_factoring():
    # trial division up to q = 10^9 + 7 runs for minutes; the alarm fails
    # the test instead of letting it hang
    def hung(signum, frame):
        raise TimeoutError("field_ctx(10**9 + 7) still running after 5 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(InadmissibleParams, match=r"^field order 1000000007 > 2048$"):
            field_ctx(10**9 + 7)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------
# Enumeration order
# ---------------------------------------------------------
def test_enumeration_is_integer_order():
    # elements are enumerated as range(q): the points of PG(1, q) list
    # their second coordinate in that order
    for q in (3, 5, 9):
        pts = projective_points(field_ctx(q), 2)
        assert pts.tolist() == [[0, 1]] + [[1, a] for a in range(q)]


def test_coeffs_round_trip():
    # the base-p digits c_k of an element are its polynomial coefficients:
    # sum c_k x^k in field arithmetic, x being the element p, gives it back
    for q in (9, 25, 27):
        ctx = field_ctx(q)
        for a in range(q):
            back = 0
            for k in range(ctx.e):
                c = (a // ctx.p**k) % ctx.p
                back = int(ctx.np_add(back, ctx.mul(c, power(ctx, ctx.p, k))))
            assert back == a


# ---------------------------------------------------------
# Square classes
# ---------------------------------------------------------
@pytest.mark.parametrize("q", ODD_ORDERS)
def test_half_of_nonzero_elements_are_squares(q):
    ctx = field_ctx(q)
    squares = [a for a in range(q) if a != 0 and ctx.np_is_square(a)]
    assert len(squares) == (q - 1) // 2


def test_is_square_examples():
    f3 = field_ctx(3)
    assert f3.np_is_square(1)
    assert not f3.np_is_square(2)
    assert f3.np_is_square(0)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_square_classes_form_group_of_order_two(q):
    ctx = field_ctx(q)
    for a in range(1, q):
        for b in range(1, q):
            prod_square = ctx.np_is_square(ctx.mul(a, b))
            assert prod_square == (ctx.np_is_square(a) == ctx.np_is_square(b))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25])
def test_legendre_matches_euler_criterion(q):
    # the Legendre symbol of a is 1 exactly when is_square(a)
    ctx = field_ctx(q)
    minus_one = ctx.neg(1)
    for a in range(1, q):
        e = power(ctx, a, (q - 1) // 2)
        assert ctx.np_is_square(a) == (e == 1)
        assert e in (1, minus_one)
    assert power(ctx, ctx.nonsquare_rep, (q - 1) // 2) == minus_one


# ---------------------------------------------------------
# Field axioms (property-tested)
# ---------------------------------------------------------
@given(q=st.sampled_from([3, 5, 9]), data=st.data())
@settings(max_examples=200, deadline=None)
def test_field_axioms(q, data):
    ctx = field_ctx(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert add(ctx, a, b) == add(ctx, b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert add(ctx, add(ctx, a, b), c) == add(ctx, a, add(ctx, b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, add(ctx, b, c)) == add(ctx, ctx.mul(a, b), ctx.mul(a, c))
    assert add(ctx, a, ctx.neg(a)) == 0
    assert ctx.np_sub(a, b) == add(ctx, a, ctx.neg(b))
    if b != 0:
        assert ctx.mul(b, int(ctx.np_inv(b))) == 1
        assert ctx.mul(div(ctx, a, b), b) == a


def test_division_by_zero_is_an_error():
    ctx = field_ctx(5)
    with pytest.raises(ZeroDivisionError):
        inv(ctx, 0)
    with pytest.raises(ZeroDivisionError):
        div(ctx, 3, 0)
    # the inverse table maps 0 to 0, and a zero pivot is never inverted:
    # a singular matrix is an error instead
    assert ctx.np_inv(0) == 0
    with pytest.raises(RankDeficient):
        inverse(ctx, np.zeros((1, 1), dtype=np.int64))


def test_negative_power_uses_inverse():
    ctx = field_ctx(7)
    for a in range(1, 7):
        assert ctx.mul(power(ctx, a, -1), a) == 1
        assert power(ctx, a, -2) == ctx.np_inv(ctx.mul(a, a))


# ---------------------------------------------------------
# Vectorized arithmetic agrees with scalar arithmetic
# ---------------------------------------------------------
@pytest.mark.parametrize("q", [3, 5, 9])
def test_np_ops_match_scalar_ops(q):
    ctx = field_ctx(q)
    a = np.arange(q).repeat(q)
    b = np.tile(np.arange(q), q)
    add_ = ctx.np_add(a, b)
    mul = ctx.np_mul(a, b)
    neg = ctx.np_neg(a)
    sq = ctx.np_is_square(a)
    for i in range(q * q):
        assert add_[i] == add(ctx, int(a[i]), int(b[i]))
        assert mul[i] == ctx.mul(int(a[i]), int(b[i]))
        assert neg[i] == ctx.neg(int(a[i]))
        assert bool(sq[i]) == is_square(ctx, int(a[i]))


def reference_table_rows(ctx, rows):
    """The add and mul table rows of the elements in rows, their inverses
    and the whole neg table, one pair of elements at a time: the loop the
    extension-field tables were built by before one numpy pass."""
    p, e, q = ctx.p, ctx.e, ctx.q
    mod_asc = list(reversed(ctx.modulus))
    digits = [[(a // p**k) % p for k in range(e)] for a in range(q)]

    def encode(coeffs):
        return sum((c % p) * p**k for k, c in enumerate(coeffs[:e]))

    add_, mul = np.zeros((2, len(rows), q), dtype=np.int64)
    for i, a in enumerate(rows):
        da = digits[a]
        for b in range(q):
            db = digits[b]
            add_[i, b] = encode([x + y for x, y in zip(da, db)])
            conv = [0] * (2 * e - 1)
            for k, x in enumerate(da):
                if x:
                    for j, y in enumerate(db):
                        conv[k + j] += x * y
            _, rem = _poly_divmod([c % p for c in conv], mod_asc, p)
            mul[i, b] = encode(rem + [0] * e)
    inv_ = [int(np.flatnonzero(row == 1)[0]) if a else 0 for a, row in zip(rows, mul)]
    neg = [encode([-x for x in d]) for d in digits]
    return add_, mul, inv_, neg


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 121, 125, 169, 343, 625])
def test_extension_tables_match_the_pairwise_loop(q):
    # every row up to q = 125; past that 0, 1, q-1 and 24 seeded rows, as
    # the loop takes about 4 s for all of q = 625
    ctx = field_ctx(q)
    rows = np.arange(q) if q <= 125 else np.r_[0, 1, q - 1, np.random.default_rng(q).choice(q, 24, replace=False)]
    add_, mul, inv_, neg = reference_table_rows(ctx, rows.tolist())
    assert np.array_equal(ctx._add_table[rows], add_)
    assert np.array_equal(ctx._mul_table[rows], mul)
    assert np.array_equal(ctx._inv_table[rows], inv_)
    assert np.array_equal(ctx._neg_table, neg)
    for table in (ctx._add_table, ctx._mul_table, ctx._neg_table, ctx._inv_table):
        assert table.dtype == np.int64


@pytest.mark.parametrize("q", [3, 9])
def test_np_matmul_matches_scalar_matmul(q):
    ctx = field_ctx(q)
    rng = np.random.default_rng(7)
    a = rng.integers(0, q, size=(4, 3))
    b = rng.integers(0, q, size=(3, 5))
    c = ctx.np_matmul(a, b)
    for i in range(4):
        for j in range(5):
            acc = 0
            for k in range(3):
                acc = add(ctx, acc, ctx.mul(int(a[i, k]), int(b[k, j])))
            assert c[i, j] == acc


@given(
    q=st.sampled_from([3, 5, 9, 25, 27, 81, 343]),
    shapes=mutually_broadcastable_shapes(signature="(m,k),(k,n)->(m,n)", min_side=0, max_side=3, max_dims=2),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_np_matmul_has_the_shape_and_entries_of_a_field_product(q, shapes, data):
    # np.matmul's shape, the broadcast batch axes then (m, n), also with an
    # empty axis, and each entry the field sum of its k products
    ctx = field_ctx(q)
    a, b = (data.draw(arrays(np.int64, shape, elements=st.integers(0, q - 1))) for shape in shapes.input_shapes)
    c = ctx.np_matmul(a, b)
    assert c.shape == np.matmul(a, b).shape == shapes.result_shape
    batch = c.shape[:-2]
    a, b = np.broadcast_to(a, batch + a.shape[-2:]), np.broadcast_to(b, batch + b.shape[-2:])
    for *stack, i, j in np.ndindex(c.shape):
        acc = 0
        for k in range(a.shape[-1]):
            acc = add(ctx, acc, ctx.mul(int(a[(*stack, i, k)]), int(b[(*stack, k, j)])))
        assert c[(*stack, i, j)] == acc


def table_matmul(ctx, a, b):
    """The extension-field product np_matmul made before it multiplied by
    the regular representation: one add-table and one mul-table gather per
    inner index, kept here as its oracle."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    acc = np.zeros(shape, dtype=np.int64)
    for k in range(a.shape[-1]):
        acc = ctx._add_table[acc, ctx._mul_table[a[..., k, None], b[..., k, None, :]]]
    return acc


EXTENSIONS = {q: field_ctx(q) for q in (9, 25, 27, 49, 81, 121, 125, 343, 625, 1331)}


@given(
    q=st.sampled_from(sorted(EXTENSIONS)),
    batch=st.sampled_from([((), ()), ((3,), ()), ((), (2,)), ((2, 1), (3,)), ((0,), ()), ((), (2, 0))]),
    m=st.integers(0, 4),
    k=st.integers(0, 64),
    n=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_np_matmul_matches_the_table_product(q, batch, m, k, n, seed):
    # random stacks of every extension field up to inner dimension 64,
    # broadcast batch axes and empty axes; b converted once by np_operand
    # gives the same product
    ctx = EXTENSIONS[q]
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, batch[0] + (m, k))
    b = rng.integers(0, q, batch[1] + (k, n))
    c = ctx.np_matmul(a, b)
    assert c.dtype == np.int64
    assert np.array_equal(c, table_matmul(ctx, a, b))
    assert np.array_equal(ctx.np_matmul(a, ctx.np_operand(b)), c)


@given(
    q=st.sampled_from([3, 5, 9, 25, 27, 81, 343]),
    shape=array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_np_rowsum_is_the_field_sum_of_each_row(q, shape, data):
    ctx = EXTENSIONS.get(q) or field_ctx(q)
    a = data.draw(arrays(np.int64, shape, elements=st.integers(0, q - 1)))
    sums = ctx.np_rowsum(a)
    assert sums.shape == shape[:-1]
    for idx in np.ndindex(sums.shape):
        acc = 0
        for x in a[idx].tolist():
            acc = add(ctx, acc, x)
        assert sums[idx] == acc


def python_matmul(p, a, b):
    """a b mod p in Python ints, entry by entry."""
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in np.transpose(b)] for row in a]


@pytest.mark.parametrize("inner,dtype", [(517, np.int32), (518, np.int64)])
def test_np_matmul_reduces_exactly_at_the_int32_edge(inner, dtype):
    # over F_2039 a sum of 517 products of p-1 is below 2^31 and one of 518
    # is not: the largest sum reduced in int32 and the first in int64
    p = 2039
    ctx = field_ctx(p)
    a = np.full((3, inner), p - 1)
    b = np.full((inner, 2), p - 1)
    c = ctx.np_matmul(a, b)
    assert c.dtype == dtype
    assert c.tolist() == python_matmul(p, a, b) == [[inner * (p - 1) ** 2 % p] * 2] * 3
    # stacked operands: a stack against one matrix and against a stack
    rng = np.random.default_rng(inner)
    sa = rng.integers(p - 4, p, size=(2, 3, inner))
    sb = rng.integers(p - 4, p, size=(2, inner, 2))
    one = ctx.np_matmul(sa, b)
    both = ctx.np_matmul(sa, sb)
    assert one.dtype == both.dtype == dtype
    for i in range(2):
        assert one[i].tolist() == python_matmul(p, sa[i], b)
        assert both[i].tolist() == python_matmul(p, sa[i], sb[i])


def test_validate_element():
    ctx = field_ctx(5)
    assert ctx.validate_element(4) == 4
    assert ctx.validate_element(np.int64(3)) == 3
    for bad in [-1, 5, 2.5, "3"]:
        with pytest.raises(InadmissibleParams):
            ctx.validate_element(bad)


def test_contexts_are_deterministic():
    f1, f2 = field_ctx(9), field_ctx(9)
    assert f1.modulus == f2.modulus
    assert f1.nonsquare_rep == f2.nonsquare_rep
    assert [f1.mul(a, b) for a in range(9) for b in range(9)] == [
        f2.mul(a, b) for a in range(9) for b in range(9)
    ]
