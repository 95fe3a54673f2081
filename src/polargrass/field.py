"""Arithmetic contexts for small finite fields of odd order.

Field elements are plain ints in ``range(q)``.  For q = p^e the base-p digits
of an element, most significant first, are the polynomial coefficients
(c_{e-1}, ..., c_0) of its representative in F_p[x] / (modulus); equivalently
the int is the polynomial evaluated at x = p.  For prime fields this is the
usual residue encoding, and the natural int order is the canonical element
order used everywhere for enumeration and tie-breaking.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import EvenCharacteristic, InadmissibleParams, NotPrime, ZeroVector

MAX_EXT_DEGREE = 4
MAX_ORDER = 2048


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NotPrime(f"field order must be at least 2, got {q}")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1 or not _is_prime(p):
                raise NotPrime(f"{q} is not a prime power")
            return p, e
    raise NotPrime(f"{q} is not a prime power")


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    # coefficients ascending; den must be monic
    num = list(num)
    dn = len(den) - 1
    quo = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - dn - 1, -1, -1):
        c = num[i + dn] % p
        if c:
            quo[i] = c
            for k, dc in enumerate(den):
                num[i + k] = (num[i + k] - c * dc) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quo, num


def _monic_polys(p: int, deg: int) -> Iterable[list[int]]:
    for code in range(p**deg):
        coeffs = [(code // p**k) % p for k in range(deg)]
        yield coeffs + [1]


def _is_irreducible(poly: list[int], p: int) -> bool:
    deg = len(poly) - 1
    for ddeg in range(1, deg // 2 + 1):
        for den in _monic_polys(p, ddeg):
            _, rem = _poly_divmod(poly, den, p)
            if len(rem) == 1 and rem[0] == 0:
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    # candidates ordered by the base-p int encoding of (c_{e-1}, ..., c_0)
    for code in range(p**e):
        low = [(code // p**k) % p for k in range(e)]
        poly = low + [1]
        if _is_irreducible(poly, p):
            return tuple(reversed(poly))
    raise NotPrime(f"no irreducible polynomial of degree {e} over F_{p}")


class FieldCtx:
    """Arithmetic context for F_q, q = p^e odd, with scalar and numpy ops."""

    def __init__(self, q: int):
        # before factoring, whose trial division runs up to q
        if q > MAX_ORDER:
            raise InadmissibleParams(f"field order {q} > {MAX_ORDER}")
        p, e = _factor_prime_power(q)
        if p == 2:
            raise EvenCharacteristic(f"q must be odd; q = {q} has characteristic 2")
        if e > MAX_EXT_DEGREE:
            raise InadmissibleParams(f"extension degree {e} > {MAX_EXT_DEGREE}")
        self.q = q
        self.p = p
        self.e = e
        # modulus stored with descending powers, leading coefficient first
        self.modulus: tuple[int, ...] | None = (
            None if e == 1 else _smallest_irreducible(p, e)
        )
        if e > 1:
            self._build_tables()
        else:
            self._inv_table = np.array(
                [0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64
            )
        elements = np.arange(q, dtype=np.int64)
        sq = np.zeros(q, dtype=bool)
        sq[self.np_mul(elements, elements)] = True
        self._square_mask = sq
        self.nonsquare_rep = int(np.flatnonzero(~sq)[0])

    def _build_tables(self) -> None:
        """Addition, multiplication, negation and inverse tables, from the
        e base-p digits of every element (digit k the coefficient of x^k):
        sums and negatives digitwise mod p, products as the 2e-1 terms of
        the digit convolution reduced by the monic modulus, top term first.
        The work arrays are int32: every term stays within 2e p^2 of 0.
        """
        p, e, q = self.p, self.e, self.q
        place = p ** np.arange(e, dtype=np.int32)
        digits = np.arange(q, dtype=np.int32)[:, None] // place % p
        self._add_table = ((digits[:, None] + digits[None]) % p @ place).astype(np.int64)
        self._neg_table = (-digits % p @ place).astype(np.int64)
        conv = np.zeros((q, q, 2 * e - 1), dtype=np.int32)
        for i in range(e):
            for j in range(e):
                conv[:, :, i + j] += np.multiply.outer(digits[:, i], digits[:, j])
        mod_asc = np.array(self.modulus[::-1], dtype=np.int32)
        for top in range(2 * e - 2, e - 1, -1):
            conv[:, :, top - e : top + 1] -= (conv[:, :, top] % p)[:, :, None] * mod_asc
        self._mul_table = (conv[:, :, :e] % p @ place).astype(np.int64)
        self._inv_table = np.argmax(self._mul_table == 1, axis=1)

    # ---- scalar arithmetic ----------------------------------------------

    def neg(self, a: int) -> int:
        return int(self.np_neg(a))

    def mul(self, a: int, b: int) -> int:
        return int(self.np_mul(a, b))

    def validate_element(self, a: int) -> int:
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.q:
            raise InadmissibleParams(f"{a!r} is not an element of F_{self.q}")
        return int(a)

    # ---- vectorized arithmetic on int64 numpy arrays ----------------------

    def _mod(self, x):
        """x mod p.  numpy divides by a scalar through a precomputed divisor:
        3-12x faster than x % p on int16 to int64 arrays."""
        return x - x // self.p * self.p

    def np_add(self, a, b):
        if self.e == 1:
            return self._mod(a + b)
        return self._add_table[a, b]

    def np_neg(self, a):
        if self.e == 1:
            return self._mod(-a)
        return self._neg_table[a]

    def np_sub(self, a, b):
        if self.e == 1:
            return self._mod(a - b)
        return self.np_add(a, self.np_neg(b))

    def np_mul(self, a, b):
        if self.e == 1:
            return self._mod(a * b)
        return self._mul_table[a, b]

    def np_inv(self, a):
        return self._inv_table[a]

    def np_is_square(self, a):
        return self._square_mask[a]

    def np_operand(self, a):
        """a as np_matmul multiplies it: a C-ordered float64 array over a
        prime field, an int64 array over an extension field.  An operand
        that several products share is converted once this way."""
        if self.e == 1:
            return np.asarray(a, np.float64, order="C")
        return np.asarray(a, dtype=np.int64)

    def np_matmul(self, a, b):
        """Exact product of two matrices (or stacks of them) over F_q.

        Over a prime field one float64 BLAS product: with k the inner
        dimension every sum is at most k (p-1)^2 < 2^53, so exact.  It is
        reduced in int32 when k (p-1)^2 < 2^31, as for every product the
        package makes at admissible sizes, else in int64.  OpenBLAS runs a
        product of C-ordered operands with at most 10^6 multiply-adds on
        the calling thread (see geometry._blocks).  Over an extension field
        an int64 table product.
        """
        a, b = self.np_operand(a), self.np_operand(b)
        if self.e == 1:
            wide = a.shape[-1] * (self.p - 1) ** 2 >= 1 << 31
            return self._mod((a @ b).astype(np.int64 if wide else np.int32))
        acc = np.zeros(np.broadcast_shapes(a[..., :1].shape, b[..., :1, :].shape)[:-1] + (b.shape[-1],), dtype=np.int64)
        for k in range(a.shape[-1]):
            acc = self._add_table[acc, self._mul_table[a[..., k, None], b[..., k, None, :]]]
        return acc

    def np_rowsum(self, a):
        """Field sum along the last axis."""
        if self.e == 1:
            return self._mod(a.sum(axis=-1))
        acc = np.zeros(a.shape[:-1], dtype=np.int64)
        for k in range(a.shape[-1]):
            acc = self._add_table[acc, a[..., k]]
        return acc

    def np_quad_eval(self, gram, pts):
        """Row-wise values v M v^T for the rows v of pts."""
        vm = self.np_matmul(pts, np.asarray(gram, dtype=np.int64))
        return self.np_rowsum(self.np_mul(vm, pts))

    def np_normalize_rows(self, pts):
        """Scale each nonzero row so its first nonzero entry is 1."""
        pts = np.asarray(pts, dtype=np.int64)
        nz = pts != 0
        if not nz.any(axis=1).all():
            raise ZeroVector("cannot normalize a zero row")
        lead_idx = nz.argmax(axis=1)
        lead = pts[np.arange(len(pts)), lead_idx]
        return self.np_mul(self.np_inv(lead)[:, None], pts)

    def __repr__(self) -> str:
        if self.e == 1:
            return f"FieldCtx(q={self.q})"
        return f"FieldCtx(q={self.q}, p={self.p}, e={self.e}, modulus={self.modulus})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("FieldCtx", self.q))


def field_ctx(q: int) -> FieldCtx:
    """Build the arithmetic context for F_q (q an odd prime power)."""
    return FieldCtx(q)
