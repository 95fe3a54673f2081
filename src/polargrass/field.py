"""Arithmetic contexts for small finite fields of odd order.

Field elements are plain ints in ``range(q)``.  For q = p^e the base-p digits
of an element, most significant first, are the polynomial coefficients
(c_{e-1}, ..., c_0) of its representative in F_p[x] / (modulus); equivalently
the int is the polynomial evaluated at x = p.  For prime fields this is the
usual residue encoding, and the natural int order is the canonical element
order used everywhere for enumeration and tie-breaking.

Every exact product is one float64 BLAS product over F_p: a b has the
digits of a times the multiplication matrix of b over F_p, whose row i
holds the digits of x^i b (the regular representation).  Over a prime
field both conversions are the identity.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import EvenCharacteristic, InadmissibleParams, NotPrime, ZeroVector

MAX_EXT_DEGREE = 4
MAX_ORDER = 2048


def _factor_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, p prime: the least divisor p >= 2 of q is
    prime, so q is a prime power exactly when it is a power of p."""
    if q < 2:
        raise NotPrime(f"field order must be at least 2, got {q}")
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise NotPrime(f"{q} is not a prime power")
    return p, e


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
        self.q, self.p, self.e = q, p, e
        # modulus stored with descending powers, leading coefficient first
        self.modulus: tuple[int, ...] | None = None if e == 1 else _smallest_irreducible(p, e)
        if e > 1:
            self._build_tables()
        else:
            self._inv_table = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)
        elements = np.arange(q, dtype=np.int64)
        sq = np.zeros(q, dtype=bool)
        sq[self.np_mul(elements, elements)] = True
        self._square_mask = sq
        self.nonsquare_rep = int(np.flatnonzero(~sq)[0])

    def _build_tables(self) -> None:
        """The element tables and np_matmul's digits and multiplication
        matrices, from the e base-p digits of every element (digit k the
        coefficient of x^k): sums and negatives digitwise mod p; row i of
        the matrix of b the digits of x^i b, the row before times the
        modulus' companion matrix (row j the digits of x^(j+1)); a b the
        digits of a times it.  In int32: every sum is below e p^2."""
        p, e, q = self.p, self.e, self.q
        place = p ** np.arange(e, dtype=np.int32)
        digits = np.arange(q, dtype=np.int32)[:, None] // place % p
        self._add_table = ((digits[:, None] + digits[None]) % p @ place).astype(np.int64)
        self._neg_table = (-digits % p @ place).astype(np.int64)
        companion = np.eye(e, k=1, dtype=np.int32)
        companion[-1] = -np.array(self.modulus[:0:-1]) % p
        rows = [digits]
        for _ in range(e - 1):
            rows.append(rows[-1] @ companion % p)
        mats = np.stack(rows, axis=1)
        self._mul_table = (np.einsum("ai,bij->abj", digits, mats) % p @ place).astype(np.int64)
        self._inv_table = np.argmax(self._mul_table == 1, axis=1)
        self._place, self._digits, self._mul_matrices = place.astype(np.int64), digits.astype(float), mats.astype(float)

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

    def np_operand(self, b):
        """The right operand b, (..., k, n), as np_matmul multiplies it: a
        C-ordered float64 array (..., k e, n e) of the multiplication
        matrices of its entries.  A float64 array is taken as converted, so
        an operand that several products share is converted once."""
        b = np.asarray(b)
        if self.e > 1 and b.dtype != np.float64:
            k, n = b.shape[-2:]
            b = np.take(self._mul_matrices, b, axis=0).swapaxes(-3, -2).reshape(b.shape[:-2] + (k * self.e, n * self.e))
        return np.asarray(b, np.float64, order="C")

    def np_matmul(self, a, b):
        """Exact product a b of two matrices (or stacks of them) over F_q.

        One float64 BLAS product of the digits of a, (..., m, k e), and b
        as np_operand converts it: every sum is at most k e (p-1)^2 < 2^53.
        It is reduced in int32 when k e (p-1)^2 < 2^31, as at every size
        the package admits, else in int64; the place values pack the digits
        of each entry.  OpenBLAS runs a product of at most 10^6 multiply-adds
        of the converted operands on the calling thread (geometry._blocks).

        For operands of two axes or more the result has np.matmul's shape,
        also when an axis is empty.
        """
        a, b = np.asarray(a), self.np_operand(b)
        if self.e > 1:
            a = np.take(self._digits, a, axis=0).reshape(a.shape[:-1] + (a.shape[-1] * self.e,))
        a = np.asarray(a, np.float64, order="C")
        wide = a.shape[-1] * (self.p - 1) ** 2 >= 1 << 31
        c = self._mod((a @ b).astype(np.int64 if wide else np.int32))
        return c if self.e == 1 else c.reshape(c.shape[:-1] + (c.shape[-1] // self.e, self.e)) @ self._place

    def np_rowsum(self, a):
        """Field sum along the last axis; over F_{p^e} the digit planes summed
        along a leading axis (4x faster than axis -2), reduced once, packed."""
        if self.e == 1:
            return self._mod(a.sum(axis=-1))
        planes = np.take(self._digits, np.moveaxis(a, -1, 0), axis=0).sum(axis=0)
        return self._mod(planes.astype(np.int64)) @ self._place

    def np_quad_eval(self, gram, pts):
        """Row-wise values v M v^T for the rows v of pts."""
        return self.np_rowsum(self.np_mul(self.np_matmul(pts, gram), pts))

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
