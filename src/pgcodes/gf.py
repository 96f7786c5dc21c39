"""Exact arithmetic in GF(p^h) for small prime powers.

Elements are polynomials over F_p modulo a monic irreducible of degree h,
stored as coefficient vectors (little-endian).  Every element also has an
integer index ``sum(c_i * p**i)`` in ``[0, q)``; the index order is the
canonical element order used by all enumerations downstream.  Full
addition/multiplication/inverse lookup tables are precomputed, which is the
right trade-off for the tiny fields this package targets (q <= 16 in the
standard grids).  The tables are uint8, so q <= 256 is supported and larger
fields raise FieldTooLarge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np


class NotPrime(ValueError):
    """Characteristic is not a prime number."""


class ReducibleModulus(ValueError):
    """Supplied modulus polynomial factors over F_p."""


class DegreeMismatch(ValueError):
    """Modulus polynomial is not monic of the requested degree."""


class FieldMismatch(ValueError):
    """Operands belong to different fields."""


class ZeroInverse(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class FieldTooLarge(ValueError):
    """Field order exceeds what the uint8 operation tables can index."""


MAX_FIELD_ORDER = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a by monic m, coefficients mod p."""
    a = [x % p for x in a]
    dm = len(m) - 1
    while len(_poly_trim(a)) - 1 >= dm:
        da = len(a) - 1
        lead = a[da]
        for i in range(dm + 1):
            a[da - dm + i] = (a[da - dm + i] - lead * m[i]) % p
        _poly_trim(a)
    return a


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Exhaustive divisor check; fine for the degrees in scope (h <= 4-ish)."""
    h = len(modulus) - 1
    if h == 1:
        return True
    for deg in range(1, h // 2 + 1):
        # all monic polynomials of this degree
        for val in range(p**deg):
            div = _digits(val, p, deg) + [1]
            if not _poly_trim(_poly_mod(list(modulus), div, p)):
                return False
    return True


def _digits(val: int, p: int, h: int) -> list[int]:
    out = []
    for _ in range(h):
        val, r = divmod(val, p)
        out.append(r)
    return out


@dataclass(frozen=True)
class FieldElement:
    """A single element of GF(p^h), identified by its coefficient vector."""

    field: "FieldSpec"
    coeffs: tuple[int, ...]

    @property
    def index(self) -> int:
        return sum(c * self.field.p**i for i, c in enumerate(self.coeffs))

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return add(self, other)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return add(self, -other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return mul(self, other)

    def __neg__(self) -> "FieldElement":
        return self.field.from_index(int(self.field.neg_table[self.index]))

    def inverse(self) -> "FieldElement":
        return inv(self)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"GF({self.field.q}):{list(self.coeffs)}"


class FieldSpec:
    """GF(p^h) with precomputed operation tables.

    Compares and hashes by (p, h, modulus), so two independently built specs
    of the same field are interchangeable.
    """

    def __init__(self, p: int, h: int, modulus: Sequence[int]):
        self.p = p
        self.h = h
        self.q = p**h
        self.modulus = tuple(int(c) % p for c in modulus)
        self._build_tables()

    def _build_tables(self) -> None:
        """Operation tables from digit arrays: digits[v] holds the h
        coefficients of element v, and the product a*b is the sum over i
        of a_i * (x^i * b), where x^i * b comes from i steps of the
        "times x" map.  Inverses are read off the multiplication table.

        The same digits make GF(q) the F_p-space F_p^h: digit_table[v] holds
        the digits of v, and mul_matrices[b] is the h x h matrix over F_p of
        multiplication by b, whose column i holds the digits of x^i * b, so
        digit_table[a * b] = mul_matrices[b] @ digit_table[a] mod p."""
        p, h, q = self.p, self.h, self.q
        place = p ** np.arange(h)
        digits = np.arange(q)[:, None] // place % p

        def index(d: np.ndarray) -> np.ndarray:
            return (d % p * place).sum(axis=-1)

        # x * v: shift the coefficients up and fold x^h = -(m_0 + ... + m_{h-1} x^{h-1})
        shifted = np.concatenate([np.zeros((q, 1), dtype=digits.dtype), digits[:, :-1]], axis=1)
        times_x = index(shifted - digits[:, -1:] * np.array(self.modulus[:h]))
        prod = np.zeros((q, q, h), dtype=digits.dtype)  # digits of a * b, before mod p
        power = np.arange(q)  # x^i * b for every b
        columns = []  # digits of x^i * b for every b
        for i in range(h):
            columns.append(digits[power])
            prod += digits[:, i, None, None] * columns[-1]
            power = times_x[power]
        add_t = index(digits[:, None, :] + digits).astype(np.uint8)
        mul_t = index(prod).astype(np.uint8)
        neg_t = index(-digits).astype(np.uint8)
        inv_t = np.zeros(q, dtype=np.uint8)
        units, inverses = np.nonzero(mul_t == 1)
        inv_t[units] = inverses
        self.add_table = add_t
        self.mul_table = mul_t
        self.neg_table = neg_t
        self.inv_table = inv_t
        self.digit_table = digits.astype(np.uint8)
        self.mul_matrices = np.stack(columns, axis=-1).astype(np.uint8)
        self._coeffs = [tuple(row) for row in digits.tolist()]

    # -- element construction ------------------------------------------------

    def from_index(self, i: int) -> FieldElement:
        return FieldElement(self, self._coeffs[i])

    def element(self, value) -> FieldElement:
        """Coerce an int index, a coefficient sequence, or an element."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch("element belongs to a different field")
            return value
        if isinstance(value, (int, np.integer)):
            return self.from_index(int(value) % self.q)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.h:
            raise DegreeMismatch(f"expected {self.h} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    @property
    def zero(self) -> FieldElement:
        return self.from_index(0)

    @property
    def one(self) -> FieldElement:
        return self.from_index(1)

    def elements(self) -> list[FieldElement]:
        """All q elements in canonical (index) order."""
        return [self.from_index(i) for i in range(self.q)]

    # -- value identity ------------------------------------------------------

    def _key(self):
        return (self.p, self.h, self.modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, h={self.h}, modulus={list(self.modulus)})"

    def to_json_dict(self) -> dict:
        return {"p": self.p, "h": self.h, "modulus": list(self.modulus)}


@lru_cache(maxsize=None)
def _cached_field(p: int, h: int, modulus: tuple[int, ...]) -> FieldSpec:
    return FieldSpec(p, h, modulus)


def make_field(p: int, h: int = 1, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Build GF(p^h).

    When no modulus is given, the monic irreducible of degree h whose
    non-leading coefficient vector has the smallest integer index is chosen by
    direct search, so the construction is reproducible without external
    polynomial tables.
    """
    if not isinstance(p, (int, np.integer)) or not is_prime(int(p)):
        raise NotPrime(f"p = {p} is not prime")
    p = int(p)
    if h < 1:
        raise DegreeMismatch(f"extension degree must be >= 1, got {h}")
    if p**h > MAX_FIELD_ORDER:
        raise FieldTooLarge(f"q = {p}^{h} exceeds the supported maximum {MAX_FIELD_ORDER}")
    if modulus is not None:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != h + 1 or mod[-1] != 1:
            raise DegreeMismatch("modulus must be monic of degree h")
        if not _is_irreducible(mod, p):
            raise ReducibleModulus(f"{list(mod)} factors over F_{p}")
        return _cached_field(p, h, mod)
    if h == 1:
        return _cached_field(p, 1, (0, 1))
    for val in range(1, p**h):
        cand = tuple(_digits(val, p, h)) + (1,)
        if cand[0] == 0:
            continue  # constant term 0 means x divides it
        if _is_irreducible(cand, p):
            return _cached_field(p, h, cand)
    raise ReducibleModulus(f"no irreducible of degree {h} over F_{p}")  # unreachable


def _check_same_field(a: FieldElement, b: FieldElement) -> FieldSpec:
    if a.field != b.field:
        raise FieldMismatch("operands from different fields")
    return a.field


def add(a: FieldElement, b: FieldElement) -> FieldElement:
    fld = _check_same_field(a, b)
    return fld.from_index(int(fld.add_table[a.index, b.index]))


def mul(a: FieldElement, b: FieldElement) -> FieldElement:
    fld = _check_same_field(a, b)
    return fld.from_index(int(fld.mul_table[a.index, b.index]))


def inv(a: FieldElement) -> FieldElement:
    if not a:
        raise ZeroInverse("zero has no multiplicative inverse")
    return a.field.from_index(int(a.field.inv_table[a.index]))
