"""Exact arithmetic in finite prime fields F_p and extensions F_{p^e}.

Elements are carried as plain integers ("raw" form) so the hot polynomial
loops never touch Python objects: for e == 1 the raw form is the residue in
[0, p); for e > 1 it is the base-p digit expansion of the reduced polynomial
in the field generator (digit i = coefficient of t^i).  The FieldElement
wrapper gives the raw form operator syntax for interactive use and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import config
from .errors import (
    DivisionByZero,
    EnumerationCapExceeded,
    MissingModulus,
    NonPrimeCharacteristic,
    ReducibleModulus,
)

_TABLE_LIMIT = 512  # build full mul/inv tables for extension fields up to this size


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_mod(num, den, p):
    """Remainder of num by monic den over F_p. Both are low-degree-first lists."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    while len(num) > dd:
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _monic_polys(degree, p):
    """All monic polynomials of exactly `degree` over F_p, low-degree-first."""
    if degree == 0:
        yield [1]
        return
    count = p ** degree
    for code in range(count):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        yield coeffs


@dataclass(frozen=True)
class Field:
    """A finite field F_{p^e}. Immutable; all operations are pure."""

    p: int
    e: int
    modulus: tuple | None = None  # e+1 coefficients, low-degree first, monic
    gen_name: str = "t"
    _tables: tuple = dc_field(default=None, repr=False, compare=False)

    @property
    def order(self):
        return self.p ** self.e

    @property
    def char(self):
        return self.p

    # -- raw arithmetic ------------------------------------------------------

    def add(self, a, b):
        p = self.p
        if self.e == 1:
            return (a + b) % p
        r = 0
        mult = 1
        while a or b:
            r += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return r

    def neg(self, a):
        p = self.p
        if self.e == 1:
            return (-a) % p
        r = 0
        mult = 1
        while a:
            r += ((-a) % p) * mult
            a //= p
            mult *= p
        return r

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        if self._tables is not None:
            return self._tables[0][a * self.order + b]
        return self._mul_slow(a, b)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self._tables is not None:
            return self._tables[1][a]
        # a^(q-2) = a^(-1) in F_q
        r, base, k = 1, a, self.order - 2
        while k:
            if k & 1:
                r = self._mul_slow(r, base)
            base = self._mul_slow(base, base)
            k >>= 1
        return r

    def pow(self, a, k):
        r = 1
        base = a
        while k:
            if k & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            k >>= 1
        return r

    def _digits(self, a):
        p = self.p
        out = [0] * self.e
        i = 0
        while a:
            out[i] = a % p
            a //= p
            i += 1
        return out

    def _undigits(self, ds):
        r = 0
        for c in reversed(ds):
            r = r * self.p + (c % self.p)
        return r

    def _mul_slow(self, a, b):
        p = self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        rem = _poly_mod(prod, list(self.modulus), p)
        rem += [0] * (self.e - len(rem))
        return self._undigits(rem)

    def from_int(self, n):
        """Reduce an integer literal into the field (image of Z -> F_{p^e})."""
        return n % self.p

    def element(self, raw):
        return FieldElement(self, raw)

    def zero(self):
        return FieldElement(self, 0)

    def one(self):
        return FieldElement(self, 1)

    def generator(self):
        if self.e == 1:
            raise MissingModulus("prime fields have no extension generator")
        return FieldElement(self, self.p)  # raw encoding of t

    def enumerate_raw(self, cap=None):
        limit = config.from_env().enum_cap if cap is None else cap
        if self.order > limit:
            raise EnumerationCapExceeded(
                f"field has {self.order} elements, cap is {limit}"
            )
        return range(self.order)

    def coeff_str(self, raw):
        """Render a raw coefficient for the polynomial grammar."""
        if self.e == 1:
            return str(raw)
        ds = self._digits(raw)
        parts = []
        for i in range(self.e - 1, -1, -1):
            c = ds[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                exp = "" if i == 1 else f"^{i}"
                parts.append(f"{head}{self.gen_name}{exp}")
        if not parts:
            return "0"
        body = " + ".join(parts)
        return body if len(parts) == 1 and not body.startswith("-") else f"({body})"

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.e}"


class FieldElement:
    """An element of a Field in canonical reduced form.

    Equality is representation equality; arithmetic returns new elements.
    """

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        self.field = field
        self.raw = raw

    @property
    def coeffs(self):
        """Coefficient vector of the reduced representative, low-degree first."""
        return tuple(self.field._digits(self.raw))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.raw))

    def __bool__(self):
        return self.raw != 0

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.raw, other.raw))

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.raw, other.raw))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.raw))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.raw, other.raw))

    def __pow__(self, k):
        return FieldElement(self.field, self.field.pow(self.raw, k))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.raw))

    def __truediv__(self, other):
        return self * other.inverse()

    def __repr__(self):
        return self.field.coeff_str(self.raw)


def _check_irreducible(modulus, p, e):
    # trial division against all monic factors of degree <= e/2
    for d in range(1, e // 2 + 1):
        for cand in _monic_polys(d, p):
            if not _poly_mod(list(modulus), cand, p):
                raise ReducibleModulus(
                    f"modulus is divisible by a degree-{d} factor"
                )


def make_field(p, e=1, modulus=None, gen_name="t"):
    """Build a validated finite field F_{p^e}.

    `modulus` is a coefficient list, low-degree first, required iff e > 1;
    it must be monic of degree e and irreducible over F_p.
    """
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if e == 1:
        if modulus is not None:
            raise ValueError("prime fields take no modulus")
        return Field(p, 1)
    if modulus is None:
        raise MissingModulus(f"degree-{e} extension needs a modulus")
    modulus = tuple(c % p for c in modulus)
    if len(modulus) != e + 1 or modulus[-1] != 1:
        raise ReducibleModulus(f"modulus must be monic of degree {e}")
    _check_irreducible(modulus, p, e)
    f = Field(p, e, modulus, gen_name)
    if f.order <= _TABLE_LIMIT:
        q = f.order
        mul_table = [0] * (q * q)
        for a in range(q):
            for b in range(a, q):
                v = f._mul_slow(a, b)
                mul_table[a * q + b] = v
                mul_table[b * q + a] = v
        inv_table = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul_table[a * q + b] == 1:
                    inv_table[a] = b
                    break
        f = Field(p, e, modulus, gen_name, (mul_table, inv_table))
    return f


def enumerate_elements(f, cap=None):
    """All p^e elements of f, zero first, in a fixed deterministic order."""
    return [FieldElement(f, raw) for raw in f.enumerate_raw(cap)]
