"""Exact arithmetic in finite prime fields F_p and extensions F_{p^e}.

Elements are carried as plain integers ("raw" form) so the hot polynomial
loops never touch Python objects: for e == 1 the raw form is the residue in
[0, p); for e > 1 it is the base-p digit expansion of the reduced polynomial
in the field generator t (digit i = coefficient of t^i), so t itself is
the raw element p.

Prime fields compute with residues directly.  An extension field computes
through discrete logarithms to a primitive element g, built once by
`make_field`:

- `exp[k]` is the raw form of g^k, stored twice over (k < 2(q-1)) so that a
  sum of two logarithms indexes it without a reduction mod q-1, and
  `log[a]` is the k < q-1 with g^k = a (a != 0).  Products, inverses and
  powers are then integer arithmetic on logarithms mod q-1.
- In characteristic 2 the raw form is a bit vector over F_2, so addition
  is XOR and negation is the identity.
- For odd p addition goes through Zech's logarithm, `zech[k] = log(1 + g^k)`:
  a + b = g^la * (1 + g^(lb - la)) = g^(la + zech[lb - la]).  The one k with
  1 + g^k = 0, namely (q-1)/2, holds the sentinel -1, and -a is
  g^(la + (q-1)/2).

The modulus need not be primitive (t has order 5 in F_16 = F_2[t]/(t^4 +
t^3 + t^2 + t + 1)), so g is the least raw element from t upwards whose
(q-1)/r-th power is not 1 for any prime r dividing q-1.  The tables are
filled by q-1 multiplications by g, each the sum of two looked-up
images under x -> x*g: of the low and of the high half of x's digits.
For odd p the images are stored with room for a digit sum in each digit,
so the sum is one int addition, and two more lookups reduce it mod p.
They hold O(q) integers, so `make_field` refuses fields above its caps'
`enum_cap` (SEPINV_ENUM_CAP), the cap that bounds element enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .config import Caps
from .errors import (
    DivisionByZero,
    EnumerationCapExceeded,
    InvalidArgument,
    MissingModulus,
    NonPrimeCharacteristic,
    ReducibleModulus,
)


# Miller-Rabin to the prime bases up to 41 is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster 2017).  The
# bases up to 37 alone pass 318665857834031151167461, a composite.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_BELOW = 3317044064679887385961981


def is_prime(n):
    """Is n prime?  Deterministic Miller-Rabin; InvalidArgument for an n
    too large for its bases to decide."""
    if n >= _EXACT_BELOW:
        raise InvalidArgument(
            f"primality is decided exactly only below {_EXACT_BELOW}"
        )
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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
    # (q - 1, log, exp, zech) for extension fields, zech None for p == 2;
    # see the module docstring
    _tables: tuple = dc_field(default=None, repr=False, compare=False)

    @property
    def order(self):
        return self.p ** self.e

    # -- raw arithmetic ------------------------------------------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        _, log, exp, zech = self._tables
        la = log[a]
        z = zech[log[b] - la]  # a negative index wraps round mod q-1
        return exp[la + z] if z >= 0 else 0

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        q1, log, exp, _ = self._tables
        return exp[log[a] + (q1 >> 1)]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def submul(self, a, b, c):
        """a - b*c in one step: the coefficient update of every reduction."""
        if self.e == 1:
            return (a - b * c) % self.p
        if not b or not c:
            return a
        q1, log, exp, zech = self._tables
        if zech is None:
            return a ^ exp[log[b] + log[c]]
        lm = (log[b] + log[c] + (q1 >> 1)) % q1  # -b*c = g^lm
        if not a:
            return exp[lm]
        la = log[a]
        z = zech[lm - la]
        return exp[la + z] if z >= 0 else 0

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        if not a or not b:
            return 0
        _, log, exp, _ = self._tables
        return exp[log[a] + log[b]]

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        q1, log, exp, _ = self._tables
        return exp[q1 - log[a]]

    def pow(self, a, k):
        """a^k; a negative k means (a^(-1))^(-k)."""
        if k < 0:
            return self.pow(self.inv(a), -k)
        if self.e == 1:
            return pow(a, k, self.p)
        if not a:
            return 0 if k else 1
        q1, log, exp, _ = self._tables
        return exp[log[a] * k % q1]

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
        """Schoolbook product mod the modulus; used only to build the tables."""
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

    def _pow_slow(self, a, k):
        r = 1
        while k:
            if k & 1:
                r = self._mul_slow(r, a)
            a = self._mul_slow(a, a)
            k >>= 1
        return r

    def from_int(self, n):
        """Reduce an integer literal into the field (image of Z -> F_{p^e})."""
        return n % self.p

    def enumerate_raw(self, cap):
        if self.order > cap:
            raise EnumerationCapExceeded(
                f"enumerate_raw: field has {self.order} elements, exceeding "
                f"enum_cap {cap} (SEPINV_ENUM_CAP)"
            )
        return range(self.order)

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.e}"


def _check_irreducible(modulus, p, e):
    # trial division against all monic factors of degree <= e/2
    for d in range(1, e // 2 + 1):
        for cand in _monic_polys(d, p):
            if not _poly_mod(list(modulus), cand, p):
                raise ReducibleModulus(
                    f"modulus is divisible by a degree-{d} factor"
                )


def _primitive_element(f):
    """The least raw element from t upwards that generates F_q^*."""
    q1 = f.order - 1
    cofactors = [q1 // r for r in _prime_factors(q1)]
    for g in range(f.p, f.order):
        if all(f._pow_slow(g, k) != 1 for k in cofactors):
            return g
    raise AssertionError("F_q^* is cyclic, so some element generates it")


def _log_tables(f):
    """(q - 1, log, exp, zech) for the extension field f."""
    p, q = f.p, f.order
    q1 = q - 1
    g = _primitive_element(f)
    # x -> x*g is F_p-linear: with x = lo + P*hi, x*g = lo*g + (P*hi)*g
    P = p ** (f.e // 2)
    low = [f._mul_slow(v, g) for v in range(P)]
    high = [f._mul_slow(v * P, g) for v in range(q // P)]
    log = [0] * q
    exp = [0] * (2 * q1)
    x = 1
    if p == 2:
        for k in range(q1):
            exp[k] = exp[k + q1] = x
            log[x] = k
            x = low[x % P] ^ high[x // P]
        return q1, log, exp, None
    # Odd p: give every digit a field of b bits, room for a sum of two
    # digits, so one int addition adds two images digit by digit without a
    # carry; `lows` and `highs` read the raw form of such a sum off its low
    # and its high digits, reduced mod p.
    b = (2 * p - 2).bit_length()
    low = [_spread(v, p, b) for v in low]
    high = [_spread(v, p, b) for v in high]
    split = b * (f.e // 2)
    mask = (1 << split) - 1
    lows = _digit_sums(f.e // 2, p, b, 1)
    highs = _digit_sums(f.e - f.e // 2, p, b, P)
    for k in range(q1):
        exp[k] = exp[k + q1] = x
        log[x] = k
        s = low[x % P] + high[x // P]
        x = lows[s & mask] + highs[s >> split]
    zech = []
    for x in exp[:q1]:
        y = x + 1 if x % p != p - 1 else x - (p - 1)  # 1 + x, digit 0 mod p
        zech.append(log[y] if y else -1)
    return q1, log, exp, zech


def _spread(v, p, b):
    """The base-p digits of v, digit i in bits [b*i, b*(i+1))."""
    out = 0
    i = 0
    while v:
        v, d = divmod(v, p)
        out |= d << (b * i)
        i += 1
    return out


def _digit_sums(n, p, b, scale):
    """{spread n digits, each below 2p - 1: scale * raw form of them mod p}."""
    out = {0: 0}
    for i in range(n):
        step = scale * p ** i
        out = {w + (d << (b * i)): r + (d % p) * step
               for w, r in out.items() for d in range(2 * p - 1)}
    return out


def check_order(p, e, caps):
    """Refuse F_{p^e} when it has more than `caps.enum_cap` elements.

    This is `make_field`'s cap on extension fields, for callers that must
    apply it before they look for a modulus.  An exponent far past the cap
    is refused without building p^e, and an order too long to read is
    written p^e in the message.
    """
    cap = caps.enum_cap
    if e * (p.bit_length() - 1) > cap.bit_length() or p ** e > cap:
        order = p ** e if e * p.bit_length() <= 64 else f"{p}^{e}"
        raise EnumerationCapExceeded(
            f"make_field: field has {order} elements, exceeding enum_cap "
            f"{cap} (SEPINV_ENUM_CAP)"
        )


def make_field(p, e=1, modulus=None, caps=Caps()):
    """Build a validated finite field F_{p^e}.

    `modulus` is a coefficient list, low-degree first, required iff e > 1;
    it must be monic of degree e and irreducible over F_p.  An extension
    field of more than `caps.enum_cap` elements is refused: its log
    tables grow with its order.
    """
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if e < 1:
        raise InvalidArgument("extension degree must be >= 1")
    if e == 1:
        if modulus is not None:
            raise InvalidArgument("prime fields take no modulus")
        return Field(p, 1)
    if modulus is None:
        raise MissingModulus(f"degree-{e} extension needs a modulus")
    modulus = tuple(c % p for c in modulus)
    if len(modulus) != e + 1 or modulus[-1] != 1:
        raise ReducibleModulus(f"modulus must be monic of degree {e}")
    check_order(p, e, caps)
    _check_irreducible(modulus, p, e)
    f = Field(p, e, modulus)
    return Field(p, e, modulus, _log_tables(f))
