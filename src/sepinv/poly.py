"""Sparse multivariate polynomials over a finite field.

Monomials are packed exponent vectors: variable i occupies one byte of a
Python int, which makes monomial multiplication a single integer addition
and divisibility one masked subtraction.  Exponents must stay below 128;
the degree cap in config guarantees that for every sanctioned computation,
and every packed operation still checks the guard bits so an overflow can
never corrupt a result silently.

A term of a free module, component c times monomial m, is packed the same
way: `m | (c << term_shift)`, the component in the bits above the exponent
bytes (`PolynomialRing.term` and `split`).  A polynomial term is the c = 0
case, so a polynomial's terms are already module terms.  No carry can reach
the component bits: two exponents below 128 sum to less than 256, so an
overflowing byte sets its own guard bit, which every add checks, before it
could carry.  Hence `t - lead` is the monomial quotient whenever lead
divides t in the same component.

A monomial order maps a packed monomial to an int key (`PolynomialRing.key`)
that orders monomials as the order does, so comparing two monomials is one
int comparison and a reducer can keep its terms in a heap.

Polynomials are immutable: a tuple of (packed monomial, raw coefficient)
pairs, strictly decreasing in the ring's monomial order, no zeros.  All
arithmetic routes through dicts internally and re-canonicalizes on exit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    PolynomialSyntaxError,
    ResourceCapExceeded,
    RingMismatch,
    UnknownVariable,
)

_W = 8  # bits per exponent


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lex:
    """Lexicographic order, x_1 > x_2 > ... > x_n.

    The key of a packed monomial is an int: its exponent bytes in reverse
    order, so x_1's exponent is the most significant byte.
    """

    def width(self, nvars):
        """Bits of the largest key on `nvars` variables."""
        return _W * nvars

    def keyfn(self, nvars):
        def key(m):
            return int.from_bytes(m.to_bytes(nvars, "little"), "big")
        return key


@dataclass(frozen=True)
class GRevLex:
    """Graded reverse lexicographic order.

    The key of a packed monomial m is the int `(deg << 8n) | (top - m)`,
    where top has all 8n bits set: the total degree decides, and among
    monomials of one degree the smaller exponent of the last variable wins,
    then of the one before it, because `top - m` complements every byte.
    """

    def width(self, nvars):
        # the degree field holds at most nvars bytes of 255
        return _W * nvars + (255 * nvars).bit_length()

    def keyfn(self, nvars):
        shift = _W * nvars
        top = (1 << shift) - 1

        def key(m):
            return (sum(m.to_bytes(nvars, "little")) << shift) | (top - m)
        return key


@dataclass(frozen=True)
class Block:
    """Compare the first `split` exponents under `first`, then the rest.

    With a graded order in the first block this is an elimination order for
    the first `split` variables.  The key is an int: the first block's key
    shifted above the widest key the second block can have.
    """

    split: int
    first: object
    second: object

    def width(self, nvars):
        return self.first.width(self.split) + self.second.width(nvars - self.split)

    def keyfn(self, nvars):
        k1 = self.first.keyfn(self.split)
        k2 = self.second.keyfn(nvars - self.split)
        shift = self.second.width(nvars - self.split)
        low = _W * self.split
        mask = (1 << low) - 1
        return lambda m: (k1(m & mask) << shift) | k2(m >> low)


GREVLEX = GRevLex()
LEX = Lex()


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

class PolynomialRing:
    """K[x_1..x_n] with a fixed monomial order.

    Equality is by value (field, variable names, order), so reloading a
    manifest produces rings that compare equal to the originals.
    """

    def __init__(self, field, variables, order=GREVLEX):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        if field.e > 1 and field.gen_name in variables:
            raise ValueError(
                f"variable {field.gen_name!r} collides with the field generator"
            )
        self.field = field
        self.variables = variables
        self.order = order
        self.nvars = len(variables)
        self.guard = 0
        for i in range(self.nvars):
            self.guard |= 0x80 << (_W * i)
        self.term_shift = _W * self.nvars
        self._rawkey = order.keyfn(self.nvars)
        self._keys = {}
        self._degs = {}
        self._t_ring = None  # R[t] of `groebner._t_ring`, made on first use

    # -- value identity ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and self.field == other.field
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.variables)}]"

    def with_order(self, order):
        if order == self.order:
            return self
        return PolynomialRing(self.field, self.variables, order)

    # -- packed monomials ------------------------------------------------------

    def pack(self, exps):
        m = 0
        for i, e in enumerate(exps):
            if e < 0 or e > 127:
                raise ResourceCapExceeded(f"exponent {e} out of packed range")
            m |= e << (_W * i)
        return m

    def unpack(self, m):
        out = []
        for _ in range(self.nvars):
            out.append(m & 0xFF)
            m >>= _W
        return tuple(out)

    def term(self, c, m):
        """The module term e_c * m (basis vector c times monomial m), packed."""
        return m | (c << self.term_shift)

    def split(self, t):
        """(component, monomial) of a packed module term."""
        c = t >> self.term_shift
        return c, t - (c << self.term_shift)

    def mono_mul(self, a, b):
        s = a + b
        if s & self.guard:
            raise ResourceCapExceeded("monomial exponent exceeded packed range")
        return s

    def mono_divides(self, a, b):
        """True iff monomial a divides monomial b."""
        return ((b | self.guard) - a) & self.guard == self.guard

    def mono_lcm(self, a, b):
        """Least common multiple of monomials a and b: per-byte maximum.

        `(a | guard) - b` keeps byte i's guard bit exactly when a_i >= b_i,
        and no borrow crosses a byte because every exponent is below 128.
        Each kept guard bit less its own low bit masks a byte taken from a.
        For two terms of one component the component bits come from b, so
        the result is their lcm in that component.
        """
        g = ((a | self.guard) - b) & self.guard
        return b ^ ((a ^ b) & (g - (g >> 7)))

    def mono_degree(self, m):
        d = self._degs.get(m)
        if d is None:
            d = sum(m.to_bytes(self.nvars, "little"))
            self._degs[m] = d
        return d

    def key(self, m):
        """The order's int key of monomial m; larger keys are larger."""
        k = self._keys.get(m)
        if k is None:
            k = self._rawkey(m)
            self._keys[m] = k
        return k

    # -- polynomial constructors ----------------------------------------------

    def from_dict(self, d):
        items = [(m, c) for m, c in d.items() if c]
        items.sort(key=lambda t: self.key(t[0]), reverse=True)
        return Polynomial(self, tuple(items))

    def zero(self):
        return Polynomial(self, ())

    def one(self):
        return self.constant(1)

    def constant(self, raw):
        raw = raw % self.field.p if self.field.e == 1 else raw
        if raw == 0:
            return self.zero()
        return Polynomial(self, ((0, raw),))

    def var(self, i):
        return Polynomial(self, ((1 << (_W * i), 1),))

    def var_named(self, name):
        return self.var(self.variables.index(name))

    def parse(self, text):
        return parse(text, self)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- inspection -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def leading_monomial(self):
        return self.terms[0][0]

    def leading_coefficient(self):
        return self.terms[0][1]

    def as_pairs(self):
        """Terms as (exponent tuple, raw coefficient), order-descending."""
        return [(self.ring.unpack(m), c) for m, c in self.terms]

    def coefficient(self, exps):
        m = self.ring.pack(exps)
        for mm, c in self.terms:
            if mm == m:
                return c
        return 0

    # -- equality -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic -------------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        fld = self.ring.field
        d = dict(self.terms)
        for m, c in other.terms:
            v = fld.add(d.get(m, 0), c)
            if v:
                d[m] = v
            else:
                d.pop(m, None)
        return self.ring.from_dict(d)

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, tuple((m, fld.neg(c)) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        ring = self.ring
        fld = ring.field
        d = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = ring.mono_mul(ma, mb)
                v = fld.add(d.get(m, 0), fld.mul(ca, cb))
                if v:
                    d[m] = v
                else:
                    del d[m]
        return ring.from_dict(d)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k >>= 1
        return result

    def scale(self, raw):
        """Multiply by a raw field coefficient."""
        fld = self.ring.field
        if raw == 0:
            return self.ring.zero()
        return Polynomial(
            self.ring, tuple((m, fld.mul(c, raw)) for m, c in self.terms)
        )

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.terms[0][1]))

    # -- evaluation / substitution ---------------------------------------------

    def evaluate(self, point, field=None):
        """Evaluate at a point given as raw coefficients.

        A larger field may be passed for evaluation at extension points,
        provided the coefficients live in the prime field: those embed
        into any extension without re-encoding.
        """
        if len(point) != self.ring.nvars:
            raise DimensionMismatch("point length != number of variables")
        return self.evaluator(field)(point)

    def evaluator(self, field=None):
        """This polynomial as a function of a point, for repeated evaluation.

        The monomials are unpacked once, here.  The returned function
        reads only the coordinates of variables that occur and does not
        check the point's length; `evaluate` is the checked entry point.
        """
        fld = _embedding_field(self.ring.field, field)
        mul, add, pow_ = fld.mul, fld.add, fld.pow
        terms = tuple(
            (c, tuple((i, e) for i, e in enumerate(self.ring.unpack(m)) if e))
            for m, c in self.terms
        )

        def value(point):
            total = 0
            for c, factors in terms:
                v = c
                for i, e in factors:
                    v = mul(v, point[i] if e == 1 else pow_(point[i], e))
                total = add(total, v)
            return total

        return value

    def substitute(self, images):
        """Substitute variable i by the polynomial images[i]."""
        if len(images) != self.ring.nvars:
            raise DimensionMismatch("one image per variable required")
        target = images[0].ring if images else self.ring
        fld = target.field
        powers = [{0: target.one()} for _ in images]

        def img_pow(i, e):
            cache = powers[i]
            if e not in cache:
                best = max(k for k in cache if k <= e)
                v = cache[best]
                for _ in range(e - best):
                    v = v * images[i]
                cache[e] = v
            return cache[e]

        acc = {}
        for m, c in self.terms:
            prod = target.constant(c)
            for i, e in enumerate(self.ring.unpack(m)):
                if e:
                    prod = prod * img_pow(i, e)
            for mm, cc in prod.terms:
                v = fld.add(acc.get(mm, 0), cc)
                if v:
                    acc[mm] = v
                else:
                    del acc[mm]
        return target.from_dict(acc)

    def inject(self, target, var_map):
        """Rename variable i of this ring to target variable var_map[i].

        var_map need only be injective on variables this polynomial uses.
        """
        d = {}
        for m, c in self.terms:
            exps = [0] * target.nvars
            for i, e in enumerate(self.ring.unpack(m)):
                if e:
                    exps[var_map[i]] = e
            d[target.pack(exps)] = c
        return target.from_dict(d)

    def __repr__(self):
        return render(self)


def is_homogeneous(f):
    """Total degree if every term shares it, else None; zero counts as degree 0."""
    if not f.terms:
        return 0
    degs = {f.ring.mono_degree(m) for m, _ in f.terms}
    if len(degs) == 1:
        return degs.pop()
    return None


def _embedding_field(own, requested):
    """The field to compute in when values may come from an extension."""
    if requested is None or requested == own:
        return own
    if own.e == 1 and requested.p == own.p:
        return requested
    raise RingMismatch("values must come from the coefficient field or an "
                       "extension of its prime field")


# ---------------------------------------------------------------------------
# affine maps and the action on functions
# ---------------------------------------------------------------------------

class AffineMap:
    """x -> Ax + b with A invertible, over a finite field.

    Composition follows maps: (f.compose(g))(x) = f(g(x)).
    """

    __slots__ = ("field", "matrix", "translation", "n")

    def __init__(self, field, matrix, translation=None):
        n = len(matrix)
        # Prime-field entries may be any integers (reduced mod p); extension
        # entries are raw encodings already, checked to lie in [0, q) below.
        norm = (lambda v: v % field.p) if field.e == 1 else (lambda v: v)
        rows = []
        for row in matrix:
            if len(row) != n:
                raise DimensionMismatch("matrix must be square")
            rows.append(tuple(norm(v) for v in row))
        if translation is None:
            translation = (0,) * n
        if len(translation) != n:
            raise DimensionMismatch("translation length != matrix size")
        self.field = field
        self.matrix = tuple(rows)
        self.translation = tuple(norm(v) for v in translation)
        self.n = n
        entries = (v for row in (*self.matrix, self.translation) for v in row)
        if field.e > 1 and not all(0 <= v < field.order for v in entries):
            raise ValueError(f"entries over {field} must be raw encodings "
                             f"in [0, {field.order})")
        if _gauss_jordan(field, [list(r) for r in self.matrix], n) != n:
            raise ValueError("matrix is not invertible")

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, AffineMap)
            and self.field == other.field
            and self.matrix == other.matrix
            and self.translation == other.translation
        )

    def __hash__(self):
        return hash((self.matrix, self.translation))

    def apply_point(self, pt, field=None):
        """The image of a point given as raw coefficients.

        As with `Polynomial.evaluate`, a larger field may be passed for
        points over an extension of a prime base field.
        """
        if len(pt) != self.n:
            raise DimensionMismatch("point length != map dimension")
        return self.point_map(field)(pt)

    def point_map(self, field=None):
        """This map as a function of a point, for repeated application.

        The nonzero matrix entries and the translation are unpacked once,
        here, and an entry 1 adds its coordinate without a multiply.  The
        returned function does not check the point's length; `apply_point`
        is the checked entry point.
        """
        fld = _embedding_field(self.field, field)
        add, mul = fld.add, fld.mul
        rows = tuple(
            (b, tuple(j for j, a in enumerate(row) if a == 1),
             tuple((j, a) for j, a in enumerate(row) if a > 1))
            for row, b in zip(self.matrix, self.translation)
        )

        def image(pt):
            out = []
            for acc, ones, scaled in rows:
                for j in ones:
                    x = pt[j]
                    if x:
                        acc = add(acc, x)
                for j, a in scaled:
                    x = pt[j]
                    if x:
                        acc = add(acc, mul(a, x))
                out.append(acc)
            return tuple(out)

        return image

    def compose(self, other):
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if self.n != other.n or self.field != other.field:
            raise DimensionMismatch("affine maps not composable")
        fld = self.field
        n = self.n
        mat = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc = fld.add(acc, fld.mul(self.matrix[i][k], other.matrix[k][j]))
                row.append(acc)
            mat.append(row)
        tr = []
        for i in range(n):
            acc = self.translation[i]
            for k in range(n):
                acc = fld.add(acc, fld.mul(self.matrix[i][k], other.translation[k]))
            tr.append(acc)
        return AffineMap(self.field, mat, tr)

    def inverse(self):
        fld = self.field
        n = self.n
        aug = [list(self.matrix[i]) + [1 if j == i else 0 for j in range(n)]
               for i in range(n)]
        _gauss_jordan(fld, aug, n)
        ainv = [row[n:] for row in aug]
        tr = []
        for i in range(n):
            acc = 0
            for k in range(n):
                acc = fld.add(acc, fld.mul(ainv[i][k], self.translation[k]))
            tr.append(fld.neg(acc))
        return AffineMap(self.field, ainv, tr)

    def __repr__(self):
        return f"AffineMap({self.matrix}, +{self.translation})"


def _gauss_jordan(field, rows, ncols):
    """Reduce `rows` in place on their first `ncols` columns; return the rank.

    Each pivot column is cleared above and below a pivot scaled to 1, so
    an invertible block becomes the identity and the columns to its right
    are multiplied by its inverse.
    """
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [field.mul(v, inv) for v in rows[r]]
        pivot = rows[r]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [field.submul(a, f, b) for a, b in zip(rows[i], pivot)]
        r += 1
    return r


def coordinate_images(sigma, ring):
    """sigma*(x_i) = sum_j A_ij x_j + b_i for each i, as polynomials of `ring`.

    These are the images `compose_affine` substitutes; read directly, they
    give sigma's fixed-point equations and its graph.
    """
    if ring.nvars != sigma.n:
        raise DimensionMismatch(
            f"polynomial in {ring.nvars} variables, map of dimension {sigma.n}"
        )
    if ring.field != sigma.field:
        raise RingMismatch(f"map over {sigma.field} acting on {ring}")
    images = []
    for row, b in zip(sigma.matrix, sigma.translation):
        d = {1 << (_W * j): a for j, a in enumerate(row) if a}
        if b:
            d[0] = b
        images.append(ring.from_dict(d))
    return images


def compose_affine(f, sigma):
    """The action on functions: f |-> f(sigma(x))."""
    return f.substitute(coordinate_images(sigma, f.ring))


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

_DIGITS = 600  # below the least str-to-int digit limit Python allows


def read_decimal(digits, reduce):
    """The number a string of decimal digits names, read _DIGITS at a time
    and passed through `reduce` after each slice: `int` keeps it whole, a
    field's `from_int` reads a literal of any length in linear time."""
    r = 0
    for i in range(0, len(digits), _DIGITS):
        part = digits[i:i + _DIGITS]
        r = reduce(r * 10 ** len(part) + int(part))
    return r


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # what int() reads: isdigit() would take "²"
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, n))
    return tokens


def parse(text, ring):
    """Parse the polynomial grammar: integers, variables, + - * ^ ( ).

    A sum is terms joined by + and -, a term is factors joined by *, and a
    factor is any number of signs, then an integer, a variable or a
    parenthesised sum, then any number of ^ exponents; signs bind looser
    than ^.  Open parentheses wait on a list, not on Python's stack, so
    nesting is bounded by memory alone.
    """
    tokens = _tokenize(text)
    outer = []  # per open parenthesis, the level it interrupts
    total, op, prod = ring.zero(), "+", ring.one()
    pos = 0
    while True:
        negate = False
        while tokens[pos][0] in ("+", "-"):
            negate ^= tokens[pos][0] == "-"
            pos += 1
        kind, val, at = tokens[pos]
        pos += 1
        if kind == "(":
            outer.append((total, op, prod, negate))
            total, op, prod = ring.zero(), "+", ring.one()
            continue
        if kind == "INT":
            value = ring.constant(read_decimal(val, ring.field.from_int))
        elif kind == "NAME" and val in ring.variables:
            value = ring.var_named(val)
        elif kind == "NAME" and ring.field.e > 1 and val == ring.field.gen_name:
            value = ring.constant(ring.field.p)  # raw encoding of the generator
        elif kind == "NAME":
            raise UnknownVariable(val, at)
        else:
            raise PolynomialSyntaxError(f"unexpected token {val!r}", at)
        while True:  # value is a whole base: finish its factor and term
            while tokens[pos][0] == "^":
                kind, digits, at = tokens[pos + 1]
                pos += 2
                if kind != "INT":
                    raise PolynomialSyntaxError(
                        f"expected INT, got {digits!r}", at)
                if len(digits) > _DIGITS:
                    raise PolynomialSyntaxError(
                        f"exponent has more than {_DIGITS} digits", at)
                value = value ** int(digits)
            prod = prod * (-value if negate else value)
            kind, val, at = tokens[pos]
            pos += 1
            if kind == "*":
                break
            total = total + prod if op == "+" else total - prod
            prod = ring.one()
            if kind in ("+", "-"):
                op = kind
                break
            if kind == ")" and outer:  # the sum is a base of the level out
                value = total
                total, op, prod, negate = outer.pop()
                continue
            if outer:
                raise PolynomialSyntaxError(f"expected ), got {val!r}", at)
            if kind != "END":
                raise PolynomialSyntaxError(f"trailing input {val!r}", at)
            return total


def render(f):
    """Inverse of parse: terms in ring order, explicit '*', '^' for powers."""
    if not f.terms:
        return "0"
    ring = f.ring
    parts = []
    for m, c in f.terms:
        exps = ring.unpack(m)
        factors = []
        for name, e in zip(ring.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        cs = ring.field.coeff_str(c)
        if not factors:
            parts.append(cs)
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(cs + "*" + "*".join(factors))
    return " + ".join(parts)
