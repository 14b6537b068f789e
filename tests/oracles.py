"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately naive: dictionary polynomials with exponent
tuples, dense row reduction over a prime field, and a degreewise Koszul
homology computation for projective dimension and graded Betti numbers.
None of it shares code with the package, so agreement is meaningful
evidence.
"""

import functools
import itertools
from math import comb


# -- naive polynomial arithmetic over a prime field --------------------------


def naive_from(poly):
    """Engine polynomial -> {exponent tuple: coefficient} over F_p."""
    return {tuple(e): c for e, c in poly.as_pairs()}


def naive_to(ring, table):
    packed = {ring.pack(e): c % ring.field.p for e, c in table.items()}
    return ring.from_dict({m: c for m, c in packed.items() if c})


def naive_add(a, b, p):
    out = dict(a)
    for e, c in b.items():
        v = (out.get(e, 0) + c) % p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def naive_mul(a, b, p):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = (out.get(e, 0) + ca * cb) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def naive_pow(a, k, p, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = naive_mul(out, a, p)
    return out


# -- monomial orders as tuple keys --------------------------------------------


def grevlex_key(exps):
    """Graded reverse lex: total degree, then the smaller last exponent."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def block_key(split):
    """Block order: grevlex on the first `split` exponents, then on the rest."""
    return lambda exps: (grevlex_key(exps[:split]), grevlex_key(exps[split:]))


def level_key(ring_key, leads, c, exps):
    """Int key of e_c * x^exps on the last level of a resolution cascade.

    The module order's definition, by recursion: the base level has the one
    component 0 and keys x^e as `ring_key(e)`; `leads[k]` lists the leads of
    level k + 1 as (component on level k, exponent tuple).  A level with w
    the bit length of its component count keys e_c * m by the key of
    lead_c * m one level up, shifted left by w, with 2^w - 1 - c in the low
    bits.
    """
    if not leads:
        inner, width = ring_key(exps), 1
    else:
        parent, lead = leads[-1][c]
        image = tuple(a + b for a, b in zip(lead, exps))
        inner = level_key(ring_key, leads[:-1], parent, image)
        width = len(leads[-1]).bit_length()
    return (inner << width) | ((1 << width) - 1 - c)


# -- dense linear algebra over F_p --------------------------------------------


def rref(rows, p):
    """Row-reduce in place over F_p; returns the list of pivot columns."""
    pivots = []
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    del rows[r:]
    return pivots


def rank(rows, p):
    return len(rref([list(r) for r in rows], p))


# -- degreewise Koszul homology ------------------------------------------------


def monomials(nvars, degree):
    """All exponent tuples of the given total degree, in a fixed order."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


class GradedQuotient:
    """Graded pieces of R/I by Macaulay matrices, no Groebner bases.

    Generators are {exponent tuple: coefficient} tables over F_p.  For each
    degree d the span of {m * g} is row-reduced; the quotient basis is the
    set of non-pivot monomials.
    """

    def __init__(self, nvars, gens, p):
        self.nvars = nvars
        self.gens = gens
        self.p = p
        self._pieces = {}

    def piece(self, d):
        """(monomial list, index map, reduced relation rows, pivot cols)."""
        if d < 0:
            return ([], {}, [], [])
        if d not in self._pieces:
            monos = monomials(self.nvars, d)
            index = {m: i for i, m in enumerate(monos)}
            rows = []
            for g in self.gens:
                gdeg = max(sum(e) for e in g)
                if gdeg > d:
                    continue
                for shift in monomials(self.nvars, d - gdeg):
                    row = [0] * len(monos)
                    for e, c in g.items():
                        target = tuple(a + b for a, b in zip(e, shift))
                        row[index[target]] = c % self.p
                    rows.append(row)
            if rows:
                pivots = rref(rows, self.p)
            else:
                pivots = []
            self._pieces[d] = (monos, index, rows, pivots)
        return self._pieces[d]

    def dim(self, d):
        monos, _, _, pivots = self.piece(d)
        return len(monos) - len(pivots)

    def basis(self, d):
        monos, _, _, pivots = self.piece(d)
        taken = set(pivots)
        return [m for i, m in enumerate(monos) if i not in taken]

    def reduce(self, table, d):
        """Coordinates of a degree-d element on the quotient basis."""
        monos, index, rows, pivots = self.piece(d)
        vec = [0] * len(monos)
        for e, c in table.items():
            vec[index[e]] = (vec[index[e]] + c) % self.p
        for row, c in zip(rows, pivots):
            if vec[c]:
                f = vec[c]
                vec = [(a - f * b) % self.p for a, b in zip(vec, row)]
        taken = set(pivots)
        return [vec[i] for i in range(len(monos)) if i not in taken]


def _koszul_homology(nvars, gens, p):
    """The function (i, d) -> dim H_i(x1..xn; R/I)_d, by Macaulay matrices."""
    quotient = GradedQuotient(nvars, gens, p)
    subsets = {i: list(itertools.combinations(range(nvars), i))
               for i in range(nvars + 1)}

    def differential(i, d):
        """Matrix of K_i -> K_{i-1} in internal degree d, as rows."""
        rows_basis = quotient.basis(d - i)
        cols = []
        lower = quotient.basis(d - i + 1)
        width = len(subsets[i - 1]) * len(lower)
        for si, subset in enumerate(subsets[i]):
            for m in rows_basis:
                row = [0] * width
                for drop in range(i):
                    var = subset[drop]
                    rest = subset[:drop] + subset[drop + 1:]
                    target = subsets[i - 1].index(rest)
                    bumped = tuple(e + (1 if k == var else 0)
                                   for k, e in enumerate(m))
                    coords = quotient.reduce({bumped: 1}, d - i + 1)
                    sign = (-1) ** drop
                    base = target * len(lower)
                    for k, c in enumerate(coords):
                        row[base + k] = (row[base + k] + sign * c) % p
                cols.append(row)
        return cols

    def homology(i, d):
        dim_i = len(subsets[i]) * quotient.dim(d - i)
        if dim_i == 0:
            return 0
        rank_out = rank(differential(i, d), p) if i and quotient.dim(
            d - i + 1) else 0
        if i < nvars:
            incoming = differential(i + 1, d)
            rank_in = rank(incoming, p) if incoming and quotient.dim(
                d - i - 1) else 0
        else:
            rank_in = 0
        return dim_i - rank_out - rank_in

    return homology


def koszul_projective_dimension(nvars, gens, p, max_degree):
    """pd(R/I) as the top nonvanishing Koszul homology H_i(x1..xn; R/I).

    Scans internal degrees 0..max_degree; callers must pick max_degree
    beyond the regularity range of the module (generous slack is cheap at
    this scale).
    """
    homology = _koszul_homology(nvars, gens, p)
    top = 0
    for i in range(1, nvars + 1):
        if any(homology(i, d) > 0 for d in range(max_degree + 1)):
            top = i
    return top


def koszul_graded_betti(nvars, gens, p, max_degree):
    """{(i, d): dim H_i(x1..xn; R/I)_d} for d <= max_degree, zeros left out.

    H_i(x; R/I) is Tor_i(R/I, K), so these are the graded Betti numbers of
    R/I, found without any resolution.
    """
    homology = _koszul_homology(nvars, gens, p)
    out = {}
    for i in range(nvars + 1):
        for d in range(max_degree + 1):
            b = homology(i, d)
            if b:
                out[(i, d)] = b
    return out


def hilbert_function(nvars, gens, p, degrees):
    quotient = GradedQuotient(nvars, gens, p)
    return [quotient.dim(d) for d in degrees]


def binomial_dim(nvars, d):
    return comb(d + nvars - 1, nvars - 1) if d >= 0 else 0


# -- rational points and the point check, by brute force -----------------------


def naive_field_ops(field):
    """(add, mul) on raw elements of F_p[t]/(modulus), digit by digit.

    Reads only p, e and the modulus of the engine's field, so it shares no
    arithmetic with it.
    """
    p, e = field.p, field.e
    if e == 1:
        return (lambda a, b: (a + b) % p), (lambda a, b: (a * b) % p)

    def digits(a):
        return [(a // p ** i) % p for i in range(e)]

    def undigits(ds):
        return sum(c * p ** i for i, c in enumerate(ds))

    def add(a, b):
        return undigits([(x + y) % p for x, y in zip(digits(a), digits(b))])

    def mul(a, b):
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        # t^e = -(modulus[0] + ... + modulus[e-1] t^(e-1)), modulus monic
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k]
            prod[k] = 0
            for i in range(e):
                prod[k - e + i] = (prod[k - e + i] - c * field.modulus[i]) % p
        return undigits(prod[:e])

    return add, mul


def naive_value(table, point, field):
    """Value of an {exponent tuple: coefficient} polynomial at a raw point."""
    return _value(table, point, *naive_field_ops(field))


def _value(table, point, add, mul):
    total = 0
    for exps, c in table.items():
        v = c
        for x, k in zip(point, exps):
            for _ in range(k):
                v = mul(v, x)
        total = add(total, v)
    return total


def naive_variety_points(components, nvars, field):
    """Every coordinate tuple, in itertools.product order, at which all the
    generators of some component vanish.  Components are lists of tables.
    The digit-by-digit sums and products are memoised: a scan repeats them."""
    add, mul = map(functools.cache, naive_field_ops(field))
    return [
        pt for pt in itertools.product(range(field.p ** field.e), repeat=nvars)
        if any(all(_value(g, pt, add, mul) == 0 for g in comp)
               for comp in components)
    ]


def naive_apply(matrix, translation, point, field):
    add, mul = naive_field_ops(field)
    out = []
    for row, b in zip(matrix, translation):
        acc = b
        for a, x in zip(row, point):
            acc = add(acc, mul(a, x))
        out.append(acc)
    return tuple(out)


def naive_point_check(candidate, maps, points, field):
    """Bucket the points by candidate values, then require every bucket to
    lie in the orbit of its first member.  `maps` are (matrix, translation)
    pairs listing the whole group."""
    buckets = {}
    for pt in points:
        values = tuple(naive_value(g, pt, field) for g in candidate)
        buckets.setdefault(values, []).append(pt)
    for members in buckets.values():
        orbit = {naive_apply(a, b, members[0], field) for a, b in maps}
        if any(pt not in orbit for pt in members):
            return False
    return True
