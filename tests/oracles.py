"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately naive: dictionary polynomials with exponent
tuples, dense row reduction over a prime field, and a degreewise Koszul
homology computation for projective dimension.  None of it shares code with
the package, so agreement is meaningful evidence.
"""

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


def koszul_projective_dimension(nvars, gens, p, max_degree):
    """pd(R/I) as the top nonvanishing Koszul homology H_i(x1..xn; R/I).

    Scans internal degrees 0..max_degree; callers must pick max_degree
    beyond the regularity range of the module (generous slack is cheap at
    this scale).
    """
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

    top = 0
    for i in range(1, nvars + 1):
        found = False
        for d in range(max_degree + 1):
            dim_i = len(subsets[i]) * quotient.dim(d - i)
            if dim_i == 0:
                continue
            rank_out = rank(differential(i, d), p) if quotient.dim(
                d - i + 1) else 0
            if i < nvars:
                incoming = differential(i + 1, d)
                rank_in = rank(incoming, p) if incoming and quotient.dim(
                    d - i - 1) else 0
            else:
                rank_in = 0
            if dim_i - rank_out - rank_in > 0:
                found = True
                break
        if found:
            top = i
    return top


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
    add, mul = naive_field_ops(field)
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
    generators of some component vanish.  Components are lists of tables."""
    return [
        pt for pt in itertools.product(range(field.p ** field.e), repeat=nvars)
        if any(all(naive_value(g, pt, field) == 0 for g in comp)
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
