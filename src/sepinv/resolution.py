"""Minimal graded free resolutions and depth invariants.

The resolution of R/I is built in three stages from the reduced Groebner
basis of I.

1. Split.  The basis splits into its linear forms l_1..l_r and the rest,
   J.  The basis is reduced, so no term of J contains the lead variable of
   any l_i, and the change of coordinates that sends each lead variable to
   its l_i fixes J.  So l_1..l_r is a regular sequence on R/JR, J is a
   Groebner basis on its own, and R/I is resolved by F(J) (x) K(l_1..l_r),
   the tensor product of a minimal resolution of R/JR with the Koszul
   complex of the linear forms (Eisenbud, *Commutative Algebra*, section
   17).
2. Cascade on J.  An iterated syzygy construction on Schreyer's frame: the
   syzygies of a Groebner basis, computed with induced module orders, are
   again a Groebner basis of the syzygy module, so the construction repeats
   until it runs dry.  The induced order fixes the lead of every pair's
   syzygy before any reduction, e_i * lcm(m_i, m_j)/m_i for i < j, so only
   the pairs whose leads are minimal are formed and reduced; every other
   pair's syzygy has a lead that a kept one divides (Erocal, Motsak,
   Schreyer and Steenpass 2016).  Ordering each level by component and then
   by decreasing lex of the lead monomial makes every level lose one more
   variable from its lead terms, which bounds the length by the variable
   count.  The resulting complex is far from minimal, so constant entries in
   its differentials are cleared by a change of basis that splits off
   trivial two-term complexes until none remain.
3. Koszul tensor.  The basis of the product is every b (x) e_S, b in F(J)
   and S a subset of the linear forms, and its differential is
   D(b (x) e_S) = d(b) (x) e_S + (-1)^hdeg(b) b (x) d_K(e_S) with
   d_K(e_S) = sum_t (-1)^(|S|-1-t) l_(S_t) e_(S minus S_t).  Both factors
   are minimal and D adds only linear entries, so the product is minimal as
   assembled.  r = 0 gives F(J) itself, and the zero ideal is resolved by R.

Every complex is a `_Chain`, whose constructor certifies that each entry
has the degree its shifts say: the cascade's, at the degrees of its leads,
before minimalization, which runs on it alone; the assembled product's, at
shift(b) + |S| for b (x) e_S.  The product's differentials must also
compose to zero with no unit entry, and the alternating sum of its shifts
must equal the ideal's Hilbert numerator.

Module elements are tuples of (packed module term, coefficient), in the
encoding of `poly`, and every module reduction runs through the reducer in
`groebner` with the level's induced order as its key: reduction in a free
module is polynomial reduction within one component.  The chain keeps the
same packed terms: a column of a differential is a dict {packed term:
coefficient} whose component is the row id.  `FreeResolution` keeps each
column as a tuple of those items, and its `matrix` turns a differential
into rows of polynomials only when asked.

Everything here requires homogeneous input, which `is_graded` tests for
every caller; the grading is what makes "minimal" well defined and lets
depth be read off the length via the graded form of the
Auslander-Buchsbaum formula.  The Hilbert numerator
that cross-checks every resolution comes from the lead-term ideal alone,
by Bigatti's pivot recursion.
"""

from __future__ import annotations

from itertools import combinations

from .errors import (
    InternalInconsistency,
    InvalidArgument,
    NonHomogeneousInput,
    ResourceCapExceeded,
    UnitIdeal,
)
from .groebner import _buckets, _interreduce, _reduce, _s_vector
from .poly import is_homogeneous


# ---------------------------------------------------------------------------
# module orders
# ---------------------------------------------------------------------------

class _Level:
    """Key machinery for one free module in the cascade.

    Terms are packed module terms (`PolynomialRing.term`) and keys are ints.
    The base level (parent None) has the one component 0 and keys a term by
    the ring order.  An induced level keys e_c * m by the parent key of its
    image lead_c * m, then breaks ties toward the smaller component: the key
    is `(parent key << w) | (top - c)` with top = 2^w - 1, where w is the
    bit length of the component count, so top - c never reaches the parent
    key's bits.

    Every ring key is additive on packed monomials whose exponent sums stay
    below 128: key(a + b) = key(a) + key(b) - key(0), under grevlex, lex
    and block orders alike.  So the recursion above has the closed form
    `offsets[c] + (key(m) << shift)`:
    `shift` sums the widths w down the cascade, and `offsets[c]` folds in
    lead_c and the parent's offset once, when the level is built.
    """

    __slots__ = ("ring", "shift", "offsets")

    def __init__(self, ring, parent=None, leads=None):
        self.ring = ring
        width = (1 if leads is None else len(leads)).bit_length()
        top = (1 << width) - 1
        if parent is None:
            self.shift = width
            self.offsets = (top,)
            return
        self.shift = parent.shift + width
        one = ring.key(0)
        offsets = []
        for c, lead in enumerate(leads):
            pc, m = ring.split(lead)
            inner = parent.offsets[pc] + ((ring.key(m) - one) << parent.shift)
            offsets.append((inner << width) + top - c)
        self.offsets = tuple(offsets)

    def key(self, t):
        c, m = self.ring.split(t)
        return self.offsets[c] + (self.ring.key(m) << self.shift)


def _canon(work, key):
    """A term dict as a term tuple in decreasing `key` order."""
    return tuple(sorted(work.items(), key=lambda tc: key(tc[0]), reverse=True))


def _sort_basis(elems, ring):
    """Component ascending, then lead monomial in decreasing lex.

    This ordering is what drives a variable out of the lead terms at each
    level of the cascade.
    """
    def k(e):
        c, m = ring.split(e[0][0])
        return (c, tuple(-x for x in ring.unpack(m)))
    return sorted(elems, key=k)


def _count_pair(counter, caps):
    """Count one syzygy against the resolution's pair cap."""
    counter[0] += 1
    if counter[0] > caps.pair_cap:
        raise ResourceCapExceeded(
            f"minimal_free_resolution: {counter[0]} syzygy pairs "
            f"exceed pair_cap {caps.pair_cap} (SEPINV_PAIR_CAP)"
        )


def _syzygy_level(level, elems, caps, counter):
    """The frame syzygies of a monic module Groebner basis.

    Returns (next level, syzygy elements in next-level coordinates).
    Under the next level's order the syzygy of a pair i < j in one
    component leads with e_i * u, u = lcm(m_i, m_j) / m_i, since ties go
    to the smaller component.  For each i only one pair per minimal
    generator u of the monomial ideal (m_j : m_i), j > i, is reduced: any
    other pair's lead is a multiple of a kept lead, so the kept syzygies are
    already a Groebner basis of the syzygy module.  The division remainders
    must vanish; anything else means the input was not a Groebner basis and
    the cascade is invalid.
    """
    ring = level.ring
    fld = ring.field
    guard = ring.guard
    leads = [e[0][0] for e in elems]
    if len(set(leads)) != len(leads):
        raise InternalInconsistency("duplicate lead term in module basis")
    nxt = _Level(ring, level, leads)
    buckets = _buckets(elems, ring)
    minus_one = fld.neg(1)
    out = []
    for c in sorted(buckets):
        group = buckets[c]
        for a, (li, _, _, i) in enumerate(group):
            # both leads lie in component c, and so does their lcm
            first = {}
            for lj, _, _, j in group[a + 1:]:
                first.setdefault(ring.mono_lcm(li, lj) - li, j)
            frame = []
            for u in sorted(first, key=ring.key):  # divisors come first
                if not any(((u | guard) - v) & guard == guard for v in frame):
                    frame.append(u)
            for ui in frame:
                j = first[ui]
                _count_pair(counter, caps)
                uj = li + ui - leads[j]
                work = _s_vector(elems[i], ui, 1, elems[j], uj, 1, ring)
                quots = {}
                if _reduce(work, buckets, ring, level.key, quots):
                    raise InternalInconsistency("syzygy pair left a remainder")
                syz = {ring.term(i, ui): 1, ring.term(j, uj): minus_one}  # i != j
                for u, cv in quots.items():
                    v = fld.sub(syz.get(u, 0), cv)
                    if v:
                        syz[u] = v
                    else:
                        syz.pop(u, None)
                if syz:
                    out.append(_canon(syz, nxt.key))
    return nxt, out


# ---------------------------------------------------------------------------
# the chain complex and its minimalization
# ---------------------------------------------------------------------------

class _Chain:
    """A complex of graded free modules with stable basis ids.

    shifts[k] maps each id of F_k to its internal degree; d[k] (d[0] is
    empty) maps each column id of F_k to its image in F_{k-1}, a dict
    {packed module term: coefficient} whose component is the row id.  The
    constructor certifies that every entry has the degree its shifts say.
    """

    def __init__(self, ring, shifts, d):
        self.ring = ring
        self.shifts = shifts
        self.d = d
        for k in range(1, len(d)):
            below, degs = shifts[k - 1], shifts[k]
            for j, col in d[k].items():
                for t in col:
                    c, m = ring.split(t)
                    if below[c] + ring.mono_degree(m) != degs[j]:
                        raise InternalInconsistency("inhomogeneous differential entry")

    def minimalize(self):
        """Split off unit entries until none remain, then drop empty levels."""
        fld = self.ring.field
        progress = True
        while progress:
            progress = False
            for i in range(1, len(self.d)):
                if self._clear_one_unit(i, fld):
                    progress = True
        while len(self.shifts) > 1 and not self.shifts[-1]:
            self.shifts.pop()
            self.d.pop()

    def _clear_one_unit(self, i, fld):
        """Split off one unit entry of d_i by a change of basis.

        The pivot is the first column, in id order, with a term of monomial
        part 0, at the smallest such row; by homogeneity that entry is a lone
        constant.  Every other column b then loses (entry_b / u) * col_c,
        which clears its entry in the pivot row.
        """
        ring = self.ring
        shift = ring.term_shift
        guard = ring.guard
        mono = (1 << shift) - 1
        d_i = self.d[i]
        for c in sorted(d_i):
            units = [t for t in d_i[c] if not t & mono]
            if units:
                break
        else:
            return False
        unit = min(units)
        r = unit >> shift
        col_c = d_i.pop(c)
        uinv = fld.inv(col_c.pop(unit))
        lo, hi = unit, unit + (1 << shift)
        for colb in d_i.values():
            hits = [t for t in colb if lo <= t < hi]
            for t in hits:
                factor = fld.mul(colb.pop(t), uinv)
                m = t - lo
                for ta, ca in col_c.items():
                    s = ta + m
                    if s & guard:
                        raise ResourceCapExceeded(
                            "monomial overflow in minimalization")
                    v = fld.submul(colb.get(s, 0), factor, ca)
                    if v:
                        colb[s] = v
                    else:
                        colb.pop(s, None)
        self.shifts[i].pop(c)
        self.shifts[i - 1].pop(r)
        if i + 1 < len(self.d):
            lo, hi = c << shift, (c + 1) << shift
            for colx in self.d[i + 1].values():
                for t in [t for t in colx if lo <= t < hi]:
                    del colx[t]
        self.d[i - 1].pop(r, None)
        return True

    def check(self):
        """d_{i-1} after d_i must vanish, and no unit entries may remain.

        Each column of a composite is summed as packed terms in one dict,
        a lower term times an upper monomial, which must come out empty.
        """
        ring = self.ring
        fld = ring.field
        guard = ring.guard
        shift = ring.term_shift
        mono = (1 << shift) - 1
        for i in range(1, len(self.d)):
            for col in self.d[i].values():
                if any(not t & mono for t in col):
                    raise InternalInconsistency("unit entry survived minimalization")
        for i in range(2, len(self.d)):
            lower = self.d[i - 1]
            for col in self.d[i].values():
                acc = {}
                for tp, cp in col.items():
                    mp = tp & mono
                    for tq, cq in lower.get(tp >> shift, {}).items():
                        t = tq + mp
                        if t & guard:
                            raise ResourceCapExceeded(
                                "monomial overflow in the differential check")
                        v = fld.submul(acc.get(t, 0), cq, cp)
                        if v:
                            acc[t] = v
                        else:
                            del acc[t]
                if acc:
                    raise InternalInconsistency("composite differential is nonzero")


def _koszul_tensor(chain, lin, caps, counter):
    """The `_Chain` F (x) K(lin) for a minimal complex `chain` F.

    `lin` lists the linear forms as term tuples.  Level n holds b (x) e_S
    for hdeg(b) + |S| = n, of degree shift(b) + |S|, with ids 0, 1, ... in
    this order: F_n itself first, then the blocks by growing |S|, each S in
    `combinations` order and b in id order within it.  Every column of
    homological degree 2 or more that has a Koszul factor is a syzygy, and
    counts against `pair_cap` before it is built.
    """
    ring = chain.ring
    fld = ring.field
    shift = ring.term_shift
    r = len(lin)
    neg = [tuple((t, fld.neg(c)) for t, c in form) for form in lin]
    ranks = [{b: i for i, b in enumerate(sorted(ids))} for ids in chain.shifts]
    top = len(ranks) - 1
    subsets = [list(combinations(range(r), s)) for s in range(r + 1)]
    base = {}  # (k, S) -> id of the first b (x) e_S in level k + |S|
    shifts = []
    d = []
    for n in range(top + r + 1):
        blocks = []
        start = 0
        for s in range(max(0, n - top), min(n, r) + 1):
            for S in subsets[s]:
                base[n - s, S] = start
                start += len(ranks[n - s])
                blocks.append((n - s, S))
        degs = {}
        cols = {}
        for k, S in blocks:
            s = len(S)
            if k:
                lower = chain.d[k]
                below = ranks[k - 1]
                off = base[k - 1, S]
            for b, i in ranks[k].items():
                if s and n >= 2:
                    _count_pair(counter, caps)
                col = {}
                if k:  # d(b) (x) e_S
                    for t, cf in lower[b].items():
                        row = t >> shift
                        col[t + ((off + below[row] - row) << shift)] = cf
                for pos, v in enumerate(S):  # (-1)^k b (x) d_K(e_S)
                    row = (base[k, S[:pos] + S[pos + 1:]] + i) << shift
                    for m, cf in lin[v] if (k + s - 1 - pos) % 2 == 0 else neg[v]:
                        col[row + m] = cf
                j = base[k, S] + i
                degs[j] = chain.shifts[k][b] + s
                if n:
                    cols[j] = col
        shifts.append(degs)
        d.append(cols)
    return _Chain(ring, shifts, d)


# ---------------------------------------------------------------------------
# Hilbert numerator of a monomial ideal
# ---------------------------------------------------------------------------

def _minimal_monos(monos, ring):
    out = []
    for m in sorted(set(monos), key=lambda x: (ring.mono_degree(x), x)):
        if not any(ring.mono_divides(o, m) for o in out):
            out.append(m)
    return out


def _pivot(gens, ring):
    """Bigatti's pivot for the minimal monomial generators `gens`.

    Returns (gens of I + (p), gens of I : p, deg p) for p a power of a
    variable x that occurs in the most generators, or None when no variable
    occurs in two, that is when the generators are pairwise coprime.  The
    power is the median x-exponent of the generators other than a pure
    power of x; all of those lie below that pure power, so p is not in I.
    """
    exps = [ring.unpack(m) for m in gens]
    counts = [sum(1 for e in exps if e[v]) for v in range(ring.nvars)]
    if max(counts, default=0) < 2:
        return None
    v = counts.index(max(counts))
    x = ring.var(v).leading_monomial()
    powers = sorted(e[v] for e in exps if e[v] and sum(e) != e[v])
    k = powers[len(powers) // 2]
    p = k * x
    plus = frozenset([p] + [m for m in gens if not ring.mono_divides(p, m)])
    colon = _minimal_monos(
        [m - min(e[v], k) * x for m, e in zip(gens, exps)], ring)
    return plus, frozenset(colon), k


def _kpoly(gens, ring, memo):
    """Hilbert numerator of R/(gens) for minimal monomial generators.

    HN(I) = HN(I + (p)) + t^deg(p) * HN(I : p) for the pivot p of `_pivot`.
    Both sides have a smaller total exponent sum, so the split ends, at
    pairwise coprime generators, whose numerator is the product of the
    (1 - t^deg m).  It runs on an explicit stack, so a large ideal cannot
    exhaust Python's recursion limit; `memo` maps generator sets to their
    numerators.
    """
    stack = [gens]
    split = {}
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        parts = split.get(top)
        if parts is None:
            parts = _pivot(top, ring)
            if parts is not None:
                split[top] = parts
                stack += parts[:2]
                continue
            out = {0: 1}
            for m in top:
                dm = ring.mono_degree(m)
                nxt = dict(out)
                for d, cnt in out.items():
                    nxt[d + dm] = nxt.get(d + dm, 0) - cnt
                out = {d: c for d, c in nxt.items() if c}
        else:
            plus, colon, k = parts
            out = dict(memo[plus])
            for d, cnt in memo[colon].items():
                out[d + k] = out.get(d + k, 0) + cnt
            out = {d: c for d, c in out.items() if c}
        memo[top] = out
        stack.pop()
    return memo[gens]


def is_graded(ideal):
    """Are all generators homogeneous, so that a graded resolution applies?"""
    return all(is_homogeneous(g) is not None for g in ideal.gens)


def hilbert_numerator(ideal):
    """Numerator of the Hilbert series of R/I over (1-t)^n, as {degree: int}.

    Computed purely combinatorially from the lead-term ideal, so it serves
    as an independent cross-check on resolutions.
    """
    if not is_graded(ideal):
        raise NonHomogeneousInput("Hilbert numerator needs homogeneous generators")
    ring = ideal.ring
    gb = ideal.groebner_basis()
    lms = frozenset(_minimal_monos([g.leading_monomial() for g in gb], ring))
    return _kpoly(lms, ring, {})


# ---------------------------------------------------------------------------
# public resolution API
# ---------------------------------------------------------------------------

class FreeResolution:
    """A minimal graded free resolution of R/I, read off its `_Chain`.

    The chain numbers each level 0, 1, ..., so an id is its own row or
    column: shifts[k] lists the internal degrees of the level-k basis, and
    matrix(k) is the differential F_k -> F_{k-1} as rows over the target.
    Each differential is kept as a tuple of columns, each a tuple of
    (packed term, coefficient): long-lived dicts would cost memory.
    """

    def __init__(self, chain):
        self.ring = chain.ring
        self.shifts = [tuple(degs[i] for i in range(len(degs)))
                       for degs in chain.shifts]
        self._d = [tuple(tuple(cols[j].items()) for j in range(len(cols)))
                   for cols in chain.d]
        self._matrices = {}

    @property
    def length(self):
        return len(self.shifts) - 1

    def betti_numbers(self):
        return [len(s) for s in self.shifts]

    def graded_betti(self):
        out = {}
        for k, degs in enumerate(self.shifts):
            for d in degs:
                out[(k, d)] = out.get((k, d), 0) + 1
        return out

    def matrix(self, k):
        """Differential d_k, 1 <= k <= length, as rows of polynomials."""
        if not 1 <= k <= self.length:
            raise InvalidArgument(
                f"a resolution of length {self.length} has no d_{k}")
        mat = self._matrices.get(k)
        if mat is None:
            ring = self.ring
            cols = self._d[k]
            table = [[{} for _ in cols] for _ in self.shifts[k - 1]]
            for j, col in enumerate(cols):
                for t, cf in col:
                    r, m = ring.split(t)
                    table[r][j][m] = cf
            mat = tuple(tuple(ring.from_dict(e) for e in row) for row in table)
            self._matrices[k] = mat
        return mat

    def euler_characteristic(self):
        """Alternating sum of shift monomials, as {degree: int}."""
        out = {}
        sign = 1
        for degs in self.shifts:
            for d in degs:
                v = out.get(d, 0) + sign
                if v:
                    out[d] = v
                else:
                    out.pop(d, None)
            sign = -sign
        return out

    def betti_table(self):
        """Text table: rows are internal degree, columns homological degree."""
        gb = self.graded_betti()
        if not gb:
            return "(zero)"
        cols = range(self.length + 1)
        rows = sorted({d for (_, d) in gb})
        width = max(6, max(len(str(v)) for v in gb.values()) + 2)
        lines = ["    " + "".join(str(k).rjust(width) for k in cols)]
        for d in rows:
            cells = []
            for k in cols:
                v = gb.get((k, d), 0)
                cells.append((str(v) if v else ".").rjust(width))
            lines.append(str(d).rjust(4) + "".join(cells))
        return "\n".join(lines)


def minimal_free_resolution(ideal):
    """Minimal graded free resolution of R/I for a homogeneous ideal I."""
    ring = ideal.ring
    if not is_graded(ideal):
        raise NonHomogeneousInput(
            "free resolutions require homogeneous generators"
        )
    gb = ideal.groebner_basis()
    if gb and gb[0].leading_monomial() == 0:
        raise UnitIdeal("R/I is the zero ring")

    # polynomial terms are module terms in component 0
    basis = _sort_basis([g.terms for g in gb], ring)
    lin = [e for e in basis if ring.mono_degree(e[0][0]) == 1]
    cur = [e for e in basis if ring.mono_degree(e[0][0]) > 1]
    shifts = [{0: 0}]
    d = [{}]
    level = _Level(ring)
    counter = [0]
    while cur:
        if len(d) > ring.nvars + 1:
            raise InternalInconsistency("syzygy cascade failed to terminate")
        below = shifts[-1]  # a column has the degree of its lead
        shifts.append({j: below[c] + ring.mono_degree(m) for j, (c, m)
                       in enumerate(ring.split(e[0][0]) for e in cur)})
        d.append({j: dict(e) for j, e in enumerate(cur)})
        nxt, syz = _syzygy_level(level, cur, ideal.caps, counter)
        cur = _sort_basis(_interreduce(syz, ring, nxt.key), ring)
        level = nxt
    cascade = _Chain(ring, shifts, d)
    cascade.minimalize()

    chain = _koszul_tensor(cascade, lin, ideal.caps, counter)
    chain.check()
    res = FreeResolution(chain)

    expected = hilbert_numerator(ideal)
    if res.euler_characteristic() != expected:
        raise InternalInconsistency(
            "resolution disagrees with the Hilbert numerator"
        )
    ideal._resolution = res
    return res


def cohen_macaulay_defect(ideal):
    """dim R/I minus depth R/I; zero exactly when R/I is Cohen-Macaulay.

    Reuses the resolution cached on the ideal by an earlier call.
    """
    res = ideal._resolution
    if res is None:
        res = minimal_free_resolution(ideal)
    depth = ideal.ring.nvars - res.length
    return ideal.dimension() - depth
