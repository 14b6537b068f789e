"""Groebner bases, ideals, and the one reducer they share.

Every reduction in sepinv, of a polynomial or of an element of a free
module, runs through `_reduce`: terms are packed ints (see `poly`), and a
key function maps each term to an int (the ring order for polynomials, an
induced module order in `resolution`).  Terms wait in a heap on their keys,
so each step pops its leading term instead of rescanning the work; a term
cancelled while it waits is skipped when popped, and since every new term
lies below the lead being cancelled, no popped term comes back and the
remainder comes out already in decreasing order.  Reducers are bucketed by
component, so divisibility is one masked subtraction inside a bucket.
`_interreduce`, which makes a basis reduced, reduces through it too, and
`_s_vector` builds an S-polynomial or S-vector for either kind of term.

Buchberger's algorithm uses the normal selection strategy (smallest lcm
degree first) and the pair update of Gebauer and Moeller (1988): each new
basis element drops the old pairs it makes redundant and keeps only the
new pairs with minimal lcms, less those the product criterion settles, so
no pair is rescanned when popped.  The basis returned is always the
reduced basis, sorted by increasing leading monomial, which makes it
canonical: two ideals are equal exactly when these tuples match.

Affine-linear algebra never reaches Buchberger.  Affine-linear generators
are row-reduced by `poly._gauss_jordan`, whose reduced echelon form is
their reduced basis, and `Ideal.intersect` splits off the affine-linear
forms both ideals share, by intersecting row spaces, so that the t-trick
sees only what is left once those forms are substituted.
"""

from __future__ import annotations

import heapq

from .config import Caps
from .errors import ResourceCapExceeded, RingMismatch, UnitIdeal
from .poly import GREVLEX, Block, Polynomial, PolynomialRing, _gauss_jordan


# ---------------------------------------------------------------------------
# the reducer
# ---------------------------------------------------------------------------

def _buckets(elems, ring):
    """Reducers (lead, inv_lc, tail, index) bucketed by lead component.

    `elems` are term tuples, leading term first; a bucket keeps their order,
    which is the order `_reduce` tries them in.
    """
    fld = ring.field
    shift = ring.term_shift
    out = {}
    for i, e in enumerate(elems):
        lead, lc = e[0]
        out.setdefault(lead >> shift, []).append((lead, fld.inv(lc), e[1:], i))
    return out


def _reduce(work, buckets, ring, key, quots):
    """Remainder of the term dict `work` (consumed) on bucketed reducers.

    Terms wait in a heap of (-key, term), so the leading term under `key`
    is the heap's top.  It is cancelled by the first reducer in its
    component's bucket whose lead divides it.  A term is pushed only when it
    first enters `work`; one cancelled later stays in `work` with
    coefficient 0 and is skipped when popped.  Every term a step adds lies
    below the lead it cancels, hence below every term popped so far, so a
    popped term never comes back and the remainder fills in decreasing key
    order.  Unless `quots` is None, each multiplier q of reducer i is added
    to that dict as the term (i, q).
    """
    fld = ring.field
    guard = ring.guard
    shift = ring.term_shift
    heap = [(-key(t), t) for t in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    rem = {}
    while heap:
        t = pop(heap)[1]
        c = work.pop(t)
        if not c:
            continue
        for lead, inv_lc, tail, index in buckets.get(t >> shift, ()):
            if ((t | guard) - lead) & guard == guard:
                q = t - lead
                factor = fld.mul(c, inv_lc)
                if quots is not None:
                    u = q | (index << shift)
                    v = fld.add(quots.get(u, 0), factor)
                    if v:
                        quots[u] = v
                    else:
                        quots.pop(u, None)
                for mt, ct in tail:
                    s = q + mt
                    if s & guard:
                        raise ResourceCapExceeded("monomial overflow in reduction")
                    old = work.get(s)
                    if old is None:
                        old = 0
                        push(heap, (-key(s), s))
                    work[s] = fld.submul(old, factor, ct)
                break
        else:
            rem[t] = c
    return rem


def _s_vector(f, u, cf, g, v, cg, ring):
    """cf*u*f - cg*v*g as a term dict; u and v are monomial multipliers."""
    fld = ring.field
    guard = ring.guard
    work = {}
    for terms, shift, coeff in ((f, u, cf), (g, v, fld.neg(cg))):
        for t, c in terms:
            s = shift + t
            if s & guard:
                raise ResourceCapExceeded("monomial overflow in S-vector")
            x = fld.add(work.get(s, 0), fld.mul(c, coeff))
            if x:
                work[s] = x
            else:
                work.pop(s, None)
    return work


def _interreduce(elems, ring, key):
    """Minimal, monic, tail-reduced form of a Groebner basis of term tuples.

    Returned in increasing order of leading term.  A tail term lies below
    its own lead, so only elements with smaller leads, already reduced, can
    reduce it.
    """
    fld = ring.field
    guard = ring.guard
    shift = ring.term_shift
    buckets = {}
    out = []
    for e in sorted(elems, key=lambda e: key(e[0][0])):
        lead, lc = e[0]
        bucket = buckets.setdefault(lead >> shift, [])
        if any(((lead | guard) - r[0]) & guard == guard for r in bucket):
            continue  # not minimal
        inv = fld.inv(lc)
        rem = _reduce(dict(e[1:]), buckets, ring, key, None)
        tail = tuple((t, fld.mul(c, inv)) for t, c in rem.items())
        bucket.append((lead, 1, tail, len(out)))
        out.append(((lead, 1),) + tail)
    return out


def normal_form(f, divisors):
    """Remainder of f on division by a list of polynomials or an Ideal."""
    if isinstance(divisors, Ideal):
        divisors = divisors.groebner_basis()
    ring = f.ring
    buckets = _buckets([g.terms for g in divisors], ring)
    rem = _reduce(dict(f.terms), buckets, ring, ring.key, None)
    return Polynomial(ring, tuple(rem.items()))


def s_polynomial(f, g):
    """The S-polynomial of f and g, in which their leading terms cancel."""
    ring = f.ring
    if g.ring != ring:
        raise RingMismatch("S-polynomial requires a single ring")
    fld = ring.field
    a, b = f.leading_monomial(), g.leading_monomial()
    L = ring.mono_lcm(a, b)
    work = _s_vector(f.terms, L - a, fld.inv(f.leading_coefficient()),
                     g.terms, L - b, fld.inv(g.leading_coefficient()), ring)
    return ring.from_dict(work)


# ---------------------------------------------------------------------------
# affine-linear forms as rows
# ---------------------------------------------------------------------------

def _linear_columns(ring):
    """The monomials of degree at most 1, one per row column.

    The variables come in decreasing order under `ring.key`, then 1, which
    every order puts last; so a row's first nonzero column is its lead,
    and reduced echelon form is the reduced basis of the rows' span.
    """
    xs = sorted((1 << (8 * i) for i in range(ring.nvars)), key=ring.key,
                reverse=True)
    return xs + [0]


def _rows(term_tuples, columns):
    """Coefficient rows of affine-linear term tuples."""
    index = {m: j for j, m in enumerate(columns)}
    rows = []
    for terms in term_tuples:
        row = [0] * len(columns)
        for m, c in terms:
            row[index[m]] = c
        rows.append(row)
    return rows


def _echelon_basis(rows, columns, ring):
    """The reduced basis of the span of rows already in reduced echelon
    form, increasing in lead: [1] once a row has its pivot on the constant."""
    polys = []
    for row in reversed(rows):
        terms = tuple((m, c) for m, c in zip(columns, row) if c)
        if terms:
            if terms[0][0] == 0:
                return [ring.one()]
            polys.append(Polynomial(ring, terms))
    return polys


def _shared_linear(A, B, ring):
    """The affine-linear forms in the span of both bases' elements of
    degree at most 1, as a reduced basis.

    Zassenhaus: row-reduce [[a, a] for a] + [[b, 0] for b]; the rows whose
    left half vanishes carry a reduced echelon basis of the meet on their
    right half.
    """
    columns = _linear_columns(ring)
    w = len(columns)
    a_rows, b_rows = (
        _rows([g.terms for g in basis
               if ring.mono_degree(g.leading_monomial()) <= 1], columns)
        for basis in (A, B))
    if not a_rows or not b_rows:
        return []
    rows = [r + r for r in a_rows] + [r + [0] * w for r in b_rows]
    _gauss_jordan(ring.field, rows, 2 * w)
    return _echelon_basis([r[w:] for r in rows if not any(r[:w])], columns, ring)


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def _check_lead(ring, lm, degree_cap):
    if ring.mono_degree(lm) > degree_cap:
        raise ResourceCapExceeded(
            f"groebner_basis: leading degree {ring.mono_degree(lm)} "
            f"exceeds degree_cap {degree_cap} (SEPINV_DEGREE_CAP)"
        )


def groebner_basis(gens, caps=Caps()):
    """Reduced Groebner basis, sorted by increasing leading monomial.

    Affine-linear generators are row-reduced instead of paired: their
    reduced echelon form, columns in decreasing variable order and the
    constant last, is their reduced basis in every monomial order.  The
    leads pass the same `degree_cap` check either way; `pair_cap` bounds
    the pairs Buchberger reduces, and row reduction reduces none.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generators live in different rings")
    fld = ring.field
    key = ring.key
    guard = ring.guard
    degree_cap = caps.degree_cap
    pair_cap = caps.pair_cap
    gens.sort(key=lambda g: key(g.leading_monomial()))

    degree = ring.mono_degree
    if all(degree(m) <= 1 for g in gens for m, _ in g.terms):
        for g in gens:
            _check_lead(ring, g.leading_monomial(), degree_cap)
        columns = _linear_columns(ring)
        rows = _rows([g.terms for g in gens], columns)
        _gauss_jordan(fld, rows, len(columns))
        return _echelon_basis(rows, columns, ring)

    # basis entries: full term tuple plus cached lead data; polynomial
    # terms all lie in component 0, so one bucket holds every reducer
    basis = []       # list of term tuples
    lms = []
    inv_lcs = []
    view = []
    buckets = {0: view}

    def push(terms):
        lm = terms[0][0]
        _check_lead(ring, lm, degree_cap)
        basis.append(terms)
        lms.append(lm)
        inv = fld.inv(terms[0][1])
        inv_lcs.append(inv)
        view.append((lm, inv, terms[1:], len(view)))
        return len(basis) - 1

    # pending S-pairs (lcm degree, lcm key, i, j, lcm): normal selection
    heap = []

    def update(t):
        """Gebauer-Moeller update for the new basis element t.

        An old pair (i, j) goes when lm_t divides its lcm L and neither
        lcm(lm_i, lm_t) nor lcm(lm_j, lm_t) equals L (criterion B_k).  Of
        the new pairs (i, t), one per distinct lcm is kept, the one with
        the largest i (F), and only where no other new lcm properly divides
        it (M); an lcm class that holds a pair of coprime leads is dropped
        whole (product criterion), but still serves to drop the lcms it
        divides.
        """
        h = lms[t]
        news = []  # lcm(lm_i, h), inline `ring.mono_lcm`
        for lm in lms[:t]:
            g = ((lm | guard) - h) & guard
            news.append(h ^ ((lm ^ h) & (g - (g >> 7))))
        kept = [pair for pair in heap
                if ((pair[4] | guard) - h) & guard != guard
                or news[pair[2]] == pair[4] or news[pair[3]] == pair[4]]
        if len(kept) < len(heap):
            heap[:] = kept
            heapq.heapify(heap)
        last = {L: i for i, L in enumerate(news)}
        # a sum that overflows a byte is no lcm: those leads share a variable
        coprime = {L for L, lm in zip(news, lms) if L == lm + h}
        # a proper divisor of L is a smaller int, so it is settled first
        minimal = []
        for L in sorted(last):
            for M in minimal:
                if ((L | guard) - M) & guard == guard:
                    break
            else:
                minimal.append(L)
                if L not in coprime:
                    heapq.heappush(
                        heap, (ring.mono_degree(L), key(L), last[L], t, L))

    for g in gens:
        update(push(g.terms))

    processed = 0
    while heap:
        deg, _, i, j, L = heapq.heappop(heap)
        if deg > degree_cap:
            raise ResourceCapExceeded(
                f"groebner_basis: S-pair degree {deg} exceeds degree_cap "
                f"{degree_cap} (SEPINV_DEGREE_CAP)"
            )
        # only pairs whose S-vector is formed and reduced count
        processed += 1
        if processed > pair_cap:
            raise ResourceCapExceeded(
                f"groebner_basis: {processed} S-pairs exceed pair_cap "
                f"{pair_cap} (SEPINV_PAIR_CAP)"
            )

        work = _s_vector(basis[i], L - lms[i], inv_lcs[i],
                         basis[j], L - lms[j], inv_lcs[j], ring)
        rem = _reduce(work, buckets, ring, key, None)
        if rem:
            update(push(tuple(rem.items())))

    return [Polynomial(ring, terms) for terms in _interreduce(basis, ring, key)]


def interreduce(polys):
    """Turn a Groebner basis into the reduced basis (canonical form)."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    ring = polys[0].ring
    out = _interreduce([p.terms for p in polys], ring, ring.key)
    return [Polynomial(ring, terms) for terms in out]


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

class Ideal:
    """An ideal of a grevlex polynomial ring, with its reduced basis cached."""

    def __init__(self, ring, gens, caps=Caps()):
        if ring.order != GREVLEX:
            raise RingMismatch("ideals live in grevlex rings only")
        for g in gens:
            if g.ring != ring:
                raise RingMismatch("generator outside the ring")
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        self.caps = caps
        self._gb = None
        self._dim = None
        self._resolution = None  # set by resolution.minimal_free_resolution

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens in {self.ring})"

    def groebner_basis(self):
        if self._gb is None:
            self._gb = tuple(groebner_basis(self.gens, self.caps))
        return list(self._gb)

    def normal_form(self, f):
        if f.ring != self.ring:
            raise RingMismatch("polynomial outside the ideal's ring")
        return normal_form(f, self.groebner_basis())

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def is_unit(self):
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].leading_monomial() == 0

    def is_zero(self):
        return not self.groebner_basis()

    def __add__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatch("ideal sum across rings")
        return Ideal(self.ring, self.gens + other.gens, self.caps)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return self.groebner_basis() == other.groebner_basis()

    __hash__ = None

    # -- radical membership ---------------------------------------------------

    def radical_contains(self, f):
        """f vanishes on the zero locus: some power of f lies in the ideal.

        Rabinowitsch: it does exactly when I and 1 - t*f generate the unit
        ideal of R[t].  t is the last variable of the grevlex ring R[t], so
        a polynomial of R keeps its packed ints and its order there.
        """
        if f.ring != self.ring:
            raise RingMismatch("polynomial outside the ideal's ring")
        if f.is_zero() or self.contains(f):
            return True  # I lies in its radical
        ring = self.ring
        fld = ring.field
        tname = _fresh_name(ring.variables, "_t")
        ext = PolynomialRing(fld, ring.variables + (tname,), GREVLEX)
        t = 1 << ring.term_shift
        gens = [Polynomial(ext, g.terms) for g in self.gens]
        gens.append(Polynomial(
            ext, tuple((m + t, fld.neg(c)) for m, c in f.terms) + ((0, 1),)))
        gb = groebner_basis(gens, self.caps)
        return len(gb) == 1 and gb[0].leading_monomial() == 0

    def radical_subset_of(self, other):
        """Every generator of self lies in the radical of other."""
        return all(other.radical_contains(g) for g in self.gens)

    # -- elimination and intersection ------------------------------------------

    def eliminate(self, drop):
        """Project out the named (or indexed) variables.

        Buchberger runs directly in the block ring `Block(k)` with the k
        dropped variables first; its basis elements free of them make the
        elimination ideal, in the grevlex ring of the remaining variables
        in their old order.
        """
        ring = self.ring
        idx = sorted(
            ring.variables.index(v) if isinstance(v, str) else v for v in drop
        )
        keep = [i for i in range(ring.nvars) if i not in idx]
        perm = idx + keep  # position in block ring -> original index
        block_ring = PolynomialRing(
            ring.field, tuple(ring.variables[i] for i in perm), Block(len(idx))
        )
        to_block = [0] * ring.nvars
        for newpos, orig in enumerate(perm):
            to_block[orig] = newpos
        gens = [g.inject(block_ring, to_block) for g in self.gens]
        gb = groebner_basis(gens, self.caps)
        k = len(idx)
        mask = block_ring.pack([127] * k + [0] * (ring.nvars - k))
        tail_ring = PolynomialRing(
            ring.field, tuple(ring.variables[i] for i in keep), GREVLEX
        )
        back = [0] * ring.nvars
        for pos, orig in enumerate(perm[k:]):
            back[k + pos] = pos
        out = []
        for g in gb:
            if all((m & mask) == 0 for m, _ in g.terms):
                out.append(g.inject(tail_ring, back))
        return Ideal(tail_ring, out, self.caps)

    def intersect(self, other):
        """Ideal intersection: eliminate t from t*I + (1 - t)*J.

        The affine-linear forms C that both ideals contain are split off
        first: in a grevlex basis the degree-1 elements span the ideal's
        affine-linear forms, and `_shared_linear` intersects those spans.
        Both ideals contain (C), and R/(C) is the polynomial ring in the
        variables that are not leads of C, so I & J is C plus the
        intersection of the bases reduced modulo C, which substitutes those
        leads; only that runs through the t-trick.  What it returns holds
        no affine-linear element, which would lie in C, so no lead of it
        has degree below 2 and no term of it holds a lead of C: C and it
        together are the reduced basis, kept in the result.
        """
        if other.ring != self.ring:
            raise RingMismatch("intersection across rings")
        ring = self.ring
        A, B = self.groebner_basis(), other.groebner_basis()
        shared = _shared_linear(A, B, ring)
        if shared:
            A, B = ([r for r in (normal_form(g, shared) for g in basis) if r]
                    for basis in (A, B))
        out = tuple(shared)
        if A and B:
            out += _t_trick(ring, A, B, self.caps)
        meet = Ideal(ring, out, self.caps)
        meet._gb = out  # reduced, in increasing lead order
        return meet

    # -- dimension --------------------------------------------------------------

    def dimension(self):
        """Krull dimension of the quotient ring.

        Uses the leading-term ideal of a grevlex basis: the dimension is the
        number of variables minus the size of a smallest variable set meeting
        the support of every leading monomial.
        """
        if self._dim is None:
            gb = self.groebner_basis()
            if not gb:
                self._dim = self.ring.nvars
            elif gb[0].leading_monomial() == 0:
                raise UnitIdeal("the unit ideal has no Krull dimension")
            else:
                supports = []
                for g in gb:
                    exps = self.ring.unpack(g.leading_monomial())
                    mask = 0
                    for v, e in enumerate(exps):
                        if e:
                            mask |= 1 << v
                    supports.append(mask)
                self._dim = self.ring.nvars - _min_transversal(supports)
        return self._dim


def _t_ring(ring):
    """R[t] under Block(1), t first, made once per ring object: every
    intersection in R shares one block ring and its key cache, which live
    and die with R."""
    if ring._t_ring is None:
        tname = _fresh_name(ring.variables, "_t")
        ring._t_ring = PolynomialRing(ring.field, (tname,) + ring.variables,
                                      Block(1))
    return ring._t_ring


def _t_trick(ring, A, B, caps):
    """The t-free part of the reduced basis of t*(A) + (1 - t)*(B) in
    `_t_ring(ring)`, back in R: the reduced basis of (A) & (B).

    t is byte 0 of the block ring, so a monomial m of R is `m << 8` there
    and `+ 1` multiplies it by t.  t*g and (1 - t)*g are built term by term
    in order (the t-terms first, each part in g's grevlex order), and the
    t-free part of the block basis, shifted back, keeps its order too."""
    block = _t_ring(ring)
    neg = ring.field.neg
    gens = [Polynomial(block, tuple(((m << 8) + 1, c) for m, c in g.terms))
            for g in A]
    gens += [Polynomial(block, tuple(((m << 8) + 1, neg(c)) for m, c in g.terms)
                        + tuple((m << 8, c) for m, c in g.terms))
             for g in B]
    gb = groebner_basis(gens, caps)
    return tuple(Polynomial(ring, tuple((m >> 8, c) for m, c in g.terms))
                 for g in gb if all(not m & 0xFF for m, _ in g.terms))


def _fresh_name(taken, base):
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _min_transversal(supports):
    """Smallest variable set meeting every support mask."""
    # discard non-minimal supports: hitting a subset hits the superset
    supports = sorted(set(supports), key=lambda m: bin(m).count("1"))
    minimal = []
    for s in supports:
        if not any(t & s == t for t in minimal):
            minimal.append(s)
    best = sum(bin(s).count("1") for s in minimal)
    # depth-first branch and bound: (chosen variables, how many)
    stack = [(0, 0)]
    while stack:
        mask, count = stack.pop()
        if count >= best:
            continue
        missed = next((s for s in minimal if not s & mask), None)
        if missed is None:
            best = count
            continue
        while missed:
            low = missed & -missed
            stack.append((mask | low, count + 1))
            missed ^= low
    return best
