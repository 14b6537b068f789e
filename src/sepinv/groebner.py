"""Groebner bases and the ideal toolbox built on them.

Buchberger's algorithm with the normal selection strategy (smallest lcm
degree first), the product criterion, and the chain criterion.  The basis
returned is always the reduced basis, sorted by increasing leading
monomial, which makes it canonical: two ideals are equal exactly when
these tuples match.
"""

from __future__ import annotations

import heapq

from . import config
from .errors import ResourceCapExceeded, RingMismatch, UnitIdeal
from .poly import GREVLEX, Block, Polynomial, PolynomialRing

_W = 8


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def division(f, divisors):
    """Divide f by an ordered list, returning (quotients, remainder).

    The first divisor whose leading monomial divides the working term wins,
    so the output is deterministic for a fixed list.  Satisfies
    f = sum(q_i * divisors_i) + remainder, and no remainder monomial is
    divisible by any leading monomial.
    """
    ring = f.ring
    fld = ring.field
    for g in divisors:
        if g.ring != ring:
            raise RingMismatch("division requires a single ring")
        if g.is_zero():
            raise ValueError("zero polynomial among divisors")
    key = ring.key
    guard = ring.guard
    lead = [(g.leading_monomial(), fld.inv(g.leading_coefficient()), g.terms[1:])
            for g in divisors]
    work = dict(f.terms)
    quots = [{} for _ in divisors]
    rem = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for i, (lm, inv_lc, tail) in enumerate(lead):
            if ((m | guard) - lm) & guard == guard:
                q = m - lm
                factor = fld.mul(c, inv_lc)
                qd = quots[i]
                v = fld.add(qd.get(q, 0), factor)
                if v:
                    qd[q] = v
                else:
                    qd.pop(q, None)
                for mt, ct in tail:
                    s = q + mt
                    if s & guard:
                        raise ResourceCapExceeded("monomial overflow in division")
                    v = fld.sub(work.get(s, 0), fld.mul(factor, ct))
                    if v:
                        work[s] = v
                    else:
                        work.pop(s, None)
                break
        else:
            rem[m] = c
    return [ring.from_dict(q) for q in quots], ring.from_dict(rem)


def normal_form(f, divisors):
    """Remainder of f on division by a list of polynomials or an Ideal."""
    if isinstance(divisors, Ideal):
        divisors = divisors.groebner_basis()
    ring = f.ring
    fld = ring.field
    basis = [(g.leading_monomial(), fld.inv(g.leading_coefficient()), g.terms[1:])
             for g in divisors]
    rem = _reduce(dict(f.terms), basis, ring)
    return ring.from_dict(rem)


def _reduce(work, basis, ring):
    """Remainder of the term dict `work` (consumed) on (lm, inv_lc, tail) reducers."""
    fld = ring.field
    key = ring.key
    guard = ring.guard
    rem = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lm, inv_lc, tail in basis:
            if ((m | guard) - lm) & guard == guard:
                q = m - lm
                factor = fld.mul(c, inv_lc)
                for mt, ct in tail:
                    s = q + mt
                    if s & guard:
                        raise ResourceCapExceeded("monomial overflow in reduction")
                    v = fld.sub(work.get(s, 0), fld.mul(factor, ct))
                    if v:
                        work[s] = v
                    else:
                        work.pop(s, None)
                break
        else:
            rem[m] = c
    return rem


def s_polynomial(f, g):
    ring = f.ring
    if g.ring != ring:
        raise RingMismatch("S-polynomial requires a single ring")
    fld = ring.field
    L = ring.mono_lcm(f.leading_monomial(), g.leading_monomial())
    qf = ring.mono_div(L, f.leading_monomial())
    qg = ring.mono_div(L, g.leading_monomial())
    d = {}
    cf = fld.inv(f.leading_coefficient())
    cg = fld.inv(g.leading_coefficient())
    for m, c in f.terms:
        s = ring.mono_mul(qf, m)
        v = fld.add(d.get(s, 0), fld.mul(c, cf))
        if v:
            d[s] = v
        else:
            del d[s]
    for m, c in g.terms:
        s = ring.mono_mul(qg, m)
        v = fld.sub(d.get(s, 0), fld.mul(c, cg))
        if v:
            d[s] = v
        else:
            d.pop(s, None)
    return ring.from_dict(d)


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def groebner_basis(gens, caps=None):
    """Reduced Groebner basis, sorted by increasing leading monomial."""
    caps = caps or config.from_env()
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

    # basis entries: full term tuple plus cached lead data
    basis = []       # list of term tuples
    lms = []
    inv_lcs = []
    view = []        # reducer view: (lm, inv_lc, tail)

    def push(terms):
        lm = terms[0][0]
        if ring.mono_degree(lm) > degree_cap:
            raise ResourceCapExceeded(
                f"leading degree {ring.mono_degree(lm)} exceeds cap {degree_cap}"
            )
        basis.append(terms)
        lms.append(lm)
        inv = fld.inv(terms[0][1])
        inv_lcs.append(inv)
        view.append((lm, inv, terms[1:]))
        return len(basis) - 1

    heap = []
    done = set()

    def consider(i, j):
        a, b = lms[i], lms[j]
        L = ring.mono_lcm(a, b)
        if L == ring.mono_mul(a, b):
            done.add((i, j))  # product criterion: S-poly reduces to zero
            return
        heapq.heappush(heap, (ring.mono_degree(L), key(L), i, j, L))

    for g in sorted(gens, key=lambda g: key(g.leading_monomial())):
        t = push(g.terms)
        for i in range(t):
            consider(i, t)

    processed = 0
    while heap:
        deg, _, i, j, L = heapq.heappop(heap)
        if (i, j) in done:
            continue
        done.add((i, j))
        if deg > degree_cap:
            raise ResourceCapExceeded(
                f"S-pair degree {deg} exceeds cap {degree_cap}"
            )
        processed += 1
        if processed > pair_cap:
            raise ResourceCapExceeded(f"pair count exceeds cap {pair_cap}")

        # chain criterion: an intermediate basis element whose two pairs
        # are already treated makes this pair redundant
        skip = False
        for k in range(len(lms)):
            if k == i or k == j:
                continue
            if ((L | guard) - lms[k]) & guard != guard:
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik in done and pjk in done:
                skip = True
                break
        if skip:
            continue

        qi = L - lms[i]
        qj = L - lms[j]
        work = {}
        ci = inv_lcs[i]
        cj = inv_lcs[j]
        for m, c in basis[i]:
            s = qi + m
            if s & guard:
                raise ResourceCapExceeded("monomial overflow in S-pair")
            v = fld.add(work.get(s, 0), fld.mul(c, ci))
            if v:
                work[s] = v
            else:
                del work[s]
        for m, c in basis[j]:
            s = qj + m
            if s & guard:
                raise ResourceCapExceeded("monomial overflow in S-pair")
            v = fld.sub(work.get(s, 0), fld.mul(c, cj))
            if v:
                work[s] = v
            else:
                del work[s]
        rem = _reduce(work, view, ring)
        if not rem:
            continue
        terms = tuple(sorted(rem.items(), key=lambda t: key(t[0]), reverse=True))
        t = push(terms)
        for i2 in range(t):
            consider(i2, t)

    polys = [Polynomial(ring, terms) for terms in basis]
    return interreduce(polys)


def interreduce(polys):
    """Turn a Groebner basis into the reduced basis (canonical form)."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    ring = polys[0].ring
    key = ring.key
    polys = sorted(polys, key=lambda p: key(p.leading_monomial()))
    # minimality: drop any element whose lead is divisible by an earlier lead
    kept = []
    for p in polys:
        lm = p.leading_monomial()
        if any(ring.mono_divides(q.leading_monomial(), lm) for q in kept):
            continue
        kept.append(p)
    # tail reduction against the final leading monomials
    out = list(kept)
    for i in range(len(out)):
        others = out[:i] + out[i + 1:]
        out[i] = normal_form(out[i], others).monic()
    return out


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

class Ideal:
    """An ideal of a polynomial ring, with cached canonical bases."""

    def __init__(self, ring, gens, caps=None):
        for g in gens:
            if g.ring != ring:
                raise RingMismatch("generator outside the ring")
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        self.caps = caps or config.from_env()
        self._gb = {}
        self._dim = None

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens in {self.ring})"

    def groebner_basis(self, order=None):
        order = order or self.ring.order
        gb = self._gb.get(order)
        if gb is None:
            if order == self.ring.order:
                gens = self.gens
            else:
                target = self.ring.with_order(order)
                ident = list(range(self.ring.nvars))
                gens = [g.inject(target, ident) for g in self.gens]
            gb = tuple(groebner_basis(gens, self.caps))
            self._gb[order] = gb
        return list(gb)

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
        """f vanishes on the zero locus: some power of f lies in the ideal."""
        if f.ring != self.ring:
            raise RingMismatch("polynomial outside the ideal's ring")
        if f.is_zero():
            return True
        ring = self.ring
        tname = _fresh_name(ring.variables, "_t")
        ext = PolynomialRing(ring.field, ring.variables + (tname,), GREVLEX)
        ident = list(range(ring.nvars))
        gens = [g.inject(ext, ident) for g in self.gens]
        t = ext.var(ring.nvars)
        gens.append(ext.one() - t * f.inject(ext, ident))
        gb = groebner_basis(gens, self.caps)
        return len(gb) == 1 and gb[0].leading_monomial() == 0

    def radical_subset_of(self, other):
        """Every generator of self lies in the radical of other."""
        return all(other.radical_contains(g) for g in self.gens)

    # -- elimination, intersection, quotient -----------------------------------

    def eliminate(self, drop):
        """Project out the named (or indexed) variables.

        Returns the elimination ideal in the ring spanned by the remaining
        variables, ordered as before, under grevlex.
        """
        ring = self.ring
        idx = sorted(
            ring.variables.index(v) if isinstance(v, str) else v for v in drop
        )
        keep = [i for i in range(ring.nvars) if i not in idx]
        perm = idx + keep  # position in block ring -> original index
        block_ring = PolynomialRing(
            ring.field,
            tuple(ring.variables[i] for i in perm),
            Block(len(idx), GREVLEX, GREVLEX),
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
        """Ideal intersection via a fresh scaling variable."""
        if other.ring != self.ring:
            raise RingMismatch("intersection across rings")
        ring = self.ring
        tname = _fresh_name(ring.variables, "_t")
        block_ring = PolynomialRing(
            ring.field, (tname,) + ring.variables, Block(1, GREVLEX, GREVLEX)
        )
        shift = [i + 1 for i in range(ring.nvars)]
        t = block_ring.var(0)
        one_minus_t = block_ring.one() - t
        gens = [t * g.inject(block_ring, shift) for g in self.gens]
        gens += [one_minus_t * g.inject(block_ring, shift) for g in other.gens]
        gb = groebner_basis(gens, self.caps)
        back = [0] + list(range(ring.nvars))
        out = []
        for g in gb:
            if all((m & 0xFF) == 0 for m, _ in g.terms):
                out.append(g.inject(ring, back))
        return Ideal(ring, out, self.caps)

    def quotient(self, f):
        """The ideal quotient (self : f)."""
        if f.ring != self.ring:
            raise RingMismatch("polynomial outside the ideal's ring")
        if f.is_zero():
            return Ideal(self.ring, [self.ring.one()], self.caps)
        meet = self.intersect(Ideal(self.ring, [f], self.caps))
        out = []
        for g in meet.gens:
            quots, rem = division(g, [f])
            if not rem.is_zero():
                raise ArithmeticError("intersection generator not divisible")
            out.append(quots[0])
        return Ideal(self.ring, out, self.caps)

    # -- dimension --------------------------------------------------------------

    def dimension(self):
        """Krull dimension of the quotient ring.

        Uses the leading-term ideal of a grevlex basis: the dimension is the
        number of variables minus the size of a smallest variable set meeting
        the support of every leading monomial.
        """
        if self._dim is None:
            gb = self.groebner_basis(GREVLEX)
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

    def codimension(self):
        """Height: ambient variable count minus dimension."""
        return self.ring.nvars - self.dimension()


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
    best = [sum(bin(s).count("1") for s in minimal)]

    def rec(mask, count):
        if count >= best[0]:
            return
        for s in minimal:
            if not s & mask:
                v = s
                while v:
                    low = v & -v
                    rec(mask | low, count + 1)
                    v ^= low
                return
        best[0] = count

    rec(0, 0)
    return best[0]
