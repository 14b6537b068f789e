"""Minimal graded free resolutions and depth invariants.

The resolution is built in two stages.  First an iterated syzygy
construction: a reduced Groebner basis presents the ideal, and the
syzygies of a basis, computed with induced module orders, are again a
Groebner basis of the syzygy module, so the construction repeats until
it runs dry.  Ordering each level by component and then by decreasing
lex of the lead monomial makes every level lose one more variable from
its lead terms, which bounds the length by the variable count.  Second,
the resulting complex is far from minimal, so constant entries in the
differentials are cleared by a change of basis that splits off trivial
two-term complexes until none remain.

Module elements are tuples of (packed module term, coefficient), in the
encoding of `poly`, and every module reduction runs through the reducer in
`groebner` with the level's induced order as its key: reduction in a free
module is polynomial reduction within one component.

Everything here requires homogeneous input; the grading is what makes
"minimal" well defined and lets depth be read off the length via the
graded form of the Auslander-Buchsbaum formula.
"""

from __future__ import annotations

from .errors import (
    InternalInconsistency,
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


def _syzygy_level(level, elems, caps, counter):
    """All pairwise syzygies of a monic module Groebner basis.

    Returns (next level, syzygy elements in next-level coordinates).
    The division remainders must vanish; anything else means the input
    was not a Groebner basis and the cascade is invalid.
    """
    ring = level.ring
    fld = ring.field
    leads = [e[0][0] for e in elems]
    if len(set(leads)) != len(leads):
        raise InternalInconsistency("duplicate lead term in module basis")
    nxt = _Level(ring, level, leads)
    buckets = _buckets(elems, ring)
    minus_one = fld.neg(1)
    out = []
    for c in sorted(buckets):
        group = buckets[c]
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                li, _, _, i = group[a]
                lj, _, _, j = group[b]
                counter[0] += 1
                if counter[0] > caps.pair_cap:
                    raise ResourceCapExceeded(
                        f"minimal_free_resolution: {counter[0]} syzygy pairs "
                        f"exceed pair_cap {caps.pair_cap} (SEPINV_PAIR_CAP)"
                    )
                # both leads lie in component c, and so does their lcm
                L = ring.mono_lcm(li, lj)
                ui = L - li
                uj = L - lj
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
    """Mutable complex with stable basis ids, as dict-of-columns matrices."""

    def __init__(self, ring, columns):
        # columns[k] for k >= 1: canonical module elements, coordinates in F_{k-1}
        self.ring = ring
        self.live = [[0]]                # live basis ids per level
        self.shifts = [{0: 0}]           # id -> internal degree
        self.d = [None]                  # d[k]: {col id: {row id: Polynomial}}
        for k in range(1, len(columns)):
            ids = list(range(len(columns[k])))
            self.live.append(ids)
            shifts = {}
            mats = {}
            for j, elem in enumerate(columns[k]):
                c0, m0 = ring.split(elem[0][0])
                deg = self.shifts[k - 1][c0] + ring.mono_degree(m0)
                shifts[j] = deg
                col = {}
                for t, cf in elem:
                    c, m = ring.split(t)
                    if self.shifts[k - 1][c] + ring.mono_degree(m) != deg:
                        raise InternalInconsistency("inhomogeneous differential entry")
                    col.setdefault(c, {})[m] = cf
                mats[j] = {c: ring.from_dict(d) for c, d in col.items()}
            self.shifts.append(shifts)
            self.d.append(mats)

    def length(self):
        top = 0
        for k in range(len(self.live)):
            if self.live[k]:
                top = k
        return top

    def minimalize(self):
        fld = self.ring.field
        top = len(self.d) - 1
        progress = True
        while progress:
            progress = False
            for i in range(1, top + 1):
                hit = self._clear_one_unit(i, fld)
                if hit:
                    progress = True
        self._trim()

    def _clear_one_unit(self, i, fld):
        d_i = self.d[i]
        found = None
        for c in sorted(d_i):
            col = d_i[c]
            for r in sorted(col):
                p = col[r]
                if p.terms and len(p.terms) == 1 and p.terms[0][0] == 0:
                    found = (r, c, p.terms[0][1])
                    break
            if found:
                break
        if not found:
            return False
        r, c, u = found
        uinv = fld.inv(u)
        col_c = d_i.pop(c)
        col_c.pop(r)
        for b, colb in d_i.items():
            brb = colb.pop(r, None)
            if brb is None or brb.is_zero():
                continue
            factor = brb.scale(uinv)
            for a, bac in col_c.items():
                delta = bac * factor
                cur = colb.get(a)
                newp = (cur - delta) if cur is not None else -delta
                if newp.is_zero():
                    colb.pop(a, None)
                else:
                    colb[a] = newp
        self.live[i].remove(c)
        self.shifts[i].pop(c)
        self.live[i - 1].remove(r)
        self.shifts[i - 1].pop(r)
        if i + 1 < len(self.d):
            for colx in self.d[i + 1].values():
                colx.pop(c, None)
        if i - 1 >= 1:
            self.d[i - 1].pop(r, None)
        return True

    def _trim(self):
        while len(self.live) > 1 and not self.live[-1]:
            self.live.pop()
            self.shifts.pop()
            self.d.pop()

    def check(self):
        """d_{i-1} after d_i must vanish, and no unit entries may remain.

        Each column of a composite is summed as raw terms (row, monomial)
        in one dict, which must come out empty.
        """
        ring = self.ring
        fld = ring.field
        guard = ring.guard
        for i in range(1, len(self.d)):
            for c, col in self.d[i].items():
                for r, p in col.items():
                    if p.terms and len(p.terms) == 1 and p.terms[0][0] == 0:
                        raise InternalInconsistency("unit entry survived minimalization")
        for i in range(2, len(self.d)):
            lower = self.d[i - 1]
            for col in self.d[i].values():
                acc = {}
                for r, p in col.items():
                    for a, q in lower.get(r, {}).items():
                        row = ring.term(a, 0)
                        for mq, cq in q.terms:
                            for mp, cp in p.terms:
                                m = mq + mp
                                if m & guard:
                                    raise ResourceCapExceeded(
                                        "monomial overflow in the differential check")
                                t = row + m
                                v = fld.add(acc.get(t, 0), fld.mul(cq, cp))
                                if v:
                                    acc[t] = v
                                else:
                                    del acc[t]
                if acc:
                    raise InternalInconsistency("composite differential is nonzero")


# ---------------------------------------------------------------------------
# Hilbert numerator of a monomial ideal
# ---------------------------------------------------------------------------

def _minimal_monos(monos, ring):
    out = []
    for m in sorted(set(monos), key=lambda x: (ring.mono_degree(x), x)):
        if not any(ring.mono_divides(o, m) for o in out):
            out.append(m)
    return out


def _mono_colon(m, g, ring):
    em = ring.unpack(m)
    eg = ring.unpack(g)
    return ring.pack(tuple(max(a - b, 0) for a, b in zip(em, eg)))


def _kpoly(gens, ring, memo):
    if not gens:
        return {0: 1}
    if 0 in gens:
        return {}
    cached = memo.get(gens)
    if cached is not None:
        return cached
    g = max(gens, key=lambda m: (ring.mono_degree(m), m))
    rest = frozenset(gens - {g})
    a = _kpoly(rest, ring, memo)
    colon = frozenset(_minimal_monos([_mono_colon(m, g, ring) for m in rest], ring))
    b = _kpoly(colon, ring, memo)
    out = dict(a)
    dg = ring.mono_degree(g)
    for d, cnt in b.items():
        v = out.get(d + dg, 0) - cnt
        if v:
            out[d + dg] = v
        else:
            out.pop(d + dg, None)
    memo[gens] = out
    return out


def hilbert_numerator(ideal):
    """Numerator of the Hilbert series of R/I over (1-t)^n, as {degree: int}.

    Computed purely combinatorially from the lead-term ideal, so it serves
    as an independent cross-check on resolutions.
    """
    for g in ideal.gens:
        if is_homogeneous(g) is None:
            raise NonHomogeneousInput("Hilbert numerator needs homogeneous generators")
    ring = ideal.ring
    gb = ideal.groebner_basis()
    lms = frozenset(_minimal_monos([g.leading_monomial() for g in gb], ring))
    return _kpoly(lms, ring, {})


# ---------------------------------------------------------------------------
# public resolution API
# ---------------------------------------------------------------------------

class FreeResolution:
    """A minimal graded free resolution of R/I.

    shifts[k] lists the internal degrees of the level-k basis; matrix(k)
    is the differential F_k -> F_{k-1} as rows over the target basis.
    """

    def __init__(self, ring, shifts, matrices):
        self.ring = ring
        self.shifts = shifts
        self._matrices = matrices

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
        """Differential d_k as a list of rows of polynomials."""
        return self._matrices[k - 1]

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
    for g in ideal.gens:
        if is_homogeneous(g) is None:
            raise NonHomogeneousInput(
                "free resolutions require homogeneous generators"
            )
    gb = ideal.groebner_basis()
    if gb and gb[0].leading_monomial() == 0:
        raise UnitIdeal("R/I is the zero ring")
    if not gb:
        return FreeResolution(ring, [(0,)], [])

    # polynomial terms are module terms in component 0
    columns = [None, _sort_basis([g.terms for g in gb], ring)]
    level = _Level(ring)
    cur = columns[1]
    counter = [0]
    while cur:
        if len(columns) > ring.nvars + 2:
            raise InternalInconsistency("syzygy cascade failed to terminate")
        nxt, syz = _syzygy_level(level, cur, ideal.caps, counter)
        syz = _interreduce(syz, ring, nxt.key)
        syz = _sort_basis(syz, ring)
        if syz:
            columns.append(syz)
        cur = syz
        level = nxt

    chain = _Chain(ring, columns)
    chain.minimalize()
    chain.check()

    shifts = []
    matrices = []
    zero = ring.zero()
    for k in range(len(chain.live)):
        ids = sorted(chain.live[k])
        shifts.append(tuple(chain.shifts[k][i] for i in ids))
        if k >= 1:
            prev_ids = sorted(chain.live[k - 1])
            mat = []
            for r in prev_ids:
                row = []
                for c in ids:
                    row.append(chain.d[k].get(c, {}).get(r, zero))
                mat.append(tuple(row))
            matrices.append(tuple(mat))
    res = FreeResolution(ring, shifts, matrices)

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
