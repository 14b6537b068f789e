"""Correctness checks that do not trust sepinv.

Every expected value here is computed by plain Python from a property the
mathematics guarantees, or read from a fixture that was derived by hand or
taken from the literature.  Each check returns a list of problems: empty
when the value is right, one line per disagreement otherwise.
"""

from math import comb


# -- permutations (the symmetric workload) -----------------------------------

def permutation_of(matrix):
    """The permutation pi with (M x)_i = x_pi(i) for a permutation matrix M."""
    perm = []
    for row in matrix:
        ones = [j for j, v in enumerate(row) if v]
        if len(ones) != 1 or row[ones[0]] != 1:
            raise ValueError(f"not a permutation matrix row: {row}")
        perm.append(ones[0])
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("not a permutation matrix")
    return tuple(perm)


def cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return cycles


def graph_meet_codim(sigma, tau):
    """Codimension in F^n of {x : sigma x = tau x} for permutation maps.

    The locus is the fixed space of sigma^-1 tau, whose dimension is its
    number of cycles.  With (sigma x)_i = x_s(i), the product sends i to
    t(s^-1(i)).
    """
    n = len(sigma)
    inverse = [0] * n
    for i, v in enumerate(sigma):
        inverse[v] = i
    return n - cycle_count(tuple(tau[inverse[i]] for i in range(n)))


def check_codim_matrix(perms, matrix):
    problems = []
    count = len(perms)
    if len(matrix) != count or any(len(row) != count for row in matrix):
        return [f"codim matrix is not {count} x {count}"]
    for i in range(count):
        for j in range(count):
            want = graph_meet_codim(perms[i], perms[j])
            if matrix[i][j] != want:
                problems.append(
                    f"codim[{i}][{j}] = {matrix[i][j]}, cycles give {want}")
    return problems


# -- monomial ideals ---------------------------------------------------------

def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def minimal_generators(exps):
    """Exponent vectors not divisible by another generator."""
    unique = sorted(set(exps), key=lambda e: (sum(e), e))
    out = []
    for e in unique:
        if not any(divides(o, e) for o in out):
            out.append(e)
    return set(out)


def power_of_maximal_ideal_betti(d):
    """Betti numbers of R/m^d for R in three variables.

    beta_i of the ideal m^d is C(d+2, d+i) * C(d+i-1, i); the resolution of
    the quotient prepends the rank-one term for R itself.
    """
    return [1] + [comb(d + 2, d + i) * comb(d + i - 1, i) for i in range(3)]


def standard_monomial_counts(gens, top):
    """Hilbert function of k[x, y, z]/(gens) in degrees 0..top, by counting.

    For each (a, b) the monomials x^a y^b z^c outside the ideal are those
    with c below the smallest z-exponent among generators dividing
    x^a y^b z^infinity.  Past the largest x- and y-exponents of the
    generators that bound no longer changes.
    """
    lx = max(g[0] for g in gens)
    ly = max(g[1] for g in gens)
    bound = {}
    for a in range(lx + 1):
        for b in range(ly + 1):
            cs = [g[2] for g in gens if g[0] <= a and g[1] <= b]
            bound[a, b] = min(cs) if cs else None
    counts = [0] * (top + 1)
    for a in range(top + 1):
        for b in range(top + 1 - a):
            c_max = bound[min(a, lx), min(b, ly)]
            last = top if c_max is None else min(top, a + b + c_max - 1)
            for t in range(a + b, last + 1):
                counts[t] += 1
    return counts


def series_from_numerator(numerator, top):
    """Coefficients of numerator / (1 - t)^3 in degrees 0..top."""
    return [
        sum(c * comb(t - k + 2, 2) for k, c in numerator.items() if k <= t)
        for t in range(top + 1)
    ]


def lcm_degree(gens):
    return sum(max(g[i] for g in gens) for i in range(3))


def check_hilbert_numerator(gens, numerator):
    """The numerator must reproduce the standard-monomial count.

    Every shift in a minimal resolution of a monomial ideal is the degree
    of an lcm of generators, so the numerator has no term above the degree
    of the lcm of all of them; checking the Hilbert function up to there
    pins the whole numerator down.
    """
    top = lcm_degree(gens)
    problems = []
    if numerator and max(numerator) > top:
        problems.append(f"numerator degree {max(numerator)} exceeds the "
                        f"lcm degree {top}")
    want = standard_monomial_counts(gens, top)
    got = series_from_numerator(numerator, top)
    for t, (w, g) in enumerate(zip(want, got)):
        if w != g:
            problems.append(f"degree {t}: numerator gives {g} standard "
                            f"monomials, counting gives {w}")
            break
    return problems


def alternating_shift_sum(shifts):
    """Euler characteristic of a graded resolution, as {degree: int}."""
    out = {}
    for k, degs in enumerate(shifts):
        for d in degs:
            out[d] = out.get(d, 0) + (-1) ** k
    return {d: v for d, v in out.items() if v}


def check_monomial_ideal(gens, terms, numerator, shifts, ladder_degree):
    """Every check on one monomial ideal.

    `terms` lists every term of the reduced basis as (exponents,
    coefficient); for a monomial ideal each element is one monic term.
    `numerator` is the Hilbert numerator and `shifts` the resolution's
    shifts by homological degree.  `ladder_degree` is d for m^d, None for
    a random ideal.
    """
    problems = []
    want = minimal_generators(gens)
    got = [e for e, _ in terms]
    if set(got) != want or len(got) != len(want):
        problems.append(f"reduced basis has {len(got)} elements, the "
                        f"divisibility test keeps {len(want)}")
    if any(c != 1 for _, c in terms):
        problems.append("reduced basis element is not monic")
    problems += check_hilbert_numerator(sorted(want), numerator)
    if alternating_shift_sum(shifts) != dict(numerator):
        problems.append("resolution shifts disagree with the numerator")
    betti = [len(s) for s in shifts]
    if ladder_degree is not None:
        expected = power_of_maximal_ideal_betti(ladder_degree)
        if betti != expected:
            problems.append(f"betti numbers {betti}, formula gives {expected}")
        # R/m^d has dimension 0, so length 3 means depth 0 and defect 0
        if len(shifts) - 1 != 3:
            problems.append(f"resolution length {len(shifts) - 1}, not 3: "
                            "the defect of R/m^d would not be 0")
    return problems


# -- points ------------------------------------------------------------------

def forced_to_fail(points, values, max_orbit):
    """Pigeonhole: with fewer values than points per orbit, some value
    class holds more points than any orbit, so no separation is possible."""
    return -(-points // values) > max_orbit
