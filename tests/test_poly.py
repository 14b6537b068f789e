"""Tests for polynomial arithmetic, parsing, and affine maps."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sepinv import AffineMap, PolynomialRing, make_field, parse
from sepinv.errors import (
    DimensionMismatch,
    PolynomialSyntaxError,
    ResourceCapExceeded,
    RingMismatch,
    UnknownVariable,
)
from sepinv.poly import (
    GREVLEX,
    LEX,
    Block,
    compose_affine,
    coordinate_images,
    is_homogeneous,
)

from .oracles import (
    block_key,
    grevlex_key,
    lex_key,
    naive_add,
    naive_apply,
    naive_from,
    naive_mul,
    naive_pow,
    naive_to,
)

F2 = make_field(2)
F5 = make_field(5)
F4 = make_field(2, 2, [1, 1, 1])
F9 = make_field(3, 2, [1, 0, 1])
F25 = make_field(5, 2, [2, 0, 1])

R5 = PolynomialRing(F5, ("x", "y", "z"))
R2 = PolynomialRing(F2, ("x1", "x2", "x3", "x4"))


def random_poly(ring, rng, terms=6, degree=4):
    p = ring.field.p
    table = {}
    for _ in range(terms):
        exps = tuple(rng.randrange(degree + 1) for _ in ring.variables)
        table[ring.pack(exps)] = rng.randrange(1, p)
    return ring.from_dict(table)


def test_parse_and_render_round_trip():
    cases = [
        "x + y",
        "x^2*y + 3*z",
        "x*y*z + 2*x + 4",
        "x^3 + 2*x^2*y + y^3 + 1",
    ]
    for text in cases:
        f = R5.parse(text)
        again = R5.parse(repr(f))
        assert again == f


def test_parse_handles_parentheses_and_signs():
    f = R5.parse("(x + y)^2 - x^2 - y^2")
    assert f == R5.parse("2*x*y")
    g = R5.parse("-(x - y)")
    assert g == R5.parse("y - x")
    assert R5.parse("x - -y") == R5.parse("x + y")
    assert R5.parse("5*x") == R5.zero()
    assert R5.parse("(x)") == R5.var(0)


def test_parse_rejects_garbage():
    for text in ["x +", "x^^2", "(x + y", "x ** 2", "", "x^y", "2x", "x + * y"]:
        with pytest.raises(PolynomialSyntaxError):
            R5.parse(text)
    with pytest.raises(UnknownVariable):
        R5.parse("x + w")


def test_module_level_parse_helper():
    f = parse("x + 2*y", R5)
    assert f == R5.var(0) + R5.constant(2) * R5.var(1)


def test_ring_equality_and_order():
    assert PolynomialRing(F5, ("x", "y", "z")) == R5
    assert PolynomialRing(F5, ("x", "y")) != R5
    assert PolynomialRing(F2, ("x", "y", "z")) != R5
    lexed = R5.with_order(LEX)
    assert lexed != R5
    assert lexed.with_order(GREVLEX) == R5


def test_leading_monomial_respects_order():
    f = R5.parse("x*y^2 + x^2 + z^4")
    assert R5.unpack(f.leading_monomial()) == (0, 0, 4)
    lexed = R5.with_order(LEX)
    g = lexed.parse("x*y^2 + x^2 + z^4")
    assert lexed.unpack(g.leading_monomial()) == (2, 0, 0)
    # grevlex tie at equal degree: compare reversed exponents
    h = R5.parse("x^2*z + x*y^2")
    assert R5.unpack(h.leading_monomial()) == (1, 2, 0)


def test_arithmetic_matches_naive_oracle_f5():
    rng = random.Random(20260818)
    for _ in range(40):
        f = random_poly(R5, rng)
        g = random_poly(R5, rng)
        assert naive_from(f + g) == naive_add(naive_from(f), naive_from(g), 5)
        assert naive_from(f * g) == naive_mul(naive_from(f), naive_from(g), 5)
        assert naive_from(f - g) == naive_add(
            naive_from(f), {e: 5 - c for e, c in naive_from(g).items()}, 5
        )


def test_arithmetic_matches_naive_oracle_f2():
    rng = random.Random(7)
    for _ in range(40):
        f = random_poly(R2, rng, terms=5, degree=3)
        g = random_poly(R2, rng, terms=5, degree=3)
        assert naive_from(f * g) == naive_mul(naive_from(f), naive_from(g), 2)
        assert naive_from(f + g) == naive_add(naive_from(f), naive_from(g), 2)


def test_power_matches_naive_oracle():
    rng = random.Random(99)
    for _ in range(10):
        f = random_poly(R5, rng, terms=3, degree=2)
        for k in range(5):
            assert naive_from(f**k) == naive_pow(naive_from(f), k, 5, 3)
    with pytest.raises(ValueError):
        R5.parse("x") ** -1


def test_naive_bridge_round_trips():
    rng = random.Random(3)
    for _ in range(20):
        f = random_poly(R5, rng)
        assert naive_to(R5, naive_from(f)) == f


def test_ring_axioms_on_random_samples():
    rng = random.Random(11)
    for _ in range(15):
        f = random_poly(R5, rng, terms=4)
        g = random_poly(R5, rng, terms=4)
        h = random_poly(R5, rng, terms=4)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f + R5.zero() == f
        assert f * R5.one() == f
        assert f - f == R5.zero()


def test_frobenius_on_polynomials_char_two():
    rng = random.Random(5)
    for _ in range(10):
        f = random_poly(R2, rng, terms=4, degree=3)
        g = random_poly(R2, rng, terms=4, degree=3)
        assert (f + g) ** 2 == f**2 + g**2


def test_mixed_ring_operations_raise():
    other = PolynomialRing(F5, ("a", "b"))
    with pytest.raises(RingMismatch):
        R5.parse("x") + other.parse("a")
    with pytest.raises(RingMismatch):
        R5.parse("x") * other.parse("b")


def test_scalar_scaling():
    f = R5.parse("x + 1")
    assert f.scale(2) == R5.parse("2*x + 2")
    assert f + R5.constant(4) == R5.parse("x")
    assert f.scale(3) == R5.parse("3*x + 3")
    assert f.scale(0) == R5.zero()
    assert R5.constant(7) == R5.constant(2)


def test_homogeneity():
    assert is_homogeneous(R5.parse("x^2 + y*z")) == 2
    assert is_homogeneous(R5.parse("x^2 + y")) is None
    assert is_homogeneous(R5.one()) == 0
    assert is_homogeneous(R5.zero()) == 0


def test_coefficient_lookup():
    f = R5.parse("3*x^2*y + z")
    assert f.coefficient((2, 1, 0)) == 3
    assert f.coefficient((0, 0, 1)) == 1
    assert f.coefficient((1, 1, 1)) == 0


def test_monic_normalization():
    f = R5.parse("3*x^2 + 3*y")
    assert f.monic() == R5.parse("x^2 + y")
    assert R5.zero().monic() == R5.zero()


def test_as_pairs_is_order_descending():
    f = R5.parse("x + y^2*z + z^3 + 1")
    pairs = f.as_pairs()
    keys = [R5.key(R5.pack(e)) for e, _ in pairs]
    assert keys == sorted(keys, reverse=True)
    assert all(0 < c < 5 for _, c in pairs)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_order_keys_and_lcm_agree_with_tuple_oracle(data):
    n = data.draw(st.integers(1, 5))
    kind = data.draw(st.sampled_from(["grevlex", "lex", "block"]))
    if kind == "grevlex":
        order, oracle = GREVLEX, grevlex_key
    elif kind == "lex":
        order, oracle = LEX, lex_key
    else:
        k = data.draw(st.integers(0, n))
        order, oracle = Block(k, GREVLEX, GREVLEX), block_key(k, grevlex_key, grevlex_key)
    ring = PolynomialRing(F5, tuple(f"x{i}" for i in range(n)), order)
    exponent = st.one_of(st.sampled_from([0, 127]), st.integers(0, 127))
    exps = st.lists(exponent, min_size=n, max_size=n).map(tuple)
    a, b = data.draw(exps), data.draw(exps)
    ka, kb = ring.key(ring.pack(a)), ring.key(ring.pack(b))
    assert isinstance(ka, int)
    assert (ka < kb) == (oracle(a) < oracle(b))
    assert (ka == kb) == (a == b)
    lcm = ring.mono_lcm(ring.pack(a), ring.pack(b))
    assert ring.unpack(lcm) == tuple(max(x, y) for x, y in zip(a, b))


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_order_keys_are_additive(data):
    """key(a * b) = key(a) + key(b) - key(1): resolution levels rely on it."""
    n = data.draw(st.integers(1, 5))
    simple = st.sampled_from([GREVLEX, LEX])
    order = data.draw(st.one_of(
        simple,
        st.builds(Block, st.integers(0, n), simple, simple),
    ))
    ring = PolynomialRing(F5, tuple(f"x{i}" for i in range(n)), order)
    a = [data.draw(st.one_of(st.sampled_from([0, 127]), st.integers(0, 127)))
         for _ in range(n)]
    b = [data.draw(st.integers(0, 127 - x)) for x in a]
    total = [x + y for x, y in zip(a, b)]
    key = ring.key
    assert key(ring.pack(total)) == (
        key(ring.pack(a)) + key(ring.pack(b)) - key(0))


def test_evaluate_prime_field():
    f = R5.parse("x^2*y + 2*z + 1")
    assert f.evaluate((2, 3, 1)) == (4 * 3 + 2 + 1) % 5
    assert f.evaluator()((2, 3, 1)) == f.evaluate((2, 3, 1))
    assert R5.zero().evaluate((1, 1, 1)) == 0
    with pytest.raises(DimensionMismatch):
        f.evaluate((1, 2))


def test_evaluate_in_extension_field():
    ring = PolynomialRing(F2, ("x", "y"))
    f = ring.parse("x^2 + x*y + y^2")
    t = F4.generator().raw
    # t^2 + t*(t+1) + (t+1)^2 over F_4
    val = f.evaluate((t, F4.add(t, 1)), field=F4)
    direct = F4.add(
        F4.mul(t, t),
        F4.add(F4.mul(t, F4.add(t, 1)), F4.mul(F4.add(t, 1), F4.add(t, 1))),
    )
    assert val == direct
    assert f.evaluator(F4)((t, F4.add(t, 1))) == val
    with pytest.raises(RingMismatch):
        f.evaluate((0, 0), field=F5)


def test_substitute_variables():
    f = R5.parse("x^2 + y")
    images = [R5.parse("y + z"), R5.parse("x*z"), R5.var(2)]
    assert f.substitute(images) == R5.parse("(y + z)^2 + x*z")


def test_inject_into_larger_ring():
    big = PolynomialRing(F5, ("x", "y", "z", "w"))
    f = R5.parse("x*z + y^2")
    g = f.inject(big, {0: 0, 1: 1, 2: 3})
    assert g == big.parse("x*w + y^2")


def test_exponent_capacity_guard():
    f = R5.parse("x^120")
    with pytest.raises(ResourceCapExceeded):
        f * f * f
    with pytest.raises(ResourceCapExceeded):
        R5.pack((300, 0, 0))


def test_affine_map_validation_and_reduction():
    sigma = AffineMap(F5, [[6, 0], [0, -1]])
    assert sigma.matrix == ((1, 0), (0, 4))
    assert sigma.translation == (0, 0)
    with pytest.raises(ValueError):
        AffineMap(F5, [[1, 2], [2, 4]])
    with pytest.raises(DimensionMismatch):
        AffineMap(F5, [[1, 0], [0]])



@pytest.mark.parametrize("matrix,translation", [
    ([[0, 7], [1, 0]], None),
    ([[0, 1], [1, 0]], [0, 9]),
    ([[0, -1], [-1, 0]], None),
], ids=["entry-7", "translation-9", "entry--1"])
def test_affine_map_rejects_extension_entries_outside_the_field(
        matrix, translation):
    # extension entries are raw encodings: 7 and 9 used to index past the
    # log tables, and -1 used to make a map of the wrong order
    with pytest.raises(ValueError, match=r"raw encodings in \[0, 4\)$"):
        AffineMap(F4, matrix, translation)
    assert AffineMap(F4, [[0, 3], [2, 0]], [1, 3]).matrix == ((0, 3), (2, 0))


def test_coordinate_images_are_the_images_of_the_variables():
    rng = random.Random(5)
    for field in (F5, F4):
        ring = PolynomialRing(field, ("x", "y", "z"))
        for _ in range(10):
            try:
                sigma = AffineMap(
                    field, [[rng.randrange(field.order) for _ in range(3)]
                            for _ in range(3)],
                    [rng.randrange(field.order) for _ in range(3)])
            except ValueError:
                continue
            images = coordinate_images(sigma, ring)
            assert images == [compose_affine(ring.var(i), sigma)
                              for i in range(3)]
            pt = tuple(rng.randrange(field.order) for _ in range(3))
            assert tuple(g.evaluate(pt) for g in images) == \
                sigma.apply_point(pt)


def test_the_action_rejects_a_map_over_another_field():
    sigma = AffineMap(F2, [[0, 1], [1, 0]])
    ring = PolynomialRing(F5, ("x", "y"))
    for call in (lambda: coordinate_images(sigma, ring),
                 lambda: compose_affine(ring.parse("x"), sigma)):
        with pytest.raises(RingMismatch,
                           match=r"^map over F_2 acting on F_5\[x, y\]$"):
            call()
    with pytest.raises(DimensionMismatch):
        coordinate_images(AffineMap.identity(F5, 3), ring)


def test_affine_map_group_operations():
    rng = random.Random(2)
    n = 3
    for _ in range(10):
        while True:
            mat = [[rng.randrange(5) for _ in range(n)] for _ in range(n)]
            try:
                sigma = AffineMap(F5, mat, [rng.randrange(5) for _ in range(n)])
                break
            except ValueError:
                continue
        tau = sigma.inverse()
        assert sigma.compose(tau) == AffineMap.identity(F5, n)
        assert tau.compose(sigma) == AffineMap.identity(F5, n)
    ident = AffineMap.identity(F5, n)
    assert ident.compose(ident) == ident


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_affine_inverse_round_trips_and_singular_matrices_raise(data):
    field = data.draw(st.sampled_from([F2, F5, F4, F9]))
    n = data.draw(st.integers(1, 3))
    entry = st.integers(0, field.order - 1)
    matrix = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    translation = [data.draw(entry) for _ in range(n)]
    points = list(itertools.product(range(field.order), repeat=n))
    origin = (0,) * n
    if any(naive_apply(matrix, origin, v, field) == origin for v in points[1:]):
        with pytest.raises(ValueError, match="not invertible"):
            AffineMap(field, matrix, translation)
        return
    sigma = AffineMap(field, matrix, translation)
    tau = sigma.inverse()
    assert sigma.compose(tau) == AffineMap.identity(field, n)
    assert tau.compose(sigma) == AffineMap.identity(field, n)
    for pt in points[::7]:
        image = naive_apply(matrix, translation, pt, field)
        assert naive_apply(tau.matrix, tau.translation, image, field) == pt


def test_affine_map_matches_pointwise_action():
    rng = random.Random(8)
    sigma = AffineMap(F5, [[2, 1, 0], [0, 1, 0], [3, 0, 4]], [1, 0, 2])
    tau = AffineMap(F5, [[1, 1, 1], [0, 2, 0], [0, 0, 3]])
    comp = sigma.compose(tau)
    for _ in range(20):
        pt = tuple(rng.randrange(5) for _ in range(3))
        assert comp.apply_point(pt) == sigma.apply_point(tau.apply_point(pt))


def test_apply_point_checks_the_point_length(id10253):
    sigma = id10253.group.elements[1]
    for pt in ((1, 0, 1), (1, 0, 1, 1, 5, 5)):  # the long one was cut short
        with pytest.raises(DimensionMismatch,
                           match=r"^point length != map dimension$"):
            sigma.apply_point(pt)


@pytest.mark.parametrize("field", [F4, F25], ids=["F4", "F25"])
def test_point_map_matches_apply_point_and_the_oracle(field):
    # maps over the prime field applied to extension points, and maps over
    # the extension itself; entries 0 and 1 are drawn often, since the
    # point map treats both apart from the rest
    rng = random.Random(field.order)
    for fld in (make_field(field.p), field):
        for _ in range(8):
            n = rng.randint(1, 3)
            entry = lambda: rng.choice([0, 1, rng.randrange(fld.order)])
            while True:
                try:
                    sigma = AffineMap(
                        fld, [[entry() for _ in range(n)] for _ in range(n)],
                        [entry() for _ in range(n)])
                    break
                except ValueError:
                    continue
            image = sigma.point_map(field)
            for _ in range(20):
                pt = tuple(rng.choice([0, 1, rng.randrange(field.order)])
                           for _ in range(n))
                want = naive_apply(sigma.matrix, sigma.translation, pt, field)
                assert image(pt) == sigma.apply_point(pt, field) == want


def test_pullback_agrees_with_point_evaluation():
    sigma = AffineMap(F5, [[0, 1, 0], [1, 0, 0], [0, 0, 2]], [0, 3, 0])
    f = R5.parse("x^2*z + y + 1")
    pulled = f.substitute(
        [
            R5.parse("y"),
            R5.parse("x + 3"),
            R5.parse("2*z"),
        ]
    )
    for x in range(5):
        for y in range(5):
            for z in range(5):
                pt = (x, y, z)
                assert pulled.evaluate(pt) == f.evaluate(sigma.apply_point(pt))


@settings(max_examples=60)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_binomial_identity_f5(a, b, c):
    f = R5.constant(a) * R5.var(0) + R5.constant(b) * R5.var(1)
    expanded = f * f
    manual = (
        R5.constant((a * a) % 5) * R5.parse("x^2")
        + R5.constant((2 * a * b) % 5) * R5.parse("x*y")
        + R5.constant((b * b) % 5) * R5.parse("y^2")
    )
    assert expanded == manual
    assert f.evaluate((c, 1, 0)) == (a * c + b) % 5
