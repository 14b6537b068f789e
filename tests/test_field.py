"""Tests for prime and extension field arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from sepinv import Caps, make_field
from sepinv.errors import (
    DivisionByZero,
    EnumerationCapExceeded,
    MissingModulus,
    NonPrimeCharacteristic,
    ReducibleModulus,
)
from sepinv.field import is_prime

from .oracles import naive_field_ops

F2 = make_field(2)
F5 = make_field(5)
F4 = make_field(2, 2, [1, 1, 1])
F8 = make_field(2, 3, [1, 1, 0, 1])
F9 = make_field(3, 2, [1, 0, 1])


def test_is_prime_small_values():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(0)
    assert not is_prime(1)


def test_prime_field_basic_ops():
    assert F5.order == 5
    assert F5.add(3, 4) == 2
    assert F5.sub(1, 3) == 3
    assert F5.mul(3, 4) == 2
    assert F5.neg(2) == 3
    assert F5.inv(3) == 2
    assert F5.pow(2, 4) == 1
    assert F5.pow(2, 0) == 1


def test_division_by_zero_raises():
    for field in (F2, F5, F4, F8):
        with pytest.raises(DivisionByZero):
            field.inv(0)


def test_make_field_rejects_bad_input():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4)
    with pytest.raises(NonPrimeCharacteristic):
        make_field(1)
    with pytest.raises(MissingModulus):
        make_field(2, 2)
    with pytest.raises(ValueError):
        make_field(5, 1, [1, 1])
    with pytest.raises(ValueError):
        make_field(5, 0)
    # wrong length / not monic
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [1, 1])
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [1, 1, 0])
    # t^2 factors as t*t
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [0, 0, 1])
    # t^2 + 1 = (t + 1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [1, 0, 1])
    # t^2 - 1 splits over F_3
    with pytest.raises(ReducibleModulus):
        make_field(3, 2, [2, 0, 1])


@pytest.mark.parametrize("field", [F4, F8, F9])
def test_extension_field_axioms_exhaustive(field):
    elems = field.enumerate_raw()
    assert len(elems) == field.order
    for a in elems:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, field.inv(a)) == 1
        for b in elems:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            for c in elems:
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                lhs = field.mul(a, field.add(b, c))
                rhs = field.add(field.mul(a, b), field.mul(a, c))
                assert lhs == rhs


def test_generator_satisfies_modulus():
    t4 = F4.generator().raw
    # t^2 + t + 1 = 0
    assert F4.add(F4.mul(t4, t4), F4.add(t4, 1)) == 0
    t8 = F8.generator().raw
    # t^3 + t + 1 = 0
    cube = F8.mul(F8.mul(t8, t8), t8)
    assert F8.add(cube, F8.add(t8, 1)) == 0
    with pytest.raises(MissingModulus):
        F5.generator()


@pytest.mark.parametrize("field", [F2, F5, F4, F8, F9])
def test_multiplicative_order_divides_group_order(field):
    q = field.order
    for a in field.enumerate_raw():
        if a:
            assert field.pow(a, q - 1) == 1


def test_frobenius_is_additive_in_char_two():
    for a in F8.enumerate_raw():
        for b in F8.enumerate_raw():
            lhs = F8.pow(F8.add(a, b), 2)
            rhs = F8.add(F8.pow(a, 2), F8.pow(b, 2))
            assert lhs == rhs


def test_from_int_reduces_mod_characteristic():
    assert F5.from_int(12) == 2
    assert F5.from_int(-1) == 4
    assert F4.from_int(2) == 0
    assert F4.from_int(3) == 1
    assert F8.from_int(5) == 1


def test_element_wrapper_arithmetic():
    a = F9.element(F9.generator().raw)
    b = F9.one()
    assert (a + b) - b == a
    assert a * a.inverse() == F9.one()
    assert (a / a) == F9.one()
    assert a ** F9.order == a ** 1
    assert -(-a) == a
    assert bool(F9.zero()) is False
    assert bool(a) is True


def test_enumerate_raw_order_and_cap():
    assert list(F4.enumerate_raw()) == [0, 1, 2, 3]
    assert len(F9.enumerate_raw()) == 9
    with pytest.raises(EnumerationCapExceeded):
        F8.enumerate_raw(cap=4)


def test_equal_fields_compare_equal():
    assert make_field(2, 2, [1, 1, 1]) == F4
    assert make_field(2, 3, [1, 1, 0, 1]) != F4
    assert make_field(5) != make_field(7)


@given(st.integers(0, 4), st.integers(0, 4))
def test_prime_field_matches_integers_mod_p(a, b):
    assert F5.add(a, b) == (a + b) % 5
    assert F5.mul(a, b) == (a * b) % 5
    assert F5.sub(a, b) == (a - b) % 5


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
def test_f9_inverse_solves_linear_equations(a, b, c):
    a, b, c = a % 9 or 1, b % 9, c % 9
    # solve a*x + b = c for x and substitute back
    x = F9.mul(F9.inv(a), F9.sub(c, b))
    assert F9.add(F9.mul(a, x), b) == c


def test_negative_power_is_a_power_of_the_inverse():
    # a^(-k) = (a^(-1))^k, and a negative exponent must terminate
    assert F5.pow(2, -1) == 3
    assert F5.pow(2, -3) == F5.pow(3, 3)
    t = F9.generator()
    assert t ** -1 == t.inverse()
    assert (t ** -5) * (t ** 5) == F9.one()
    for field in (F5, F9):
        with pytest.raises(DivisionByZero):
            field.pow(0, -1)


# Extension fields compute through log tables to a primitive element, which
# the modulus need not supply: t has order 4 in F_9 = F_3[t]/(t^2 + 1), order
# 5 under t^4 + t^3 + t^2 + t + 1, and is not primitive for the moduli that
# `verify --points` picks for F_25 (t^2 + 2) and F_4096 (t^12 + t^3 + 1).
DIFFERENTIAL_FIELDS = [
    F4,
    F8,
    F9,
    make_field(2, 4, [1, 1, 1, 1, 1]),
    make_field(5, 2, [2, 0, 1]),
    make_field(3, 5, [1, 2, 0, 0, 0, 1]),
    make_field(2, 9, [1, 1, 0, 0, 0, 0, 0, 0, 0, 1]),
    make_field(2, 12, [1, 0, 0, 1] + [0] * 8 + [1]),
]


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extension_arithmetic_agrees_with_digit_oracle(field, data):
    add, mul = naive_field_ops(field)
    q = field.order
    a = data.draw(st.integers(0, q - 1), label="a")
    b = data.draw(st.integers(0, q - 1), label="b")
    k = data.draw(st.integers(-2 * q, 2 * q), label="k")
    assert field.add(a, b) == add(a, b)
    assert field.mul(a, b) == mul(a, b)
    assert add(field.neg(a), a) == 0
    assert add(field.sub(a, b), b) == a

    def naive_pow(x, n):
        r = 1
        while n:
            if n & 1:
                r = mul(r, x)
            x = mul(x, x)
            n >>= 1
        return r

    if a == 0:
        with pytest.raises(DivisionByZero):
            field.inv(a)
        if k < 0:
            with pytest.raises(DivisionByZero):
                field.pow(a, k)
        else:
            assert field.pow(a, k) == naive_pow(a, k)
        return
    assert mul(a, field.inv(a)) == 1
    if k < 0:
        assert mul(field.pow(a, k), naive_pow(a, -k)) == 1
    else:
        assert field.pow(a, k) == naive_pow(a, k)


@pytest.mark.parametrize("field", [F2, F5] + DIFFERENTIAL_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_submul_agrees_with_digit_oracle(field, data):
    add, mul = naive_field_ops(field)
    a, b, c = (data.draw(st.integers(0, field.order - 1), label=name)
               for name in "abc")
    # a - b*c is the x with x + b*c = a
    assert add(field.submul(a, b, c), mul(b, c)) == a


def test_make_field_refuses_fields_above_enum_cap():
    # the cap is checked before the modulus is tested for irreducibility
    with pytest.raises(EnumerationCapExceeded,
                       match=r"make_field: field has 131072 elements, "
                             r"exceeding enum_cap 65536 \(SEPINV_ENUM_CAP\)"):
        make_field(2, 17, [1, 0, 0, 1] + [0] * 13 + [1])
    caps = Caps(enum_cap=8)
    assert make_field(2, 3, [1, 1, 0, 1], caps=caps) == F8
    with pytest.raises(EnumerationCapExceeded, match="make_field: .* 16 "):
        make_field(2, 4, [1, 1, 0, 0, 1], caps=caps)
    # far past the cap the order is refused unbuilt and written as a power
    with pytest.raises(EnumerationCapExceeded,
                       match=r"^make_field: field has 2\^100000 elements, "):
        make_field(2, 100000, [1] + [0] * 99999 + [1])


@pytest.mark.parametrize("field", [
    F9,
    make_field(5, 2, [2, 0, 1]),
    make_field(3, 3, [1, 2, 0, 1]),
    make_field(3, 5, [1, 2, 0, 0, 0, 1]),
    make_field(7, 2, [1, 0, 1]),
    make_field(5, 3, [2, 0, 1, 1]),
], ids=repr)
def test_odd_log_tables_agree_with_digit_oracle(field):
    # exp walks the powers of the least primitive element from t upwards,
    # log inverts it, and zech[k] is log(1 + g^k), or -1 where that is 0
    add, mul = naive_field_ops(field)
    p, q1 = field.p, field.order - 1
    q1_, log, exp, zech = field._tables
    assert q1_ == q1 and len(exp) == 2 * q1 and len(zech) == q1
    g = exp[1]
    for v in range(p, g):  # every smaller candidate has a smaller order
        x, k = v, 1
        while x != 1:
            x, k = mul(x, v), k + 1
        assert k < q1
    assert exp[0] == 1
    for k in range(q1):
        assert exp[k + 1] == mul(exp[k], g)
        assert exp[k + q1] == exp[k]
        assert log[exp[k]] == k
        one_plus = add(1, exp[k])
        assert zech[k] == (log[one_plus] if one_plus else -1)
