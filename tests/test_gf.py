"""Field arithmetic checks, exhaustive for every field the grids use."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgcodes.gf import (
    DegreeMismatch,
    FieldMismatch,
    FieldTooLarge,
    NotPrime,
    ReducibleModulus,
    ZeroInverse,
    is_prime,
    make_field,
)
from helpers import field_tables_reference

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 4)]


def test_prime_field_arithmetic_matches_modular_ints():
    f3 = make_field(3)
    two = f3.element(2)
    assert (two + two).index == 1
    assert (two * two).index == 1
    assert two.inverse().index == 2
    f5 = make_field(5)
    assert f5.element(3).inverse().index == 2


def test_gf4_default_modulus_and_table_values():
    # smallest irreducible of degree 2 over F_2 is x^2 + x + 1
    f4 = make_field(2, 2)
    assert f4.modulus == (1, 1, 1)
    alpha = f4.element([0, 1])
    alpha_plus_one = f4.element([1, 1])
    assert (alpha * alpha_plus_one).index == 1
    assert alpha.inverse() == alpha_plus_one


def test_default_moduli_are_the_expected_classical_choices():
    assert make_field(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1


@pytest.mark.parametrize("p,h", SMALL_FIELDS)
def test_field_axioms_exhaustively(p, h):
    fld = make_field(p, h)
    elems = fld.elements()
    q = fld.q
    assert len(elems) == q
    zero, one = fld.zero, fld.one
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a:
            assert a * a.inverse() == one
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    # associativity and distributivity on a full triple product for q <= 9,
    # sampled diagonally otherwise to keep runtime sane
    triples = (
        itertools.product(elems, repeat=3)
        if q <= 9
        else zip(elems, elems[::-1], elems)
    )
    for a, b, c in triples:
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# every field the uint8 tables index: q <= 256
_ALL_FIELDS = [(p, h) for p in range(2, 257) if is_prime(p) for h in range(1, 9) if p**h <= 256]


@st.composite
def _element_triples(draw):
    p, h = draw(st.sampled_from(_ALL_FIELDS))
    fld = make_field(p, h)
    return fld, [fld.from_index(draw(st.integers(0, fld.q - 1))) for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(_element_triples())
def test_field_axioms_on_random_elements(case):
    fld, (a, b, c) = case
    zero, one = fld.zero, fld.one
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a * zero == zero
    assert a + (-a) == zero
    if a:
        assert a * a.inverse() == one
    # the characteristic: p copies of a sum to zero
    acc = zero
    for _ in range(fld.p):
        acc = acc + a
    assert acc == zero


@pytest.mark.parametrize("p,h", SMALL_FIELDS)
def test_multiplicative_order_divides_q_minus_one(p, h):
    fld = make_field(p, h)
    for a in fld.elements():
        if not a:
            continue
        acc = fld.one
        for _ in range(fld.q - 1):
            acc = acc * a
        assert acc == fld.one


@pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_frobenius_is_additive(p, h):
    fld = make_field(p, h)

    def frob(x):
        acc = x
        for _ in range(p - 1):
            acc = acc * x
        return acc

    for a, b in itertools.product(fld.elements(), repeat=2):
        assert frob(a + b) == frob(a) + frob(b)


def test_tables_are_consistent_numpy_views():
    fld = make_field(3, 2)
    q = fld.q
    assert fld.add_table.shape == (q, q)
    assert fld.mul_table.shape == (q, q)
    # row 0 of the mul table is identically zero, row 1 is the identity
    assert not fld.mul_table[0].any()
    assert list(fld.mul_table[1]) == list(range(q))
    # inverse table really inverts under the mul table
    for a in range(1, q):
        assert fld.mul_table[a, fld.inv_table[a]] == 1
    assert np.array_equal(fld.add_table[0], np.arange(q, dtype=np.uint8))


def test_element_index_roundtrip():
    fld = make_field(3, 2)
    for i in range(fld.q):
        assert fld.from_index(i).index == i
    assert fld.element([2, 1]).index == 2 + 1 * 3


def test_rejects_bad_parameters():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(1)
    with pytest.raises(DegreeMismatch):
        make_field(2, 0)
    with pytest.raises(DegreeMismatch):
        make_field(2, 2, modulus=[1, 1])  # wrong length
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, modulus=[0, 0, 1])  # x^2 = x * x
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2


def test_cross_field_operations_rejected():
    f2 = make_field(2)
    f3 = make_field(3)
    with pytest.raises(FieldMismatch):
        f2.one + f3.one  # noqa: B018
    with pytest.raises(FieldMismatch):
        f3.element(f2.one)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroInverse):
        make_field(5).zero.inverse()


def test_same_parameters_give_equal_interchangeable_fields():
    a = make_field(2, 2)
    b = make_field(2, 2, modulus=[1, 1, 1])
    assert a == b
    assert hash(a) == hash(b)
    assert a.element(2) == b.element(2)


def test_explicit_alternative_modulus_changes_field_identity():
    default = make_field(3, 2)  # x^2 + 1
    other = make_field(3, 2, modulus=[2, 1, 1])  # x^2 + x + 2, also irreducible
    assert default != other
    # same abstract field, different coordinates: tables genuinely differ
    assert not np.array_equal(default.mul_table, other.mul_table)


def test_json_serialization_shape():
    fld = make_field(2, 3)
    d = fld.to_json_dict()
    assert d == {"p": 2, "h": 3, "modulus": [1, 1, 0, 1]}


def test_fields_beyond_the_uint8_tables_are_a_named_error():
    # q = 256 is the largest order the uint8 tables can index
    assert make_field(2, 8).q == 256
    for p, h in [(2, 9), (257, 1), (17, 2)]:
        with pytest.raises(FieldTooLarge):
            make_field(p, h)
    with pytest.raises(FieldTooLarge):
        make_field(2, 9, modulus=[1, 0, 0, 0, 1, 0, 0, 0, 0, 1])
    assert issubclass(FieldTooLarge, ValueError)


_TABLE_FIELDS = [
    (p, h, None)
    for p in range(2, 33)
    if is_prime(p)
    for h in range(1, 6)
    if p**h <= 32
] + [(3, 5, None), (2, 8, None), (3, 2, (2, 1, 1)), (2, 4, (1, 0, 0, 1, 1))]


@pytest.mark.parametrize("p, h, modulus", _TABLE_FIELDS)
def test_tables_match_the_pairwise_reference(p, h, modulus):
    # every q <= 32, then 243 and 256, the largest orders the tables index,
    # and two moduli other than the default ones
    fld = make_field(p, h, modulus)
    tables = (fld.add_table, fld.mul_table, fld.neg_table, fld.inv_table)
    for got, want in zip(tables, field_tables_reference(p, h, fld.modulus)):
        assert got.dtype == want.dtype == np.uint8
        assert got.tobytes() == want.tobytes()
