import random

import pytest
from fractions import Fraction

from esss.numthy import (
    NU_INFINITY,
    a_q,
    bernoulli_denom_two_part,
    bernoulli_even,
    nu2,
    odd_prime_base,
    s_q,
)
from reference import bernoulli_denom_two_part_vsc, von_staudt_clausen_denom


def test_nu2_basic():
    assert nu2(8) == 3
    assert nu2(1) == 0
    assert nu2(12) == 2


def test_nu2_rejects_zero():
    with pytest.raises(ValueError):
        nu2(0)


def test_nu2_additive():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(1, 1 << 20)
        b = rng.randrange(1, 1 << 20)
        assert nu2(a * b) == nu2(a) + nu2(b)


def test_infinity_ordering():
    assert NU_INFINITY > 10 ** 9
    assert min(3, NU_INFINITY, key=lambda x: (x is NU_INFINITY, x)) == 3
    assert NU_INFINITY + 5 == NU_INFINITY


def test_odd_prime_power_validation():
    for bad in (1, 2, 4, 15, 21):
        assert odd_prime_base(bad) is None


def test_s_q_values():
    assert s_q(5, 0) == 2
    assert s_q(3, 0) == 1
    assert s_q(3, 3) == 4
    assert s_q(9, 1) == 4  # nu2(80) + nu2(2) - 1
    assert s_q(7, 1) == nu2(48) + 1 - 1


def test_s_q_positive():
    for q in (3, 5, 7, 9, 13, 17):
        for i in range(64):
            assert s_q(q, i) >= 1


def test_a_q_small():
    assert a_q(1) == 1
    assert a_q(2) == 3
    assert a_q(4) == 4


def test_a_q_even_identity():
    for k in range(1, 1025):
        assert a_q(2 * k) == nu2(k) + 3


def test_a_q_odd_is_one():
    for c in range(1, 101, 2):
        assert a_q(c) == 1


def test_bernoulli_values():
    assert bernoulli_even(1) == Fraction(1, 6)
    assert bernoulli_even(2) == Fraction(-1, 30)
    assert bernoulli_even(3) == Fraction(1, 42)
    assert bernoulli_even(5) == Fraction(5, 66)


def test_bernoulli_denom_two_part():
    assert bernoulli_denom_two_part(1) == 8
    assert bernoulli_denom_two_part(2) == 16
    assert bernoulli_denom_two_part(3) == 8


def test_von_staudt_clausen_matches_exact_recurrence():
    for k in range(1, 40):
        assert bernoulli_even(k).denominator == von_staudt_clausen_denom(k)


def test_bernoulli_two_part_identity():
    # exact recurrence path for modest k, von Staudt-Clausen path beyond
    for k in range(1, 65):
        assert bernoulli_denom_two_part(k) == 2 ** (nu2(k) + 3)
        assert bernoulli_denom_two_part(k) == bernoulli_denom_two_part_vsc(k)
    for k in range(65, 1025):
        assert bernoulli_denom_two_part_vsc(k) == 2 ** (nu2(k) + 3)
