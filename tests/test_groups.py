"""Semantics of the value records: validation, hashing, order, names."""
from itertools import permutations

import pytest

from esss.engine import PageWindow, build_page1
from esss.fields import ALG_CLOSED, Q2
from esss.groups import ONE, CyclicSummand, Generator, Monomial, TriDegree


def test_monomial_validation():
    with pytest.raises(AssertionError):
        Monomial(v1=1)
    with pytest.raises(AssertionError):
        Monomial(units=(("u", 1), ("pi", 1)))  # not sorted
    with pytest.raises(AssertionError):
        Monomial(units=[("rho", 1)])  # a word is a tuple
    assert Monomial(units=(("pi", 1), ("u", 1))).units == (("pi", 1), ("u", 1))


def test_cyclic_summand_validation():
    gen = Generator.of(Monomial(h1=1))
    deg = gen.degree()
    with pytest.raises(AssertionError):
        CyclicSummand(1, gen, deg)
    with pytest.raises(AssertionError):
        CyclicSummand(6, gen, deg)
    assert CyclicSummand(0, gen, deg).order_text() == "Z"
    assert CyclicSummand(8, gen, deg).order_text() == "Z/8"


def test_equal_records_hash_equal_and_key_dicts():
    a = CyclicSummand(2, Generator.of(Monomial(h1=1, tau=2)), TriDegree(1, 1, -1))
    b = CyclicSummand(2, Generator.of(Monomial(h1=1)._replace(tau=2)), TriDegree(1, 1, -1))
    assert a == b and hash(a) == hash(b)
    assert Monomial(coeff2=3).with_coeff2(0) == ONE
    assert hash(Monomial(coeff2=3).with_coeff2(0)) == hash(ONE)
    table = {a: "x", TriDegree(0, 0, 0): "y", Generator(): "z"}
    assert table[b] == "x"
    assert table[TriDegree(0, 0, 0)] == "y"
    assert table[Generator.of(ONE)] == "z"
    assert a != CyclicSummand(4, a.gen, a.degree)


def test_records_carry_no_instance_dict():
    mono = Monomial(h1=1)
    gen = Generator.of(mono)
    for rec in (TriDegree(0, 0, 0), mono, gen, CyclicSummand(2, gen, mono.degree())):
        assert not hasattr(rec, "__dict__")


def test_tridegree_order_and_repr():
    degs = [TriDegree(1, 0, 0), TriDegree(0, 2, 1), TriDegree(0, 2, -1), TriDegree(0, 1, 5)]
    assert sorted(degs) == [TriDegree(0, 1, 5), TriDegree(0, 2, -1),
                            TriDegree(0, 2, 1), TriDegree(1, 0, 0)]
    assert repr(TriDegree(3, -1, 2)) == "TriDegree(s=3, f=-1, w=2)"
    assert TriDegree(1, 2, 3) + TriDegree(0, 1, -1) == TriDegree(1, 3, 2)


def test_generator_of_term_order():
    a = Monomial(h1=1)
    b = Monomial(v1=2)
    c = Monomial(iota=1)
    d = Monomial(units=(("rho", 1),))
    assert Generator.of(d) == (d,)
    assert Generator.of(b, a) == (a, b)
    assert Generator.of(a, b) == (a, b)
    for order in permutations((a, c, d)):
        assert Generator.of(*order) == (a, d, c)
    assert Generator.of(c, a).text() == "h1 + iota"
    assert repr(Generator.of(a)) == "<h1>"
    assert repr(CyclicSummand(2, Generator.of(a), a.degree())) == "Z/2{h1}"


def test_generator_is_the_tuple_of_its_terms():
    a, b = Monomial(h1=1), Monomial(iota=1)
    one, single, pair = Generator(), Generator.of(a), Generator.of(b, a)
    assert one == (ONE,) and one.lead is ONE and one.text() == "1"
    assert single == (a,) and single.lead is a
    assert pair == (a, b) and pair.lead is a and len(pair) == 2
    assert pair.text() == "h1 + iota" and repr(pair) == "<h1 + iota>"
    assert single.is_single() and not pair.is_single() and single.degree() == a.degree()
    assert sorted([pair, single, one], key=Generator.sort_key) == [one, single, pair]
    with pytest.raises(ValueError, match="inhomogeneous"):
        pair.degree()


@pytest.mark.parametrize("field,spectrum", [(ALG_CLOSED, "kq"), (Q2, "L")])
def test_page1_diff_is_dense_int_rows(field, spectrum):
    page = build_page1(field, spectrum, PageWindow(0, 6, 0, 6, -2, 2))
    diffs = [dd.diff for dd in page.data.values() if dd.diff]
    assert diffs
    for M in diffs:
        assert type(M) is list
        for row in M:
            assert type(row) is list
            assert all(type(v) is int for v in row)
