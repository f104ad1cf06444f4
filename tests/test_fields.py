import pytest

from esss.fields import (ALG_CLOSED, Q2, REALS, FieldId, Fq, Q, Qq, parse_field,
                         rho_power_times, rho_times)


def test_validation():
    assert Fq(9).residue == 1
    assert Fq(7).residue == 3
    with pytest.raises(ValueError):
        Fq(15)
    with pytest.raises(ValueError):
        Qq(9)  # completions at primes only
    with pytest.raises(ValueError):
        Q((3, 5))  # 2 must be in the support
    assert Q((5, 2, 3)).support == (2, 3, 5)


def test_invalid_field_ids():
    for kind, q, support in [("x", None, None), ("c", 3, None), ("r", None, (2,)),
                             ("q2", 5, None), ("q", None, None), ("q", None, ()),
                             ("q", None, (3, 5)), ("fq", 15, None), ("fq", 1, None),
                             ("qq", 9, None)]:
        with pytest.raises(ValueError):
            FieldId(kind, q=q, support=support)


def test_q_support_is_normalized():
    field = Q((7, 2, 3, 7, 2))
    assert field.support == (2, 3, 7)
    assert field == Q((2, 3, 7)) and hash(field) == hash(Q((3, 7, 2)))
    assert {field: 1}[FieldId("q", support=[3, 2, 7])] == 1
    assert repr(field) == "Q(2,3,7)"
    assert repr(Fq(5)) == "F5" and Fq(5) == FieldId("fq", q=5)


def test_parse_field():
    assert parse_field("c") == ALG_CLOSED
    assert parse_field("fq", q=5) == Fq(5)
    assert parse_field("q", support=(2, 3)) == Q((2, 3))
    with pytest.raises(ValueError):
        parse_field("fq")


def test_rho_times_q2():
    assert rho_times(Q2, ()) == [(("rho", 1),)]
    assert rho_times(Q2, (("rho", 1),)) == [(("rho", 2),)]
    assert rho_times(Q2, (("rho", 2),)) == []
    assert rho_times(Q2, (("u", 1),)) == []
    assert rho_times(Q2, (("pi", 1),)) == []


def test_rho_times_fq_residues():
    assert rho_times(Fq(5), ()) == []
    assert rho_times(Fq(3), ()) == [(("rho", 1),)]
    assert rho_times(Fq(3), (("rho", 1),)) == []


def test_rho_times_rationals():
    field = Q((2, 3, 5))
    assert rho_times(field, (("rho", 2),)) == [(("rho", 3),)]
    # [3] rho = a_3 under the dyadic normalization of a_p; a_p rho = 0
    assert rho_times(field, (("[3]", 1),)) == [(("a_3", 1),)]
    assert rho_times(field, (("[5]", 1),)) == []
    assert rho_times(field, (("a_3", 1),)) == []
    assert rho_times(field, (("[2]", 1),)) == []
    assert rho_power_times(field, (("[3]", 1),), 2) == []


def test_rho_power_times_reals():
    assert rho_power_times(REALS, (("rho", 1),), 4) == [(("rho", 5),)]
