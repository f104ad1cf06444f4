import time
from types import MappingProxyType

import pytest

from esss import fields
from esss.coefficients import mod2_stem_units
from esss.fields import (ALG_CLOSED, Q2, REALS, FieldId, Fq, Q, Qq, parse_field,
                         rho_power_times)
from reference import hilbert_symbol_bit, rho_table_mismatches


def test_large_prime_powers_validate_in_under_a_second():
    """Trial division stops at the square root, for prime powers and for the
    primes of Q_q alike; the refusals keep their messages."""
    start = time.perf_counter()
    assert Fq(1000000007).q == 1000000007 and Fq(3 ** 19).q == 3 ** 19
    assert Qq(1000000007).q == 1000000007
    assert time.perf_counter() - start < 1.0
    for bad in (1, 2, 15, 105):
        with pytest.raises(ValueError, match=f"^{bad} is not an odd prime power >= 3$"):
            Fq(bad)
    with pytest.raises(ValueError, match="^Q_q requires an odd prime, got 9$"):
        Qq(9)


def test_validation():
    assert Fq(9).x_symbol == "u"
    assert Fq(7).x_symbol == "rho"
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
                             ("qq", 9, None), ("q", None, (2, 9)), ("q", None, (2, -3)),
                             ("q", None, (1, 2)), ("q", 5, (2, 3)), ("fq", 3, (2, 5)),
                             ("qq", 5, (2, 5)), ("fq", None, None), ("qq", None, None)]:
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


def test_parse_field_passes_q_and_support_through():
    """A q or a support set on a kind that takes none is an error, not
    silently dropped."""
    for name, q, support in [("r", 5, None), ("c", 3, None), ("q2", None, (2, 3)),
                             ("fq", 3, (2, 5)), ("q", 7, None), ("q", None, (2, 9))]:
        with pytest.raises(ValueError):
            parse_field(name, q=q, support=support)
    assert parse_field("Fbar") == ALG_CLOSED and parse_field("q") == Q((2, 3, 5, 7))


def test_rho_times_q2():
    assert rho_power_times(Q2, (), 1) == [(("rho", 1),)]
    assert rho_power_times(Q2, (("rho", 1),), 1) == [(("rho", 2),)]
    assert rho_power_times(Q2, (("rho", 2),), 1) == []
    assert rho_power_times(Q2, (("u", 1),), 1) == []
    assert rho_power_times(Q2, (("pi", 1),), 1) == []


def test_rho_times_fq_residues():
    assert rho_power_times(Fq(5), (), 1) == []
    assert rho_power_times(Fq(3), (), 1) == [(("rho", 1),)]
    assert rho_power_times(Fq(3), (("rho", 1),), 1) == []


def test_rho_times_rationals():
    field = Q((2, 3, 5))
    assert rho_power_times(field, (("rho", 2),), 1) == [(("rho", 3),)]
    # [3] rho = a_3 under the dyadic normalization of a_p; a_p rho = 0
    assert rho_power_times(field, (("[3]", 1),), 1) == [(("a_3", 1),)]
    assert rho_power_times(field, (("[5]", 1),), 1) == []
    assert rho_power_times(field, (("a_3", 1),), 1) == []
    assert rho_power_times(field, (("[2]", 1),), 1) == []
    assert rho_power_times(field, (("[3]", 1),), 2) == []


def test_rho_power_times_reals():
    assert rho_power_times(REALS, (("rho", 1),), 4) == [(("rho", 5),)]


SYMBOL_FIELDS = [ALG_CLOSED, Fq(3), Fq(5), Fq(7), Fq(9), Qq(3), Qq(5), Qq(7), Qq(11), Q2,
                 REALS, Q((2,)), Q((2, 3, 5, 7)), Q((2, 11, 13))]


def test_rho_products_agree_with_hilbert_symbols():
    """Every stem basis and rho product of the presentations, stems 2..-12,
    against the products computed from local symbols."""
    for field in SYMBOL_FIELDS:
        assert rho_table_mismatches(field) == [], field
        assert not mod2_stem_units(field, 1) and not mod2_stem_units(field, 2)
    # the K2 bases the reference reads off: rho^2 at the real and dyadic
    # places, rho^2 = u pi over Q2, and x pi != 0 over Q_p
    assert [hilbert_symbol_bit(-1, -1, v) for v in (0, 2, 3, 5)] == [1, 1, 0, 0]
    assert hilbert_symbol_bit(5, 2, 2) == 1
    assert hilbert_symbol_bit(-1, 7, 7) == hilbert_symbol_bit(2, 5, 5) == 1


def test_hilbert_comparison_catches_a_dropped_rho_entry(monkeypatch):
    field = Q((2, 3, 7))
    assert rho_table_mismatches(field) == []
    pres = fields.presentation(field)
    rho = MappingProxyType({w: v for w, v in pres.rho.items() if w != (("[7]", 1),)})
    monkeypatch.setattr(fields, "presentation", lambda f: pres._replace(rho=rho))
    assert rho_table_mismatches(field) == [((("[7]", 1),), [(("a_7", 1),)], [])]


def test_presentations_are_shared_and_read_only():
    pres = fields.presentation(Q((2, 3)))
    assert fields.presentation(Q((3, 2))) is pres
    with pytest.raises(TypeError):
        pres.rho[()] = ()
    assert pres.alphabet == {"rho", "[2]", "[3]", "a_3", "pi"}
